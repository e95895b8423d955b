"""Superfluous-cycle avoidance (Section 5.2.2).

A method-level node (local variable or intermediate) that both *receives
from* and *feeds into* nodes rooted at the same reference (``this``, a
parameter, or a reference-typed local) would, after decomposition, force
the method hierarchy to order the root both above and below the node — a
cycle that exists only because the default location assignment was too
coarse.  The fix is the paper's: reassign the node a composite location
rooted at that reference (``⟨THIS, FRESH⟩`` in the running example) so
its flows land in the *field* hierarchy instead.

The pass iterates to a fixed point: renaming one node can expose the
same pattern on another.
"""

from __future__ import annotations

from typing import Optional

from repro.infer.value_flow import (
    FlowNode,
    MethodFlowGraph,
    PC_ROOT,
    RET_ROOT,
)

#: Roots that may be renamed: locals and intermediates.  Parameters,
#: ``this``, PC and RET are interface members with fixed method-level
#: locations.
_RENAMEABLE_KINDS = ("var", "iloc")


def avoid_superfluous_cycles(graph: MethodFlowGraph) -> dict[str, FlowNode]:
    """Rename method-level nodes that would create superfluous cycles.

    Returns the mapping from renamed root names to their new prefixes
    (root, fresh-element); the graph is rewritten in place and the fresh
    elements registered in ``graph.fresh_elements``.
    """
    renamed: dict[str, FlowNode] = {}
    for _ in range(len(graph.roots) + 1):
        candidate = _find_candidate(graph)
        if candidate is None:
            break
        root, anchor = candidate
        info = graph.roots[root]
        if root.startswith("IL"):
            fresh = root  # intermediates are already method-qualified
        else:
            fresh = f"L{root}_{graph.key[1]}"
        anchor_class = _root_class(graph, anchor)
        if anchor_class is not None:
            graph.fresh_elements[fresh] = anchor_class
        if info.class_name is not None:
            graph.fresh_value_class[fresh] = info.class_name
        new_prefix: FlowNode = (anchor, fresh)
        graph.rename_root(root, new_prefix)
        renamed[root] = new_prefix
        info.kind = "renamed"
    return renamed


def _root_class(graph: MethodFlowGraph, root: str) -> Optional[str]:
    info = graph.roots.get(root)
    return info.class_name if info is not None else None


def _find_candidate(graph: MethodFlowGraph) -> Optional[tuple[str, str]]:
    """A (renameable root, anchor root) pair where the renameable node is
    on a root-level cycle through the anchor's rooted nodes."""
    succ: dict[FlowNode, list[FlowNode]] = {}
    pred: dict[FlowNode, list[FlowNode]] = {}
    for a, b in graph.edges:
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)

    def reachable_roots(start: list[FlowNode], links) -> set[str]:
        """The roots of every node reachable from ``start`` along
        ``links``, ``start`` included."""
        seen = set(start)
        stack = list(start)
        while stack:
            for node in links.get(stack.pop(), ()):
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        return {node[0] for node in seen}

    for root in sorted(graph.roots):
        info = graph.roots[root]
        if info.kind not in _RENAMEABLE_KINDS:
            continue
        rooted = [n for n in graph.nodes if n[0] == root]
        if not rooted:
            continue
        forward = reachable_roots(rooted, succ) - {root, PC_ROOT, RET_ROOT}
        if not forward:
            continue
        # The roots that reach a rooted node: one walk back along the
        # edges.  ``add_edge`` puts both endpoints in ``graph.nodes``, so
        # every node it meets is a graph node.
        backward = reachable_roots(rooted, pred) - {root, PC_ROOT}
        anchors = sorted(
            anchor
            for anchor in forward & backward
            if _is_object_root(graph, anchor)
        )
        if anchors:
            # The paper notes the anchor choice can matter when several
            # objects participate; like the implementation it describes,
            # pick deterministically (first in order).
            return root, anchors[0]
    return None


def _is_object_root(graph: MethodFlowGraph, root: str) -> bool:
    info = graph.roots.get(root)
    if info is None:
        return False
    return info.kind in ("this", "param", "var") and info.class_name is not None
