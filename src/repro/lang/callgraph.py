"""Call graph construction over resolved programs.

Used to determine the checked scope (everything callable from the main
event loop), to order interprocedural analyses, and to detect recursion
(prohibited by the termination analysis, Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.lang.symtab import ProgramInfo

MethodKey = tuple[str, str]  # (class name, method name)


@dataclass
class CallGraph:
    #: edges[caller] = set of callees (dynamic dispatch expanded)
    edges: dict[MethodKey, set[MethodKey]] = field(default_factory=dict)

    def callees(self, caller: MethodKey) -> set[MethodKey]:
        return self.edges.get(caller, set())

    def reachable_from(self, start: MethodKey) -> set[MethodKey]:
        seen: set[MethodKey] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.edges.get(node, ()))
        return seen

    def find_recursive_cycle(
        self, scope: Optional[set[MethodKey]] = None
    ) -> Optional[list[MethodKey]]:
        """Return one recursive call chain within ``scope``, or None."""
        state: dict[MethodKey, int] = {}

        def visit(node: MethodKey, stack: list[MethodKey]) -> Optional[list[MethodKey]]:
            mark = state.get(node, 0)
            if mark == 1:
                return stack[stack.index(node):] + [node]
            if mark == 2:
                return None
            state[node] = 1
            stack.append(node)
            for callee in sorted(self.edges.get(node, ())):
                if scope is not None and callee not in scope:
                    continue
                cycle = visit(callee, stack)
                if cycle is not None:
                    return cycle
            stack.pop()
            state[node] = 2
            return None

        nodes = sorted(scope) if scope is not None else sorted(self.edges)
        for node in nodes:
            cycle = visit(node, [])
            if cycle is not None:
                return cycle
        return None

    def topological_order(self, scope: set[MethodKey]) -> list[MethodKey]:
        """Callees before callers (valid only when recursion-free)."""
        order: list[MethodKey] = []
        seen: set[MethodKey] = set()

        def visit(node: MethodKey) -> None:
            if node in seen:
                return
            seen.add(node)
            for callee in sorted(self.edges.get(node, ())):
                if callee in scope:
                    visit(callee)
            order.append(node)

        for node in sorted(scope):
            visit(node)
        return order


def build_call_graph(info: ProgramInfo) -> CallGraph:
    """Build the program call graph from the calls the type checker
    recorded (``info.method_calls``), with dynamic dispatch expanded: a
    call whose static receiver type is C may reach the override in any
    subclass of C."""
    graph = CallGraph()
    for cls in info.program.classes:
        for method in cls.methods:
            caller: MethodKey = (cls.name, method.name)
            callees = graph.edges.setdefault(caller, set())
            for call in info.method_calls.get(caller, ()):
                for owner, decl in info.overriding_decls(
                    call.receiver_class, call.decl.name
                ):
                    callees.add((owner, decl.name))
    return graph
