"""Object-lifetime bounds — the memory-management extension sketched in
the paper's future work (Chapter 8):

    "The properties checked by the current analysis imply that all
    objects allocated in the main event loop are eventually not accessed
    in the future.  A simple analysis of the lattice can produce symbolic
    bounds on the lifetime of such objects."

The reasoning: a value stored at location L is overwritten (eviction)
every iteration, and values only descend the lattice, so data written
through an allocation reachable only below L is dead once everything at
or below L has turned over — at most the number of lattice levels at or
below L.  For an object allocated in the loop and stored at L, that
yields the bound

    lifetime(alloc) ≤ depth-below(L) + 1   event-loop iterations,

where depth-below(L) is the longest chain from L down to ⊥ through
*user* locations.  Allocations never stored into the heap die at the end
of their iteration (bound 1).

The result enables arena-style reclamation: a runtime can recycle an
iteration-``k`` allocation at iteration ``k + bound`` without a garbage
collector inside the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import composite as cl
from repro.core.environment import LocationWorld, MethodLocEnv
from repro.core.errors import DiagnosticSink
from repro.lang import ast
from repro.lang.callgraph import MethodKey, build_call_graph
from repro.lang.symtab import ProgramInfo


@dataclass(frozen=True)
class AllocationBound:
    """Lifetime bound for one allocation site."""

    method: MethodKey
    node: ast.Expr
    description: str
    #: destination location the allocation is stored at (None: never
    #: escapes the expression/local scope)
    location: Optional[str]
    #: upper bound on the allocation's lifetime in event-loop iterations
    iterations: int

    @property
    def line(self) -> int:
        return self.node.line


class LifetimeAnalysis:
    """Bounds the lifetime of every allocation in the checked scope."""

    def __init__(
        self, info: ProgramInfo, world: Optional[LocationWorld] = None
    ) -> None:
        self.info = info
        self.world = world or LocationWorld(info, DiagnosticSink())
        self.call_graph = build_call_graph(info)

    def scope(self) -> set[MethodKey]:
        loop = self.info.event_loop
        if loop is None:
            return set()
        return {
            key
            for key in self.call_graph.reachable_from(
                (loop.class_name, loop.method.name)
            )
            if (env := self.world.env_of(*key)) is not None and not env.trusted
        }

    def run(self) -> list[AllocationBound]:
        bounds: list[AllocationBound] = []
        for key in sorted(self.scope()):
            cls = self.info.classes.get(key[0])
            method = cls.method_named(key[1]) if cls else None
            env = self.world.env_of(*key)
            if method is None or env is None:
                continue
            collector = _AllocationCollector(self, key, env)
            collector.collect(method.body)
            bounds.extend(collector.bounds)
        return bounds

    def depth_below(self, loc: cl.Loc) -> int:
        """Longest chain of user locations at or below ``loc``."""
        if isinstance(loc, cl.TopLocType):
            # stored at ⊤: loop-invariant storage — unbounded (should not
            # happen for loop allocations in a checked program)
            return _unbounded()
        if isinstance(loc, cl.BotLocType):
            return 1
        lattice = loc.last_lattice
        element = loc.last_element
        elements = sorted(lattice.user_elements() | {element})
        depth: dict[str, int] = {}

        def chain(node: str) -> int:
            if node in depth:
                return depth[node]
            depth[node] = 1  # placeholder guards against cycles
            below = [
                other
                for other in elements
                if other != node and lattice.lt(other, node)
            ]
            depth[node] = 1 + max((chain(b) for b in below), default=0)
            return depth[node]

        return chain(element)


def _unbounded() -> int:
    return 10**9


class _AllocationCollector:
    def __init__(
        self, analysis: LifetimeAnalysis, key: MethodKey, env: MethodLocEnv
    ) -> None:
        self.analysis = analysis
        self.key = key
        self.env = env
        self.world = analysis.world
        self.bounds: list[AllocationBound] = []

    # The collector only needs destinations of allocations; it walks
    # statements and inspects initializers/assignment values.

    def collect(self, body: ast.Block) -> None:
        for stmt in ast.walk_stmts(body):
            if isinstance(stmt, ast.VarDecl):
                if isinstance(stmt.init, (ast.New, ast.NewArray)):
                    loc = self.world.var_location(self.env, stmt.name)
                    self._record(stmt.init, loc, f"local {stmt.name!r}")
            elif isinstance(stmt, ast.Assign):
                if isinstance(stmt.value, (ast.New, ast.NewArray)):
                    self._record_assign(stmt)

    def _record_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.VarRef):
            loc = self.world.var_location(self.env, target.name)
            self._record(stmt.value, loc, f"local {target.name!r}")
        elif isinstance(target, ast.FieldAccess):
            resolved = self.analysis.info.field_refs.get(target.uid)
            field_name = target.field_name
            if resolved is not None:
                owner = resolved[0]
                element = self.world.field_element(owner, field_name)
                if element is not None:
                    lattice = self.world.field_lattice(owner)
                    loc = cl.CompositeLocation((element,), (lattice,))
                    self._record(stmt.value, loc, f"field {field_name!r}")
                    return
            self._record(stmt.value, None, f"field {field_name!r}")

    def _record(
        self, alloc: ast.Expr, loc: Optional[cl.Loc], what: str
    ) -> None:
        if loc is None:
            # never escapes to an annotated location: dies with its
            # iteration (or method activation)
            self.bounds.append(
                AllocationBound(
                    method=self.key,
                    node=alloc,
                    description=f"{what}: not heap-reachable after the "
                    "iteration",
                    location=None,
                    iterations=1,
                )
            )
            return
        depth = self.analysis.depth_below(loc)
        self.bounds.append(
            AllocationBound(
                method=self.key,
                node=alloc,
                description=f"stored at {loc} via {what}",
                location=str(loc),
                iterations=depth + 1,
            )
        )


def lifetime_bounds(info: ProgramInfo) -> list[AllocationBound]:
    """Convenience wrapper: lifetime bounds for every allocation in the
    event-loop scope of ``info``."""
    return LifetimeAnalysis(info).run()
