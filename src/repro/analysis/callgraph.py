"""Deterministic call graph over project-wide function summaries.

Nodes are fully qualified function names (``repro.sim.guard.guarded_simulate``,
``repro.sim.executor.SimExecutor.circuit_break``); edges are the statically
resolved call sites collected by :mod:`repro.analysis.project`.  Every
traversal is deterministic: adjacency lists are sorted at build time and
breadth-first search visits neighbours in sorted order, so findings derived
from the graph are byte-identical across runs.

The graph is *bounded* by construction — traversals carry an explicit
``max_depth`` and a visited set, so mutual recursion and call cycles
terminate without special-casing.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default traversal bound: deep enough to cross every realistic module
#: chain in this codebase, small enough that a pathological fan-out stays
#: cheap.  Cycles are handled by the visited set, not the bound.
DEFAULT_MAX_DEPTH = 16


@dataclass(frozen=True)
class Reach:
    """One function reached during a traversal.

    Attributes:
        qualname: The reached function's fully qualified name.
        depth: Call-edge distance from the traversal root (root = 0).
        path: Qualified names from the root to this function, inclusive.
    """

    qualname: str
    depth: int
    path: tuple[str, ...]

    def via(self) -> str:
        """Human-readable call chain (empty for the root itself)."""
        return " -> ".join(self.path)


class CallGraph:
    """An immutable-after-build, deterministically ordered call graph."""

    def __init__(self) -> None:
        self._edges: dict[str, list[str]] = {}

    def add_edge(self, caller: str, callee: str) -> None:
        """Record one resolved call edge (duplicates collapse)."""
        targets = self._edges.setdefault(caller, [])
        if callee not in targets:
            targets.append(callee)

    def seal(self) -> None:
        """Sort every adjacency list; call once after all edges are added."""
        for targets in self._edges.values():
            targets.sort()

    def callees(self, qualname: str) -> tuple[str, ...]:
        """Direct callees of ``qualname`` (sorted after :meth:`seal`)."""
        return tuple(self._edges.get(qualname, ()))

    def reachable(
        self,
        roots: tuple[str, ...] | list[str],
        max_depth: int = DEFAULT_MAX_DEPTH,
        include_roots: bool = True,
    ) -> dict[str, Reach]:
        """All functions reachable from ``roots`` within ``max_depth`` edges.

        Deterministic BFS: roots are processed in sorted order and each
        adjacency list is visited in sorted order, so the first discovery
        (and therefore the recorded path) of every node is stable.  A node
        reachable along several paths keeps its shortest, lexically first
        discovery.
        """
        reached: dict[str, Reach] = {}
        frontier: list[Reach] = []
        for root in sorted(set(roots)):
            reach = Reach(qualname=root, depth=0, path=(root,))
            reached[root] = reach
            frontier.append(reach)
        while frontier:
            next_frontier: list[Reach] = []
            for current in frontier:
                if current.depth >= max_depth:
                    continue
                for callee in self.callees(current.qualname):
                    if callee in reached:
                        continue
                    reach = Reach(
                        qualname=callee,
                        depth=current.depth + 1,
                        path=(*current.path, callee),
                    )
                    reached[callee] = reach
                    next_frontier.append(reach)
            frontier = next_frontier
        if not include_roots:
            for root in sorted(set(roots)):
                reached.pop(root, None)
        return reached

    def tainted_closure(
        self,
        sources: dict[str, str],
        edges_filter: "dict[tuple[str, str], bool] | None" = None,
        max_rounds: int = DEFAULT_MAX_DEPTH,
    ) -> dict[str, tuple[str, ...]]:
        """Propagate taint from ``sources`` backwards through call edges.

        Args:
            sources: Directly tainted function -> human-readable reason.
            edges_filter: Optional ``(caller, callee) -> bool`` map; an edge
                absent from the map (or mapped to False) does not propagate
                taint.  Used to restrict propagation to call sites whose
                return value is actually consumed.
            max_rounds: Fixpoint iteration bound (cycle safety net).

        Returns:
            Tainted function -> taint path (function names from the
            function itself down to the directly tainted source).
        """
        callers: dict[str, list[str]] = {}
        for caller, targets in self._edges.items():
            for callee in targets:
                callers.setdefault(callee, []).append(caller)
        for sites in callers.values():
            sites.sort()

        tainted: dict[str, tuple[str, ...]] = {
            name: (name,) for name in sorted(sources)
        }
        frontier = sorted(sources)
        for _ in range(max_rounds):
            next_frontier: list[str] = []
            for callee in frontier:
                for caller in callers.get(callee, ()):
                    if caller in tainted:
                        continue
                    if edges_filter is not None and not edges_filter.get(
                        (caller, callee), False
                    ):
                        continue
                    tainted[caller] = (caller, *tainted[callee])
                    next_frontier.append(caller)
            if not next_frontier:
                break
            frontier = sorted(next_frontier)
        return tainted
