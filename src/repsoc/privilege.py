"""Privileged orderings, privilege graphs, condensation, and acyclic synthesis.

An ordering over a subset of an issue's outcomes is privileged when every
candidate profile that can be re-sorted into agreement with it (by permuting
only that subset, only on that issue) stays inside the candidate space.
:func:`is_privileged` decides this as a closure test: one re-sort and one
membership lookup per member, with no limit on the outcome count.  The test
runs on a member table of plain tuples, ``(rest, ranking)`` per member: its
ranking on the issue and its rankings on the other issues of the issue's
block.  Re-sorted twins are probed as tuples, so no order or profile is
built, and :func:`build_privilege_graph` builds the table once per issue for
all of its n(n-1) pair checks.  The
privilege graph collects the binary privileged orderings of one issue; its
strongly connected components drive both the cyclicity test and the
constructive synthesis of candidate spaces from acyclic graphs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Mapping

from .errors import CyclicityError, InvalidArgumentError
from .orders import LinearOrder, PartialOrder, Profile
from .population import IssueSpace
from .spaces import CandidateSpace

__all__ = [
    "PrivilegeGraph",
    "Condensation",
    "IssuePlan",
    "AcyclicPlan",
    "is_privileged",
    "build_privilege_graph",
    "scc_condensation",
    "is_cyclically_privileged",
    "check_path_privilege",
    "synthesize_acyclic",
    "to_dot",
]

@dataclass(frozen=True)
class PrivilegeGraph:
    """Digraph over one issue's outcomes; edge (u, v) means u>v is privileged."""

    issue: object
    n: int
    edges: frozenset

    def __post_init__(self):
        edges = frozenset((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if u == v:
                raise InvalidArgumentError("privilege graph has no self-loops")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidArgumentError(f"edge ({u},{v}) out of range for n={self.n}")

    def successors(self, u: int) -> set:
        return {v for (a, v) in self.edges if a == u}

    def is_transitive(self) -> bool:
        return all(
            (u, w) in self.edges
            for (u, v) in self.edges
            for (vv, w) in self.edges
            if v == vv and u != w
        )

    def edge_list(self) -> str:
        return "\n".join(f"{u} {v}" for u, v in sorted(self.edges))


@dataclass(frozen=True)
class Condensation:
    """SCC partition of a privilege graph plus its DAG and a topological order."""

    scc_members: tuple  # tuple of sorted member tuples, ordered by smallest member
    dag_edges: frozenset  # edges between SCC indices
    topo_order: tuple  # SCC indices, deterministic


def _member_table(space: CandidateSpace, issue) -> set:
    """The members that matter for ``issue``, as ``(rest, ranking)`` tuples.

    ``ranking`` is a member's ranking tuple on ``issue`` and ``rest`` holds
    its rankings on the other issues of ``issue``'s block (every issue, for
    an explicit space).  Only existing rankings are read, so no order or
    profile is built.
    """
    issues, members = space.block_of(issue)
    others = [j for j in issues if j != issue]
    return {
        (tuple(member(j).ranking for j in others), member(issue).ranking)
        for member in members
    }


def _closed(table: set, subset: tuple) -> bool:
    """True iff re-sorting ``subset``'s outcomes into its order, in the rank
    slots they hold, maps every key of ``table`` to a key of ``table``."""
    for rest, ranking in table:
        slots = list(map(ranking.index, subset))
        ordered = sorted(slots)
        if slots != ordered:  # a key that already agrees with subset is its own twin
            twin = list(ranking)
            for slot, outcome in zip(ordered, subset):
                twin[slot] = outcome
            if (rest, tuple(twin)) not in table:
                return False
    return True


def is_privileged(space: CandidateSpace, issue, o: PartialOrder) -> bool:
    """Exact privileged-ordering verdict by a closure test.

    Permuting only ``o``'s outcomes on ``issue`` moves a member within an
    orbit that holds exactly one completion of ``o``: the member with those
    outcomes re-sorted into ``o``'s order, in the rank slots they occupy.
    So ``o`` is privileged iff every member's re-sorted twin is a member.
    The test runs on the member table of :func:`_member_table`, one
    ``(rest, ranking)`` tuple per member, and costs one set lookup per
    member that disagrees with ``o``.  For a product space only the block
    holding ``issue`` matters, since the other blocks are untouched.
    """
    n = space.issue_space.n
    if issue not in space.issue_space:
        raise InvalidArgumentError(f"unknown issue {issue!r}")
    if len(o) < 2:
        raise InvalidArgumentError("a privileged-ordering candidate needs >= 2 outcomes")
    if o.n != n:
        raise InvalidArgumentError(f"partial order over n={o.n}, space has n={n}")
    if space.variant == "full":
        return True
    return _closed(_member_table(space, issue), o.subset)


def build_privilege_graph(space: CandidateSpace, issue) -> PrivilegeGraph:
    """Edge (u, v) present iff the binary ordering u>v is privileged.

    The member table is built once and every ordered pair is tested on it.
    """
    n = space.issue_space.n
    if issue not in space.issue_space:
        raise InvalidArgumentError(f"unknown issue {issue!r}")
    pairs = itertools.permutations(range(n), 2)
    if space.variant != "full":
        table = _member_table(space, issue)
        pairs = (pair for pair in pairs if _closed(table, pair))
    return PrivilegeGraph(issue=issue, n=n, edges=frozenset(pairs))


def _reachable(graph: PrivilegeGraph) -> list:
    """reach[u] = set of vertices reachable from u via >= 1 edge."""
    succ = {u: graph.successors(u) for u in range(graph.n)}
    reach = []
    for start in range(graph.n):
        seen: set = set()
        stack = list(succ[start])
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(succ[v] - seen)
        reach.append(seen)
    return reach


def scc_condensation(graph: PrivilegeGraph) -> Condensation:
    """SCC partition with a deterministic (smallest-member ascending) topo order."""
    reach = _reachable(graph)
    assigned = {}
    members = []
    for u in range(graph.n):
        if u in assigned:
            continue
        scc = [u] + [v for v in range(u + 1, graph.n) if u in reach[v] and v in reach[u]]
        idx = len(members)
        members.append(tuple(scc))
        for v in scc:
            assigned[v] = idx
    dag_edges = frozenset(
        (assigned[u], assigned[v]) for u, v in graph.edges if assigned[u] != assigned[v]
    )
    # Kahn's algorithm with a min-heap keyed by smallest member
    indegree = {i: 0 for i in range(len(members))}
    for _, b in dag_edges:
        indegree[b] += 1
    heap = [(members[i][0], i) for i in range(len(members)) if indegree[i] == 0]
    heapq.heapify(heap)
    topo = []
    while heap:
        _, i = heapq.heappop(heap)
        topo.append(i)
        for a, b in dag_edges:
            if a == i:
                indegree[b] -= 1
                if indegree[b] == 0:
                    heapq.heappush(heap, (members[b][0], b))
    return Condensation(
        scc_members=tuple(members), dag_edges=dag_edges, topo_order=tuple(topo)
    )


def is_cyclically_privileged(graph: PrivilegeGraph) -> bool:
    """True iff some SCC has 3 or more outcomes (2-cycles alone don't count)."""
    cond = scc_condensation(graph)
    return any(len(scc) >= 3 for scc in cond.scc_members)


def check_path_privilege(graph: PrivilegeGraph, o: PartialOrder) -> bool:
    """Path heuristic: consecutive outcomes of ``o`` joined by graph paths, in order.

    Neither necessary nor sufficient for privilege on arbitrary spaces, since
    pair privilege is not transitive; use :func:`is_privileged` for the answer.
    """
    reach = _reachable(graph)
    return all(
        o.subset[k + 1] in reach[o.subset[k]] for k in range(len(o.subset) - 1)
    )


# -- acyclic synthesis -----------------------------------------------------


@dataclass(frozen=True)
class IssuePlan:
    """Per-issue synthesis data: SCC blocks in topo order plus orientations."""

    topo_sccs: tuple  # SCC member tuples, in topological order
    orientations: Mapping  # frozenset({u, v}) -> canonical (min, max)
    factor: tuple  # the 2^l synthesized LinearOrders


@dataclass(frozen=True)
class AcyclicPlan:
    issue_plans: Mapping  # issue -> IssuePlan
    space: CandidateSpace

    def factor_size(self, issue) -> int:
        return len(self.issue_plans[issue].factor)


def synthesize_acyclic(phi: Mapping[object, PrivilegeGraph]) -> AcyclicPlan:
    """Candidate space and mechanism plan realizing acyclic privilege graphs.

    Each issue's factor holds the 2^l orderings obtained by laying out SCC
    blocks in topological order and flipping each size-2 block both ways from
    its canonical orientation ``(min, max)``.  The plan's mechanism is Kendall
    scoring over ``plan.space``: it sets each flip pair by pairwise majority,
    and a tie keeps the canonical orientation, the first in rank-tuple order.
    """
    if not phi:
        raise InvalidArgumentError("need at least one issue graph")
    sizes = {graph.n for graph in phi.values()}
    if len(sizes) != 1:
        raise InvalidArgumentError("all issue graphs must share one outcome count")
    n = sizes.pop()
    issue_space = IssueSpace(tuple(phi.keys()), n)

    issue_plans = {}
    blocks = []
    for issue, graph in phi.items():
        if not graph.is_transitive():
            raise InvalidArgumentError(f"privilege graph for issue {issue!r} is not transitive")
        cond = scc_condensation(graph)
        if any(len(scc) >= 3 for scc in cond.scc_members):
            raise CyclicityError(
                f"issue {issue!r} is cyclically privileged; no acyclic construction exists"
            )
        topo_sccs = tuple(cond.scc_members[idx] for idx in cond.topo_order)
        pair_sccs = [scc for scc in topo_sccs if len(scc) == 2]
        scc_orientations = {frozenset(scc): (min(scc), max(scc)) for scc in pair_sccs}
        factor = []
        for flips in itertools.product((False, True), repeat=len(pair_sccs)):
            flip_of = dict(zip(pair_sccs, flips))  # a flipped pair is laid out (max, min)
            ranking = (o for scc in topo_sccs for o in sorted(scc, reverse=flip_of.get(scc, False)))
            factor.append(LinearOrder(tuple(ranking)))
        issue_plans[issue] = IssuePlan(
            topo_sccs=topo_sccs,
            orientations=scc_orientations,
            factor=tuple(factor),
        )
        blocks.append(((issue,), [Profile({issue: order}) for order in factor]))

    space = CandidateSpace.product(blocks, issue_space)
    return AcyclicPlan(issue_plans=issue_plans, space=space)


def to_dot(graph: PrivilegeGraph) -> str:
    lines = [f'digraph "issue_{graph.issue}" {{']
    for u in range(graph.n):
        lines.append(f"  {u};")
    for u, v in sorted(graph.edges):
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines)
