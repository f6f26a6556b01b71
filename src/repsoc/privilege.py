"""Privileged orderings, privilege graphs, condensation, and acyclic synthesis.

An ordering over a subset of an issue's outcomes is privileged when every
candidate profile that can be re-sorted into agreement with it (by permuting
only that subset, only on that issue) stays inside the candidate space.
:func:`is_privileged` decides this as a closure test on the code block that
holds the issue, with no limit on the outcome count: the issue's column is
re-sorted as one position array, and the members' twins are checked against
the block's exact integer row keys, so no order or profile is built.  One
call of the test decides a whole batch of subsets in a fixed number of array
passes, so :func:`build_privilege_graph` decides all n(n-1) pairs of an issue
at once.  The privilege graph collects the binary privileged orderings of one
issue; its strongly connected components drive both the cyclicity test and
the constructive synthesis of candidate spaces from acyclic graphs.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CapacityError, CyclicityError, InvalidArgumentError
from .orders import LinearOrder, PartialOrder
from .population import IssueSpace
from .spaces import DEFAULT_ENUMERATION_CAP, CandidateSpace, _encode, _row_keys

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

    def is_transitive(self) -> bool:
        """Whether edges (u, v) and (v, w) give (u, w) for every u != w: each edge's head's
        successors, bar its tail, are its tail's, so the check costs O(E·N), not E²."""
        successors = defaultdict(set)  # only outcomes on an edge: N may be far over the pair cap
        for u, v in self.edges:
            successors[u].add(v)
        return all(successors[v] - {u} <= successors[u] for u, v in self.edges)


@dataclass(frozen=True)
class Condensation:
    """SCC partition of a privilege graph plus its DAG and a topological order."""

    scc_members: tuple  # tuple of sorted member tuples, ordered by smallest member
    dag_edges: frozenset  # edges between SCC indices
    topo_order: tuple  # SCC indices, deterministic

    @property
    def cyclic(self) -> bool:
        """True iff some SCC has 3 or more outcomes (2-cycles alone don't count): the
        graph's issue is cyclically privileged."""
        return any(len(scc) >= 3 for scc in self.scc_members)


def _closure_test(space: CandidateSpace, issue):
    """The closure test of an (S x L) array of subsets of ``issue``'s outcomes, on the code
    block holding it: their S verdicts in a fixed number of array passes.

    Re-sorting changes a member's code on ``issue`` alone, so each member gets an exact
    integer key whose last digit is that code.  The test re-sorts each subset in every
    ordering of the column that it moves (a pair and its reverse move complementary ones),
    maps all the twins to codes (-1 when none is held) with one lookup, and searches the
    member keys, sorted once, for each moved member's twin key while its subset is still
    closed (keys filling their range hold every twin).  Slices of subsets keep each array
    within ``DEFAULT_ENUMERATION_CAP`` entries, unless the block alone is larger.
    """
    b, k = space._locate(issue)
    if space.variant == "full":
        return lambda subsets: np.ones(len(subsets), dtype=bool)
    issues, columns, codes = space._codes()[b]
    keys, bound = np.zeros(len(codes), dtype=np.int64), 1
    for j in [*range(k), *range(k + 1, len(issues)), k]:  # mixed radix, ``issue`` last
        if bound * len(columns[j]) >= 2**63:  # renumber the keys so far densely
            keys, bound = np.unique(keys, return_inverse=True)[1], len(codes)
        keys, bound = keys * len(columns[j]) + codes[:, j], bound * len(columns[j])
    code, column = codes[:, k], columns[k]
    code_of = dict(zip(_row_keys(column), range(len(column))))  # a position row -> its code
    members = np.sort(keys) if bound > len(keys) else None  # None: keys filling their range hold all twins
    step = max(1, DEFAULT_ENUMERATION_CAP // max(len(code), column.size))  # subsets per slice

    def closed(subsets: np.ndarray) -> np.ndarray:
        verdicts = np.ones(len(subsets), dtype=bool)
        for lo in range(0, len(subsets), step):
            batch, verdict = subsets[lo : lo + step], verdicts[lo : lo + step]
            slots = column.take(batch, axis=1)  # per ordering and subset, the slots the subset holds
            ranked = np.sort(slots, axis=2)
            d, s = (slots != ranked).any(axis=2).nonzero()  # the orderings each subset moves
            twins = column.take(d, axis=0)
            twins[np.arange(len(d))[:, None], batch.take(s, axis=0)] = ranked[d, s]
            twin = np.fromiter(map(code_of.get, _row_keys(twins), itertools.repeat(-1)), np.intp, len(d))
            verdict[s[twin < 0]] = False
            if members is not None and verdict.any():
                live, shift = verdict.nonzero()[0], np.zeros((len(column), len(batch)), dtype=np.int64)
                shift[d, s] = twin - d
                shift = shift.take(live, axis=1).take(code, axis=0)  # per member and live subset: twin key - key
                m, t = shift.nonzero()  # the moved members, per live subset
                twin_keys = keys.take(m) + shift[m, t]
                verdict[live[t[members.take(members.searchsorted(twin_keys), mode="clip") != twin_keys]]] = False
        return verdicts

    return closed


def is_privileged(space: CandidateSpace, issue, o: PartialOrder) -> bool:
    """Exact privileged-ordering verdict by a closure test.

    Permuting only ``o``'s outcomes on ``issue`` moves a member within an
    orbit that holds exactly one completion of ``o``: the member with those
    outcomes re-sorted into ``o``'s order, in the rank slots they occupy.
    So ``o`` is privileged iff every member's re-sorted twin is a member.
    The test (:func:`_closure_test`) re-sorts each distinct ordering of the
    issue's column once and looks up each member that disagrees with ``o``.
    Only the block holding ``issue`` matters; the others are untouched.
    """
    closed = _closure_test(space, issue)
    if len(o) < 2:
        raise InvalidArgumentError("a privileged-ordering candidate needs >= 2 outcomes")
    if o.n != space.issue_space.n:
        raise InvalidArgumentError(f"partial order over n={o.n}, space has n={space.issue_space.n}")
    return bool(closed(np.array([o.subset]))[0])


def _check_pairs(n: int) -> None:
    """Raise ``CapacityError`` naming N when the n(n - 1) ordered outcome pairs, which the closure
    test decides at once and the reachability sets hold, are over ``DEFAULT_ENUMERATION_CAP``."""
    if (pairs := n * (n - 1)) > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(f"N = {n} has {pairs} ordered outcome pairs, over the cap of {DEFAULT_ENUMERATION_CAP}")


def build_privilege_graph(space: CandidateSpace, issue) -> PrivilegeGraph:
    """Edge (u, v) present iff the binary ordering u>v is privileged; one call of the closure
    test decides every ordered pair."""
    n = space.issue_space.n
    _check_pairs(n)
    pairs = np.argwhere(~np.eye(n, dtype=bool))
    return PrivilegeGraph(issue, n, frozenset(map(tuple, pairs[_closure_test(space, issue)(pairs)].tolist())))


def _reachable(graph: PrivilegeGraph) -> list:
    """reach[u] = set of vertices reachable from u via >= 1 edge (Warshall's closure)."""
    _check_pairs(graph.n)
    reach = [set() for _ in range(graph.n)]
    for u, v in graph.edges:  # the successor sets, in one pass over the edges
        reach[u].add(v)
    for w in range(graph.n):
        for u in range(graph.n):
            if w in reach[u]:
                reach[u] |= reach[w]
    return reach


def scc_condensation(graph: PrivilegeGraph) -> Condensation:
    """SCC partition with a deterministic (smallest-member ascending) topo order."""
    reach = _reachable(graph)
    assigned, members = {}, []  # outcome -> its SCC's index; SCCs by smallest member
    for u in range(graph.n):
        if u not in assigned:
            members.append((u, *(v for v in range(u + 1, graph.n) if u in reach[v] and v in reach[u])))
            assigned.update(dict.fromkeys(members[-1], len(members) - 1))
    dag_edges = frozenset(
        (assigned[u], assigned[v]) for u, v in graph.edges if assigned[u] != assigned[v]
    )
    # Kahn's algorithm, taking the SCC with the smallest member among those ready
    topo, left = [], list(range(len(members)))
    while left:
        topo.append(next(i for i in left if not any((a, i) in dag_edges for a in left)))
        left.remove(topo[-1])
    return Condensation(
        scc_members=tuple(members), dag_edges=dag_edges, topo_order=tuple(topo)
    )


def is_cyclically_privileged(graph: PrivilegeGraph) -> bool:
    """True iff some SCC has 3 or more outcomes (see :attr:`Condensation.cyclic`)."""
    return scc_condensation(graph).cyclic


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
    its canonical orientation ``(min, max)``; over ``DEFAULT_ENUMERATION_CAP``
    orderings it raises ``CapacityError`` first.  The plan's mechanism is Kendall
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
        if cond.cyclic:
            raise CyclicityError(
                f"issue {issue!r} is cyclically privileged; no acyclic construction exists"
            )
        topo_sccs = tuple(cond.scc_members[idx] for idx in cond.topo_order)
        pair_sccs = [scc for scc in topo_sccs if len(scc) == 2]
        scc_orientations = {frozenset(scc): (min(scc), max(scc)) for scc in pair_sccs}
        if (count := 2 ** len(pair_sccs)) > DEFAULT_ENUMERATION_CAP:
            raise CapacityError(f"issue {issue!r} has {count} orderings, over the cap of {DEFAULT_ENUMERATION_CAP}")
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
        blocks.append(_encode((issue,), np.arange(len(factor))[:, None], factor, n))

    return AcyclicPlan(issue_plans=issue_plans, space=CandidateSpace("product", issue_space, tuple(blocks)))


def to_dot(graph: PrivilegeGraph) -> str:
    lines = [f'digraph "issue_{graph.issue}" {{']
    for u in range(graph.n):
        lines.append(f"  {u};")
    for u, v in sorted(graph.edges):
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines)
