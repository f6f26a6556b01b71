"""Scoring rules and the one exact kernel that scores mechanisms.

A :class:`Mechanism` is a scoring rule maximized over a candidate space.  It is
anonymous: it sees only tallies, the number of sampled pairs in each (issue,
ordering) cell.  Majority vote is exact-match scoring.  A rule scores one pair of
orderings with ``rule.points``, the reference, and a whole (tallied x column) points
table at once with ``rule.table``: Kendall tables are a product of the orderings' +-1
signs over their outcome pairs, exact-match tables compare ranking ids.
:func:`block_scores` is the one path from a (tallies x cells) count matrix to each
member's exact int64 points.  The objective is a sum over issues, so each block of the
space is scored on its own: each distinct ordering of a block column scores the counts
times its points table (exact match: its own cell's count, through the one cell index,
from which the generalization lab builds the class matrix whose rows it counts on its
own), and the members' points are gathered by their column codes.  No array holds more
than ``DEFAULT_ENUMERATION_CAP`` entries.  :func:`decide_tallies` reduces the scores to
each block's first maximum in ``enumerate_profiles`` (rank-tuple) order and its tie
count, as member indices, on which the axiom lab tests its failure events.  The
Rademacher estimate reads its points from one one-hot tally row per sampled cell.

The acyclic-plan mechanism is Kendall scoring over the synthesized space
(``make_mechanism("acyclic", plan=plan)``).  The members of a synthesized
factor differ only on their flip pairs, so a member's Kendall score is a
constant plus, per flip pair, the votes for its orientation: the argmax is the
pairwise majority of each flip pair, and a tie keeps the canonical
``(min, max)`` orientation, which comes first in rank-tuple order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, product, repeat
from math import ceil
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .orders import LinearOrder, concordant_pairs, exact_match_score
from .spaces import DEFAULT_ENUMERATION_CAP, CandidateSpace

__all__ = [
    "ScoringRule",
    "Mechanism",
    "Decisions",
    "KENDALL",
    "EXACT_MATCH",
    "SCORING_RULES",
    "block_scores",
    "decide_tallies",
]


@dataclass(frozen=True)
class ScoringRule:
    """Integer agreement points of two linear orders, in ``[0, top(n)]``; higher means closer.

    ``table(tallied, column)`` gives every pair's points at once, as the int64 matrix
    ``T[c, d] = points(tallied[c], column[d])``, and raises as ``points`` does for orders of
    different sizes."""

    name: str
    points: Callable[[LinearOrder, LinearOrder], int]
    top: Callable[[int], int]
    table: Callable[[Sequence[LinearOrder], Sequence[LinearOrder]], np.ndarray]

    def evaluate(self, a: LinearOrder, b: LinearOrder) -> float:
        """The points as a score in [0, 1]: 1 on full agreement."""
        top = self.top(a.n)
        return 1.0 - (top - self.points(a, b)) / top


def _outcome_count(*lists: Sequence[LinearOrder]) -> int:
    """The outcome count of every ordering in ``lists`` (0 if there is none); raises if two differ."""
    sizes = set(map(len, map(attrgetter("ranking"), chain(*lists))))
    if len(sizes) > 1:
        raise InvalidArgumentError(f"order sizes differ: {min(sizes)} vs {max(sizes)}")
    return sizes.pop() if sizes else 0


def _kendall_table(tallied: Sequence[LinearOrder], column: Sequence[LinearOrder]) -> np.ndarray:
    """Concordant pairs as ``(top + s @ t) // 2`` over two orderings' pair signs ``s`` and ``t``:
    +1 where an ordering ranks outcome ``x`` above ``y``, for each outcome pair ``x < y``, and
    -1 where it ranks ``y`` above ``x``.  Their product is +1 on each concordant pair and -1 on
    each other one.  The signs are made a slice of orderings at a time, so that none of their
    arrays passes the cap."""
    n = _outcome_count(tallied, column)
    x, y = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))  # the outcome pairs x < y
    dtype = np.min_scalar_type(n)

    def signs(orders: Sequence[LinearOrder]) -> np.ndarray:  # (orders x pairs) int64
        positions = np.fromiter(chain.from_iterable(map(attrgetter("position"), orders)), dtype, len(orders) * n)
        positions = positions.reshape(len(orders), n)
        return np.where(positions[:, x] < positions[:, y], 1, -1)

    top, table = len(x), np.empty((len(tallied), len(column)), dtype=np.int64)
    step = max(1, DEFAULT_ENUMERATION_CAP // max(n, top, 1))
    for a, s in product(range(0, len(tallied), step), range(0, len(column), step)):
        products = signs(tallied[a : a + step]) @ signs(column[s : s + step]).T
        table[a : a + step, s : s + step] = (top + products) // 2
    return table


def _exact_table(tallied: Sequence[LinearOrder], column: Sequence[LinearOrder]) -> np.ndarray:
    """1 where the orderings are equal: each distinct tallied ranking gets an id, and a column
    ordering the id of its ranking (-1 if none is tallied)."""
    _outcome_count(tallied, column)
    ids: dict = {}
    rows = np.fromiter(map(ids.setdefault, map(attrgetter("ranking"), tallied), count()), np.intp, len(tallied))
    columns = np.fromiter(map(ids.get, map(attrgetter("ranking"), column), repeat(-1)), np.intp, len(column))
    return (rows[:, None] == columns).astype(np.int64)


KENDALL = ScoringRule("kendall", concordant_pairs, lambda n: n * (n - 1) // 2, _kendall_table)
EXACT_MATCH = ScoringRule(
    "exact", lambda o, other: int(exact_match_score(o, other)), lambda n: 1, _exact_table
)

SCORING_RULES = {rule.name: rule for rule in (KENDALL, EXACT_MATCH)}


@dataclass(frozen=True)
class Mechanism:
    """The anonymous mechanism that maximizes the summed ``rule`` points over ``space``.

    Plain fields: a wrapper made with ``functools.wraps`` carries them over."""

    space: CandidateSpace
    rule: ScoringRule


class Decisions(NamedTuple):
    """The kernel's choice for each tally row, as member indices: row ``r`` chooses member
    ``winners[r, b]`` of each code block ``b`` of ``space._codes()``."""

    winners: np.ndarray  # (rows, blocks) int64: each block's first maximum
    points: np.ndarray  # (rows,) int64: the chosen profile's summed points
    ties: np.ndarray  # (rows, blocks) int64: the blocks' tie-set sizes; the row's is their product


def check_headroom(total: int, rule: ScoringRule, n: int) -> None:
    """Raise unless a tally of ``total`` pairs scores below 2**63: at most ``total * top(n)``."""
    if total * rule.top(n) >= 2**63:
        raise InvalidArgumentError(
            f"committee sizes must be at most {(2**63 - 1) // rule.top(n)} under {rule.name} "
            f"scoring at N = {n}, so that scores stay below 2**63; got {total}"
        )


def _cell_index(cells: Sequence, space: CandidateSpace) -> list:
    """Per code block of ``space._codes()`` and per column of it, an intp array of each ordering's
    index in the ``(issue, order)`` list ``cells``, or -1 where it is no cell, found by ranking."""
    of_issue: dict = {}  # issue -> ranking -> cell index
    for j, (issue, order) in enumerate(cells):
        of_issue.setdefault(issue, {})[order.ranking] = j
    return [
        [np.fromiter(map(of_issue.get(i, {}).get, map(attrgetter("ranking"), c), repeat(-1)), np.intp, len(c))
         for i, c in zip(issues, columns)]
        for issues, columns, _ in space._codes()
    ]


def block_scores(
    rows: np.ndarray, cells: Sequence, space: CandidateSpace, rule: ScoringRule
):
    """Yield ``(at, scores)`` for consecutive chunks ``rows[at]`` of the nonnegative int64
    (tallies x cells) count matrix ``rows``, whose column ``j`` counts ``cells[j] = (issue,
    order)``: ``scores[b]`` holds block ``b``'s members' int64 (chunk x members) points, a
    C-ordered array.

    A block's issues are laid side by side, one score per ordering of each column, and
    summed by the members' column codes one issue at a time.  Under exact-match points an
    ordering scores its own cell's count, through the cell index; under another rule, the
    counts times a points table of the counted cells, built once if it fits the cap and
    otherwise for each chunk's cells, a slice of orderings at a time.  Raises for a repeated
    cell, a count on an issue the space lacks, or a tally whose scores could overflow int64."""
    if len({(issue, order.ranking) for issue, order in cells}) < len(cells):
        raise InvalidArgumentError("each tallied (issue, order) cell must be listed once")
    by_issue: dict = {}  # issue -> its cells' column indices
    for j, (issue, _) in enumerate(cells):
        by_issue.setdefault(issue, []).append(j)
    for issue, columns in by_issue.items():
        if issue not in space.issue_space and rows[:, columns].any():
            raise InvalidArgumentError(f"sample references unknown issue {issue!r}")
    n = space.issue_space.n
    if int(rows.max(initial=0)) * rows.shape[1] * rule.top(n) >= 2**63:
        check_headroom(max(map(sum, rows.tolist())), rule, n)  # exact, as int64 sums could wrap

    blocks, used, exact = space._codes(), rows.any(axis=0), rule is EXACT_MATCH
    ends = [np.cumsum([0, *map(len, columns)]) for _, columns, _ in blocks]  # of the laid columns
    # under exact match, each column ordering's cell; another rule scores orderings by tables
    indexes = _cell_index(cells, space) if exact else [[None] * len(issues) for issues, _, _ in blocks]
    tables = {}  # issue -> the points table of its counted cells, where it fits the cap
    most = max(1, DEFAULT_ENUMERATION_CAP // max(len(cells), sum(c.size for _, _, c in blocks)))
    step = ceil(len(rows) / ceil(len(rows) / most)) if len(rows) else most
    for lo in range(0, len(rows), step):
        chunk, out = rows[lo : lo + step], []
        live = chunk.any(axis=0)
        for (issues, columns, codes), end, index in zip(blocks, ends, indexes):
            laid = np.zeros((len(chunk), end[-1]), dtype=np.int64)
            for issue, column, cell, a, z in zip(issues, columns, index, end, end[1:]):
                if exact:  # an ordering scores its own cell's count; one off the cells, 0
                    hit = np.flatnonzero(cell >= 0)
                    laid[:, a + hit] = chunk[:, cell[hit]]
                    continue
                js = [j for j in by_issue.get(issue, ()) if used[j]]
                if js and len(js) * len(column) <= DEFAULT_ENUMERATION_CAP:
                    if issue not in tables:
                        tables[issue] = rule.table([cells[j][1] for j in js], column)
                    laid[:, a:z] = chunk[:, js] @ tables[issue]
                elif js := [j for j in js if live[j]]:  # the chunk's cells, a slice at a time
                    tallied, width = [cells[j][1] for j in js], max(1, DEFAULT_ENUMERATION_CAP // len(js))
                    for s in range(a, z, width):
                        part = rule.table(tallied, column[s - a : s - a + width])
                        laid[:, s : s + part.shape[1]] = chunk[:, js] @ part
            # a one-issue block's members are its column, in order
            gathered = (np.take(laid, codes[:, k] + end[k], axis=1) for k in range(len(issues)))
            out.append(laid if len(issues) == 1 else sum(gathered))
        yield slice(lo, lo + len(chunk)), out


def decide_tallies(
    rows: np.ndarray, cells: Sequence, space: CandidateSpace, rule: ScoringRule
) -> Decisions:
    """For each row of the nonnegative int64 (tallies x cells) count matrix ``rows``, the
    profile of the space with the most summed points ``count * rule.points(order, C(issue))``,
    as the index of its member in each code block.

    Each block is maximized on its own over its :func:`block_scores`, which raise for
    bad counts; the winner is its first maximum and the tie set is the product of the blocks'."""
    blocks, trials = space._codes(), len(rows)
    winners = np.empty((trials, len(blocks)), dtype=np.int64)
    ties = np.empty((trials, len(blocks)), dtype=np.int64)
    points = np.zeros(trials, dtype=np.int64)
    for at, scores in block_scores(rows, cells, space, rule):
        for b, block in enumerate(scores):
            best = block.argmax(axis=1)  # the first maximum
            most = block[np.arange(len(block)), best]
            winners[at, b] = best
            ties[at, b] = (block == most[:, None]).sum(axis=1)
            points[at] += most
    return Decisions(winners, points, ties)

