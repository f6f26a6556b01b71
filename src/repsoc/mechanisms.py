"""Scoring rules, each with its own kernel, and the one exact path that scores mechanisms.

A :class:`Mechanism` is a scoring rule maximized over a candidate space.  It is anonymous: it sees
only tallies, the number of sampled pairs in each (issue, ordering) cell.  Majority vote is
exact-match scoring.  ``rule.points`` scores one pair of orderings, the tests' reference.
:func:`block_scores` is the one path from a (tallies x cells) count matrix to each member's exact
int64 points.  The objective is a sum over issues, so each block of the space is scored on its own,
one score per distinct ordering of each block column, and the members' points are gathered by
their column codes.  Each column is scored by the rule's own kernel, ``rule.scorer``: exact match
reads the cell counts, Kendall the committee's pairwise margins.  No array the kernel makes holds
more than ``DEFAULT_ENUMERATION_CAP`` entries.  :func:`decide_tallies` reduces the scores to each
block's first maximum in ``enumerate_profiles`` (rank-tuple) order and its tie count, as member
indices, on which the axiom lab tests its failure events.  The Rademacher estimate reads its points
from one one-hot row per sampled cell.

The acyclic-plan mechanism is Kendall scoring over the synthesized space
(``make_mechanism("acyclic", plan=plan)``).  The members of a synthesized
factor differ only on their flip pairs, so a member's Kendall score is a
constant plus, per flip pair, the votes for its orientation: the argmax is the
pairwise majority of each flip pair, and a tie keeps the canonical
``(min, max)`` orientation, which comes first in rank-tuple order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import ceil
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .orders import LinearOrder, concordant_pairs, exact_match_score
from .spaces import DEFAULT_ENUMERATION_CAP, CandidateSpace, _row_keys

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
    """Integer agreement points of two linear orders, in ``[0, top(n)]``; higher means closer.  Its kernel
    ``scorer(placed, space)`` returns ``write(chunk, b, k, out)``, which writes into ``out`` (zeros) the int64
    points of a chunk of (tallies x cells) counts against each ordering of column ``k`` of code block ``b``."""

    name: str
    points: Callable[[LinearOrder, LinearOrder], int]
    top: Callable[[int], int]
    scorer: Callable[[tuple, CandidateSpace], Callable]

    def evaluate(self, a: LinearOrder, b: LinearOrder) -> float:
        """The points as a score in [0, 1]: 1 on full agreement."""
        top = self.top(a.n)
        return 1.0 - (top - self.points(a, b)) / top


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


def _placed(cells: Sequence, n: int) -> tuple:
    """The ``(issue, order)`` list ``cells`` grouped by issue, as cell indices, and its orderings as
    one (cells x N) position array in the dtype of the columns; raises for orderings of another N."""
    by_issue: dict = {}  # issue -> its cells' indices
    for j, (issue, order) in enumerate(cells):
        if order.n != n:
            raise InvalidArgumentError(f"order sizes differ: {order.n} vs {n}")
        by_issue.setdefault(issue, []).append(j)
    return by_issue, np.array([order.position for _, order in cells], np.min_scalar_type(-n)).reshape(-1, n)


def _cell_index(placed: tuple, space: CandidateSpace) -> list:
    """Per code block of ``space._codes()`` and per column, an intp array of each ordering's index among
    the cells of :func:`_placed`, or -1, found by its row of positions.  Each distinct column's rows are
    keyed once: a full space's issues share one column."""
    (by_issue, positions), blocks = placed, space._codes()
    cell_keys = _row_keys(positions)
    of = {issue: {cell_keys[j]: j for j in js} for issue, js in by_issue.items()}  # issue -> row key -> cell
    keys = {id(c): c for _, columns, _ in blocks for c in columns}  # each distinct column once
    keys = {key: _row_keys(column) for key, column in keys.items()}
    return [
        [np.fromiter(map(of.get(i, {}).get, keys[id(c)], repeat(-1)), np.intp, len(c)) for i, c in zip(issues, cs)]
        for issues, cs, _ in blocks
    ]


def _exact_scorer(placed: tuple, space: CandidateSpace) -> Callable:
    """Exact match's kernel: an ordering scores its own cell's count, through the one cell index, which
    matches the cells' position rows to the columns'; an ordering off the cells scores 0."""
    index = _cell_index(placed, space)

    def write(chunk: np.ndarray, b: int, k: int, out: np.ndarray) -> None:
        hit = np.flatnonzero(index[b][k] >= 0)
        out[:, hit] = chunk.take(index[b][k][hit], axis=1)

    return write


def _above(positions: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per ordering and outcome pair ``(x[p], y[p])``, from its row of ``positions``, whether
    it ranks ``x[p]`` above ``y[p]``."""
    return positions[:, x] < positions[:, y]


def _kendall_scorer(placed: tuple, space: CandidateSpace) -> Callable:
    """Kendall's kernel.  A member's points are ``sum_c count_c * (top + s_c . t) / 2`` over the +-1 signs per
    outcome pair of the cells and of the member: the votes against every pair ``x < y`` plus the margin
    ``sum_c count_c * s_c``, for minus against, of each pair it ranks ``x`` above ``y``.  A chunk's margins are
    read once per issue, a column's pairs a slice of orderings at a time: no (tallied x column) table is built."""
    (by_issue, positions), blocks, n = placed, space._codes(), space.issue_space.n
    x, y = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))  # the outcome pairs x < y
    width = max(1, DEFAULT_ENUMERATION_CAP // max(1, len(x)))  # orderings per slice of pairs

    def write(chunk: np.ndarray, b: int, k: int, out: np.ndarray) -> None:
        issues, columns, _ = blocks[b]
        if js := by_issue.get(issues[k]):
            counts, held = chunk[:, js], positions.take(js, axis=0)
            wins = sum(  # per outcome pair x < y, the chunk's votes for x above y
                counts[:, s : s + width] @ _above(held[s : s + width], x, y)
                for s in range(0, len(js), width)
            )
            losses = counts.sum(axis=1)[:, None] - wins
            margins = wins - losses
            for s in range(0, len(columns[k]), width):
                above = _above(columns[k][s : s + width], x, y)
                np.matmul(margins, above.T, out=out[:, s : s + len(above)])
            out += losses.sum(axis=1)[:, None]  # the votes against every pair

    return write


KENDALL = ScoringRule("kendall", concordant_pairs, lambda n: n * (n - 1) // 2, _kendall_scorer)
EXACT_MATCH = ScoringRule("exact", lambda o, other: int(exact_match_score(o, other)), lambda n: 1, _exact_scorer)

SCORING_RULES = {rule.name: rule for rule in (KENDALL, EXACT_MATCH)}


def block_scores(
    rows: np.ndarray, cells: Sequence, space: CandidateSpace, rule: ScoringRule
):
    """Yield ``(at, scores)`` for consecutive chunks ``rows[at]`` of the nonnegative int64 (tallies x cells)
    count matrix ``rows``, whose column ``j`` counts ``cells[j] = (issue, order)``: ``scores[b]`` holds block
    ``b``'s members' int64 (chunk x members) points, a C-ordered array.

    A block's issues are laid side by side, each column scored by the rule's kernel, one score per ordering,
    and summed by the members' column codes one issue at a time.  Raises for a repeated cell, a cell ordering
    over other than the space's N outcomes, a count on an issue the space lacks, or a tally whose scores
    could overflow int64; no partial sum can wrap below that."""
    if len({(issue, order.ranking) for issue, order in cells}) < len(cells):
        raise InvalidArgumentError("each tallied (issue, order) cell must be listed once")
    n, top = space.issue_space.n, rule.top(space.issue_space.n)
    by_issue, _ = placed = _placed(cells, n)
    for issue, js in by_issue.items():
        if issue not in space.issue_space and rows[:, js].any():
            raise InvalidArgumentError(f"sample references unknown issue {issue!r}")
    if int(rows.max(initial=0)) * rows.shape[1] * top >= 2**63:
        check_headroom(max(map(sum, rows.tolist())), rule, n)  # exact, as int64 sums could wrap

    blocks, write, cap = space._codes(), rule.scorer(placed, space), DEFAULT_ENUMERATION_CAP
    ends = [np.cumsum([0, *map(len, columns)]) for _, columns, _ in blocks]  # of the laid columns
    most = max(1, cap // max(len(cells), sum(c.size for _, _, c in blocks), top))  # rows per chunk
    step = ceil(len(rows) / ceil(len(rows) / most)) if len(rows) else most
    for lo in range(0, len(rows), step):
        chunk, out = rows[lo : lo + step], []
        for b, ((issues, _, codes), end) in enumerate(zip(blocks, ends)):
            laid = np.zeros((len(chunk), end[-1]), dtype=np.int64)
            for k in range(len(issues)):
                write(chunk, b, k, laid[:, end[k] : end[k + 1]])
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

