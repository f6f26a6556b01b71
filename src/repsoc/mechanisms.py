"""Scoring rules and the one exact kernel that decides every mechanism.

A :class:`Mechanism` is a scoring rule maximized over a candidate space.  It
is anonymous: it sees only tallies, the number of sampled pairs in each
(issue, ordering) cell.  Majority vote is exact-match scoring.  The batched
kernel :func:`decide_tallies` decides a whole (tallies x cells) count matrix
at once, in exact int64 points, so ties are exact.  The objective is a sum
over issues, so each block of the space is maximized on its own: per issue,
the counts are multiplied by the points matrix of the tallied orderings
against the distinct orderings of the block's column, and the members'
points are gathered through the column codes the space is stored as.  The
winner is the first maximum of each block, which is the first maximum in
``enumerate_profiles`` (rank-tuple) order.  A points matrix is built once per
call; working in chunks of tallies, and in slices of a matrix too large to
keep, no array the kernel allocates holds more than ``DEFAULT_ENUMERATION_CAP``
entries.

The acyclic-plan mechanism is Kendall scoring over the synthesized space
(``make_mechanism("acyclic", plan=plan)``).  The members of a synthesized
factor differ only on their flip pairs, so a member's Kendall score is a
constant plus, per flip pair, the votes for its orientation: the argmax is the
pairwise majority of each flip pair, and a tie keeps the canonical
``(min, max)`` orientation, which comes first in rank-tuple order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import prod
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .orders import LinearOrder, Profile, concordant_pairs, exact_match_score
from .population import SampleSet
from .spaces import DEFAULT_ENUMERATION_CAP, CandidateSpace, _profile

__all__ = [
    "ScoringRule",
    "Mechanism",
    "MechanismResult",
    "Decisions",
    "KENDALL",
    "EXACT_MATCH",
    "SCORING_RULES",
    "decide_tallies",
    "scoring_mechanism",
]


@dataclass(frozen=True)
class ScoringRule:
    """Integer agreement points of two linear orders, in ``[0, top(n)]``; higher means closer."""

    name: str
    points: Callable[[LinearOrder, LinearOrder], int]
    top: Callable[[int], int]

    def evaluate(self, a: LinearOrder, b: LinearOrder) -> float:
        """The points as a score in [0, 1]: 1 on full agreement."""
        top = self.top(a.n)
        return 1.0 - (top - self.points(a, b)) / top


KENDALL = ScoringRule("kendall", concordant_pairs, lambda n: n * (n - 1) // 2)
EXACT_MATCH = ScoringRule("exact", lambda o, other: int(exact_match_score(o, other)), lambda n: 1)

SCORING_RULES = {rule.name: rule for rule in (KENDALL, EXACT_MATCH)}


@dataclass(frozen=True)
class Mechanism:
    """The anonymous mechanism that maximizes the summed ``rule`` points over ``space``.

    Plain fields: a wrapper made with ``functools.wraps`` carries them over."""

    space: CandidateSpace
    rule: ScoringRule


@dataclass(frozen=True)
class MechanismResult:
    chosen: Profile
    sample_objective: float
    tie_set_size: int
    tie_broken: bool


class Decisions(NamedTuple):
    """The kernel's choice for each tally row."""

    chosen: list  # the chosen profile of each row
    points: np.ndarray  # (rows,) int64: the chosen profile's summed points
    ties: np.ndarray  # (rows, blocks) int64: the blocks' tie-set sizes; the row's is their product


def check_headroom(total: int, rule: ScoringRule, n: int) -> None:
    """Raise unless a tally of ``total`` pairs scores below 2**63: at most ``total * top(n)``."""
    if total * rule.top(n) >= 2**63:
        raise InvalidArgumentError(
            f"committee sizes must be at most {(2**63 - 1) // rule.top(n)} under {rule.name} "
            f"scoring at N = {n}, so that scores stay below 2**63; got {total}"
        )


def _points(tallied: Sequence, column: Sequence, rule: ScoringRule) -> np.ndarray:
    """The points matrix ``P[c, d] = rule.points(tallied[c], column[d])``."""
    return np.array([[rule.points(o, c) for c in column] for o in tallied], dtype=np.int64)


def _table(counts: np.ndarray, tallied: Sequence, column: Sequence, rule: ScoringRule):
    """``counts @ P`` for the points matrix ``P`` of :func:`_points`, built a slice of
    columns at a time, each slice within the cap's entries."""
    step = max(1, DEFAULT_ENUMERATION_CAP // len(tallied))
    out = np.empty((len(counts), len(column)), dtype=np.int64)
    for lo in range(0, len(column), step):
        out[:, lo : lo + step] = counts @ _points(tallied, column[lo : lo + step], rule)
    return out


def decide_tallies(
    rows: np.ndarray, cells: Sequence, space: CandidateSpace, rule: ScoringRule
) -> Decisions:
    """For each row of the nonnegative int64 (tallies x cells) count matrix ``rows``, the
    profile of the space with the most summed points ``count * rule.points(order, C(issue))``.

    Column ``j`` counts the pairs of ``cells[j] = (issue, order)``.  Each block is
    maximized on its own; the winner is its first maximum and the tie set is the
    product of the blocks' tie sets.  Raises :class:`InvalidArgumentError` for a
    count on an issue the space lacks, or a tally whose scores could overflow int64
    (:func:`check_headroom`).
    """
    by_issue: dict = {}  # issue -> its cells' column indices
    for j, (issue, _) in enumerate(cells):
        by_issue.setdefault(issue, []).append(j)
    for issue, columns in by_issue.items():
        if issue not in space.issue_space and rows[:, columns].any():
            raise InvalidArgumentError(f"sample references unknown issue {issue!r}")
    n = space.issue_space.n
    if int(rows.max(initial=0)) * rows.shape[1] * rule.top(n) >= 2**63:
        check_headroom(max(map(sum, rows.tolist())), rule, n)  # exact, as int64 sums could wrap

    blocks = space._codes()
    trials = len(rows)
    winners = np.empty((trials, len(blocks)), dtype=np.int64)
    ties = np.empty((trials, len(blocks)), dtype=np.int64)
    points = np.zeros(trials, dtype=np.int64)
    used, tables = rows.any(axis=0), {}  # the cells some tally counts; issue -> their table
    # a chunk's count slices, score tables and member scores all fit the cap, and so does
    # a kept points table; a larger one is built a chunk at a time, for the cells it counts
    step = max(1, DEFAULT_ENUMERATION_CAP // max(len(cells), *(len(c) for _, _, c in blocks)))
    for lo in range(0, trials, step):
        chunk = rows[lo : lo + step]
        live = chunk.any(axis=0)
        for b, (issues, columns, codes) in enumerate(blocks):
            scores = np.zeros((len(chunk), len(codes)), dtype=np.int64)
            for issue, column, code in zip(issues, columns, codes.T):
                js = [j for j in by_issue.get(issue, ()) if used[j]]
                if js and len(js) * len(column) <= DEFAULT_ENUMERATION_CAP:
                    if issue not in tables:
                        tables[issue] = _points([cells[j][1] for j in js], column, rule)
                    scores += (chunk[:, js] @ tables[issue])[:, code]
                elif js := [j for j in js if live[j]]:
                    scores += _table(chunk[:, js], [cells[j][1] for j in js], column, rule)[:, code]
            best = scores.argmax(axis=1)  # the first maximum
            most = scores[np.arange(len(chunk)), best]
            winners[lo : lo + step, b] = best
            ties[lo : lo + step, b] = (scores == most[:, None]).sum(axis=1)
            points[lo : lo + step] += most

    keys = list(map(tuple, winners.tolist()))
    profiles = {key: _profile(blocks, key) for key in set(keys)}  # each built once
    return Decisions([profiles[key] for key in keys], points, ties)


def scoring_mechanism(
    sample: SampleSet, space: CandidateSpace, rule: ScoringRule
) -> MechanismResult:
    """Argmax of the average rule score over the space: :func:`decide_tallies` of one tally."""
    counts = sample.counts()
    cells = [(issue, order) for issue, dist in counts.items() for order in dist]
    row = np.array([[counts[issue][order] for issue, order in cells]], dtype=np.int64)
    total = len(sample)
    if total == 0:
        warnings.warn("scoring mechanism over an empty sample: canonical output", stacklevel=2)
    decided = decide_tallies(row, cells, space, rule)
    ties = prod(decided.ties[0].tolist())
    objective = int(decided.points[0]) / (rule.top(space.issue_space.n) * total) if total else 0.0
    return MechanismResult(decided.chosen[0], objective, tie_set_size=ties, tie_broken=ties > 1)
