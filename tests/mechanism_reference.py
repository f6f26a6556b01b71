"""Slow per-tally references for the mechanism kernel, and the sample types only tests use.

``scoring_mechanism_from_counts`` decides one ``{issue: {ordering: count}}``
tally with Python loops and exact integer points; the differential tests hold
the batched ``repsoc.mechanisms.decide_tallies`` to its chosen profile,
tie-set size and objective; :func:`ordered_codes` reads a space's code blocks
back with their columns as orderings.  A :class:`SampleSet` lists (ordering,
issue) pairs one by one, and :func:`scoring_mechanism` decides it through
``decide_tallies``.  The utility and score functions evaluate one profile
against a sample or a population.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from repsoc import (
    EXACT_MATCH,
    CandidateSpace,
    InvalidArgumentError,
    LinearOrder,
    MarginalPopulation,
    Profile,
    SaliencyDistribution,
    ScoringRule,
    decide_tallies,
)
from repsoc.spaces import _profile


@dataclass(frozen=True)
class SampleSet:
    """An i.i.d. collection of (ordering, issue) pairs."""

    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def counts(self) -> dict:
        """Multiset view: issue -> {ordering -> count}."""
        out: dict = {}
        for order, issue in self.pairs:
            out.setdefault(issue, {})
            out[issue][order] = out[issue].get(order, 0) + 1
        return out

    def cells(self) -> tuple[list, np.ndarray]:
        """The ``(cells, pairs)`` form of ``repsoc.sample_pairs``: the distinct (issue,
        ordering) cells in order of first appearance, and each pair's cell index."""
        index: dict = {}
        pairs = [index.setdefault((issue, order), len(index)) for order, issue in self.pairs]
        return list(index), np.array(pairs, dtype=np.intp)


@dataclass(frozen=True)
class MechanismResult:
    chosen: Profile
    sample_objective: float
    tie_set_size: int
    tie_broken: bool


def scoring_mechanism(sample: SampleSet, space: CandidateSpace, rule: ScoringRule) -> MechanismResult:
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
    chosen = _profile(ordered_codes(space), decided.winners[0].tolist())
    return MechanismResult(chosen, objective, tie_set_size=ties, tie_broken=ties > 1)


@lru_cache(maxsize=1)
def ordered_codes(space: CandidateSpace) -> tuple:
    """``space._codes()`` with each column, an (orderings x N) position array, read back as a
    tuple of its ``LinearOrder``s in order: ordering ``d`` ranks outcome ``c`` at ``column[d, c]``.
    The last space's is kept (spaces hash by identity): the per-call references read it per tally."""
    return tuple(
        (issues, tuple(
            tuple(LinearOrder(tuple(sorted(range(len(row)), key=row.__getitem__))) for row in column.tolist())
            for column in columns
        ), codes)
        for issues, columns, codes in space._codes()
    )


def weighted_points(rule: ScoringRule, weights: dict, target: LinearOrder):
    """``sum(weight * rule.points(order, target))`` over ``{order: weight}``.

    Exact match scores only the target itself, so it reads the target's own
    weight.  Other rules sum sorted terms, so that weights equal up to a
    relabeling give bitwise-equal float sums.
    """
    if rule is EXACT_MATCH:
        return weights.get(target, 0)
    return sum(sorted(weight * rule.points(order, target) for order, weight in weights.items()))


def sample_utility(profile: Profile, sample: SampleSet) -> float:
    """Mean exact-match indicator of ``profile`` over the sample; 0 when empty."""
    return sample_score(profile, sample, EXACT_MATCH)


def population_utility(
    profile: Profile,
    saliency: SaliencyDistribution,
    population: MarginalPopulation,
) -> float:
    """Expected exact-match mass: sum of saliency(i) * marginal mass on profile(i)."""
    return population_score(profile, saliency, population, EXACT_MATCH)


def sample_score(profile: Profile, sample: SampleSet, rule: ScoringRule) -> float:
    """Average rule score of the sampled orderings against ``profile``."""
    if len(sample) == 0:
        warnings.warn("sample score of an empty sample is defined as 0", stacklevel=2)
        return 0.0
    points = sum(
        weighted_points(rule, dist, profile(issue)) for issue, dist in sample.counts().items()
    )
    return points / (rule.top(sample.pairs[0][0].n) * len(sample))


def population_score(
    profile: Profile,
    saliency: SaliencyDistribution,
    population: MarginalPopulation,
    rule: ScoringRule,
) -> float:
    """Exact expected rule score under the saliency and marginals."""
    total = 0.0
    for issue in saliency.issues:
        w = saliency(issue)
        if w == 0:
            continue
        target = profile(issue)
        points = weighted_points(rule, population.distribution(issue), target)
        total += w * points / rule.top(target.n)
    return total


def majority_vote(sample: SampleSet, space: CandidateSpace) -> MechanismResult:
    """Argmax of sample utility over the space (the sample-level majority vote)."""
    return scoring_mechanism(sample, space, EXACT_MATCH)


def scoring_mechanism_from_counts(
    counts: dict,
    total: int,
    space: CandidateSpace,
    rule: ScoringRule,
) -> MechanismResult:
    """Argmax over the space of the summed points ``count * rule.points(order, C(issue))``.

    Each block is maximized on its own; the tie set is the product of the
    per-block tie sets, and the winner is the first maximum of each block.
    """
    for issue in counts:
        if issue not in space.issue_space:
            raise InvalidArgumentError(f"sample references unknown issue {issue!r}")
    if total == 0:
        warnings.warn("scoring mechanism over an empty sample: canonical output", stacklevel=2)
    assignment = {}
    points = 0
    tie_set_size = 1
    for issues, columns, codes in ordered_codes(space):
        tables = [
            [weighted_points(rule, counts.get(issue, {}), o) for o in column]
            for issue, column in zip(issues, columns)
        ]
        gathered = [map(table.__getitem__, col) for table, col in zip(tables, codes.T.tolist())]
        scores = list(map(sum, zip(*gathered)))  # per member, its columns' points in order
        best = max(scores)
        winner = codes[scores.index(best)].tolist()
        assignment.update((issue, column[c]) for issue, column, c in zip(issues, columns, winner))
        points += best
        tie_set_size *= scores.count(best)
    top = rule.top(space.issue_space.n)
    return MechanismResult(
        chosen=Profile(assignment),
        sample_objective=points / (top * total) if total else 0.0,
        tie_set_size=tie_set_size,
        tie_broken=tie_set_size > 1,
    )


def counts_of_row(cells, row) -> dict:
    """The ``{issue: {ordering: count}}`` tally of one row of a (tallies x cells) count matrix."""
    counts: dict = {}
    for (issue, order), count in zip(cells, row):
        if count:
            counts.setdefault(issue, {})[order] = int(count)
    return counts
