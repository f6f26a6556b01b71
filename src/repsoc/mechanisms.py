"""Sample/population utilities and the argmax aggregation mechanisms.

Mechanisms are anonymous: they consume ``{issue: {ordering: count}}`` tallies.
Majority vote is exact-match scoring, and one exact kernel,
:func:`scoring_mechanism_from_counts`, serves every rule.  Scores are integer
points, so ties are exact.  The objective is a sum over issues, so the kernel
maximizes each block of the space on its own.  It scores each distinct
ordering of a block column once and sums the members' points through the
column codes that the space builds on first use and keeps; a block over the
enumeration cap raises :class:`CapacityError` before anything is allocated.
The winner is the first maximum of each block, which is the first maximum in
``enumerate_profiles`` (rank-tuple) order.

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
from typing import Callable

from .errors import InvalidArgumentError
from .orders import LinearOrder, Profile, concordant_pairs, exact_match_score
from .population import MarginalPopulation, SaliencyDistribution, SampleSet
from .spaces import CandidateSpace

__all__ = [
    "ScoringRule",
    "MechanismResult",
    "KENDALL",
    "EXACT_MATCH",
    "SCORING_RULES",
    "sample_utility",
    "population_utility",
    "sample_score",
    "population_score",
    "majority_vote",
    "scoring_mechanism",
    "scoring_mechanism_from_counts",
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
class MechanismResult:
    chosen: Profile
    sample_objective: float
    tie_set_size: int
    tie_broken: bool


def _weighted_points(rule: ScoringRule, weights: dict, target: LinearOrder):
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
        _weighted_points(rule, dist, profile(issue)) for issue, dist in sample.counts().items()
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
        points = _weighted_points(rule, population.distribution(issue), target)
        total += w * points / rule.top(target.n)
    return total


# -- the argmax kernel -----------------------------------------------------


def majority_vote(sample: SampleSet, space: CandidateSpace) -> MechanismResult:
    """Argmax of sample utility over the space (the sample-level majority vote)."""
    return scoring_mechanism(sample, space, EXACT_MATCH)


def scoring_mechanism(
    sample: SampleSet, space: CandidateSpace, rule: ScoringRule
) -> MechanismResult:
    """Argmax of the average rule score over the space."""
    return scoring_mechanism_from_counts(sample.counts(), len(sample), space, rule)


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
    for issues, columns, codes in space._codes():
        tables = [
            [_weighted_points(rule, counts.get(issue, {}), o) for o in column]
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
