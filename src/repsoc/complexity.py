"""Statistical complexity of candidate spaces: VC dimension and Rademacher estimates."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from .errors import CapacityError, InvalidArgumentError, UnsupportedError
from .mechanisms import ScoringRule
from .population import SampleSet
from .rng import derive_rng
from .spaces import CandidateSpace

__all__ = [
    "InducedLossClass",
    "vc_dimension",
    "vc_dimension_with_witness",
    "empirical_rademacher",
    "massart_bound",
]

_MAX_VC_ISSUES = 20


@dataclass(frozen=True)
class InducedLossClass:
    """The function class {(o, i) -> rule(o, C(i)) : C in space}."""

    space: CandidateSpace
    rule: ScoringRule


def _binary_patterns(space: CandidateSpace) -> tuple[list, set]:
    """Realized yes/no patterns of a binary space over its sorted issues."""
    if space.issue_space.n != 2:
        raise UnsupportedError("VC dimension is defined only for binary (N=2) spaces")
    issues = space.issue_space.sorted_ids()
    if len(issues) > _MAX_VC_ISSUES:
        raise CapacityError(
            f"VC search limited to {_MAX_VC_ISSUES} issues, got {len(issues)}",
            cap=_MAX_VC_ISSUES,
        )
    patterns = set()
    for profile in space.enumerate_profiles():
        patterns.add(tuple(profile(issue).ranking[0] for issue in issues))
    return issues, patterns


def vc_dimension_with_witness(space: CandidateSpace) -> tuple[int, tuple]:
    """Exact VC dimension of a binary space, plus a shattered witness set.

    Searches issue subsets in ascending size; stops at the first size with no
    shattered subset, which is valid since shattering is downward closed.
    """
    issues, patterns = _binary_patterns(space)
    dimension = 0
    witness: tuple = ()
    for d in range(1, len(issues) + 1):
        found = None
        for subset in itertools.combinations(range(len(issues)), d):
            projected = {tuple(p[k] for k in subset) for p in patterns}
            if len(projected) == 2**d:
                found = tuple(issues[k] for k in subset)
                break
        if found is None:
            break
        dimension, witness = d, found
    return dimension, witness


def vc_dimension(space: CandidateSpace) -> int:
    return vc_dimension_with_witness(space)[0]


def is_shattered(space: CandidateSpace, issue_subset) -> bool:
    """Independent check that every binary assignment over the subset is realized."""
    issues, patterns = _binary_patterns(space)
    index = {issue: k for k, issue in enumerate(issues)}
    try:
        cols = [index[issue] for issue in issue_subset]
    except KeyError as exc:
        raise InvalidArgumentError(f"unknown issue {exc}") from exc
    projected = {tuple(p[k] for k in cols) for p in patterns}
    return len(projected) == 2 ** len(cols)


def empirical_rademacher(
    loss_class: InducedLossClass,
    sample: SampleSet,
    num_sign_draws: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the empirical Rademacher complexity.

    The inner maximization over the space is exact (full enumeration); only
    the expectation over sign vectors is sampled.  Returns (estimate, stderr).
    """
    if len(sample) == 0:
        raise InvalidArgumentError("empirical Rademacher complexity needs a nonempty sample")
    if num_sign_draws < 1:
        raise InvalidArgumentError("need at least one sign draw")
    rule = loss_class.rule
    profiles = list(loss_class.space.enumerate_profiles())
    scores = np.array(
        [
            [rule.evaluate(order, profile(issue)) for order, issue in sample]
            for profile in profiles
        ]
    )  # shape (|space|, |sample|)
    rng = derive_rng(seed)
    signs = rng.integers(0, 2, size=(num_sign_draws, len(sample))) * 2 - 1
    per_draw = (signs @ scores.T).max(axis=1) / len(sample)
    estimate = float(per_draw.mean())
    if num_sign_draws > 1:
        stderr = float(per_draw.std(ddof=1) / sqrt(num_sign_draws))
    else:
        stderr = float("inf")
    return estimate, stderr


def massart_bound(space_size: int, sample_size: int) -> float:
    """Finite-class bound sqrt(2 log M / n) for scores in [0, 1]; M may exceed 2**64."""
    return sqrt(2.0 * log(space_size) / sample_size)
