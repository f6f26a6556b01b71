"""Shared helpers for building random spaces, populations and samples."""

import itertools

import numpy as np
import pytest

from repsoc import (
    CandidateSpace,
    IssueSpace,
    LinearOrder,
    MarginalPopulation,
    Profile,
    SaliencyDistribution,
    SampleSet,
    all_linear_orders,
)
from tests.mechanism_reference import scoring_mechanism_from_counts


def random_explicit_space(rng, issue_ids, n, size):
    """Explicit space of ``size`` distinct random profiles over the issues."""
    orders = all_linear_orders(n)
    seen = set()
    profiles = []
    while len(profiles) < size:
        profile = Profile(
            {issue: orders[rng.integers(len(orders))] for issue in issue_ids}
        )
        if profile not in seen:
            seen.add(profile)
            profiles.append(profile)
    return CandidateSpace.explicit(profiles, IssueSpace(tuple(issue_ids), n))


def random_subset_space(rng, n, *, issue="i", min_size=1, max_size=None):
    """Single-issue explicit space from a random nonempty subset of LO(n)."""
    orders = all_linear_orders(n)
    if max_size is None:
        max_size = len(orders)
    size = int(rng.integers(min_size, max_size + 1))
    picked = rng.choice(len(orders), size=size, replace=False)
    profiles = [Profile({issue: orders[j]}) for j in picked]
    return CandidateSpace.explicit(profiles, IssueSpace((issue,), n))


def random_sample(rng, issue_ids, n, size):
    """Uniformly random (ordering, issue) pairs — no population structure."""
    orders = all_linear_orders(n)
    pairs = tuple(
        (orders[rng.integers(len(orders))], issue_ids[rng.integers(len(issue_ids))])
        for _ in range(size)
    )
    return SampleSet(pairs=pairs)


def uniform_population(issue_ids, n):
    orders = all_linear_orders(n)
    p = 1.0 / len(orders)
    return MarginalPopulation({issue: {o: p for o in orders} for issue in issue_ids})


def all_partial_sequences(n, min_len=2):
    """Every ordered sequence of distinct outcomes of length >= min_len."""
    out = []
    for length in range(min_len, n + 1):
        out.extend(itertools.permutations(range(n), length))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def per_call_reference():
    """The per-tally reference of the mechanism kernel:
    ``(counts, total, space, rule) -> MechanismResult`` for one ``{issue: {ordering: count}}``
    tally."""
    return scoring_mechanism_from_counts
