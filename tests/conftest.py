"""Shared helpers for building random spaces, populations and samples."""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import strategies as st

from repsoc import (
    CandidateSpace,
    IssueSpace,
    LinearOrder,
    MarginalPopulation,
    Profile,
    SaliencyDistribution,
    all_linear_orders,
)
from repsoc import orders as orders_module
from tests.mechanism_reference import SampleSet, scoring_mechanism_from_counts
from tests.privilege_reference import closure_verdict


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


def member_rows(space):
    """The space as independent blocks ``(issues, rows)``, a row holding one member's orders on
    ``issues`` (in sorted-id order), rows in member order.  Built from the members as profiles,
    it is the per-member view of the code blocks that the library reads; a full space gives
    each issue alone over ``all_linear_orders(n)``."""
    if space.variant == "full":
        orders = all_linear_orders(space.issue_space.n)
        return [((issue,), [(order,) for order in orders]) for issue in space.issue_space.sorted_ids()]
    return [
        (issues, [tuple(member(issue) for issue in issues) for member in members])
        for issues, members in space.blocks
    ]


def member_indices(space, profile):
    """Each block's member index of ``profile``, found among the members built as profiles:
    the kernel's winner indices of a row that chooses ``profile``."""
    return [rows.index(tuple(profile(issue) for issue in issues)) for issues, rows in member_rows(space)]


def random_subset_space(rng, n, *, issue="i", min_size=1, max_size=None):
    """Single-issue explicit space from a random nonempty subset of LO(n)."""
    orders = all_linear_orders(n)
    if max_size is None:
        max_size = len(orders)
    size = int(rng.integers(min_size, max_size + 1))
    picked = rng.choice(len(orders), size=size, replace=False)
    profiles = [Profile({issue: orders[j]}) for j in picked]
    return CandidateSpace.explicit(profiles, IssueSpace((issue,), n))


@st.composite
def candidate_spaces(draw):
    """Random explicit, product and full spaces: N = 2..4, 1..3 issues."""
    n = draw(st.integers(2, 4))
    issues = tuple(f"i{j}" for j in range(draw(st.integers(1, 3))))
    issue_space = IssueSpace(issues, n)
    orders = all_linear_orders(n)
    variant = draw(st.sampled_from(("full", "product", "explicit")))
    if variant == "full":
        return CandidateSpace.full(issue_space)

    def members(block, most):
        picked = draw(
            st.lists(st.tuples(*(st.sampled_from(orders) for _ in block)), min_size=1, max_size=most, unique=True)
        )
        return [Profile(dict(zip(block, row))) for row in picked]

    if variant == "explicit":
        return CandidateSpace.explicit(members(issues, 12), issue_space)
    # blocks list their issues in a drawn order, not sorted
    shuffled = draw(st.permutations(issues))
    cuts = sorted(draw(st.sets(st.integers(1, len(issues) - 1)))) if len(issues) > 1 else []
    bounds = [0, *cuts, len(issues)]
    blocks = [(shuffled[x:y], members(shuffled[x:y], 5)) for x, y in zip(bounds, bounds[1:])]
    return CandidateSpace.product(blocks, issue_space)


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
def count_new_orders(monkeypatch):
    """``start()`` swaps the interning cache for an empty one of the same bound and returns
    the list of ``LinearOrder`` instances built from then on, in order: every ranking the
    code asks for counts once, whatever was built before the start."""

    def start() -> list:
        built = []

        def counted(*outcomes):
            order = orders_module._new(*outcomes)
            if all(type(c) is int for c in outcomes):  # other outcomes are looked up as ints
                built.append(order)
            return order

        monkeypatch.setattr(orders_module, "_interned", lru_cache(maxsize=orders_module._INTERNED, typed=True)(counted))
        return built

    return start


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def per_call_reference():
    """The per-tally reference of the mechanism kernel:
    ``(counts, total, space, rule) -> MechanismResult`` for one ``{issue: {ordering: count}}``
    tally."""
    return scoring_mechanism_from_counts


@pytest.fixture(scope="session")
def closure_reference():
    """The member-table reference of the privilege oracle:
    ``(space, issue, subset) -> bool``, the closure verdict of ``subset`` on ``issue``."""
    return closure_verdict
