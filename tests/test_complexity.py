import math

import numpy as np
import pytest

from repsoc import (
    CandidateSpace,
    CapacityError,
    EXACT_MATCH,
    InducedLossClass,
    InvalidArgumentError,
    IssueSpace,
    KENDALL,
    LinearOrder,
    Profile,
    SampleSet,
    UnsupportedError,
    empirical_rademacher,
    is_shattered,
    massart_bound,
    vc_dimension,
    vc_dimension_with_witness,
)
from tests.conftest import random_explicit_space, random_sample


def lo(text):
    return LinearOrder.from_string(text)


class TestVCDimension:
    def test_singleton_is_zero(self):
        space = CandidateSpace.explicit(
            [Profile({"a": lo("0>1"), "b": lo("1>0")})], IssueSpace(("a", "b"), 2)
        )
        dimension, witness = vc_dimension_with_witness(space)
        assert dimension == 0 and witness == ()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_full_binary(self, m):
        issues = tuple(f"i{k}" for k in range(m))
        space = CandidateSpace.full(IssueSpace(issues, 2))
        dimension, witness = vc_dimension_with_witness(space)
        assert dimension == m
        assert is_shattered(space, witness)

    def test_complement_pair(self):
        # two profiles disagreeing on both issues: singles shattered, pair not
        members = [
            Profile({"a": lo("0>1"), "b": lo("0>1")}),
            Profile({"a": lo("1>0"), "b": lo("1>0")}),
        ]
        space = CandidateSpace.explicit(members, IssueSpace(("a", "b"), 2))
        dimension, witness = vc_dimension_with_witness(space)
        assert dimension == 1
        assert is_shattered(space, witness)
        assert not is_shattered(space, ("a", "b"))

    def test_non_binary_unsupported(self):
        space = CandidateSpace.full(IssueSpace(("a",), 3))
        with pytest.raises(UnsupportedError):
            vc_dimension(space)

    def test_issue_cap(self):
        space = CandidateSpace.full(IssueSpace(tuple(range(21)), 2))
        with pytest.raises(CapacityError):
            vc_dimension(space)

    def test_is_shattered_unknown_issue(self):
        space = CandidateSpace.full(IssueSpace(("a",), 2))
        with pytest.raises(InvalidArgumentError):
            is_shattered(space, ("missing",))

    def test_dimension_bounded_by_log_size(self, rng):
        for _ in range(10):
            space = random_explicit_space(rng, ("a", "b", "c"), 2, int(rng.integers(1, 7)))
            d = vc_dimension(space)
            assert 2**d <= space.size()


class TestRademacher:
    def test_singleton_class_centers_at_zero(self, rng):
        space = random_explicit_space(rng, ("a", "b"), 3, 1)
        sample = random_sample(rng, ("a", "b"), 3, 64)
        draws = 400
        estimate, stderr = empirical_rademacher(
            InducedLossClass(space, KENDALL), sample, draws, seed=5
        )
        assert abs(estimate) <= 3.0 / math.sqrt(len(sample) * draws)

    def test_massart_bound_holds(self, rng):
        for trial in range(10):
            space = random_explicit_space(rng, ("a", "b"), 3, int(rng.integers(2, 9)))
            sample = random_sample(rng, ("a", "b"), 3, int(rng.integers(20, 80)))
            rule = KENDALL if trial % 2 else EXACT_MATCH
            estimate, stderr = empirical_rademacher(
                InducedLossClass(space, rule), sample, 200, seed=trial
            )
            assert estimate <= massart_bound(space.size(), len(sample)) + 3 * stderr

    def test_doubling_sample_scales_by_inverse_sqrt2(self, rng):
        space = random_explicit_space(rng, ("a", "b"), 3, 6)
        sample = random_sample(rng, ("a", "b"), 3, 200)
        doubled = SampleSet(pairs=sample.pairs + sample.pairs)
        est1, _ = empirical_rademacher(InducedLossClass(space, KENDALL), sample, 2000, seed=1)
        est2, _ = empirical_rademacher(InducedLossClass(space, KENDALL), doubled, 2000, seed=2)
        assert est2 == pytest.approx(est1 / math.sqrt(2), rel=0.2)

    def test_errors(self, rng):
        space = random_explicit_space(rng, ("a",), 2, 1)
        empty = SampleSet(pairs=())
        with pytest.raises(InvalidArgumentError):
            empirical_rademacher(InducedLossClass(space, KENDALL), empty, 10, seed=0)
        sample = random_sample(rng, ("a",), 2, 5)
        with pytest.raises(InvalidArgumentError):
            empirical_rademacher(InducedLossClass(space, KENDALL), sample, 0, seed=0)

    def test_deterministic_given_seed(self, rng):
        space = random_explicit_space(rng, ("a", "b"), 3, 4)
        sample = random_sample(rng, ("a", "b"), 3, 30)
        cls = InducedLossClass(space, EXACT_MATCH)
        assert empirical_rademacher(cls, sample, 100, seed=9) == empirical_rademacher(
            cls, sample, 100, seed=9
        )


def test_massart_bound_formula():
    assert massart_bound(32, 128) == pytest.approx(math.sqrt(2 * math.log(32) / 128))


def test_massart_bound_beyond_64_bit_space_sizes():
    # a full 50-issue N = 4 space has 24**50 profiles, past numpy's 64-bit integers
    assert massart_bound(24**50, 100) == pytest.approx(math.sqrt(100 * math.log(24) / 100))
    assert massart_bound(2**64, 2) == pytest.approx(math.sqrt(64 * math.log(2)))
