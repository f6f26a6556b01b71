"""VC dimension, shattering and Rademacher estimates, against whole-space enumeration."""

import itertools
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
    vc_dimension_with_witness,
)
from repsoc.rng import derive_rng
from tests.conftest import member_rows, random_explicit_space, random_sample


def lo(text):
    return LinearOrder.from_string(text)


# -- the enumerated references ---------------------------------------------
# The implementations the block routines replaced: each turns the space into
# one flat list of profiles.


def enumerated_patterns(space):
    """Realized yes/no patterns of a binary space over its sorted issues."""
    issues = space.issue_space.sorted_ids()
    patterns = {
        tuple(profile(issue).ranking[0] for issue in issues) for profile in space.enumerate_profiles()
    }
    return issues, patterns


def enumerated_vc_dimension_with_witness(space):
    issues, patterns = enumerated_patterns(space)
    dimension = 0
    witness = ()
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


def enumerated_is_shattered(space, issue_subset):
    issues, patterns = enumerated_patterns(space)
    index = {issue: k for k, issue in enumerate(issues)}
    cols = [index[issue] for issue in issue_subset]
    projected = {tuple(p[k] for k in cols) for p in patterns}
    return len(projected) == 2 ** len(cols)


def enumerated_rademacher(loss_class, sample, num_sign_draws, seed):
    rule = loss_class.rule
    profiles = list(loss_class.space.enumerate_profiles())
    scores = np.array(
        [[rule.evaluate(order, profile(issue)) for order, issue in sample] for profile in profiles]
    )  # shape (|space|, |sample|)
    rng = derive_rng(seed)
    signs = rng.integers(0, 2, size=(num_sign_draws, len(sample))) * 2 - 1
    per_draw = (signs @ scores.T).max(axis=1) / len(sample)
    estimate = float(per_draw.mean())
    if num_sign_draws > 1:
        stderr = float(per_draw.std(ddof=1) / math.sqrt(num_sign_draws))
    else:
        stderr = float("inf")
    return estimate, stderr


# -- the per-member references ----------------------------------------------
# The block routines as they were before column codes: they read every
# member's orders one by one, scoring and projecting each (member, issue) cell.


def member_block_patterns(space):
    """Per block of a binary space: its issues and the set of its members' yes/no patterns."""
    return [
        (issues, {tuple(order.ranking[0] for order in row) for row in rows})
        for issues, rows in member_rows(space)
    ]


def member_shattered(patterns, cols):
    return len({tuple(p[k] for k in cols) for p in patterns}) == 2 ** len(cols)


def member_vc_dimension_with_witness(space):
    witness = []
    for issues, patterns in member_block_patterns(space):
        found = ()
        for d in range(1, len(issues) + 1):
            subsets = itertools.combinations(range(len(issues)), d)
            subset = next((c for c in subsets if member_shattered(patterns, c)), ())
            if not subset:
                break
            found = subset
        witness.extend(issues[k] for k in found)
    rank = {issue: k for k, issue in enumerate(space.issue_space.sorted_ids())}
    return len(witness), tuple(sorted(witness, key=rank.__getitem__))


def member_is_shattered(space, issue_subset):
    blocks = member_block_patterns(space)
    column = {issue: (b, k) for b, (ids, _) in enumerate(blocks) for k, issue in enumerate(ids)}
    return all(
        member_shattered(patterns, [column[i][1] for i in issue_subset if column[i][0] == b])
        for b, (_, patterns) in enumerate(blocks)
    )


def member_rademacher(loss_class, sample, num_sign_draws, seed):
    rule = loss_class.rule
    blocks = list(member_rows(loss_class.space))
    column = {issue: (b, k) for b, (ids, _) in enumerate(blocks) for k, issue in enumerate(ids)}
    parts = [[] for _ in blocks]
    for j, (_, issue) in enumerate(sample):
        parts[column[issue][0]].append((j, column[issue][1]))
    signs = derive_rng(seed).integers(0, 2, size=(num_sign_draws, len(sample))) * 2 - 1
    maxima = []
    for (_, rows), part in zip(blocks, parts):
        if part:
            scores = np.array(
                [[rule.evaluate(sample.pairs[j][0], row[k]) for j, k in part] for row in rows]
            )  # shape (block members, sample pairs on the block)
            maxima.append((signs[:, [j for j, _ in part]] @ scores.T).max(axis=1))
    per_draw = sum(maxima) / len(sample)
    stderr = per_draw.std(ddof=1) / math.sqrt(num_sign_draws) if num_sign_draws > 1 else math.inf
    return float(per_draw.mean()), float(stderr)


def repeats_orderings(space):
    """Whether some block column lists one ordering for two members."""
    return space.variant != "full" and any(
        len({row[k] for row in rows}) < len(rows) for issues, rows in member_rows(space) for k in range(len(issues))
    )


def random_space(rng, n, issue_count, most_members=12):
    """A random explicit, product (random issue partition) or full space."""
    issues = tuple(f"i{k}" for k in range(issue_count))
    variant = ("explicit", "product", "full")[rng.integers(3)]
    if variant == "full":
        return CandidateSpace.full(IssueSpace(issues, n))

    def members(block):
        most = min(most_members, math.factorial(n) ** len(block))
        return random_explicit_space(rng, block, n, int(rng.integers(1, most + 1))).profiles

    if variant == "explicit":
        return CandidateSpace.explicit(members(issues), IssueSpace(issues, n))
    shuffled = tuple(issues[k] for k in rng.permutation(issue_count))
    cuts = sorted({int(c) for c in rng.integers(1, issue_count, size=rng.integers(issue_count))})
    bounds = [0, *cuts, issue_count]
    blocks = [(shuffled[a:b], members(shuffled[a:b])) for a, b in zip(bounds, bounds[1:])]
    return CandidateSpace.product(blocks, IssueSpace(issues, n))


def test_vc_and_shattering_match_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(200):
        space = random_space(rng, 2, int(rng.integers(1, 5)))
        assert vc_dimension_with_witness(space) == enumerated_vc_dimension_with_witness(space)
        issues = space.issue_space.sorted_ids()
        for size in range(len(issues) + 1):
            for subset in itertools.combinations(issues, size):
                assert is_shattered(space, subset) == enumerated_is_shattered(space, subset)
        # a subset that repeats an issue is never shattered
        assert not is_shattered(space, (issues[0], issues[0]))
        assert not enumerated_is_shattered(space, (issues[0], issues[0]))


def test_rademacher_matches_enumeration():
    rng = np.random.default_rng(10)
    checked = {"one block": 0, "several blocks": 0}
    for trial in range(120):
        n = 2 + trial % 3
        issue_count = int(rng.integers(1, (5, 5, 3)[n - 2]))  # keeps full spaces small
        space = random_space(rng, n, issue_count, most_members=6)
        issues = space.issue_space.issue_ids
        sample = random_sample(rng, issues, n, int(rng.integers(1, 30)))
        for rule in (EXACT_MATCH, KENDALL):
            loss_class = InducedLossClass(space, rule)
            draws = int(rng.integers(1, 60))
            got = empirical_rademacher(loss_class, sample, draws, seed=trial)
            expected = enumerated_rademacher(loss_class, sample, draws, seed=trial)
            if len(list(member_rows(space))) == 1:
                checked["one block"] += 1
                assert got == expected
            else:
                checked["several blocks"] += 1
                assert got == pytest.approx(expected, rel=0, abs=1e-12)
    assert min(checked.values()) > 20


def test_vc_and_shattering_match_the_per_member_reference():
    rng = np.random.default_rng(12)
    repeated = 0
    for _ in range(150):
        space = random_space(rng, 2, int(rng.integers(1, 7)), most_members=40)
        repeated += repeats_orderings(space)
        assert vc_dimension_with_witness(space) == member_vc_dimension_with_witness(space)
        issues = space.issue_space.sorted_ids()
        for size in range(len(issues) + 1):
            for subset in itertools.combinations(issues, size):
                assert is_shattered(space, subset) == member_is_shattered(space, subset)
    assert repeated > 50


def test_rademacher_matches_the_per_member_reference_bit_for_bit():
    rng = np.random.default_rng(13)
    repeated = 0
    for trial in range(150):
        n = 2 + trial % 3
        space = random_space(rng, n, int(rng.integers(1, 5)), most_members=60)
        repeated += repeats_orderings(space)
        sample = random_sample(rng, space.issue_space.issue_ids, n, int(rng.integers(1, 40)))
        for rule in (EXACT_MATCH, KENDALL):
            loss_class = InducedLossClass(space, rule)
            draws = int(rng.integers(1, 60))
            expected = member_rademacher(loss_class, sample, draws, seed=trial)
            assert empirical_rademacher(loss_class, sample, draws, seed=trial) == expected
    assert repeated > 50


def test_rademacher_sample_issue_outside_the_space():
    issues = IssueSpace(("a", "b", "c"), 2)
    space = CandidateSpace.product(
        [(("a",), [Profile({"a": lo("0>1")})]), (("b", "c"), [Profile({"b": lo("1>0"), "c": lo("0>1")})])],
        issues,
    )
    sample = SampleSet(pairs=((lo("0>1"), "a"), (lo("1>0"), "c"), (lo("0>1"), "zz")))
    for rule in (EXACT_MATCH, KENDALL):
        with pytest.raises(InvalidArgumentError, match="'zz'"):
            empirical_rademacher(InducedLossClass(space, rule), sample, 10, seed=0)


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
            vc_dimension_with_witness(space)

    def test_full_space_past_the_block_issue_cap(self):
        # 21 blocks of one issue each: the issue cap applies per block
        space = CandidateSpace.full(IssueSpace(tuple(range(21)), 2))
        dimension, witness = vc_dimension_with_witness(space)
        assert dimension == 21 and witness == tuple(space.issue_space.sorted_ids())
        assert is_shattered(space, witness)

    def test_block_issue_cap(self):
        issues = tuple(range(21))
        space = CandidateSpace.explicit(
            [Profile({issue: lo("0>1") for issue in issues})], IssueSpace(issues, 2)
        )
        with pytest.raises(CapacityError):
            vc_dimension_with_witness(space)

    def test_is_shattered_unknown_issue(self):
        space = CandidateSpace.full(IssueSpace(("a",), 2))
        with pytest.raises(InvalidArgumentError):
            is_shattered(space, ("missing",))

    def test_dimension_bounded_by_log_size(self, rng):
        for _ in range(10):
            space = random_explicit_space(rng, ("a", "b", "c"), 2, int(rng.integers(1, 7)))
            d, _ = vc_dimension_with_witness(space)
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


def test_enumerates_nothing(monkeypatch):
    def no_enumeration(self):
        raise AssertionError("the space was enumerated")

    monkeypatch.setattr(CandidateSpace, "enumerate_profiles", no_enumeration)
    rng = np.random.default_rng(11)
    binary = CandidateSpace.full(IssueSpace(("a", "b", "c"), 2))
    assert vc_dimension_with_witness(binary) == (3, ("a", "b", "c"))
    assert is_shattered(binary, ("a", "c"))
    space = random_explicit_space(rng, ("a", "b"), 3, 5)
    sample = random_sample(rng, ("a", "b"), 3, 20)
    empirical_rademacher(InducedLossClass(space, KENDALL), sample, 10, seed=0)
