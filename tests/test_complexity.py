"""VC dimension, shattering and Rademacher estimates, against whole-space enumeration."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from repsoc import (
    CandidateSpace,
    CapacityError,
    EXACT_MATCH,
    InvalidArgumentError,
    IssueSpace,
    KENDALL,
    LinearOrder,
    Profile,
    UnsupportedError,
    empirical_rademacher,
    is_shattered,
    massart_bound,
    vc_dimension_with_witness,
)
from repsoc import complexity
from repsoc.rng import derive_rng
from tests.conftest import member_rows, random_explicit_space, random_sample
from tests.mechanism_reference import SampleSet


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


def shuffled_cells(rng, sample, extra=()):
    """The sample as ``(cells, pairs)``, its cells in a random order among ``extra`` unsampled
    cells, so that cell indices follow neither the sample's nor a canonical order."""
    sampled, pairs = sample.cells()
    cells = sampled + [cell for cell in extra if cell not in sampled]
    order = rng.permutation(len(cells))
    at = np.argsort(order)  # a cell's new index
    return [cells[k] for k in order], at[pairs]


def enumerated_rademacher(space, rule, cells, pairs, num_sign_draws, seed):
    profiles = list(space.enumerate_profiles())
    sample = [cells[c] for c in pairs]
    scores = np.array(
        [[rule.evaluate(order, profile(issue)) for issue, order in sample] for profile in profiles]
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


def member_rademacher(space, rule, cells, pairs, num_sign_draws, seed):
    """Scores every (member, pair) with float ``rule.evaluate``, one pair at a time."""
    sample = [cells[c] for c in pairs]
    blocks = list(member_rows(space))
    column = {issue: (b, k) for b, (ids, _) in enumerate(blocks) for k, issue in enumerate(ids)}
    parts = [[] for _ in blocks]
    for j, (issue, _) in enumerate(sample):
        parts[column[issue][0]].append((j, column[issue][1]))
    signs = derive_rng(seed).integers(0, 2, size=(num_sign_draws, len(sample))) * 2 - 1
    maxima = []
    for (_, rows), part in zip(blocks, parts):
        if part:
            scores = np.array(
                [[rule.evaluate(sample[j][1], row[k]) for j, k in part] for row in rows]
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
    rng, shuffle = np.random.default_rng(10), np.random.default_rng(110)
    checked = {"one block": 0, "several blocks": 0}
    for trial in range(120):
        n = 2 + trial % 3
        issue_count = int(rng.integers(1, (5, 5, 3)[n - 2]))  # keeps full spaces small
        space = random_space(rng, n, issue_count, most_members=6)
        issues = space.issue_space.issue_ids
        sample = random_sample(rng, issues, n, int(rng.integers(1, 30)))
        cells, pairs = shuffled_cells(shuffle, sample, random_sample(shuffle, issues, n, 3).cells()[0])
        for rule in (EXACT_MATCH, KENDALL):
            draws = int(rng.integers(1, 60))
            got = empirical_rademacher(space, rule, cells, pairs, draws, seed=trial)
            expected = enumerated_rademacher(space, rule, cells, pairs, draws, seed=trial)
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
    rng, shuffle = np.random.default_rng(13), np.random.default_rng(113)
    repeated = 0
    for trial in range(150):
        n = 2 + trial % 3
        space = random_space(rng, n, int(rng.integers(1, 5)), most_members=60)
        repeated += repeats_orderings(space)
        sample = random_sample(rng, space.issue_space.issue_ids, n, int(rng.integers(1, 40)))
        cells, pairs = shuffled_cells(shuffle, sample)
        for rule in (EXACT_MATCH, KENDALL):
            draws = int(rng.integers(1, 60))
            expected = member_rademacher(space, rule, cells, pairs, draws, seed=trial)
            assert empirical_rademacher(space, rule, cells, pairs, draws, seed=trial) == expected
    assert repeated > 50


def test_rademacher_slices_match_the_per_member_reference_under_forced_caps(monkeypatch):
    """Under caps of 1 to 30 entries the one-hot rows come a few cells at a time, and the
    Kendall pairs of the columns of blocks over two to four issues are read a slice of
    orderings at a time; every estimate is still the per-pair reference's, bit for bit."""
    rng, shuffle = np.random.default_rng(14), np.random.default_rng(114)
    calls = []
    block_scores = complexity.block_scores
    monkeypatch.setattr(complexity, "block_scores", lambda rows, *rest: calls.append(len(rows)) or block_scores(rows, *rest))
    wide = 0
    for trial in range(60):
        n = 3 + trial % 2
        space = random_space(rng, n, int(rng.integers(2, 5)), most_members=20)
        wide += any(len(issues) > 1 for issues, _ in member_rows(space))
        sample = random_sample(rng, space.issue_space.issue_ids, n, int(rng.integers(10, 40)))
        cells, pairs = shuffled_cells(shuffle, sample)
        distinct = len(set(pairs.tolist()))
        for cap, rule in itertools.product((1, 9, 30), (EXACT_MATCH, KENDALL)):
            expected = member_rademacher(space, rule, cells, pairs, 25, seed=trial)
            calls.clear()
            with monkeypatch.context() as patch:
                for module in ("repsoc.mechanisms", "repsoc.complexity"):
                    patch.setattr(f"{module}.DEFAULT_ENUMERATION_CAP", cap)
                assert empirical_rademacher(space, rule, cells, pairs, 25, seed=trial) == expected
            step = math.isqrt(cap)  # one-hot rows per slice
            assert calls == [min(step, distinct - lo) for lo in range(0, distinct, step)]
    assert wide > 20


def test_rademacher_one_hot_rows_stay_within_a_forced_cap(monkeypatch):
    """About 900 distinct cells of a full 40-issue N = 4 space under a cap of 10,000 entries:
    the one-hot rows come 100 cells at a time, so no 900 x 900 matrix (6.5 MB) is built."""
    space = CandidateSpace.full(IssueSpace(tuple(f"i{k}" for k in range(40)), 4))
    sample = random_sample(np.random.default_rng(15), space.issue_space.issue_ids, 4, 3000)
    cells, pairs = sample.cells()
    assert len(cells) > 850
    expected = empirical_rademacher(space, KENDALL, cells, pairs, 5, seed=2)
    for module in ("repsoc.mechanisms", "repsoc.complexity"):
        monkeypatch.setattr(f"{module}.DEFAULT_ENUMERATION_CAP", 10_000)
    tracemalloc.start()
    try:
        got = empirical_rademacher(space, KENDALL, cells, pairs, 5, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000
    assert got == expected


def test_rademacher_sample_issue_outside_the_space():
    issues = IssueSpace(("a", "b", "c"), 2)
    space = CandidateSpace.product(
        [(("a",), [Profile({"a": lo("0>1")})]), (("b", "c"), [Profile({"b": lo("1>0"), "c": lo("0>1")})])],
        issues,
    )
    cells = [("a", lo("0>1")), ("c", lo("1>0")), ("zz", lo("0>1"))]
    for rule in (EXACT_MATCH, KENDALL):
        with pytest.raises(InvalidArgumentError, match="'zz'"):
            empirical_rademacher(space, rule, cells, np.arange(3), 10, seed=0)


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
        estimate, stderr = empirical_rademacher(space, KENDALL, *sample.cells(), draws, seed=5)
        assert abs(estimate) <= 3.0 / math.sqrt(len(sample) * draws)

    def test_massart_bound_holds(self, rng):
        for trial in range(10):
            space = random_explicit_space(rng, ("a", "b"), 3, int(rng.integers(2, 9)))
            sample = random_sample(rng, ("a", "b"), 3, int(rng.integers(20, 80)))
            rule = KENDALL if trial % 2 else EXACT_MATCH
            estimate, stderr = empirical_rademacher(space, rule, *sample.cells(), 200, seed=trial)
            assert estimate <= massart_bound(space.size(), len(sample)) + 3 * stderr

    def test_doubling_sample_scales_by_inverse_sqrt2(self, rng):
        space = random_explicit_space(rng, ("a", "b"), 3, 6)
        sample = random_sample(rng, ("a", "b"), 3, 200)
        doubled = SampleSet(pairs=sample.pairs + sample.pairs)
        est1, _ = empirical_rademacher(space, KENDALL, *sample.cells(), 2000, seed=1)
        est2, _ = empirical_rademacher(space, KENDALL, *doubled.cells(), 2000, seed=2)
        assert est2 == pytest.approx(est1 / math.sqrt(2), rel=0.2)

    def test_errors(self, rng):
        space = random_explicit_space(rng, ("a",), 2, 1)
        empty = SampleSet(pairs=())
        with pytest.raises(InvalidArgumentError):
            empirical_rademacher(space, KENDALL, *empty.cells(), 10, seed=0)
        sample = random_sample(rng, ("a",), 2, 5)
        with pytest.raises(InvalidArgumentError):
            empirical_rademacher(space, KENDALL, *sample.cells(), 0, seed=0)

    def test_deterministic_given_seed(self, rng):
        space = random_explicit_space(rng, ("a", "b"), 3, 4)
        sample = random_sample(rng, ("a", "b"), 3, 30)
        args = (space, EXACT_MATCH, *sample.cells(), 100)
        assert empirical_rademacher(*args, seed=9) == empirical_rademacher(*args, seed=9)


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
    empirical_rademacher(space, KENDALL, *sample.cells(), 10, seed=0)
