"""The block sup-gap of ``generalization_experiment`` against whole-space enumeration."""

import itertools
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repsoc import (
    CandidateSpace,
    CapacityError,
    InvalidArgumentError,
    IssueSpace,
    LinearOrder,
    MarginalPopulation,
    Profile,
    SaliencyDistribution,
    all_linear_orders,
    generalization_experiment,
)
from repsoc import EXACT_MATCH, KENDALL, SCORING_RULES, experiments, spaces
from repsoc.axioms import draw_tallies
from repsoc.mechanisms import block_scores
from repsoc.spaces import DEFAULT_ENUMERATION_CAP
from repsoc.population import _cells
from repsoc.rng import derive_rng
from tests.conftest import member_rows, random_explicit_space
from tests.mechanism_reference import ordered_codes, population_utility


def enumerated_generalization(space, saliency, population, sizes, trials, seed):
    """Reference gaps and regret slacks, by evaluating every profile of the space.

    This is the enumerated implementation the block routine replaced,
    returning ``(gaps, regret_slack)`` in place of the result object.
    """
    profiles = list(space.enumerate_profiles())
    cells, probs = _cells(saliency, population)
    match = np.array(
        [[1.0 if profile(issue) == order else 0.0 for issue, order in cells] for profile in profiles]
    )  # (|space|, |cells|)
    pop_util = np.array(
        [population_utility(profile, saliency, population) for profile in profiles]
    )
    max_pop = pop_util.max()

    gaps: dict = {}
    regret_slack: dict = {}
    for size_index, size in enumerate(sizes):
        rng = derive_rng(seed, size_index)
        if size == 0:
            sample_util = np.zeros((trials, len(profiles)))
        else:
            rows = rng.multinomial(size, probs, size=trials)
            sample_util = rows @ match.T / size
        per_trial_gap = np.abs(sample_util - pop_util).max(axis=1)
        # majority vote = first argmax in canonical enumeration order
        winner = sample_util.argmax(axis=1)
        slack = pop_util[winner] - (max_pop - 2.0 * per_trial_gap)
        gaps[int(size)] = per_trial_gap
        regret_slack[int(size)] = slack
    return gaps, regret_slack


def _members(draw, issues, orders, max_size):
    """A nonempty list of distinct partial profiles over ``issues``."""
    rows = list(itertools.product(range(len(orders)), repeat=len(issues)))
    picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=max_size, unique=True))
    return [Profile({i: orders[j] for i, j in zip(issues, row)}) for row in picked]


def _grid_distribution(draw, keys, keep_zeros):
    """Weights 0..2 normalized: zero entries and equal values are common."""
    weights = draw(st.lists(st.integers(0, 2), min_size=len(keys), max_size=len(keys)).filter(any))
    total = sum(weights)
    return {key: w / total for key, w in zip(keys, weights) if w or keep_zeros}


@st.composite
def generalization_inputs(draw, most_outcomes=3, fewest_outcomes=2):
    n = draw(st.integers(fewest_outcomes, most_outcomes))
    issues = tuple(f"i{j}" for j in range(draw(st.integers(1, 3))))
    issue_space = IssueSpace(issues, n)
    orders = all_linear_orders(n)
    variant = draw(st.sampled_from(("full", "product", "explicit")))
    if variant == "full":
        space = CandidateSpace.full(issue_space)
    elif variant == "product":
        cuts = sorted(draw(st.sets(st.integers(1, len(issues) - 1)))) if len(issues) > 1 else []
        bounds = [0, *cuts, len(issues)]
        blocks = [
            (issues[a:b], _members(draw, issues[a:b], orders, 8)) for a, b in zip(bounds, bounds[1:])
        ]
        space = CandidateSpace.product(blocks, issue_space)
    else:
        space = CandidateSpace.explicit(_members(draw, issues, orders, 20), issue_space)
    keep_zeros = draw(st.booleans())
    population = MarginalPopulation(
        {issue: _grid_distribution(draw, orders, keep_zeros) for issue in issues}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-saliency issues warn
        # in a drawn order, so that the sum over issues interleaves product blocks
        saliency = SaliencyDistribution(_grid_distribution(draw, draw(st.permutations(issues)), True))
    sizes = sorted(
        draw(st.lists(st.sampled_from((0, 1, 2, 3, 4, 6, 8, 12)), min_size=1, max_size=3, unique=True))
    )
    return space, saliency, population, sizes, draw(st.integers(1, 6)), draw(st.integers(0, 2**16))


@settings(max_examples=200, deadline=None)
@given(generalization_inputs())
def test_block_sup_matches_enumeration_bit_for_bit(inputs):
    space, saliency, population, sizes, trials, seed = inputs
    result = generalization_experiment(space, saliency, population, sizes, trials, seed)
    gaps, regret_slack = enumerated_generalization(space, saliency, population, sizes, trials, seed)
    for size in sizes:
        assert np.array_equal(result.gaps[size], gaps[size])
        assert np.array_equal(result.regret_slack[size], regret_slack[size])


def lab_max_utility(space, saliency, population):
    """The max U of a lab run over committees of size 1: the one gap the lab finds at size 0,
    that of the empty committee."""
    found, sup_gap = [], experiments._sup_gap

    def spy(blocks, sequence, counts, size, delta):
        gaps = sup_gap(blocks, sequence, counts, size, delta)
        found.extend(gaps.tolist() if size == 0 else ())
        return gaps

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_sup_gap", spy)
        generalization_experiment(space, saliency, population, [1], 2, seed=0)
    (max_u,) = found
    return max_u


def enumerated_max_utility(space, saliency, population):
    return max(population_utility(profile, saliency, population) for profile in space.enumerate_profiles())


@settings(max_examples=200, deadline=None)
@given(generalization_inputs())
def test_max_utility_matches_enumeration_bit_for_bit(inputs):
    space, saliency, population = inputs[:3]
    expected = enumerated_max_utility(space, saliency, population)
    assert np.float64(lab_max_utility(space, saliency, population)).tobytes() == np.float64(expected).tobytes()


def test_max_utility_under_a_unanimous_population():
    """Every issue's population is one ordering.  Over the full space each block's best member
    is its cell; over a space without the cells every member has utility 0.0, so every block
    ties throughout."""
    orders = all_linear_orders(3)
    issues = IssueSpace(("a", "b"), 3)
    population = MarginalPopulation({"a": {orders[0]: 1.0}, "b": {orders[5]: 1.0}})
    saliency = SaliencyDistribution({"b": 0.6, "a": 0.4})
    off = CandidateSpace.explicit([Profile({"a": orders[j], "b": orders[j]}) for j in (1, 2, 3)], issues)
    for space, expected in ((CandidateSpace.full(issues), 0.6 + 0.4), (off, 0.0)):
        assert enumerated_max_utility(space, saliency, population) == expected
        assert lab_max_utility(space, saliency, population) == expected


def test_max_utility_over_interleaved_product_blocks():
    """Block (a, c) holds two members with the same summed terms, 0.3 * 0.1 + 0.3 * 0.2, and
    block (b,) lies between a and c in saliency order.  Summed issue by issue, the first of
    them gives 0.36999999999999994 and the second 0.37: the search keeps both and combines
    them with block (b,)'s best exactly, where the first maximum of the totals would not."""
    o = all_linear_orders(3)
    population = MarginalPopulation({
        "a": {o[0]: 0.1, o[1]: 0.2, o[2]: 0.7}, "b": {o[0]: 0.7, o[1]: 0.3}, "c": {o[0]: 0.1, o[1]: 0.2, o[2]: 0.7},
    })
    saliency = SaliencyDistribution({"a": 0.3, "b": 0.4, "c": 0.3})
    blocks = [
        (("a", "c"), [Profile({"a": o[0], "c": o[1]}), Profile({"a": o[1], "c": o[0]})]),
        (("b",), [Profile({"b": o[0]}), Profile({"b": o[1]})]),
    ]
    space = CandidateSpace.product(blocks, IssueSpace(("a", "b", "c"), 3))
    first = (0.3 * 0.1 + 0.4 * 0.7) + 0.3 * 0.2
    assert first == 0.36999999999999994 and enumerated_max_utility(space, saliency, population) == 0.37
    assert lab_max_utility(space, saliency, population) == 0.37


def member_space_blocks(space, saliency, population, cells):
    """``experiments._space_blocks`` one member at a time: per block, the rows of cell indices
    of :func:`first_of_each_class` and each kept member's population terms, looked up one by
    one."""
    weighted = [issue for issue in saliency.issues if saliency(issue) != 0]
    term_of = {issue: {} for issue in space.issue_space.issue_ids}
    for issue in weighted:
        w = saliency(issue)
        for order, mass in population.distribution(issue).items():
            term_of[issue][order] = w * mass
    place, blocks = {}, []
    for (issues, _), kept in zip(member_rows(space), first_of_each_class(space, cells)):
        place.update((issue, (len(blocks), j)) for j, issue in enumerate(issues))
        tables = [term_of[issue] for issue in issues]
        terms = np.array([[table.get(order, 0.0) for table, order in zip(tables, row)] for row in kept.values()])
        classes = np.array(list(kept), dtype=np.intp)
        blocks.append((classes, terms, terms.sum(axis=1)))
    return blocks, [place[issue] for issue in weighted]


@settings(max_examples=200, deadline=None)
@given(generalization_inputs(most_outcomes=4))
def test_space_blocks_match_the_per_member_reference(inputs):
    """The blocks' classes and population terms; the members' counts are checked against
    whole-space enumeration by ``test_block_sup_matches_enumeration_bit_for_bit``."""
    space, saliency, population = inputs[:3]
    cells = _cells(saliency, population)[0]
    blocks, sequence = experiments._space_blocks(space, saliency, population, cells)
    expected_blocks, expected_sequence = member_space_blocks(space, saliency, population, cells)
    assert sequence == expected_sequence
    assert len(blocks) == len(expected_blocks)
    for block, expected in zip(blocks, expected_blocks):
        got = (block.classes, block.terms, block.totals)
        for array, reference in zip(got, expected):
            assert array.dtype == reference.dtype and np.array_equal(array, reference)
        assert block.term_ids.dtype == np.intp and same_rows(block.term_ids, block.terms)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from((0.0, 0.1, 0.2, 0.1 + 0.2, 0.3, 1 / 3)), min_size=k, max_size=k), min_size=1, max_size=40)))
@example([[0.1 + 0.2, 0.0], [0.3, 0.0], [0.1 + 0.2, 0.0], [0.3, 0.0]])
def test_first_seen_numbers_each_row_by_its_first_equal_row(rows):
    """Tied rows get one id, the index of the first of them; terms one ulp apart (0.1 + 0.2 and
    0.3) are told apart."""
    terms = np.array(rows, dtype=float).reshape(len(rows), -1)
    expected = [next(j for j in range(len(rows)) if rows[j] == row) for row in rows]
    assert spaces._first_seen(terms).tolist() == expected


def same_rows(ids: np.ndarray, rows: np.ndarray) -> bool:
    """Whether ``ids`` are equal exactly where the rows of ``rows`` are."""
    return np.array_equal(ids[:, None] == ids[None, :], (rows[:, None] == rows[None, :]).all(axis=2))


def first_of_each_class(space, cells):
    """Per block, the first member, in member order, of each class of members whose orderings
    agree on every issue or lie off the cells there: a dict from each class's row of cell
    indices (-1 off the cells) to its first member's orderings, built one member at a time."""
    cell_of = {cell: j for j, cell in enumerate(cells)}
    kept = []
    for issues, rows in member_rows(space):
        seen = {}
        for row in rows:
            seen.setdefault(tuple(cell_of.get(cell, -1) for cell in zip(issues, row)), row)
        kept.append(seen)
    return kept


@settings(max_examples=200, deadline=None)
@given(generalization_inputs(most_outcomes=4))
def test_quotient_keeps_the_first_member_of_each_class(inputs):
    space, saliency, population = inputs[:3]
    cells, _ = _cells(saliency, population)
    blocks, _ = experiments._space_blocks(space, saliency, population, cells)
    assert [block.classes.tolist() for block in blocks] == [
        [list(row) for row in kept] for kept in first_of_each_class(space, cells)
    ]


def test_quotient_class_counts_on_known_spaces():
    """Issue a has cells 012 and 021 (and a zero mass on 102), b the cell 012 alone, and c no
    saliency: each keeps its cells and one class off them."""
    orders = {str(o): o for o in all_linear_orders(3)}
    population = MarginalPopulation({
        "a": {orders["0>1>2"]: 0.5, orders["0>2>1"]: 0.5, orders["1>0>2"]: 0.0},
        "b": {orders["0>1>2"]: 1.0},
        "c": {orders["2>1>0"]: 1.0},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero saliency warns
        saliency = SaliencyDistribution({"a": 0.5, "b": 0.5, "c": 0.0})
    cells, _ = _cells(saliency, population)
    full = CandidateSpace.full(IssueSpace(("a", "b", "c"), 3))
    blocks, _ = experiments._space_blocks(full, saliency, population, cells)
    assert [block.classes.ravel().tolist() for block in blocks] == [[0, 1, -1], [2, -1], [-1]]
    two = IssueSpace(("a", "b"), 3)
    pairs = CandidateSpace.explicit(list(CandidateSpace.full(two).enumerate_profiles()), two)
    (block,), _ = experiments._space_blocks(pairs, saliency, population, cells)
    assert block.classes.tolist() == [[a, b] for a in (0, 1, -1) for b in (2, -1)]


def every_member(classes):
    """A stand-in for ``experiments._first_of_each_class`` that keeps every member."""
    return np.arange(len(classes))


@settings(max_examples=100, deadline=None)
@given(generalization_inputs(most_outcomes=4, fewest_outcomes=4))
def test_identity_quotient_gives_the_same_bytes(inputs):
    """The lab over the whole space, every member counted, against the lab over one member per
    class, at N = 4, which ``test_block_sup_matches_enumeration_bit_for_bit`` does not reach."""
    space, saliency, population, sizes, trials, seed = inputs
    result = generalization_experiment(space, saliency, population, sizes, trials, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_first_of_each_class", every_member)
        whole = generalization_experiment(space, saliency, population, sizes, trials, seed)
    for size in sizes:
        assert result.gaps[size].tobytes() == whole.gaps[size].tobytes()
        assert result.regret_slack[size].tobytes() == whole.regret_slack[size].tobytes()


def _three_issue_setup(variant, n=3, members=40, seed=7, partial=False):
    """An explicit, product or full space over issues a, b, c, and a population with random
    masses on every ordering of each issue, so that every member is its own class.  A
    ``partial`` population instead puts zero mass on every other ordering and no saliency
    on issue c."""
    rng = np.random.default_rng(seed)
    issues, orders = ("a", "b", "c"), all_linear_orders(n)
    population = MarginalPopulation(
        {issue: dict(zip(orders, rng.dirichlet(np.ones(len(orders))))) for issue in issues}
    )
    saliency = SaliencyDistribution({"b": 0.5, "a": 0.3, "c": 0.2})
    if partial:
        kept = {issue: [population.distribution(issue)[o] * (j % 2) for j, o in enumerate(orders)]
                for issue in issues}
        population = MarginalPopulation(
            {issue: {o: m / sum(ms) for o, m in zip(orders, ms)} for issue, ms in kept.items()}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero saliency warns
            saliency = SaliencyDistribution({"b": 0.5, "a": 0.5, "c": 0.0})
    if variant == "explicit":
        space = random_explicit_space(rng, issues, n, members)
    elif variant == "product":
        blocks = [(ids, random_explicit_space(rng, ids, n, size).profiles) for ids, size in
                  ((("a", "c"), 12), (("b",), 4))]
        space = CandidateSpace.product(blocks, IssueSpace(issues, n))
    else:
        space = CandidateSpace.full(IssueSpace(issues, n))
    return space, saliency, population


SETUPS = [pytest.param(v, p, id=v + "-partial" * p) for p in (False, True) for v in ("explicit", "product", "full")]


def _class_count(space, saliency, population):
    """The number of profiles of one member per class."""
    blocks, _ = experiments._space_blocks(space, saliency, population, _cells(saliency, population)[0])
    return int(np.prod([len(block.classes) for block in blocks]))


@pytest.mark.parametrize("variant, partial", SETUPS)
def test_forced_caps_match_the_default_cap_bit_for_bit(monkeypatch, variant, partial):
    """Under a cap of 1 or 7 entries the lab counts one trial at a time; under 60 it counts
    the full space a few trials at a time.  Gaps and regret slacks do not move a bit.  Under
    full support the lab counts every member; under partial support, one per class."""
    space, saliency, population = _three_issue_setup(variant, partial=partial)
    assert (_class_count(space, saliency, population) < space.size()) == partial
    sizes, trials = [0, 2, 9, 40], 25
    expected = generalization_experiment(space, saliency, population, sizes, trials, seed=9)
    for cap in (1, 7, 60, DEFAULT_ENUMERATION_CAP):
        with monkeypatch.context() as patch:
            patch.setattr("repsoc.experiments.DEFAULT_ENUMERATION_CAP", cap)
            result = generalization_experiment(space, saliency, population, sizes, trials, seed=9)
        for size in sizes:
            assert result.gaps[size].tobytes() == expected.gaps[size].tobytes()
            assert result.regret_slack[size].tobytes() == expected.regret_slack[size].tobytes()


def padded_gather(rows, cells, space):
    """Per code block, each member's count: its cells' tally columns summed, with a zero column
    for an ordering off the cells, each (member, issue)'s cell looked up one by one."""
    place = {cell: j for j, cell in enumerate(cells)}
    padded = np.hstack([rows, np.zeros((len(rows), 1), dtype=np.int64)])  # column -1: no cell
    return [
        padded[:, [[place.get((i, column[c]), -1) for i, column, c in zip(issues, columns, row)]
                   for row in codes.tolist()]].sum(axis=2)
        for issues, columns, codes in ordered_codes(space)
    ]


def kendall_gather(rows, cells, space):
    """Per code block, each member's Kendall points: the counts times the per-pair points
    ``KENDALL.points`` of each cell against the member's ordering on the cell's issue (0 for a
    cell on another block's issue)."""
    out = []
    for issues, columns, codes in ordered_codes(space):
        members = [dict(zip(issues, map(tuple.__getitem__, columns, row))) for row in codes.tolist()]
        points = [[KENDALL.points(order, m[issue]) if issue in m else 0 for m in members] for issue, order in cells]
        out.append(rows @ np.array(points, dtype=np.int64).reshape(len(cells), len(members)))
    return out


@pytest.mark.parametrize("variant, partial", SETUPS)
def test_block_scores_under_forced_caps_match_the_padded_gather(monkeypatch, variant, partial):
    """Under a cap of 1 or 7 entries the kernel scores one tally at a time, and Kendall's pair
    signs one ordering at a time; under 60 it scores the full space a few tallies at a time.
    Exact-match points are placed by index, and Kendall points match a per-pair gather."""
    space, saliency, population = _three_issue_setup(variant, partial=partial)
    cells, probs = _cells(saliency, population)
    rows = np.vstack([derive_rng(9, j).multinomial(size, probs, size=25) for j, size in enumerate((0, 2, 9, 40))])
    expected = {EXACT_MATCH: padded_gather(rows, cells, space), KENDALL: kendall_gather(rows, cells, space)}
    for cap, rule in itertools.product((1, 7, 60), (EXACT_MATCH, KENDALL)):
        with monkeypatch.context() as patch:
            patch.setattr("repsoc.mechanisms.DEFAULT_ENUMERATION_CAP", cap)
            chunks = list(block_scores(rows, cells, space, rule))
        assert len(chunks) > 1
        for b, points in enumerate(expected[rule]):
            assert np.array_equal(np.vstack([scores[b] for _, scores in chunks]), points)


def test_lab_arrays_stay_within_a_forced_cap(monkeypatch):
    """Under a cap of 20,000 entries (160 KB of int64), 250 trials over a 500-member block of
    3 issues are counted 13 trials at a time, the (trials x issues x members) gather included:
    the peak stays near 0.5 MB.  A gather of every trial at once would hold 375,000 entries
    (3 MB), and one that ignored the issue count would pass the cap threefold."""
    space, saliency, population = _three_issue_setup("explicit", n=4, members=500, seed=5)
    assert _class_count(space, saliency, population) == space.size()
    args = (space, saliency, population, [20, 200], 250)
    expected = generalization_experiment(*args, seed=1)
    for module in ("repsoc.experiments", "repsoc.axioms"):  # the lab's chunks, the plan check
        monkeypatch.setattr(f"{module}.DEFAULT_ENUMERATION_CAP", 20_000)
    tracemalloc.start()
    try:
        result = generalization_experiment(*args, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 750_000
    for size in result.sizes:
        assert result.gaps[size].tobytes() == expected.gaps[size].tobytes()
        assert result.regret_slack[size].tobytes() == expected.regret_slack[size].tobytes()


def test_wide_columns_are_counted_without_points_tables(monkeypatch):
    """A full N = 6 issue over a population on all 720 orderings: the members' counts are
    gathered by cell index, and no Kendall points of 720 x 720 pairs are scored."""
    orders = all_linear_orders(6)
    rng = np.random.default_rng(8)
    population = MarginalPopulation({"a": dict(zip(orders, rng.dirichlet(np.ones(720))))})
    space, saliency = CandidateSpace.full(IssueSpace(("a",), 6)), SaliencyDistribution({"a": 1.0})

    def no_pairs(*_):
        raise AssertionError("Kendall points were scored")

    with monkeypatch.context() as patch:
        patch.setattr("repsoc.mechanisms._above", no_pairs)
        result = generalization_experiment(space, saliency, population, [0, 50, 5000], 30, seed=6)
    gaps, regret_slack = enumerated_generalization(space, saliency, population, [0, 50, 5000], 30, 6)
    for size in result.sizes:
        assert result.gaps[size].tobytes() == gaps[size].tobytes()
        assert result.regret_slack[size].tobytes() == regret_slack[size].tobytes()


def test_full_eight_outcome_space_under_a_small_support_is_quick(monkeypatch):
    """Two full N = 8 issues (40,320 members each) under a population on 5 orderings per
    issue: each block keeps its 5 cells and one class off them, and the lab gives the bytes
    of counting every member."""
    orders = all_linear_orders(8)
    rng = np.random.default_rng(3)
    population = MarginalPopulation({
        issue: dict(zip((orders[j] for j in rng.choice(len(orders), 5, replace=False)),
                        rng.dirichlet(np.ones(5))))
        for issue in "ab"
    })
    space, saliency = CandidateSpace.full(IssueSpace(("a", "b"), 8)), SaliencyDistribution({"a": 0.6, "b": 0.4})
    blocks, _ = experiments._space_blocks(space, saliency, population, _cells(saliency, population)[0])
    assert [len(block.classes) for block in blocks] == [6, 6]
    args = (space, saliency, population, [0, 1, 8, 64, 512], 20)
    started = time.perf_counter()
    result = generalization_experiment(*args, seed=2)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    monkeypatch.setattr(experiments, "_first_of_each_class", every_member)
    whole = generalization_experiment(*args, seed=2)
    for size in result.sizes:
        assert result.gaps[size].tobytes() == whole.gaps[size].tobytes()
        assert result.regret_slack[size].tobytes() == whole.regret_slack[size].tobytes()


def test_one_cell_index_per_run(monkeypatch):
    """The classes, the population terms and every size's counts read one cell index."""
    calls, cell_index = [], experiments._cell_index
    monkeypatch.setattr(experiments, "_cell_index", lambda cells, space: calls.append(1) or cell_index(cells, space))
    space, saliency, population = _three_issue_setup("product", partial=True)
    generalization_experiment(space, saliency, population, [0, 2, 9, 40], 5, seed=1)
    assert len(calls) == 1


@pytest.mark.parametrize("rule", ("exact", "kendall"))
@pytest.mark.parametrize("variant", ("explicit", "product", "full"))
def test_block_scores_are_c_ordered(rule, variant):
    """Row-wise argmax over an F-ordered (chunk x members) array is several times slower."""
    space, saliency, population = _three_issue_setup(variant)
    cells, probs = _cells(saliency, population)
    rows = derive_rng(0, 0).multinomial(30, probs, size=12)
    gather = padded_gather if rule == "exact" else kendall_gather
    for _, scores in block_scores(rows, cells, space, SCORING_RULES[rule]):
        for score, expected in zip(scores, gather(rows, cells, space)):
            assert score.flags.c_contiguous
            assert np.array_equal(score, expected)


def _tied_setup():
    """One issue, masses 1/2, 1/4, 1/4: committees of 4 often tie in gap across orderings."""
    orders = all_linear_orders(3)
    issue_space = IssueSpace(("a",), 3)
    population = MarginalPopulation({"a": {orders[0]: 0.5, orders[1]: 0.25, orders[2]: 0.25}})
    return CandidateSpace.full(issue_space), SaliencyDistribution({"a": 1.0}), population


def _widest_choices(monkeypatch) -> list:
    """Record the most candidates of any block in each call of ``_utility_ranges``."""
    widths = []
    original = experiments._utility_ranges

    def spy(blocks, sequence, candidates):
        widths.append(max(len(c) for c in candidates))
        return original(blocks, sequence, candidates)

    monkeypatch.setattr(experiments, "_utility_ranges", spy)
    return widths


def test_exact_ties_are_decided_over_every_kept_choice(monkeypatch):
    space, saliency, population = _tied_setup()
    widths = _widest_choices(monkeypatch)
    result = generalization_experiment(space, saliency, population, [4], 50, seed=3)
    assert max(widths) > 1
    gaps, regret_slack = enumerated_generalization(space, saliency, population, [4], 50, 3)
    assert np.array_equal(result.gaps[4], gaps[4])
    assert np.array_equal(result.regret_slack[4], regret_slack[4])


def _swap_blocks(pair_count, saliency_order):
    """Two-issue blocks {high low, low high}: both members have the same population utility."""
    low, high = LinearOrder((0, 1)), LinearOrder((1, 0))
    issues = tuple(f"i{j:02d}" for j in range(2 * pair_count))
    blocks = [
        (pair, [Profile({pair[0]: high, pair[1]: low}), Profile({pair[0]: low, pair[1]: high})])
        for pair in zip(issues[::2], issues[1::2])
    ]
    space = CandidateSpace.product(blocks, IssueSpace(issues, 2))
    population = MarginalPopulation({issue: {high: 0.6, low: 0.4} for issue in issues})
    order = issues if saliency_order == "by block" else issues[::2] + issues[1::2]
    saliency = SaliencyDistribution({issue: 1 / len(issues) for issue in order})
    return space, saliency, population


def test_ties_in_many_blocks_at_once(monkeypatch):
    """Twelve tied blocks: 4,096 profiles, each block closing before the next opens."""
    space, saliency, population = _swap_blocks(12, "by block")
    widths = _widest_choices(monkeypatch)
    result = generalization_experiment(space, saliency, population, [0, 4, 24], 8, seed=2)
    assert max(widths) == 2
    gaps, regret_slack = enumerated_generalization(space, saliency, population, [0, 4, 24], 8, 2)
    for size in result.sizes:
        assert np.array_equal(result.gaps[size], gaps[size])
        assert np.array_equal(result.regret_slack[size], regret_slack[size])


def _unanimous_full_space(issue_count, n):
    issues = tuple(f"q{j:03d}" for j in range(issue_count))
    population = MarginalPopulation({issue: {all_linear_orders(n)[0]: 1.0} for issue in issues})
    saliency = SaliencyDistribution({issue: 1 / issue_count for issue in issues})
    return CandidateSpace.full(IssueSpace(issues, n)), saliency, population


def test_unanimous_population_ties_in_many_blocks():
    """An issue drawn exactly ``size / k`` times ties its ordering with every unheld one."""
    space, saliency, population = _unanimous_full_space(4, 3)
    result = generalization_experiment(space, saliency, population, [4, 8], 30, seed=4)
    gaps, regret_slack = enumerated_generalization(space, saliency, population, [4, 8], 30, 4)
    for size in result.sizes:
        assert np.array_equal(result.gaps[size], gaps[size])
        assert np.array_equal(result.regret_slack[size], regret_slack[size])
    space, saliency, population = _unanimous_full_space(200, 4)  # about 70 tied blocks a trial
    started = time.perf_counter()
    result = generalization_experiment(space, saliency, population, [200], 10, seed=4)
    assert time.perf_counter() - started < 20.0
    assert (result.regret_slack[200] >= 0).all()


def test_too_many_open_choices_raise_capacity_error():
    """Saliency lists every block's first issue before any second one: 2**20 open choices."""
    space, saliency, population = _swap_blocks(20, "interleaved")
    with pytest.raises(CapacityError, match="rounding guard"):
        generalization_experiment(space, saliency, population, [4], 2, seed=0)


def test_builds_no_profile_and_enumerates_nothing(monkeypatch):
    space, saliency, population = _tied_setup()
    built = []
    original_init = Profile.__init__

    def counting_init(self, assignment):
        built.append(1)
        original_init(self, assignment)

    def no_enumeration(self, cap=None):
        raise AssertionError("the space was enumerated")

    monkeypatch.setattr(Profile, "__init__", counting_init)
    monkeypatch.setattr(CandidateSpace, "enumerate_profiles", no_enumeration)
    generalization_experiment(space, saliency, population, [0, 4, 16], 10, seed=0)
    assert built == []


def _wide_full_space(issue_count):
    rng = np.random.default_rng(0)
    issues = tuple(f"q{j}" for j in range(issue_count))
    orders = all_linear_orders(4)
    population = MarginalPopulation(
        {issue: dict(zip(orders, rng.dirichlet(np.ones(len(orders))))) for issue in issues}
    )
    saliency = SaliencyDistribution({issue: 1 / issue_count for issue in issues})
    return CandidateSpace.full(IssueSpace(issues, 4)), saliency, population


def test_two_hundred_issue_full_space_is_quick():
    space, saliency, population = _wide_full_space(200)
    started = time.perf_counter()
    result = generalization_experiment(space, saliency, population, [10, 1000, 100_000], 20, seed=1)
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0, f"took {elapsed:.1f}s"
    for size in result.sizes:
        assert ((result.gaps[size] > 0) & (result.gaps[size] <= 1)).all()
        assert (result.regret_slack[size] >= 0).all()
    assert result.median_gap(100_000) < result.median_gap(10)


def test_saliency_issue_outside_the_space():
    space = CandidateSpace.full(IssueSpace(("a",), 2))
    population = MarginalPopulation({issue: {LinearOrder((0, 1)): 1.0} for issue in "ab"})
    saliency = SaliencyDistribution({"a": 0.5, "b": 0.5})
    with pytest.raises(InvalidArgumentError, match="'b'"):
        generalization_experiment(space, saliency, population, [4], 2, seed=0)


WIDENING_SIZES = [0, 127, 128, 255, 256, 65535, 65536]  # where np.min_scalar_type(size) widens


@pytest.mark.parametrize("variant", ("explicit", "full"))
@pytest.mark.parametrize("weights", ((1.0, 0.0), (0.5, 0.5)))
def test_narrow_counts_give_the_bytes_of_int64_counts(variant, weights):
    """The lab holds counts in the least unsigned type that holds the size.  Issue ``a`` puts
    its whole mass on one ordering, so under saliency (1, 0) one count reaches the size,
    the top of its type, and every member of its block ties within the guard: each trial
    is mixed.  ``_sup_gap`` gives equal bytes on the int64 counts and on the narrow ones, and
    the lab gives the enumeration's bytes."""
    orders = all_linear_orders(3)
    issue_space = IssueSpace(("a", "b"), 3)
    space = CandidateSpace.full(issue_space)
    if variant == "explicit":
        space = CandidateSpace.explicit(list(space.enumerate_profiles()), issue_space)
    population = MarginalPopulation({"a": {orders[2]: 1.0}, "b": {orders[0]: 0.5, orders[4]: 0.5}})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero saliency warns
        saliency = SaliencyDistribution(dict(zip("ab", weights)))
    cells, tallies = draw_tallies(saliency, population, WIDENING_SIZES, 3, 5, least=0)
    blocks, sequence = experiments._space_blocks(space, saliency, population, cells)
    delta = 4 * (2 + 3) * 2.0**-52
    for size, rows in tallies:
        padded = np.pad(rows, ((0, 0), (0, 1)))
        wide = [sum(np.take(padded, c, axis=1) for c in block.classes.T) for block in blocks]
        narrow = [count.astype(np.min_scalar_type(size)) for count in wide]
        assert [count.dtype for count in narrow] == [np.min_scalar_type(size)] * len(blocks)
        assert max(int(count.max()) for count in wide) <= size
        expected = experiments._sup_gap(blocks, sequence, wide, size, delta).tobytes()
        assert experiments._sup_gap(blocks, sequence, narrow, size, delta).tobytes() == expected
    result = generalization_experiment(space, saliency, population, WIDENING_SIZES, 3, 5)
    gaps, regret_slack = enumerated_generalization(space, saliency, population, WIDENING_SIZES, 3, 5)
    for size in WIDENING_SIZES:
        assert result.gaps[size].tobytes() == gaps[size].tobytes()
        assert result.regret_slack[size].tobytes() == regret_slack[size].tobytes()


def test_mixed_trial_keys_do_not_wrap_in_narrow_counts():
    """Issue ``a`` splits its mass 1/3 : 1 - 1/3, and each trial is one split of the committee
    between those two orderings.  Where the split is exact, as 85 of 255, the three classes
    of ``a`` tie within the guard and the trial is mixed; in the narrow type
    ``count * 3 + term id`` would wrap onto the unheld class's key 0, drop that class from
    the search and change the gap by one rounding."""
    orders = all_linear_orders(3)
    space = CandidateSpace.full(IssueSpace(("a", "b"), 3))
    population = MarginalPopulation({"a": {orders[2]: 1 / 3, orders[4]: 1 - 1 / 3}, "b": {orders[0]: 1.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero saliency warns
        saliency = SaliencyDistribution({"a": 1.0, "b": 0.0})
    cells, _ = draw_tallies(saliency, population, [1], 1, 0)
    blocks, sequence = experiments._space_blocks(space, saliency, population, cells)
    held = [k for k, (issue, _) in enumerate(cells) if issue == "a"]
    for size in WIDENING_SIZES[1:]:
        padded = np.zeros((size + 1, len(cells) + 1), dtype=np.int64)
        padded[:, held] = np.stack([np.arange(size + 1), size - np.arange(size + 1)], axis=1)
        wide = [sum(np.take(padded, c, axis=1) for c in block.classes.T) for block in blocks]
        narrow = [count.astype(np.min_scalar_type(size)) for count in wide]
        expected = experiments._sup_gap(blocks, sequence, wide, size, 4 * (2 + 3) * 2.0**-52).tobytes()
        assert experiments._sup_gap(blocks, sequence, narrow, size, 4 * (2 + 3) * 2.0**-52).tobytes() == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=9))
@example([-0.0])
@example([-0.0, 0.0, -0.0, 5.0])
@example([1e308, 1.5e308])
@example([0.0, -5e-324])
def test_median_equals_numpy_bit_for_bit(values):
    """Odd and even lengths, signed zeros and sums that round or overflow included."""
    array = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # np.median's own overflow
        expected = float(np.median(array))
    assert np.array(experiments._median(array)).tobytes() == np.array(expected).tobytes()


def test_generalization_run_leaves_numpy_ma_unloaded(tmp_path):
    """``np.median`` would import ``numpy.ma``, some 6 ms of every run."""
    script = """
import sys
from repsoc import (CandidateSpace, IssueSpace, LinearOrder, MarginalPopulation,
                    SaliencyDistribution, save_candidate_space, save_population)
from repsoc.experiments import run_experiment
issues = IssueSpace(("a", "b"), 3)
save_population("population.json", issues, SaliencyDistribution({"a": 0.5, "b": 0.5}),
                MarginalPopulation({i: {LinearOrder((0, 1, 2)): 0.7, LinearOrder((2, 1, 0)): 0.3}
                                    for i in ("a", "b")}))
save_candidate_space("space.json", CandidateSpace.full(issues))
run_experiment({"kind": "generalization", "population": "population.json", "space": "space.json",
                "sizes": [4, 9], "trials": 6, "seed": 1}, "out")
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    assert (tmp_path / "out" / "gaps.csv").is_file()
