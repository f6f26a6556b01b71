import itertools
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repsoc import (
    CandidateSpace,
    CapacityError,
    EXACT_MATCH,
    InvalidArgumentError,
    IssueSpace,
    KENDALL,
    LinearOrder,
    MarginalPopulation,
    Profile,
    SaliencyDistribution,
    all_linear_orders,
    build_privilege_graph,
    exact_match_score,
    decide_tallies,
    empirical_rademacher,
    generalization_experiment,
    load_candidate_space,
    make_mechanism,
    sample_pairs,
    save_candidate_space,
    synthesize_acyclic,
)
from repsoc import mechanisms, spaces
from repsoc.mechanisms import block_scores
from repsoc.privilege import PrivilegeGraph
from tests.conftest import member_indices, random_explicit_space, random_sample, uniform_population
from tests.mechanism_reference import (
    SampleSet,
    counts_of_row,
    majority_vote,
    ordered_codes,
    population_score,
    population_utility,
    sample_score,
    sample_utility,
    scoring_mechanism,
    scoring_mechanism_from_counts,
)
from tests.privilege_reference import closed, member_table


def lo(text):
    return LinearOrder.from_string(text)


class TestSampleUtility:
    def test_all_match(self):
        profile = Profile({"i": lo("0>1"), "j": lo("1>0")})
        sample = SampleSet(((lo("0>1"), "i"), (lo("1>0"), "j")))
        assert sample_utility(profile, sample) == 1.0

    def test_none_match(self):
        profile = Profile({"i": lo("0>1")})
        sample = SampleSet(((lo("1>0"), "i"),) * 3)
        assert sample_utility(profile, sample) == 0.0

    def test_three_of_four(self):
        profile = Profile({"i": lo("0>1")})
        sample = SampleSet(
            ((lo("0>1"), "i"), (lo("0>1"), "i"), (lo("0>1"), "i"), (lo("1>0"), "i"))
        )
        assert sample_utility(profile, sample) == 0.75

    def test_empty_sample_warns(self):
        profile = Profile({"i": lo("0>1")})
        with pytest.warns(UserWarning):
            assert sample_utility(profile, SampleSet(())) == 0.0

    def test_unknown_issue(self):
        profile = Profile({"i": lo("0>1")})
        with pytest.raises(InvalidArgumentError):
            sample_utility(profile, SampleSet(((lo("0>1"), "other"),)))


class TestPopulationUtility:
    def test_unanimous_agreement(self):
        profile = Profile({"i": lo("0>1")})
        assert population_utility(
            profile, SaliencyDistribution({"i": 1.0}), MarginalPopulation({"i": {lo("0>1"): 1.0}})
        ) == 1.0

    def test_single_issue_mass(self):
        profile = Profile({"i": lo("0>1")})
        pop = MarginalPopulation({"i": {lo("0>1"): 0.7, lo("1>0"): 0.3}})
        assert population_utility(profile, SaliencyDistribution({"i": 1.0}), pop) == pytest.approx(0.7)

    def test_two_issue_average(self):
        profile = Profile({"i": lo("0>1"), "j": lo("0>1")})
        pop = MarginalPopulation(
            {
                "i": {lo("0>1"): 0.6, lo("1>0"): 0.4},
                "j": {lo("0>1"): 0.2, lo("1>0"): 0.8},
            }
        )
        saliency = SaliencyDistribution({"i": 0.5, "j": 0.5})
        assert population_utility(profile, saliency, pop) == pytest.approx(0.4)

    def test_saliency_weighted_mass_bit_for_bit(self, rng):
        issues = ("a", "b", "c")
        saliency = SaliencyDistribution({"a": 0.5, "b": 0.3, "c": 0.2})
        orders = all_linear_orders(3)
        for _ in range(20):
            masses = rng.dirichlet(np.ones(4), size=3)
            pop = MarginalPopulation(
                {
                    issue: {orders[j]: float(m) for j, m in zip(rng.permutation(6)[:4], row)}
                    for issue, row in zip(issues, masses)
                }
            )
            for profile in random_explicit_space(rng, issues, 3, 10).profiles:
                expected = 0.0
                for issue in saliency.issues:
                    expected += saliency(issue) * pop.distribution(issue).get(profile(issue), 0.0)
                assert population_utility(profile, saliency, pop) == expected


class TestScores:
    def test_sample_score_single_match(self):
        profile = Profile({"i": lo("0>1>2")})
        sample = SampleSet(((lo("0>1>2"), "i"),))
        assert sample_score(profile, sample, KENDALL) == 1.0

    def test_population_score_uniform_kendall_is_half(self):
        pop = uniform_population(("i",), 3)
        saliency = SaliencyDistribution({"i": 1.0})
        for order in all_linear_orders(3):
            profile = Profile({"i": order})
            assert population_score(profile, saliency, pop, KENDALL) == pytest.approx(0.5)

    def test_symmetric_profiles_score_identically(self):
        """Profiles tied by symmetry must produce bitwise-equal objectives."""
        pop = uniform_population(("i",), 3)
        saliency = SaliencyDistribution({"i": 1.0})
        scores = {
            population_score(Profile({"i": o}), saliency, pop, KENDALL)
            for o in all_linear_orders(3)
        }
        assert len(scores) == 1


class TestMajorityVote:
    def test_binary_reduces_to_standard_majority(self):
        space = CandidateSpace.full(IssueSpace(("i",), 2))
        sample = SampleSet(((lo("0>1"), "i"),) * 7 + ((lo("1>0"), "i"),) * 3)
        result = majority_vote(sample, space)
        assert result.chosen("i") == lo("0>1")
        assert result.sample_objective == pytest.approx(0.7)
        assert not result.tie_broken

    def test_unanimous_sample(self, rng):
        space = random_explicit_space(rng, ("a", "b"), 3, 5)
        target = space.profiles[2]
        pairs = tuple((target(issue), issue) for issue in ("a", "b") for _ in range(4))
        result = majority_vote(SampleSet(pairs), space)
        assert result.chosen == target
        assert result.sample_objective == 1.0

    def test_matches_brute_force(self, rng):
        for _ in range(60):
            space = random_explicit_space(rng, ("a", "b"), 3, 5)
            sample = random_sample(rng, ("a", "b"), 3, 50)
            result = majority_vote(sample, space)
            best = max(
                space.enumerate_profiles(),
                key=lambda p: (sample_utility(p, sample), ),
            )
            best_value = sample_utility(best, sample)
            assert sample_utility(result.chosen, sample) == pytest.approx(best_value)
            # canonical tie-break: no earlier profile achieves the same value
            for profile in space.enumerate_profiles():
                if profile == result.chosen:
                    break
                assert sample_utility(profile, sample) < best_value

    def test_anonymity(self, rng):
        space = CandidateSpace.full(IssueSpace(("a", "b"), 3))
        sample = random_sample(rng, ("a", "b"), 3, 30)
        shuffled = SampleSet(tuple(sample.pairs[::-1]))
        assert majority_vote(sample, space).chosen == majority_vote(shuffled, space).chosen

    def test_tie_set_and_canonical_winner(self):
        space = CandidateSpace.full(IssueSpace(("i",), 2))
        sample = SampleSet(((lo("0>1"), "i"), (lo("1>0"), "i")))
        result = majority_vote(sample, space)
        assert result.tie_set_size == 2 and result.tie_broken
        assert result.chosen("i") == lo("0>1")

    def test_empty_sample_canonical(self):
        space = CandidateSpace.full(IssueSpace(("i",), 3))
        with pytest.warns(UserWarning):
            result = majority_vote(SampleSet(()), space)
        assert result.chosen("i") == lo("0>1>2")

    def test_unknown_issue(self):
        space = CandidateSpace.full(IssueSpace(("i",), 2))
        with pytest.raises(InvalidArgumentError):
            majority_vote(SampleSet(((lo("0>1"), "zzz"),)), space)


class TestScoringMechanism:
    def test_exact_match_equals_majority(self, rng):
        for _ in range(50):
            space = random_explicit_space(rng, ("a", "b"), 3, int(rng.integers(2, 8)))
            sample = random_sample(rng, ("a", "b"), 3, int(rng.integers(1, 40)))
            assert (
                scoring_mechanism(sample, space, EXACT_MATCH).chosen
                == majority_vote(sample, space).chosen
            )

    def test_singleton_space(self, rng):
        space = random_explicit_space(rng, ("a",), 3, 1)
        sample = random_sample(rng, ("a",), 3, 10)
        assert scoring_mechanism(sample, space, KENDALL).chosen == space.profiles[0]

    def test_full_symmetric_sample_ties(self):
        space = CandidateSpace.full(IssueSpace(("i",), 3))
        sample = SampleSet(tuple((o, "i") for o in all_linear_orders(3)))
        result = scoring_mechanism(sample, space, KENDALL)
        assert result.tie_set_size == 6
        assert result.chosen("i") == lo("0>1>2")

    def test_kendall_disagrees_with_plurality(self):
        # plurality favors 2>1>0, but the compromise 1>0>2 wins on kendall:
        # per-order totals by hand are 3.67 (2>1>0) vs 4.33 (1>0>2)
        space = CandidateSpace.full(IssueSpace(("i",), 3))
        pairs = ((lo("2>1>0"), "i"),) * 3 + ((lo("0>1>2"), "i"),) * 2 + ((lo("1>0>2"), "i"),) * 2
        sample = SampleSet(pairs)
        assert majority_vote(sample, space).chosen("i") == lo("2>1>0")
        assert scoring_mechanism(sample, space, KENDALL).chosen("i") == lo("1>0>2")


class TestAcyclicMechanism:
    """The acyclic plan's mechanism: Kendall scoring over the synthesized space."""

    def _plan(self, edges, n=3, issue="i"):
        return synthesize_acyclic({issue: PrivilegeGraph(issue=issue, n=n, edges=frozenset(edges))})

    def _chosen(self, plan, sample):
        return scoring_mechanism(sample, plan.space, KENDALL).chosen("i")

    def test_total_order_ignores_sample(self, rng):
        plan = self._plan({(0, 1), (1, 2), (0, 2)})
        sample = random_sample(rng, ("i",), 3, 20)
        assert self._chosen(plan, sample) == lo("0>1>2")

    def test_pair_scc_follows_majority(self):
        # SCC {1,2} below the fixed top outcome 0
        plan = self._plan({(0, 1), (0, 2), (1, 2), (2, 1)})
        sample = SampleSet(((lo("0>1>2"), "i"),) * 3 + ((lo("0>2>1"), "i"),))
        assert self._chosen(plan, sample) == lo("0>1>2")
        flipped = SampleSet(((lo("0>2>1"), "i"),) * 3 + ((lo("0>1>2"), "i"),))
        assert self._chosen(plan, flipped) == lo("0>2>1")

    def test_empty_sample_canonical_orientation(self):
        plan = self._plan({(0, 1), (0, 2), (1, 2), (2, 1)})
        with pytest.warns(UserWarning, match="empty sample"):
            assert self._chosen(plan, SampleSet(())) == lo("0>1>2")

    def test_issue_outside_plan(self):
        plan = self._plan({(0, 1), (1, 2), (0, 2)})
        with pytest.raises(InvalidArgumentError):
            self._chosen(plan, SampleSet(((lo("0>1>2"), "other"),)))


def acyclic_reference(plan, counts: dict) -> Profile:
    """The acyclic-plan mechanism written out: each size-2 SCC by pairwise majority of the
    tally, a tie keeping the plan's canonical orientation; the rest is fixed by the plan."""
    assignment = {}
    for issue, issue_plan in plan.issue_plans.items():
        dist = counts.get(issue, {})
        ranking: list[int] = []
        for scc in issue_plan.topo_sccs:
            if len(scc) == 1:
                ranking.append(scc[0])
                continue
            u, v = issue_plan.orientations[frozenset(scc)]
            above = sum(c for order, c in dist.items() if order.prefers(u, v))
            below = sum(c for order, c in dist.items() if order.prefers(v, u))
            ranking.extend((v, u) if below > above else (u, v))
        assignment[issue] = LinearOrder(tuple(ranking))
    return Profile(assignment)


@st.composite
def small_scc_graphs(draw, issue, n):
    """A transitive graph whose SCCs have at most two outcomes: a shuffled row of blocks of one
    or two outcomes, a random transitive order among the blocks, and both edges in each pair."""
    outcomes = draw(st.permutations(range(n)))
    blocks = []
    while len(outcomes) > 0:
        size = 2 if len(outcomes) > 1 and draw(st.booleans()) else 1
        blocks.append(outcomes[:size])
        outcomes = outcomes[size:]
    pairs = itertools.combinations(range(len(blocks)), 2)
    above = {(a, b) for a, b in pairs if draw(st.booleans())}
    for m, a, b in itertools.product(range(len(blocks)), repeat=3):  # Warshall's closure
        if (a, m) in above and (m, b) in above:
            above.add((a, b))
    edges = {(u, v) for a, b in above for u in blocks[a] for v in blocks[b]}
    edges |= {pair for block in blocks for pair in itertools.permutations(block, 2)}
    graph = PrivilegeGraph(issue=issue, n=n, edges=frozenset(edges))
    assert graph.is_transitive()
    return graph


@st.composite
def acyclic_inputs(draw):
    """A plan synthesized from 1-3 such graphs over N = 2-6 outcomes, and a tally over a random
    subset of its issues.  An issue's tally may be empty, and a mirrored one (each ordering
    with its reverse, at equal counts) ties every pair exactly."""
    n = draw(st.integers(2, 6))
    issues = [f"q{k}" for k in range(draw(st.integers(1, 3)))]
    plan = synthesize_acyclic({issue: draw(small_scc_graphs(issue, n)) for issue in issues})
    orders = all_linear_orders(n)
    counts = {}
    for issue in draw(st.lists(st.sampled_from(issues), unique=True)):
        tally = draw(st.dictionaries(st.sampled_from(orders), st.integers(1, 3), max_size=4))
        if draw(st.booleans()):
            mirrored = Counter()
            for order, c in tally.items():
                mirrored[order] += c
                mirrored[LinearOrder(order.ranking[::-1])] += c
            tally = dict(mirrored)
        counts[issue] = tally
    return plan, counts


def tally_matrix(tallies):
    """The ``(rows, cells)`` count matrix of ``{issue: {ordering: count}}`` tallies."""
    cells = sorted({(i, o) for t in tallies for i, d in t.items() for o in d}, key=repr)
    rows = [[t.get(issue, {}).get(order, 0) for issue, order in cells] for t in tallies]
    return np.array(rows, dtype=np.int64).reshape(len(tallies), len(cells)), cells


@settings(max_examples=200, deadline=None)
@given(acyclic_inputs())
def test_kendall_over_synthesized_space_is_the_acyclic_mechanism(inputs):
    plan, counts = inputs
    total = sum(c for tally in counts.values() for c in tally.values())
    expected = acyclic_reference(plan, counts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the empty-sample warning
        assert scoring_mechanism_from_counts(counts, total, plan.space, KENDALL).chosen == expected
    mechanism = make_mechanism("acyclic", plan=plan)
    assert mechanism.space is plan.space and mechanism.rule is KENDALL
    rows, cells = tally_matrix([counts])
    decided = decide_tallies(rows, cells, mechanism.space, mechanism.rule)
    assert decided.winners.tolist() == [member_indices(plan.space, expected)]


class TestScoringRule:
    def test_evaluate_matches_float_scores(self):
        orders = all_linear_orders(4)
        for a in orders:
            for b in orders:
                inverted = sum(a.prefers(y, x) for x, y in itertools.combinations(b.ranking, 2))
                assert KENDALL.evaluate(a, b) == 1.0 - inverted / 6
                assert EXACT_MATCH.evaluate(a, b) == exact_match_score(a, b)


# -- exact argmax against a brute force ------------------------------------


def reference_score(rule, order, target):
    """The rule's score as an exact fraction, computed independently of the kernel."""
    if rule is EXACT_MATCH:
        return Fraction(int(order == target))
    n = order.n
    inverted = sum(order.prefers(y, x) for x, y in itertools.combinations(target.ranking, 2))
    return 1 - Fraction(inverted, n * (n - 1) // 2)


def brute_force_argmax(sample, space, rule):
    """(first maximizer in enumeration order, tie count, objective) by full enumeration."""
    counts = sample.counts()
    best, winner, ties = None, None, 0
    for profile in space.enumerate_profiles():
        value = sum(
            (
                count * reference_score(rule, order, profile(issue))
                for issue, dist in counts.items()
                for order, count in dist.items()
            ),
            Fraction(0),
        ) / len(sample)
        if best is None or value > best:
            best, winner, ties = value, profile, 1
        elif value == best:
            ties += 1
    return winner, ties, best


def random_product_space(rng, issues, n):
    """Product of random factors over a random partition of the issues into blocks."""
    orders = all_linear_orders(n)
    shuffled = [issues[j] for j in rng.permutation(len(issues))]
    cuts = sorted(rng.choice(range(1, len(issues)), size=int(rng.integers(0, len(issues))), replace=False))
    blocks = []
    for block in np.split(np.array(shuffled, dtype=object), cuts):
        block = tuple(block)
        combos = list(itertools.product(orders, repeat=len(block)))
        size = int(rng.integers(1, min(len(combos), 6) + 1))
        picked = rng.choice(len(combos), size=size, replace=False)
        blocks.append((block, [Profile(dict(zip(block, combos[j]))) for j in picked]))
    return CandidateSpace.product(blocks, IssueSpace(tuple(issues), n))


def test_kendall_two_issue_full_space_is_exact():
    # float sums over issues once made 1>0>2 win here with 2 ties
    space = CandidateSpace.full(IssueSpace(("a", "b"), 3))
    pairs = [(lo(t), "a") for t in ("0>1>2", "0>2>1", "1>2>0", "2>1>0")]
    pairs += [(lo(t), "b") for t in ("0>1>2", "1>2>0")]
    result = scoring_mechanism(SampleSet(tuple(pairs)), space, KENDALL)
    assert result.chosen.serialize() == "a:0>1>2;b:0>1>2"
    assert result.tie_set_size == 18


def test_argmax_matches_fraction_brute_force(per_call_reference):
    rng = np.random.default_rng(4242)
    disagreements = []
    checked = 0
    for variant, n, k in itertools.product(("explicit", "product", "full"), (2, 3, 4), (1, 2, 3)):
        issues = ("a", "b", "c")[:k]
        # the full N=4 space over 3 issues has 13,824 profiles: enumerate it once
        for _ in range(1 if (variant, n, k) == ("full", 4, 3) else 6):
            if variant == "explicit":
                most = min(8, factorial(n) ** k)
                space = random_explicit_space(rng, issues, n, int(rng.integers(1, most + 1)))
            elif variant == "product":
                space = random_product_space(rng, issues, n)
            else:
                space = CandidateSpace.full(IssueSpace(issues, n))
            # few distinct orders, so that ties occur
            orders = all_linear_orders(n)
            pool = rng.choice(len(orders), size=int(rng.integers(1, min(3, len(orders)) + 1)), replace=False)
            sample = SampleSet(
                tuple(
                    (orders[pool[rng.integers(len(pool))]], issues[rng.integers(k)])
                    for _ in range(int(rng.integers(1, 10)))
                )
            )
            for rule in (EXACT_MATCH, KENDALL):
                winner, ties, best = brute_force_argmax(sample, space, rule)
                for result in (
                    scoring_mechanism(sample, space, rule),  # the batched kernel, one row
                    per_call_reference(sample.counts(), len(sample), space, rule),
                ):
                    checked += 1
                    if (result.chosen, result.tie_set_size, result.sample_objective) != (
                        winner, ties, float(best)
                    ):
                        disagreements.append((variant, n, k, rule.name, sample.pairs))
    assert checked == 2 * 2 * (26 * 6 + 1)
    assert disagreements == []


@st.composite
def kernel_inputs(draw):
    """An explicit, product, full or synthesized space over 1-3 issues at N = 2-4, and a
    (tallies x cells) count matrix over distinct cells of its issues.  Counts are small, so
    that ties occur; an all-zero row and a row that touches only the first cell's issue are
    always there."""
    variant = draw(st.sampled_from(("explicit", "product", "full", "synthesized")))
    n = draw(st.integers(2, 4))
    issues = ("a", "b", "c")[: draw(st.integers(1, 3))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if variant == "explicit":
        most = min(8, factorial(n) ** len(issues))
        space = random_explicit_space(rng, issues, n, int(rng.integers(1, most + 1)))
    elif variant == "product":
        space = random_product_space(rng, issues, n)
    elif variant == "full":
        space = CandidateSpace.full(IssueSpace(issues, n))
    else:
        space = synthesize_acyclic({i: draw(small_scc_graphs(i, n)) for i in issues}).space
    cell = st.tuples(st.sampled_from(issues), st.sampled_from(all_linear_orders(n)))
    cells = draw(st.lists(cell, unique=True, max_size=8))
    count_row = st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells))
    rows = draw(st.lists(count_row, min_size=1, max_size=6))
    rows.append([0] * len(cells))
    rows.append([c if issue == cells[0][0] else 0 for c, (issue, _) in zip(rows[0], cells)])
    return space, np.array(rows, dtype=np.int64).reshape(len(rows), len(cells)), cells


def kernel_disagreements(reference, space, rows, cells, rule) -> list:
    """The rows on which :func:`decide_tallies` and the per-call reference differ in winners,
    tie-set size or objective (the points over ``top * total``)."""
    decided = decide_tallies(rows, cells, space, rule)
    top = rule.top(space.issue_space.n)
    disagreements = []
    for k, row in enumerate(rows):
        total = int(row.sum())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the empty-sample warning
            expected = reference(counts_of_row(cells, row), total, space, rule)
        got = (
            decided.winners[k].tolist(),
            prod(decided.ties[k].tolist()),
            int(decided.points[k]) / (top * total) if total else 0.0,
        )
        chosen = member_indices(space, expected.chosen)
        if got != (chosen, expected.tie_set_size, expected.sample_objective):
            disagreements.append((k, got, expected))
    return disagreements


@settings(max_examples=300, deadline=None)
@given(kernel_inputs(), st.sampled_from((EXACT_MATCH, KENDALL)))
def test_batched_kernel_matches_the_per_call_reference(per_call_reference, inputs, rule):
    space, rows, cells = inputs
    assert kernel_disagreements(per_call_reference, space, rows, cells, rule) == []


@st.composite
def wide_kendall_inputs(draw):
    """A space over 1-2 issues at N = 5-8: explicit, or a product of one or two blocks, of at
    most 40 members a block, or full at N <= 6; and a (tallies x cells) count matrix over up
    to 8 distinct cells, half of whose orderings are the space's own, so that ties occur."""
    n = draw(st.integers(5, 8))
    variant = draw(st.sampled_from(("explicit", "product", "full") if n <= 6 else ("explicit", "product")))
    issues = ("a", "b")[: draw(st.integers(1, 2))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if variant == "explicit":
        space = random_explicit_space(rng, issues, n, int(rng.integers(1, 41)))
    elif variant == "product":
        split = len(issues) > 1 and rng.integers(2)
        blocks = [(block, random_explicit_space(rng, block, n, int(rng.integers(1, 41))).profiles)
                  for block in ([(i,) for i in issues] if split else [issues])]
        space = CandidateSpace.product(blocks, IssueSpace(issues, n))
    else:
        space = CandidateSpace.full(IssueSpace(issues, n))
    own = [order for _, columns, _ in ordered_codes(space) for column in columns for order in column]
    order = st.one_of(st.sampled_from(own), st.permutations(range(n)).map(LinearOrder))
    cell = st.tuples(st.sampled_from(issues), order)
    cells = draw(st.lists(cell, unique_by=lambda c: (c[0], c[1].ranking), max_size=8))
    count_row = st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells))
    rows = draw(st.lists(count_row, min_size=1, max_size=4)) + [[0] * len(cells)]
    return space, np.array(rows, dtype=np.int64).reshape(len(rows), len(cells)), cells


@settings(max_examples=60, deadline=None)
@given(wide_kendall_inputs())
def test_kendall_kernel_over_wide_columns_matches_the_per_call_reference(per_call_reference, inputs):
    space, rows, cells = inputs
    assert kernel_disagreements(per_call_reference, space, rows, cells, KENDALL) == []


def test_kernel_allocations_stay_within_the_cap(monkeypatch):
    """Under a cap of 1,000 entries, 100 tallies over a 720-member block (576 KB of member
    scores at once) are decided one at a time, and a tally over 400 cells (a 400 x 720 points
    matrix, 2.3 MB) builds its points matrix two column orderings at a time."""
    space = CandidateSpace.full(IssueSpace(("i",), 6))
    orders = all_linear_orders(6)
    rng = np.random.default_rng(3)
    cases = [
        ([("i", orders[j]) for j in (0, 7, 100)], rng.multinomial(30, [0.5, 0.3, 0.2], size=100)),
        ([("i", order) for order in orders[:400]], rng.multinomial(1000, [1 / 400] * 400, size=1)),
    ]
    for cells, rows in cases:
        expected = decide_tallies(rows, cells, space, EXACT_MATCH)
        with monkeypatch.context() as patch:
            patch.setattr("repsoc.mechanisms.DEFAULT_ENUMERATION_CAP", 1000)
            tracemalloc.start()
            try:
                decided = decide_tallies(rows, cells, space, EXACT_MATCH)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 200_000
        assert (decided.winners == expected.winners).all()
        assert (decided.points == expected.points).all() and (decided.ties == expected.ties).all()


def test_kernel_builds_each_points_table_once_while_it_fits_the_cap(monkeypatch):
    """Under caps of 2,500 and 1,000 entries, 40 Kendall tallies over the 720-member full
    N = 6 block are decided 3 and 1 at a time, with the same decisions as at the default cap;
    the column's position array, from which each chunk reads its outcome pairs, is built once
    per N (one miss of its cache, which every ``_codes()`` call reads), not once per chunk or
    per call."""
    orders = all_linear_orders(6)
    cells = [("i", orders[j]) for j in (0, 7, 100)]
    rows = np.random.default_rng(5).multinomial(30, [0.5, 0.3, 0.2], size=40)
    expected = decide_tallies(rows, cells, CandidateSpace.full(IssueSpace(("i",), 6)), KENDALL)
    spaces._full_positions.cache_clear()
    space = CandidateSpace.full(IssueSpace(("i",), 6))
    for cap in (2500, 1000):
        monkeypatch.setattr(mechanisms, "DEFAULT_ENUMERATION_CAP", cap)
        decided = decide_tallies(rows, cells, space, KENDALL)
        assert (decided.winners == expected.winners).all()
        assert (decided.points == expected.points).all() and (decided.ties == expected.ties).all()
    assert spaces._full_positions.cache_info().misses == 1


def test_kendall_kernel_over_a_full_eight_outcome_column_stays_within_a_forced_cap(monkeypatch):
    """Six Kendall tallies over 10 cells of the full N = 8 block (40,320 members) under a cap of
    100,000 entries (800 KB of int64): the kernel decides 2 tallies at a time and reads the
    column's 28 outcome pairs per ordering 3,571 orderings at a time.  The peak stays under 8
    arrays of the cap, where the unforced call reads 35,714 orderings' pairs at once."""
    space = CandidateSpace.full(IssueSpace(("i",), 8))
    orders = all_linear_orders(8)
    rng = np.random.default_rng(4)
    cells = [("i", orders[j]) for j in rng.choice(len(orders), 10, replace=False)]
    rows = rng.multinomial(40, [0.1] * 10, size=6)
    expected = decide_tallies(rows, cells, space, KENDALL)
    cap = 100_000
    monkeypatch.setattr(mechanisms, "DEFAULT_ENUMERATION_CAP", cap)
    tracemalloc.start()
    try:
        decided = decide_tallies(rows, cells, space, KENDALL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * cap * 8
    assert (decided.winners == expected.winners).all()
    assert (decided.points == expected.points).all() and (decided.ties == expected.ties).all()


def _orderings(n: int, **size) -> st.SearchStrategy:
    return st.lists(st.permutations(range(n)).map(LinearOrder), **size)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.data(), st.sampled_from((EXACT_MATCH, KENDALL)))
def test_points_tables_match_the_per_pair_points(n, data, rule):
    """The kernel's scores of one-hot tally rows are ``rule.points`` entry by entry: tallied
    ordering ``j`` is counted alone on issue ``j``, whose block holds the column's orderings.
    Empty and repeated tallied lists are included; the column reuses tallied orderings, so
    exact matches occur."""
    tallied = data.draw(_orderings(n, max_size=8))
    reused = st.sampled_from(tallied) if tallied else st.nothing()
    fresh = st.permutations(range(n)).map(LinearOrder)
    column = data.draw(st.lists(st.one_of(reused, fresh), min_size=1, max_size=8, unique_by=lambda o: o.ranking))
    issues = tuple(range(max(1, len(tallied))))
    blocks = [((i,), [Profile({i: order}) for order in column]) for i in issues]
    space = CandidateSpace.product(blocks, IssueSpace(issues, n))
    rows = np.eye(len(tallied), dtype=np.int64)
    chunks = list(block_scores(rows, list(zip(issues, tallied)), space, rule))
    column = sorted(column, key=lambda o: o.ranking)  # the members' order
    scored = [np.vstack([scores[b] for _, scores in chunks]) for b in range(len(issues))] if chunks else []
    assert all(block.dtype == np.int64 and block.shape == (len(tallied), len(column)) for block in scored)
    expected = [[rule.points(o, c) for c in column] for o in tallied]
    assert [block[j].tolist() for j, block in enumerate(scored)] == expected
    assert all(not block[np.arange(len(tallied)) != j].any() for j, block in enumerate(scored))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.data(), st.sampled_from((EXACT_MATCH, KENDALL)))
def test_points_tables_reject_orderings_of_different_sizes(n, data, rule):
    """A cell ordering over other than the space's N outcomes is refused, as the per-pair
    points refuse it, wherever it stands among the cells."""
    tallied = data.draw(_orderings(n, min_size=1, max_size=4, unique_by=lambda o: o.ranking))
    odd = data.draw(st.permutations(range(n + data.draw(st.sampled_from((-1, 1))))).map(LinearOrder))
    with pytest.raises(InvalidArgumentError, match="order sizes differ"):
        rule.points(odd, tallied[0])
    tallied.insert(data.draw(st.integers(0, len(tallied))), odd)
    space = CandidateSpace.full(IssueSpace(("i",), n))
    with pytest.raises(InvalidArgumentError, match="order sizes differ"):
        decide_tallies(np.ones((2, len(tallied)), dtype=np.int64), [("i", o) for o in tallied], space, rule)


@settings(max_examples=100, deadline=None)
@given(kernel_inputs(), st.sampled_from((EXACT_MATCH, KENDALL)))
def test_a_rule_is_scored_by_its_own_kernel(inputs, rule):
    """A rule carries its kernel: one built without it is refused, and an equal copy of
    ``KENDALL`` or ``EXACT_MATCH``, another object, scores and decides byte for byte as the
    original does."""
    with pytest.raises(TypeError, match="scorer"):
        mechanisms.ScoringRule(rule.name, rule.points, rule.top)
    space, rows, cells = inputs
    copy = mechanisms.ScoringRule(rule.name, rule.points, rule.top, rule.scorer)
    assert copy == rule and copy is not rule
    for (at, scores), (at_copy, scores_copy) in zip(
        block_scores(rows, cells, space, rule), block_scores(rows, cells, space, copy), strict=True
    ):
        assert at == at_copy
        assert [s.tobytes() for s in scores] == [s.tobytes() for s in scores_copy]
    decided, decided_copy = decide_tallies(rows, cells, space, rule), decide_tallies(rows, cells, space, copy)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(decided, decided_copy, strict=True))


def test_kernel_int64_boundary():
    """Scores reach count * top(N), exactly up to 2**63 - 1; a tally that could pass it is
    rejected, exactly too when int64 sums of its counts could wrap."""
    space = CandidateSpace.full(IssueSpace(("i",), 3))
    cells = [("i", lo("0>1>2")), ("i", lo("2>1>0"))]
    largest = (2**63 - 1) // 3
    for row in ([largest, 0], [largest - 5, 5]):
        decided = decide_tallies(np.array([row], dtype=np.int64), cells, space, KENDALL)
        assert decided.winners.tolist() == [[0]]  # 0>1>2, the first of LO(3)
        assert int(decided.points[0]) == 3 * row[0]  # 2>1>0 scores 0 against 0>1>2
    for row in ([largest + 1, 0], [largest - 4, 5]):
        with pytest.raises(InvalidArgumentError, match="sizes must be at most"):
            decide_tallies(np.array([row], dtype=np.int64), cells, space, KENDALL)
    # at N = 2 a tally of 2**63 - 1 pairs scores up to 2**63 - 1, and no partial sum wraps
    space, cells = CandidateSpace.full(IssueSpace(("i",), 2)), [("i", lo("0>1")), ("i", lo("1>0"))]
    for row in ([2**63 - 1, 0], [2**63 - 2, 1], [1, 2**63 - 2], [0, 2**63 - 1]):
        decided = decide_tallies(np.array([row], dtype=np.int64), cells, space, KENDALL)
        assert decided.winners.tolist() == [[int(row[1] > row[0])]] and decided.points.tolist() == [max(row)]


def test_kernel_rejects_counts_on_an_unknown_issue():
    space = CandidateSpace.full(IssueSpace(("i",), 2))
    cells = [("i", lo("0>1")), ("zz", lo("1>0"))]
    decided = decide_tallies(np.array([[2, 0]], dtype=np.int64), cells, space, EXACT_MATCH)
    assert decided.winners.tolist() == [[0]]  # 0>1: a column of zeros tallies nothing
    with pytest.raises(InvalidArgumentError, match="unknown issue 'zz'"):
        decide_tallies(np.array([[2, 0], [0, 1]], dtype=np.int64), cells, space, EXACT_MATCH)


def test_kernel_rejects_a_cell_listed_twice():
    """Exact-match counts are placed by index, where a second column of one cell would
    overwrite the first: a repeated cell is refused under every rule."""
    space = CandidateSpace.full(IssueSpace(("i",), 2))
    cells = [("i", lo("0>1")), ("i", lo("1>0")), ("i", lo("0>1"))]
    for rule in (EXACT_MATCH, KENDALL):
        with pytest.raises(InvalidArgumentError, match="listed once"):
            decide_tallies(np.array([[1, 2, 3]], dtype=np.int64), cells, space, rule)


def test_block_over_cap_raises_before_allocating():
    space = CandidateSpace.full(IssueSpace(("i",), 10))
    sample = SampleSet(((LinearOrder(tuple(range(10))), "i"),))
    with pytest.raises(CapacityError):
        majority_vote(sample, space)


def test_kernel_and_loading_build_no_members(monkeypatch, tmp_path):
    """A space is read as its code blocks alone: loading it builds no profile, and the
    kernel builds its winners but never the space's members."""
    built = []
    profile_init = Profile.__init__
    monkeypatch.setattr(
        Profile, "__init__", lambda self, assignment: built.append(1) or profile_init(self, assignment)
    )
    monkeypatch.setattr(CandidateSpace, "blocks", property(lambda space: pytest.fail("members built")))
    rng = np.random.default_rng(11)
    path = tmp_path / "space.json"
    save_candidate_space(path, random_explicit_space(rng, ("a", "b"), 3, 12))
    built.clear()
    space = load_candidate_space(path)
    assert built == []
    for rule in (EXACT_MATCH, KENDALL):
        for _ in range(50):
            scoring_mechanism(random_sample(rng, ("a", "b"), 3, 7), space, rule)
    assert len(built) == 100
    too_big = CandidateSpace.full(IssueSpace(("i",), 10))
    sample = SampleSet(((LinearOrder(tuple(range(10))), "i"),))
    for _ in range(2):
        with pytest.raises(CapacityError):
            majority_vote(sample, too_big)


def test_the_labs_build_and_hash_no_ordering_per_column_ordering(monkeypatch, count_new_orders):
    """Over a full N = 6 space (720 orderings per issue's column), the kernel under both rules,
    the generalization lab, the Rademacher estimate and the privilege graph read the column as
    positions: with ``all_linear_orders``' cache and the interning cache cleared, none of them
    builds a ``LinearOrder``, and the orderings hashed are a few per cell, not one per column
    ordering."""
    space = CandidateSpace.full(IssueSpace(("a", "b"), 6))
    orders = [LinearOrder(ranking) for ranking in ((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0), (2, 0, 1, 3, 5, 4))]
    population = MarginalPopulation({issue: dict(zip(orders, (0.5, 0.3, 0.2))) for issue in ("a", "b")})
    saliency = SaliencyDistribution({"a": 0.5, "b": 0.5})
    cells, pairs = sample_pairs(saliency, population, 40, 0)
    rows = np.random.default_rng(1).multinomial(30, [1 / len(cells)] * len(cells), size=5)
    all_linear_orders.cache_clear()
    counts = {"hashed": 0}
    hash_of = LinearOrder.__hash__

    def counted(key, method):
        return lambda order: counts.__setitem__(key, counts[key] + 1) or method(order)

    monkeypatch.setattr(LinearOrder, "__hash__", counted("hashed", hash_of))
    runs = {
        "exact": lambda: decide_tallies(rows, cells, space, EXACT_MATCH),
        "kendall": lambda: decide_tallies(rows, cells, space, KENDALL),
        "generalization": lambda: generalization_experiment(space, saliency, population, [10, 50], 20, 0),
        "rademacher": lambda: empirical_rademacher(space, KENDALL, cells, pairs, 10, 0),
        "privilege": lambda: build_privilege_graph(space, "a"),
    }
    for name, run in runs.items():
        built, counts["hashed"] = count_new_orders(), 0
        run()
        assert built == [], name
        assert counts["hashed"] <= 4 * len(cells), name


def test_columns_over_more_than_128_outcomes_hold_int16_positions(per_call_reference, tmp_path):
    """At N = 130 a position passes int8, so the columns and the kernel's cell positions are
    int16.  Both rules decide as the per-call reference does (exact match finds its cells by
    their int16 rows), the privilege graph is the member-table closure test's, ``contains``
    agrees with the enumeration, and a saved space loads back to the same members and columns."""
    n, rng = 130, np.random.default_rng(130)

    def swapped(*pairs):
        ranking = list(range(n))
        for u, v in pairs:
            ranking[u], ranking[v] = ranking[v], ranking[u]
        return LinearOrder(tuple(ranking))

    ups = [swapped(*pairs) for pairs in ((), ((0, 1),), ((128, 129),), ((0, 1), (128, 129)))]
    b, c, strangers = ([LinearOrder(tuple(rng.permutation(n))) for _ in range(2)] for _ in range(3))
    members = [Profile({"a": up, "b": b[k], "c": c[k]}) for up in ups for k in range(2)]
    space = CandidateSpace.explicit(members, IssueSpace(("a", "b", "c"), n))
    assert {column.dtype for _, columns, _ in space._codes() for column in columns} == {np.dtype(np.int16)}
    cells = [("a", ups[1]), ("a", strangers[0]), ("b", b[1]), ("b", strangers[1]), ("c", c[0])]
    assert mechanisms._placed(cells, n)[1].dtype == np.int16
    rows = np.vstack([rng.integers(0, 4, size=(6, len(cells))), np.zeros((1, len(cells)), dtype=np.int64)])
    for rule in (EXACT_MATCH, KENDALL):
        assert kernel_disagreements(per_call_reference, space, rows, cells, rule) == []

    table = member_table(space, "a")
    expected = {pair for pair in itertools.permutations(range(n), 2) if closed(table, pair)}
    assert build_privilege_graph(space, "a").edges == expected
    assert {(1, 0), (129, 128)} <= expected and (2, 0) not in expected

    enumerated = list(space.enumerate_profiles())
    outside = [members[0].with_issue("c", c[1]), members[0].with_issue("a", strangers[0])]
    assert [space.contains(profile) for profile in enumerated + outside] == [True] * len(enumerated) + [False] * 2
    save_candidate_space(tmp_path / "space.json", space)
    loaded = load_candidate_space(tmp_path / "space.json")
    assert list(loaded.enumerate_profiles()) == enumerated
    for (_, columns, codes), (_, loaded_columns, loaded_codes) in zip(space._codes(), loaded._codes()):
        assert (codes == loaded_codes).all()
        assert all(x.dtype == y.dtype and (x == y).all() for x, y in zip(columns, loaded_columns))
