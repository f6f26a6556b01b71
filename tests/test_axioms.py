import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.stats import binom

from repsoc import (
    CandidateSpace,
    CapacityError,
    InvalidArgumentError,
    IssueSpace,
    LinearOrder,
    MarginalPopulation,
    Permutation,
    PreconditionError,
    PrivilegeGraph,
    Profile,
    SaliencyDistribution,
    Scenario,
    VacuityError,
    all_linear_orders,
    apply_local_permutation,
    apply_permutation,
    condorcet_scenario,
    cycle_violation_demo,
    decay_verdict,
    derive_rng,
    estimate_axiom,
    fit_decay,
    generalization_experiment,
    make_mechanism,
    pair_marginal,
    synthesize_acyclic,
)
from repsoc.axioms import DecayCurve, DecayPoint, _committees
from repsoc.mechanisms import decide_tallies
from repsoc.population import _cells
from repsoc.spaces import DEFAULT_ENUMERATION_CAP
from tests.conftest import member_indices
from tests.mechanism_reference import counts_of_row, scoring_mechanism_from_counts


def lo(text):
    return LinearOrder.from_string(text)


def binary_majority_setup(mass_01):
    space = CandidateSpace.full(IssueSpace(("i",), 2))
    population = MarginalPopulation(
        {"i": {lo("0>1"): mass_01, lo("1>0"): 1.0 - mass_01}}
        if 0 < mass_01 < 1
        else {"i": {lo("0>1") if mass_01 == 1.0 else lo("1>0"): 1.0}}
    )
    return Scenario(
        saliency=SaliencyDistribution({"i": 1.0}),
        population=population,
        space=space,
        mechanism=make_mechanism("majority", space=space),
        issue="i",
    )


def coalition_population(mass, coalition, complement):
    """On issue "i", a coalition of ``mass`` unanimous on ``coalition`` mixed with a
    complement unanimous on ``complement``; the coalition alone when ``mass`` is 1."""
    if mass == 1.0:
        return MarginalPopulation({"i": {coalition: 1.0}})
    return MarginalPopulation({"i": {coalition: mass, complement: 1.0 - mass}})


def decisiveness_scenario(mass, coalition, complement, pair, mechanism="majority"):
    """Whether the coalition's ranking of ``pair`` prevails against its complement, as the
    w-pc scenario of their population on the full single-issue space."""
    space = CandidateSpace.full(IssueSpace(("i",), coalition.n))
    return Scenario(
        saliency=SaliencyDistribution({"i": 1.0}),
        population=coalition_population(mass, coalition, complement),
        space=space,
        mechanism=make_mechanism(mechanism, space=space),
        axiom="w-pc",
        issue="i",
        pair=pair,
    )


class TestValidation:
    def test_unknown_axiom(self):
        from dataclasses import replace

        scn = replace(binary_majority_setup(0.75), axiom="nope", pair=(0, 1))
        with pytest.raises(InvalidArgumentError):
            estimate_axiom(scn, [10], 5, seed=0)

    def test_zero_trials(self):
        from dataclasses import replace

        scn = replace(binary_majority_setup(0.75), axiom="w-pc", pair=(0, 1))
        with pytest.raises(InvalidArgumentError):
            estimate_axiom(scn, [10], 0, seed=0)
        with pytest.raises(InvalidArgumentError):
            estimate_axiom(scn, [20, 10], 5, seed=0)

    def test_wpc_exact_half_is_vacuous(self):
        from dataclasses import replace

        scn = replace(binary_majority_setup(0.5), axiom="w-pc", pair=(0, 1))
        with pytest.raises(VacuityError):
            estimate_axiom(scn, [10, 20, 30], 5, seed=0)

    def test_weak_axioms_need_full_space(self):
        from dataclasses import replace

        space = CandidateSpace.explicit(
            [Profile({"i": lo("0>1")})], IssueSpace(("i",), 2)
        )
        scn = replace(
            binary_majority_setup(0.75),
            space=space,
            mechanism=make_mechanism("majority", space=space),
            axiom="w-pc",
            pair=(0, 1),
        )
        with pytest.raises(PreconditionError):
            estimate_axiom(scn, [10, 20, 30], 5, seed=0)

    def test_mechanism_over_another_space_is_rejected(self):
        """The winner indices index the mechanism's space, and the failure tests read them
        against the scenario's: over the explicit {0>1>2, 2>1>0}, winner 1 is 2>1>0, which
        the full column would read as 0>2>1.  W-PC on (0, 2) under a 0.7/0.3 population
        then reported no failure at any size, however many committees chose 2>1>0."""
        issues = IssueSpace(("i",), 3)
        full = CandidateSpace.full(issues)
        two = CandidateSpace.explicit([Profile({"i": lo("0>1>2")}), Profile({"i": lo("2>1>0")})], issues)
        scn = Scenario(
            saliency=SaliencyDistribution({"i": 1.0}),
            population=MarginalPopulation({"i": {lo("0>1>2"): 0.7, lo("2>1>0"): 0.3}}),
            space=full,
            mechanism=make_mechanism("majority", space=two),
            axiom="w-pc",
            issue="i",
            pair=(0, 2),
        )
        with pytest.raises(InvalidArgumentError, match="scenario's space"):
            estimate_axiom(scn, [5, 50, 500], 200, seed=0)
        cyclic = condorcet_scenario(full, make_mechanism("majority", space=CandidateSpace.full(issues)))
        with pytest.raises(InvalidArgumentError, match="scenario's space"):
            cycle_violation_demo(cyclic, [5], 10, seed=0)

    def test_strong_axioms_need_bidirectional_privilege(self):
        from dataclasses import replace

        space = CandidateSpace.explicit(
            [Profile({"i": lo("0>1")})], IssueSpace(("i",), 2)
        )
        scn = replace(
            binary_majority_setup(0.75),
            space=space,
            mechanism=make_mechanism("majority", space=space),
            axiom="s-pc",
            pair=(0, 1),
        )
        with pytest.raises(PreconditionError):
            estimate_axiom(scn, [10, 20, 30], 5, seed=0)


def ppe_scenario(**changes):
    """PPE on the full binary space, for a population unanimous on 0>1 with C = 0>1 and
    C' = 1>0, with ``changes``."""
    scn = replace(
        binary_majority_setup(1.0), axiom="ppe", pair=(0, 1),
        profile=Profile({"i": lo("0>1")}), profile_against=Profile({"i": lo("1>0")}),
    )
    return replace(scn, **changes)


def ppe_outside_the_space():
    """PPE over the space {C}, which does not hold C'."""
    space = CandidateSpace.explicit([Profile({"i": lo("0>1")})], IssueSpace(("i",), 2))
    return ppe_scenario(space=space, mechanism=make_mechanism("majority", space=space))


MISSED_PREMISES = [
    pytest.param(lambda: replace(binary_majority_setup(0.75), axiom="w-pc", pair=(0, 1), issue=None),
                 InvalidArgumentError, "target issue", id="no-issue"),
    pytest.param(lambda: replace(binary_majority_setup(0.75), axiom="w-pc"),
                 InvalidArgumentError, "target pair", id="no-pair"),
    pytest.param(lambda: ppe_scenario(profile=None, profile_against=None),
                 InvalidArgumentError, "neighbor profiles", id="ppe-without-profiles"),
    pytest.param(lambda: ppe_scenario(profile=Profile({"i": lo("1>0")}), profile_against=Profile({"i": lo("0>1")})),
                 InvalidArgumentError, "C to rank c above c'", id="ppe-c-ranks-the-pair-reversed"),
    pytest.param(ppe_outside_the_space, PreconditionError, "candidate space", id="ppe-outside-the-space"),
    pytest.param(lambda: replace(binary_majority_setup(0.75), axiom="w-piia", pair=(0, 1)),
                 InvalidArgumentError, "second population", id="piia-without-a-second-population"),
]


@pytest.mark.parametrize("scenario, error, named", MISSED_PREMISES)
def test_a_missed_premise_raises_before_any_committee_is_drawn(monkeypatch, scenario, error, named):
    """Each argument error of ``_axiom_event`` names what is missing, and no tally is drawn."""
    drawn = []
    monkeypatch.setattr("repsoc.axioms.draw_tallies", lambda *args, **kwargs: drawn.append(args))
    with pytest.raises(error, match=named):
        estimate_axiom(scenario(), [10], 5, seed=0)
    assert drawn == []


class TestPPE:
    def test_unanimous_population_never_fails(self):
        from dataclasses import replace

        profile = Profile({"i": lo("0>1")})
        scn = replace(
            binary_majority_setup(1.0),
            axiom="ppe",
            pair=(0, 1),
            profile=profile,
            profile_against=Profile({"i": lo("1>0")}),
        )
        curve = estimate_axiom(scn, [10, 50, 100, 200], 50, seed=1)
        assert all(p.failures == 0 for p in curve.points)
        assert decay_verdict(curve) == "pass-saturated"

    def test_requires_unanimity(self):
        from dataclasses import replace

        scn = replace(
            binary_majority_setup(0.75),
            axiom="ppe",
            pair=(0, 1),
            profile=Profile({"i": lo("0>1")}),
            profile_against=Profile({"i": lo("1>0")}),
        )
        with pytest.raises(PreconditionError):
            estimate_axiom(scn, [10], 5, seed=0)

    def test_neighbor_profile_checked(self):
        from dataclasses import replace

        scn = replace(
            binary_majority_setup(1.0),
            axiom="ppe",
            pair=(0, 1),
            profile=Profile({"i": lo("0>1")}),
            profile_against=Profile({"i": lo("0>1")}),
        )
        with pytest.raises(InvalidArgumentError):
            estimate_axiom(scn, [10], 5, seed=0)


class TestWPC:
    def test_failure_matches_binomial_tail(self):
        """At odd sizes the wrong-way rate is exactly the minority tail."""
        from dataclasses import replace

        scn = replace(binary_majority_setup(0.75), axiom="w-pc", pair=(0, 1))
        sizes = [11, 21, 41]
        trials = 3000
        curve = estimate_axiom(scn, sizes, trials, seed=4)
        for point in curve.points:
            exact = float(binom.cdf(point.size // 2, point.size, 0.75))
            se = math.sqrt(exact * (1 - exact) / trials)
            assert abs(point.rate - exact) <= 4 * se

    def test_verdict_is_not_fail(self):
        from dataclasses import replace

        scn = replace(binary_majority_setup(0.7), axiom="w-pc", pair=(0, 1))
        curve = estimate_axiom(scn, [11, 21, 41, 81, 161], 2000, seed=5)
        assert decay_verdict(curve) in {"pass-decay", "pass-saturated"}


class TestSPIIA:
    def test_equal_marginals_required(self):
        from dataclasses import replace

        scn = replace(
            binary_majority_setup(0.75),
            axiom="w-piia",
            pair=(0, 1),
            population_b=MarginalPopulation({"i": {lo("0>1"): 0.6, lo("1>0"): 0.4}}),
        )
        with pytest.raises(PreconditionError):
            estimate_axiom(scn, [10], 5, seed=0)

    def test_half_marginal_is_vacuous(self):
        from dataclasses import replace

        pop = MarginalPopulation({"i": {lo("0>1"): 0.5, lo("1>0"): 0.5}})
        scn = replace(
            binary_majority_setup(0.5),
            axiom="w-piia",
            pair=(0, 1),
            population_b=pop,
        )
        with pytest.raises(VacuityError):
            estimate_axiom(scn, [10], 5, seed=0)

    def test_binary_piia_decays(self):
        from dataclasses import replace

        scn = replace(
            binary_majority_setup(0.7),
            axiom="w-piia",
            pair=(0, 1),
            population_b=MarginalPopulation({"i": {lo("0>1"): 0.7, lo("1>0"): 0.3}}),
        )
        curve = estimate_axiom(scn, [11, 41, 161], 800, seed=6)
        rates = [p.rate for p in curve.points]
        assert rates[-1] < rates[0]


class TestCondorcet:
    def setup_method(self):
        self.space = CandidateSpace.full(IssueSpace(("i",), 3))
        self.mechanism = make_mechanism("majority", space=self.space)

    def test_pair_marginals_exact(self):
        scn = condorcet_scenario(self.space, self.mechanism)
        pop = scn.population
        assert pair_marginal(pop, "i", (0, 1)) == 2 / 3
        assert pair_marginal(pop, "i", (0, 2)) == 2 / 9
        assert pair_marginal(pop, "i", (2, 0)) == 7 / 9

    def test_needs_three_outcomes(self):
        space = CandidateSpace.full(IssueSpace(("i",), 2))
        with pytest.raises(InvalidArgumentError):
            condorcet_scenario(space, self.mechanism)

    def test_cycle_demo_always_violates(self):
        pop = MarginalPopulation(
            {"i": {lo("0>1>2"): 1 / 3, lo("1>2>0"): 1 / 3, lo("2>0>1"): 1 / 3}}
        )
        scn = Scenario(
            saliency=SaliencyDistribution({"i": 1.0}),
            population=pop,
            space=self.space,
            mechanism=self.mechanism,
            issue="i",
        )
        report = cycle_violation_demo(scn, [15, 60], 300, seed=7)
        assert set(report.majorities) == {(0, 1), (1, 2), (2, 0)}
        assert report.always_violates()
        for _, _, min_v, hist in report.per_size:
            assert min_v >= 1
            assert sum(hist.values()) == 300

    def test_a_majority_4_cycle_qualifies(self):
        """A quarter of the population on each cyclic shift of 0>1>2>3: the strict majorities
        are exactly the 4-cycle 0>1>2>3>0 (3/4 each) and both diagonals tie at 1/2, so no
        3-cycle exists.  Every chosen ordering, a shift, contradicts exactly one majority."""
        space = CandidateSpace.full(IssueSpace(("i",), 4))
        shifts = [LinearOrder(tuple((k + j) % 4 for j in range(4))) for k in range(4)]
        scn = Scenario(
            saliency=SaliencyDistribution({"i": 1.0}),
            population=MarginalPopulation({"i": dict.fromkeys(shifts, 0.25)}),
            space=space,
            mechanism=make_mechanism("majority", space=space),
            issue="i",
        )
        assert pair_marginal(scn.population, "i", (0, 2)) == pair_marginal(scn.population, "i", (1, 3)) == 0.5
        report = cycle_violation_demo(scn, [4, 21, 80], 200, seed=3)
        assert report.majorities == ((0, 1), (1, 2), (2, 3), (3, 0))
        assert [min_v for _, _, min_v, _ in report.per_size] == [1, 1, 1]
        assert report.always_violates()

    def test_acyclic_marginals_rejected(self):
        scn = Scenario(
            saliency=SaliencyDistribution({"i": 1.0}),
            population=MarginalPopulation({"i": {lo("0>1>2"): 1.0}}),
            space=self.space,
            mechanism=self.mechanism,
            issue="i",
        )
        with pytest.raises(PreconditionError):
            cycle_violation_demo(scn, [10], 10, seed=0)

    def test_linear_output_reverses_one_majority(self):
        # with majorities 0>1, 1>2, 2>0, the output 0>1>2 reverses exactly 2>0
        order = lo("0>1>2")
        majorities = [(0, 1), (1, 2), (2, 0)]
        reversed_pairs = [(a, b) for a, b in majorities if order.prefers(b, a)]
        assert reversed_pairs == [(2, 0)]


class TestDecisiveness:
    """A coalition unanimous on 0 over 1 against a complement unanimous on 1 over 0 (through
    the third outcome 2, for field expansion): PC on their population."""

    def _curve(self, mass, sizes, trials=1500, field_expansion=False):
        orders = (lo("0>2>1"), lo("2>1>0")) if field_expansion else (lo("0>1"), lo("1>0"))
        return estimate_axiom(decisiveness_scenario(mass, *orders, (0, 1)), sizes, trials, seed=8)

    def test_whole_population_never_fails(self):
        curve = self._curve(1.0, [10, 20, 40])
        assert all(p.failures == 0 for p in curve.points)

    def test_two_thirds_matches_binomial_tail(self):
        sizes = [11, 21, 41]
        trials = 3000
        curve = self._curve(2 / 3, sizes, trials=trials)
        for point in curve.points:
            exact = float(binom.cdf(point.size // 2, point.size, 2 / 3))
            se = math.sqrt(exact * (1 - exact) / trials)
            assert abs(point.rate - exact) <= 4 * se

    def test_minority_coalition_loses(self):
        # PC reads the majority's direction, 1 over 0: the coalition loses where PC holds
        curve = self._curve(4 / 9, [11, 41, 161], trials=800)
        rates = [(p.trials - p.failures) / p.trials for p in curve.points]
        assert rates[-1] > 0.9
        assert rates == sorted(rates)

    def test_field_expansion_setup(self):
        curve = self._curve(2 / 3, [11, 21, 41], field_expansion=True)
        assert curve.points[-1].rate < curve.points[0].rate + 0.05

    def test_invalid_mass(self):
        # a coalition mass above 1 leaves its complement a negative mass
        with pytest.raises(InvalidArgumentError):
            coalition_population(1.5, lo("0>1"), lo("1>0"))


class TestFitDecay:
    def test_exact_exponential(self):
        points = [(n, math.exp(-0.1 * n)) for n in range(10, 101, 10)]
        fit = fit_decay(points)
        assert fit.verdict == "fit"
        assert fit.alpha == pytest.approx(0.1, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0)

    def test_all_zero_saturated(self):
        fit = fit_decay([(10, 0.0), (20, 0.0), (40, 0.0)])
        assert fit.verdict == "saturated"
        assert fit.n_zero == 3

    def test_binomial_tail_matches_chernoff_rate(self):
        kl = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        points = [
            (n, float(binom.cdf(n // 2, n, 0.75))) for n in (11, 21, 41, 81)
        ]
        fit = fit_decay(points)
        assert fit.verdict == "fit"
        assert 0.8 * kl <= fit.alpha <= 1.2 * kl


class TestDecayVerdict:
    def _curve(self, rates, trials=1000):
        points = tuple(
            DecayPoint(size=10 * (k + 1), trials=trials, failures=int(round(r * trials)))
            for k, r in enumerate(rates)
        )
        return DecayCurve(points=points, fit=fit_decay([(p.size, p.rate) for p in points]))

    def test_all_zero(self):
        assert decay_verdict(self._curve([0, 0, 0, 0])) == "pass-saturated"

    def test_clean_decay(self):
        assert decay_verdict(self._curve([0.4, 0.2, 0.1, 0.05, 0.025])) == "pass-decay"

    def test_increasing_fails(self):
        assert decay_verdict(self._curve([0.05, 0.1, 0.2, 0.4, 0.8])) == "fail"

    def test_sparse_tail_dies_out(self):
        assert decay_verdict(self._curve([0.3, 0.01, 0.0, 0.0])) == "pass-saturated"

    @pytest.mark.parametrize("rates", [[0.3, 0.4], [0.0, 0.3, 0.3]])
    def test_too_few_points_to_fit_and_no_fall_fails(self, rates):
        """A curve with fewer than three usable points, whose last point fails and whose
        nonzero rate does not fall, fails."""
        curve = self._curve(rates)
        assert curve.fit.verdict == "saturated"
        assert decay_verdict(curve) == "fail"


# -- the per-trial reference ------------------------------------------------
# The lab written out per trial: one tally dict, one decision of the per-call
# reference kernel and one pairwise check per trial.


def reference_chosen(mechanism, saliency, population, sizes, trials, seed, stream=0):
    """Per size, ``(size, [the mechanism's profile for each trial])``."""
    cells, probs = _cells(saliency, population)
    out = []
    for size_index, size in enumerate(sizes):
        rows = derive_rng(seed, size_index, stream).multinomial(size, probs, size=trials)
        chosen = [
            scoring_mechanism_from_counts(
                counts_of_row(cells, row), int(size), mechanism.space, mechanism.rule
            ).chosen
            for row in rows
        ]
        out.append((int(size), chosen))
    return out


def reference_failures(scn, sizes, trials, seed):
    """Per-size failure counts of the scenario's axiom event."""
    issue, pair = scn.issue, tuple(scn.pair)
    runs = reference_chosen(scn.mechanism, scn.saliency, scn.population, sizes, trials, seed)
    if scn.axiom == "ppe":
        return [sum(chosen == scn.profile_against for chosen in c) for _, c in runs]
    if scn.axiom in {"w-pc", "s-pc"}:
        pm = pair_marginal(scn.population, issue, pair)
        target = pair if pm > 0.5 else (pair[1], pair[0])
        return [
            sum(not chosen(issue).prefers(*target) for chosen in c)
            for _, c in runs
        ]
    runs_b = reference_chosen(
        scn.mechanism, scn.saliency, scn.population_b, sizes, trials, seed, stream=1
    )
    return [
        sum(a(issue).prefers(*pair) != b(issue).prefers(*pair) for a, b in zip(ca, cb))
        for (_, ca), (_, cb) in zip(runs, runs_b)
    ]


def reference_histograms(scn, majorities, sizes, trials, seed):
    out = []
    for _, chosen in reference_chosen(
        scn.mechanism, scn.saliency, scn.population, sizes, trials, seed
    ):
        histogram: dict = {}
        for profile in chosen:
            violated = sum(1 for a, b in majorities if profile(scn.issue).prefers(b, a))
            histogram[violated] = histogram.get(violated, 0) + 1
        out.append(histogram)
    return out


def _random_marginal(rng, orders, k):
    """Random masses on ``k`` distinct orders drawn from ``orders``."""
    picked = rng.choice(len(orders), size=min(k, len(orders)), replace=False)
    weights = rng.random(len(picked)) + 0.1
    return {orders[j]: float(w / weights.sum()) for j, w in zip(picked, weights)}


def _same_pair_marginal(rng, dist, pair, orders):
    """A new marginal over ``orders`` with ``dist``'s mass on each side of the pair."""
    out: dict = {}
    for side in (True, False):
        mass = sum(p for o, p in dist.items() if o.prefers(*pair) == side)
        if mass > 0:
            pool = [o for o in orders if o.prefers(*pair) == side]
            for o, p in _random_marginal(rng, pool, 3).items():
                out[o] = mass * p
    return out


def _axiom_scenarios(rng, space, mechanism, issue, pair, profile, orders):
    """ppe, w-pc, s-pc, w-piia and s-piia on ``pair``; the weak ones on a full space only."""
    issues = space.issue_space.issue_ids
    weights = rng.random(len(issues)) + 0.2
    saliency = SaliencyDistribution(
        {i: float(w / weights.sum()) for i, w in zip(issues, weights)}
    )
    population = MarginalPopulation({i: _random_marginal(rng, orders, 4) for i in issues})
    population_b = MarginalPopulation(
        {i: _same_pair_marginal(rng, population.distribution(i), pair, orders) for i in issues}
    )
    above = [o for o in orders if o.prefers(*pair)]
    unanimous = MarginalPopulation(
        {i: _random_marginal(rng, above if i == issue else orders, 2) for i in issues}
    )
    base = dict(saliency=saliency, space=space, mechanism=mechanism, issue=issue, pair=pair)
    swapped = apply_local_permutation(
        profile, issue, Permutation.transposition(space.issue_space.n, *pair)
    )
    yield Scenario(
        population=unanimous, axiom="ppe", profile=profile, profile_against=swapped, **base
    )
    kinds = ("w", "s") if space.variant == "full" else ("s",)
    for kind in kinds:
        yield Scenario(population=population, axiom=f"{kind}-pc", **base)
        yield Scenario(
            population=population, population_b=population_b, axiom=f"{kind}-piia", **base
        )


def differential_scenarios(rng):
    """Seeded scenarios of every axiom: majority and Kendall scoring on full one- and
    two-issue N = 3 spaces, and the acyclic mechanism on each flip pair of three plans."""
    orders = all_linear_orders(3)
    for issues in (("i",), ("i", "j")):
        space = CandidateSpace.full(IssueSpace(issues, 3))
        for name in ("majority", "scoring:kendall"):
            mechanism = make_mechanism(name, space=space)
            for _ in range(2):
                c, cp = (int(x) for x in rng.choice(3, size=2, replace=False))
                above = [o for o in orders if o.prefers(c, cp)]
                profile = Profile(
                    {i: (above if i == "i" else orders)[rng.integers(3)] for i in issues}
                )
                yield from _axiom_scenarios(
                    rng, space, mechanism, "i", (c, cp), profile, orders
                )
    orders = all_linear_orders(4)
    for edges in (
        {(0, 1), (1, 0), (2, 3), (3, 2)},
        {(0, 1), (1, 0), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)},
        {(2, 3), (3, 2), (0, 2), (0, 3)},
    ):
        plan = synthesize_acyclic({"q": PrivilegeGraph(issue="q", n=4, edges=frozenset(edges))})
        mechanism = make_mechanism("acyclic", plan=plan)
        for u, v in plan.issue_plans["q"].orientations.values():
            member = next(o for o in plan.issue_plans["q"].factor if o.prefers(u, v))
            yield from _axiom_scenarios(
                rng, plan.space, mechanism, "q", (u, v), Profile({"q": member}), orders
            )


def test_committee_path_matches_per_trial_reference():
    rng = np.random.default_rng(20261018)
    sizes, trials = [1, 4, 9, 30], 40
    axioms = set()
    checks = disagreements = 0
    for k, scn in enumerate(differential_scenarios(rng)):
        seed = 100 + k
        failures = [p.failures for p in estimate_axiom(scn, sizes, trials, seed).points]
        expected = reference_failures(scn, sizes, trials, seed)
        disagreements += sum(a != b for a, b in zip(failures, expected))
        # every trial gets its own tally's choice, in trial order
        winners = committee_winners(scn, scn.population, sizes, trials, seed)
        reference = reference_chosen(
            scn.mechanism, scn.saliency, scn.population, sizes, trials, seed
        )
        space = scn.mechanism.space
        disagreements += winners.tolist() != [
            [member_indices(space, profile) for profile in chosen] for _, chosen in reference
        ]
        checks += len(sizes) + 1
        axioms.add(scn.axiom)
    assert axioms == {"ppe", "w-pc", "s-pc", "w-piia", "s-piia"}
    assert checks >= 250
    assert disagreements == 0


def test_a_strong_premise_sets_the_closure_test_up_once(monkeypatch):
    """The s-PC and s-PIIA premise asks one closure test both orientations of the pair at once,
    whether it holds or not; a repeated or out-of-range pair is refused before the test."""
    from repsoc import axioms, privilege

    set_up, calls = privilege._closure_test, []

    def counting(space, issue):
        closed = set_up(space, issue)

        def counted(subsets):
            calls.append(subsets.tolist())
            return closed(subsets)

        return counted

    monkeypatch.setattr(privilege, "_closure_test", counting)
    monkeypatch.setattr(axioms, "_closure_test", counting, raising=False)
    plan = synthesize_acyclic({"q": PrivilegeGraph(issue="q", n=4, edges=frozenset({(0, 1), (1, 0), (2, 3), (3, 2)}))})
    mechanism, orders = make_mechanism("acyclic", plan=plan), all_linear_orders(4)
    profile = Profile({"q": plan.issue_plans["q"].factor[0]})
    rng = np.random.default_rng(5)
    strong = [
        scn for scn in _axiom_scenarios(rng, plan.space, mechanism, "q", (0, 1), profile, orders)
        if scn.axiom in {"s-pc", "s-piia"}
    ]
    assert sorted(scn.axiom for scn in strong) == ["s-pc", "s-piia"]
    for scn in strong:
        calls.clear()
        estimate_axiom(scn, [3], 2, seed=0)
        assert calls == [[[0, 1], [1, 0]]]
        calls.clear()
        with pytest.raises(PreconditionError, match="bidirectionally"):
            estimate_axiom(replace(scn, pair=(0, 2)), [3], 2, seed=0)
        assert calls == [[[0, 2], [2, 0]]]
        for pair in ((1, 1), (0, 4)):
            with pytest.raises(InvalidArgumentError, match="distinct|out of range"):
                estimate_axiom(replace(scn, pair=pair), [3], 2, seed=0)


def test_cycle_histograms_match_per_trial_reference():
    rng = np.random.default_rng(20261019)
    space = CandidateSpace.full(IssueSpace(("i",), 3))
    cyclic = [lo("0>1>2"), lo("1>2>0"), lo("2>0>1")]
    sizes, trials = [3, 10, 31], 60
    compared = 0
    for name in ("majority", "scoring:kendall"):
        for k in range(3):
            weights = 1.0 + rng.random(3)  # each share below 1/2: a majority cycle
            scn = Scenario(
                saliency=SaliencyDistribution({"i": 1.0}),
                population=MarginalPopulation(
                    {"i": {o: float(w / weights.sum()) for o, w in zip(cyclic, weights)}}
                ),
                space=space,
                mechanism=make_mechanism(name, space=space),
                issue="i",
            )
            report = cycle_violation_demo(scn, sizes, trials, seed=k)
            expected = reference_histograms(scn, report.majorities, sizes, trials, seed=k)
            assert [hist for _, _, _, hist in report.per_size] == expected
            compared += len(sizes)
    assert compared == 18


@pytest.mark.parametrize("setup", ["weak", "field-expansion"])
def test_decisiveness_matches_per_trial_reference(setup):
    """The coalition/complement populations, masses on both sides of 1/2, as w-pc
    scenarios of estimate_axiom against the per-trial reference."""
    rng = np.random.default_rng(20261020)
    sizes, trials = [2, 7, 20], 60
    compared = 0
    for name in ("majority", "scoring:kendall"):
        for mass in (1.0, float(rng.uniform(0.5, 0.9)), float(rng.uniform(0.1, 0.5))):
            c, cp, third = (int(x) for x in rng.permutation(3))
            if setup == "weak":
                coalition, complement = LinearOrder((c, cp, third)), LinearOrder((cp, c, third))
            else:
                coalition, complement = LinearOrder((c, third, cp)), LinearOrder((third, cp, c))
            scn = decisiveness_scenario(mass, coalition, complement, (c, cp), name)
            curve = estimate_axiom(scn, sizes, trials, seed=3)
            expected = reference_failures(scn, sizes, trials, seed=3)
            assert [p.failures for p in curve.points] == expected
            compared += 1
    assert compared == 6


def committee_winners(*args):
    """The (sizes x trials x blocks) winner indices of ``_committees(*args)``."""
    return np.concatenate(list(_committees(*args)))


def counting_kernel(monkeypatch):
    """The row totals of each tally matrix that reaches the kernel, one list per call."""
    calls = []

    def counted(rows, cells, space, rule):
        calls.append(sorted(set(rows.sum(axis=1).tolist())))
        return decide_tallies(rows, cells, space, rule)

    monkeypatch.setattr("repsoc.axioms.decide_tallies", counted)
    return calls


class TestKernelCalls:
    """Every size's tally matrix of a stream reaches the kernel in one call per stream."""

    sizes, trials, seed = [10, 50, 100, 200], 50, 1

    def test_one_call_per_stream(self, monkeypatch):
        calls = counting_kernel(monkeypatch)
        scn = replace(binary_majority_setup(0.75), axiom="w-pc", pair=(0, 1))
        estimate_axiom(scn, self.sizes, self.trials, self.seed)
        assert calls == [self.sizes]

    def test_paired_streams_one_call_per_stream(self, monkeypatch):
        calls = counting_kernel(monkeypatch)
        population_b = MarginalPopulation({"i": {lo("0>1"): 0.75, lo("1>0"): 0.25}})
        scn = replace(
            binary_majority_setup(0.75), axiom="w-piia", pair=(0, 1), population_b=population_b
        )
        estimate_axiom(scn, self.sizes, self.trials, self.seed)
        assert calls == [self.sizes, self.sizes]

    def test_cycle_demo_one_call(self, monkeypatch):
        calls = counting_kernel(monkeypatch)
        space = CandidateSpace.full(IssueSpace(("i",), 3))
        cycle_violation_demo(
            condorcet_scenario(space, make_mechanism("majority", space=space)),
            self.sizes, self.trials, self.seed,
        )
        assert calls == [self.sizes]

    def test_no_profile_built_per_trial(self, monkeypatch):
        """Failure tests read winner indices: the profiles a run builds, for its premise
        checks, are as many at 40 trials a size as at 2."""
        scenarios = list(differential_scenarios(np.random.default_rng(7)))
        space = CandidateSpace.full(IssueSpace(("i",), 3))
        condorcet = condorcet_scenario(space, make_mechanism("scoring:kendall", space=space))
        built, init = [], Profile.__init__
        monkeypatch.setattr(Profile, "__init__", lambda self, a: built.append(1) or init(self, a))
        counts = []
        for trials in (2, 40):
            built.clear()
            for scn in scenarios:
                estimate_axiom(scn, [3, 11], trials, seed=1)
            cycle_violation_demo(condorcet, [3, 11], trials, seed=1)
            counts.append(len(built))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("fit", [1, 2])
    def test_sizes_go_in_groups_that_fit_the_cap(self, monkeypatch, fit):
        """Under a cap of ``fit`` sizes' (trials x 3 cells) tallies, the sizes reach the kernel
        ``fit`` at a time, in order, with the failure counts and histograms of one call."""
        space = CandidateSpace.full(IssueSpace(("i",), 3))
        for name in ("majority", "scoring:kendall"):
            condorcet = condorcet_scenario(space, make_mechanism(name, space=space))
            piia = replace(condorcet, axiom="w-piia", pair=(0, 1), population_b=condorcet.population)

            def run():
                return (
                    estimate_axiom(piia, self.sizes, self.trials, self.seed).points,
                    cycle_violation_demo(condorcet, self.sizes, self.trials, self.seed).per_size,
                )

            whole = run()
            with monkeypatch.context() as patch:
                calls = counting_kernel(patch)
                patch.setattr("repsoc.axioms.DEFAULT_ENUMERATION_CAP", fit * self.trials * 3)
                assert run() == whole
            groups = [self.sizes[at : at + fit] for at in range(0, len(self.sizes), fit)]
            assert calls == groups * 3  # two PIIA streams, then the cycle demo

    @pytest.mark.parametrize("cap", [1, 7, 60])
    def test_small_chunk_bound_same_winners(self, monkeypatch, cap):
        """A cap of 1 or 7 entries decides one tally at a time, and builds the Kendall points
        matrix a few column orderings at a time; 60 takes a few tallies per chunk."""
        space = CandidateSpace.full(IssueSpace(("x", "y"), 3))
        orders = all_linear_orders(3)
        population = MarginalPopulation(
            {"x": {orders[0]: 0.4, orders[3]: 0.35, orders[5]: 0.25}, "y": {orders[2]: 1.0}}
        )
        saliency = SaliencyDistribution({"x": 0.7, "y": 0.3})
        for name in ("majority", "scoring:kendall"):
            mechanism = make_mechanism(name, space=space)
            scn = Scenario(saliency=saliency, population=population, space=space, mechanism=mechanism)
            whole = committee_winners(scn, population, [3, 8], 40, 5)
            with monkeypatch.context() as patch:
                patch.setattr("repsoc.mechanisms.DEFAULT_ENUMERATION_CAP", cap)
                chunked = committee_winners(scn, population, [3, 8], 40, 5)
            assert (chunked == whole).all()


class TestNegativeSizes:
    def test_estimate_axiom_rejects_a_negative_size(self):
        scn = replace(binary_majority_setup(0.75), axiom="w-pc", pair=(0, 1))
        with pytest.raises(InvalidArgumentError, match="sizes"):
            estimate_axiom(scn, [-5, 3], 5, seed=0)


BAD_COMMITTEE_PLANS = [
    pytest.param([], 5, "sizes", id="no-sizes"),
    pytest.param([8, 4], 5, "sizes", id="decreasing"),
    pytest.param([4, 4], 5, "sizes", id="repeated"),
    pytest.param([5], 0, "trial", id="no-trials"),
    pytest.param([-5], 5, "sizes", id="negative"),
    pytest.param([2.9, 10.5], 5, "committee size 2.9 is not an integer", id="fractional"),
    pytest.param([3.0, 9], 5, "committee size 3.0 is not an integer", id="integral-float"),
    pytest.param([np.float64(3.0), 9], 5, "is not an integer", id="numpy-float"),
    pytest.param([True, 3], 5, "committee size True is not an integer", id="bool"),
]

# bad in the axiom lab only: an empty committee is decided by the tie-break alone
AXIOM_LAB_PLANS = [pytest.param([0, 5], 5, "sizes must be >= 1", id="size-zero")]


class TestCommitteePlanChecks:
    """Every lab rejects a bad size list or trial count through ``draw_tallies``."""

    @pytest.mark.parametrize("sizes, trials, named", BAD_COMMITTEE_PLANS + AXIOM_LAB_PLANS)
    def test_estimate_axiom(self, sizes, trials, named):
        scn = replace(binary_majority_setup(0.75), axiom="w-pc", pair=(0, 1))
        with pytest.raises(InvalidArgumentError, match=named):
            estimate_axiom(scn, sizes, trials, seed=0)

    @pytest.mark.parametrize("sizes, trials, named", BAD_COMMITTEE_PLANS + AXIOM_LAB_PLANS)
    def test_cycle_violation_demo(self, sizes, trials, named):
        space = CandidateSpace.full(IssueSpace(("i",), 3))
        scn = condorcet_scenario(space, make_mechanism("majority", space=space))
        with pytest.raises(InvalidArgumentError, match=named):
            cycle_violation_demo(scn, sizes, trials, seed=0)

    @pytest.mark.parametrize("sizes, trials, named", BAD_COMMITTEE_PLANS)
    def test_generalization_experiment(self, sizes, trials, named):
        scn = binary_majority_setup(0.75)
        with pytest.raises(InvalidArgumentError, match=named):
            generalization_experiment(scn.space, scn.saliency, scn.population, sizes, trials, seed=0)

    def test_numpy_integer_sizes_read_as_ints(self):
        """Sizes of numpy integer types give each lab the results of the equal Python ints."""
        scn = replace(binary_majority_setup(0.75), axiom="w-pc", pair=(0, 1))
        sizes = [np.int64(3), np.uint8(20)]
        assert estimate_axiom(scn, sizes, 50, seed=0) == estimate_axiom(scn, [3, 20], 50, seed=0)
        lab = partial(generalization_experiment, scn.space, scn.saliency, scn.population, trials=50, seed=0)
        given, ints = lab(sizes), lab([3, 20])
        assert given.sizes == ints.sizes == (3, 20)
        for size in ints.sizes:
            assert given.gaps[size].tobytes() == ints.gaps[size].tobytes()
            assert given.regret_slack[size].tobytes() == ints.regret_slack[size].tobytes()

    def test_an_array_of_sizes_reads_as_the_list(self, tmp_path):
        """A numpy array of sizes, once refused with numpy's raw ``ValueError``, gives each lab
        the results and bytes of the equal list."""
        scn = replace(binary_majority_setup(0.75), axiom="w-pc", pair=(0, 1))
        given, listed = estimate_axiom(scn, np.array([3, 20]), 50, seed=0), estimate_axiom(scn, [3, 20], 50, seed=0)
        given.to_csv(tmp_path / "given.csv")
        listed.to_csv(tmp_path / "listed.csv")
        assert given == listed and (tmp_path / "given.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()
        space = CandidateSpace.full(IssueSpace(("i",), 3))
        demo = partial(cycle_violation_demo, condorcet_scenario(space, make_mechanism("majority", space=space)))
        given, listed = demo(np.array([3, 20], dtype=np.uint8), 50, seed=0), demo([3, 20], 50, seed=0)
        assert given == listed and repr(given) == repr(listed)
        lab = partial(generalization_experiment, scn.space, scn.saliency, scn.population, trials=50, seed=0)
        given, listed = lab(np.array([3, 20])), lab([3, 20])
        assert given.sizes == listed.sizes == (3, 20)
        for size in listed.sizes:
            assert given.gaps[size].tobytes() == listed.gaps[size].tobytes()
            assert given.regret_slack[size].tobytes() == listed.regret_slack[size].tobytes()

    def test_kendall_scores_over_int64_rejected_before_any_draw(self, monkeypatch):
        calls = counting_kernel(monkeypatch)
        space = CandidateSpace.full(IssueSpace(("i",), 3))
        scn = replace(
            condorcet_scenario(space, make_mechanism("scoring:kendall", space=space)),
            axiom="w-pc", pair=(0, 1),
        )
        largest = (2**63 - 1) // 3
        with pytest.raises(InvalidArgumentError, match=f"sizes must be at most {largest}"):
            estimate_axiom(scn, [5, largest + 1], 2, seed=0)
        assert calls == []
        curve = estimate_axiom(scn, [5, largest], 2, seed=0)
        assert [p.size for p in curve.points] == [5, largest]

    def test_trials_times_cells_over_the_cap(self, monkeypatch):
        """Each lab refuses a (trials x cells) tally matrix over the cap before it draws a
        committee: PIIA's second population has 4 cells where its first has 2."""
        space = CandidateSpace.full(IssueSpace(("i",), 3))
        mechanism = make_mechanism("majority", space=space)
        calls = counting_kernel(monkeypatch)
        piia = Scenario(
            saliency=SaliencyDistribution({"i": 1.0}),
            population=MarginalPopulation({"i": {lo("0>1>2"): 0.7, lo("1>0>2"): 0.3}}),
            population_b=MarginalPopulation(
                {"i": {lo("0>1>2"): 0.4, lo("0>2>1"): 0.3, lo("1>0>2"): 0.2, lo("2>1>0"): 0.1}}
            ),
            space=space,
            mechanism=mechanism,
            axiom="w-piia",
            issue="i",
            pair=(0, 1),
        )
        trials = DEFAULT_ENUMERATION_CAP // 3 + 1  # 2 cells fit under the cap, 3 do not
        runs = (
            lambda: estimate_axiom(piia, [5], trials, seed=0),
            lambda: cycle_violation_demo(condorcet_scenario(space, mechanism), [5], trials, seed=0),
            lambda: generalization_experiment(
                space, piia.saliency, piia.population_b, [5], trials, seed=0
            ),
        )
        for run in runs:
            with pytest.raises(CapacityError, match="trials"):
                run()
        assert calls == []
