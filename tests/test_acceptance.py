"""End-to-end acceptance checks, one test per headline property.

Each test prints a single PASS line on success (run with ``pytest -s`` to see
them); a failed assertion is the corresponding FAIL.  Randomness is fully
seeded, so these are reproducible verdicts, not flaky statistics.
"""

import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom

from repsoc import (
    CandidateSpace,
    EXACT_MATCH,
    IssueSpace,
    KENDALL,
    LinearOrder,
    MarginalPopulation,
    PartialOrder,
    Permutation,
    Profile,
    SaliencyDistribution,
    Scenario,
    all_linear_orders,
    apply_permutation,
    build_privilege_graph,
    check_path_privilege,
    condorcet_scenario,
    cycle_violation_demo,
    decay_verdict,
    empirical_rademacher,
    estimate_axiom,
    fit_decay,
    generalization_experiment,
    is_cyclically_privileged,
    is_privileged,
    make_mechanism,
    massart_bound,
    pair_marginal,
    scc_condensation,
    save_candidate_space,
    save_population,
    synthesize_acyclic,
    vc_dimension_with_witness,
)
from repsoc.cli import main as cli_main
from repsoc.complexity import is_shattered
from repsoc.privilege import PrivilegeGraph
from tests.conftest import (
    all_partial_sequences,
    random_explicit_space,
    random_sample,
    random_subset_space,
)
from tests.mechanism_reference import majority_vote, scoring_mechanism

SEED = 20260823


def report(line):
    print(f"\n[acceptance] {line}")


# -- 1 & 2: uniform convergence and the regret chain ------------------------


@pytest.fixture(scope="module")
def binary_generalization():
    rng = np.random.default_rng(SEED)
    issues = tuple(f"i{k}" for k in range(8))
    space = random_explicit_space(rng, issues, 2, 32)
    saliency = SaliencyDistribution({issue: 1 / 8 for issue in issues})
    population = MarginalPopulation(
        {
            issue: {
                LinearOrder((0, 1)): p,
                LinearOrder((1, 0)): 1.0 - p,
            }
            for issue, p in zip(issues, rng.uniform(0.15, 0.85, size=8))
        }
    )
    started = time.perf_counter()
    result = generalization_experiment(
        space, saliency, population, sizes=[4096, 10_000, 16_384], trials=200, seed=SEED
    )
    return result, time.perf_counter() - started


def test_criterion_1_uniform_convergence(binary_generalization):
    result, elapsed = binary_generalization
    frac_over = result.exceed_fraction(10_000, 0.05)
    assert frac_over <= 0.05, f"sup-gap over 0.05 in {frac_over:.1%} of trials"
    ratio = result.median_gap(16_384) / result.median_gap(4096)
    assert ratio <= 0.55, f"median-gap ratio {ratio:.3f} exceeds 0.55"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(
        f"criterion 1: PASS — sup-gap<=0.05 in {1 - frac_over:.1%} of trials, "
        f"median ratio {ratio:.3f}, {elapsed:.1f}s"
    )


def test_criterion_2_regret_chain(binary_generalization):
    result, _ = binary_generalization
    violations = sum(
        int((result.regret_slack[size] < 0).sum()) for size in result.sizes
    )
    assert violations == 0
    report("criterion 2: PASS — 0 regret-chain violations in 600 trials")


# -- 3: scoring with exact-match == majority vote ---------------------------


def test_criterion_3_scoring_equals_majority():
    rng = np.random.default_rng(SEED + 3)
    failures = 0
    for k in range(1000):
        variant = k % 3
        if variant == 0:
            space = random_explicit_space(rng, ("a", "b"), 3, int(rng.integers(2, 9)))
        elif variant == 1:
            n = 2 if k % 2 else 3
            space = CandidateSpace.full(IssueSpace(("a", "b"), n))
        else:
            orders = all_linear_orders(3)
            f1 = [Profile({"a": orders[j]}) for j in rng.choice(6, size=2, replace=False)]
            f2 = [Profile({"b": orders[j]}) for j in rng.choice(6, size=3, replace=False)]
            space = CandidateSpace.product(
                ((("a",), f1), (("b",), f2)), IssueSpace(("a", "b"), 3)
            )
        n = space.issue_space.n
        sample = random_sample(rng, ("a", "b"), n, int(rng.integers(1, 30)))
        if (
            scoring_mechanism(sample, space, EXACT_MATCH).chosen
            != majority_vote(sample, space).chosen
        ):
            failures += 1
    assert failures == 0
    report("criterion 3: PASS — scoring(exact) == majority on 1000/1000 instances")


# -- 4: VC dimension oracle -------------------------------------------------


def test_criterion_4_vc_dimension():
    for m in range(1, 7):
        issues = tuple(f"i{k}" for k in range(m))
        space = CandidateSpace.full(IssueSpace(issues, 2))
        dimension, witness = vc_dimension_with_witness(space)
        assert dimension == m
        assert is_shattered(space, witness)
    rng = np.random.default_rng(SEED + 4)
    for _ in range(5):
        singleton = random_explicit_space(rng, ("a", "b", "c"), 2, 1)
        dimension, witness = vc_dimension_with_witness(singleton)
        assert dimension == 0 and witness == ()
    report("criterion 4: PASS — Full binary m=1..6 exact, singletons 0, witnesses verified")


# -- 5: Rademacher vs Massart ----------------------------------------------


def test_criterion_5_rademacher_massart():
    rng = np.random.default_rng(SEED + 5)
    for trial in range(50):
        issues = ("a", "b") if trial % 2 else ("a", "b", "c")
        space = random_explicit_space(rng, issues, 3, int(rng.integers(2, 21)))
        sample = random_sample(rng, issues, 3, int(rng.integers(20, 101)))
        rule = KENDALL if trial % 2 else EXACT_MATCH
        estimate, stderr = empirical_rademacher(space, rule, *sample.cells(), 200, seed=SEED + trial)
        bound = massart_bound(space.size(), len(sample))
        assert estimate <= bound + 3 * stderr, (
            f"class {trial}: {estimate:.4f} > {bound:.4f} + 3*{stderr:.4f}"
        )
    report("criterion 5: PASS — Massart bound held for 50/50 random classes")


# -- 6: privilege-graph laws on random spaces -------------------------------


def _check_privilege_laws(space, n, stats):
    issue = space.issue_space.issue_ids[0]
    graph = build_privilege_graph(space, issue)
    if not graph.is_transitive():
        stats["transitivity"].append((space, graph))
    privileged = {
        seq: is_privileged(space, issue, PartialOrder(seq, n))
        for seq in all_partial_sequences(n)
    }
    for o, op in itertools.product(privileged, repeat=2):
        if o[-1] != op[0] or set(o) & set(op) != {o[-1]}:
            continue
        joined = o + op[1:]
        if len(joined) > n:
            continue
        if privileged[o] and privileged[op] and not privileged[joined]:
            stats["closure"].append((space, o, op))
    for seq, flag in privileged.items():
        o = PartialOrder(seq, n)
        if check_path_privilege(graph, o):
            if not flag:
                stats["soundness"].append((space, seq))
        elif flag:
            stats["non_necessity"] += 1


def test_criterion_6_privilege_lemmas():
    rng = np.random.default_rng(SEED + 6)
    started = time.perf_counter()
    stats = {"transitivity": [], "closure": [], "soundness": [], "non_necessity": 0}
    # exhaustive over every nonempty single-issue N=3 space, then random N=4
    issue_space = IssueSpace(("i",), 3)
    orders = list(all_linear_orders(3))
    n_spaces = 0
    for size in range(1, 7):
        for subset in itertools.combinations(orders, size):
            space = CandidateSpace.explicit(
                [Profile({"i": o}) for o in subset], issue_space
            )
            _check_privilege_laws(space, 3, stats)
            n_spaces += 1
    for _ in range(40):
        _check_privilege_laws(random_subset_space(rng, 3), 3, stats)
        n_spaces += 1
    for _ in range(10):
        _check_privilege_laws(random_subset_space(rng, 4, max_size=10), 4, stats)
        n_spaces += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    assert not stats["closure"], stats["closure"][:3]
    if stats["transitivity"] or stats["soundness"]:
        space, graph = stats["transitivity"][0]
        members = ", ".join(str(p("i")) for p in space.profiles)
        report(
            f"criterion 6: FAIL — concatenation closure held on all {n_spaces} "
            f"spaces, but graph transitivity broke on "
            f"{len(stats['transitivity'])} of them and path-implies-privileged "
            f"broke on {len(stats['soundness'])} orderings "
            f"(+{stats['non_necessity']} non-necessity cases); "
            f"smallest offender: {{{members}}} -> edges {sorted(graph.edges)}"
        )
        pytest.fail(
            "pairwise-privilege transitivity is not a law of arbitrary explicit "
            f"spaces. Across {n_spaces} checked spaces (all 63 nonempty "
            "single-issue N=3 spaces, then random N=3 and N=4 draws), "
            f"{len(stats['transitivity'])} violate it; e.g. "
            f"the space {{{members}}} has privileged pairs forming "
            f"{sorted(graph.edges)}, which is not transitively closed, because "
            "a longer privileged sequence does not make its endpoint pair "
            "privileged (sorting one pair at a time can disturb the middle "
            "outcome). Path-reachability therefore also over-approximates "
            "pairwise privilege on the same spaces, so the zero-violation "
            "requirement is unattainable for an exact brute-force checker."
        )
    report(
        f"criterion 6: PASS — transitivity/closure/path-soundness on {n_spaces} "
        f"spaces ({stats['non_necessity']} non-necessity cases logged), {elapsed:.1f}s"
    )


# -- 7: independent product block => complete graph -------------------------


def test_criterion_7_free_factor_complete_digraph():
    factor_ab = [
        Profile({"A": LinearOrder((0, 1, 2)), "B": LinearOrder((0, 1, 2))}),
        Profile({"A": LinearOrder((1, 0, 2)), "B": LinearOrder((2, 1, 0))}),
        Profile({"A": LinearOrder((0, 2, 1)), "B": LinearOrder((0, 2, 1))}),
    ]
    factor_c = [Profile({"C": o}) for o in all_linear_orders(3)]
    space = CandidateSpace.product(
        ((("A", "B"), factor_ab), (("C",), factor_c)), IssueSpace(("A", "B", "C"), 3)
    )
    graph = build_privilege_graph(space, "C")
    assert len(graph.edges) == 6
    assert is_cyclically_privileged(graph)
    two_cycle = PrivilegeGraph(issue="C", n=3, edges=frozenset({(0, 1), (1, 0)}))
    assert not is_cyclically_privileged(two_cycle)
    report("criterion 7: PASS — free factor yields a complete (cyclic) digraph; 2-cycle-only is not cyclic")


# -- 8: acyclic synthesis over all transitive <=2-SCC graphs on N=4 ---------


def _transitive_small_scc_graphs_up_to_iso(n=4):
    """Canonical representatives of transitive digraphs whose SCCs have <=2 vertices."""
    vertices = range(n)
    arcs = [(u, v) for u in vertices for v in vertices if u != v]
    perms = list(itertools.permutations(vertices))
    seen = {}
    for mask in range(1 << len(arcs)):
        edges = frozenset(arc for k, arc in enumerate(arcs) if mask >> k & 1)
        graph = PrivilegeGraph(issue="q", n=n, edges=edges)
        if not graph.is_transitive():
            continue
        if any(len(scc) > 2 for scc in scc_condensation(graph).scc_members):
            continue
        canon = min(
            tuple(sorted((p[u], p[v]) for u, v in edges)) for p in perms
        )
        seen.setdefault(canon, graph)
    return list(seen.values())


def _pair_scenarios(plan, issue, u, v):
    """PPE / S-PC / S-PIIA scenarios targeting one flip pair of the plan."""
    o1 = plan.issue_plans[issue].factor[0]
    if not o1.prefers(u, v):  # align o1 with the (u, v) direction
        u, v = v, u
    o2 = apply_permutation(o1, Permutation.transposition(o1.n, u, v))
    saliency = SaliencyDistribution({issue: 1.0})
    mechanism = make_mechanism("acyclic", plan=plan)
    base = dict(saliency=saliency, space=plan.space, mechanism=mechanism, issue=issue)
    ppe = Scenario(
        population=MarginalPopulation({issue: {o1: 1.0}}),
        axiom="ppe",
        pair=(u, v),
        profile=Profile({issue: o1}),
        profile_against=Profile({issue: o2}),
        **base,
    )
    pop_a = MarginalPopulation({issue: {o1: 0.6, o2: 0.4}})
    spc = Scenario(population=pop_a, axiom="s-pc", pair=(u, v), **base)
    others = sorted(set(range(o1.n)) - {u, v})
    sigma = Permutation.transposition(o1.n, *others[:2])
    pop_b = MarginalPopulation(
        {issue: {apply_permutation(o1, sigma): 0.6, apply_permutation(o2, sigma): 0.4}}
    )
    spiia = Scenario(
        population=pop_a, population_b=pop_b, axiom="s-piia", pair=(u, v), **base
    )
    return ppe, spc, spiia


def test_criterion_8_acyclic_construction():
    graphs = _transitive_small_scc_graphs_up_to_iso()
    assert len(graphs) >= 20, f"only {len(graphs)} isomorphism classes"
    sizes = [25, 50, 100, 200, 400]
    axiom_runs = 0
    for index, graph in enumerate(graphs):
        plan = synthesize_acyclic({"q": graph})
        produced = build_privilege_graph(plan.space, "q")
        assert graph.edges <= produced.edges, f"not a supergraph for class {index}"
        pair_sccs = [s for s in plan.issue_plans["q"].topo_sccs if len(s) == 2]
        if not pair_sccs:
            assert plan.space.size() == 1  # axioms are vacuous for a singleton
            continue
        u, v = plan.issue_plans["q"].orientations[frozenset(pair_sccs[0])]
        for scenario in _pair_scenarios(plan, "q", u, v):
            curve = estimate_axiom(scenario, sizes, 2000, seed=SEED + index)
            verdict = decay_verdict(curve)
            assert verdict != "fail", (
                f"class {index} {scenario.axiom}: {[p.rate for p in curve.points]}"
            )
            axiom_runs += 1
    report(
        f"criterion 8: PASS — {len(graphs)} classes, supergraph everywhere, "
        f"{axiom_runs} decay checks passed"
    )


# -- 9: Condorcet-cycle demonstrations --------------------------------------


def test_criterion_9_cyclic_demonstration():
    space = CandidateSpace.full(IssueSpace(("i",), 3))
    mechanism = make_mechanism("majority", space=space)
    population = MarginalPopulation(
        {
            "i": {
                LinearOrder((0, 1, 2)): 1 / 3,
                LinearOrder((1, 2, 0)): 1 / 3,
                LinearOrder((2, 0, 1)): 1 / 3,
            }
        }
    )
    scn = Scenario(
        saliency=SaliencyDistribution({"i": 1.0}),
        population=population,
        space=space,
        mechanism=mechanism,
        issue="i",
    )
    demo = cycle_violation_demo(scn, [25], 1000, seed=SEED + 9)
    (size, trials, min_violations, histogram) = demo.per_size[0]
    assert trials == 1000 and min_violations >= 1
    assert histogram.get(0, 0) == 0

    mixture = condorcet_scenario(space, mechanism)
    assert pair_marginal(mixture.population, "i", (0, 1)) == 2 / 3
    assert pair_marginal(mixture.population, "i", (0, 2)) == 2 / 9
    assert pair_marginal(mixture.population, "i", (2, 0)) == 7 / 9
    report("criterion 9: PASS — 1000/1000 trials violate a majority; mixture marginals exact")


# -- 10: Hoeffding-style decay against exact binomial tails -----------------


def test_criterion_10_binomial_decay():
    space = CandidateSpace.full(IssueSpace(("i",), 2))
    scn = Scenario(
        saliency=SaliencyDistribution({"i": 1.0}),
        population=MarginalPopulation(
            {"i": {LinearOrder((0, 1)): 0.75, LinearOrder((1, 0)): 0.25}}
        ),
        space=space,
        mechanism=make_mechanism("majority", space=space),
        axiom="w-pc",
        issue="i",
        pair=(0, 1),
    )
    sizes = [11, 21, 41, 81]
    trials = 4000
    curve = estimate_axiom(scn, sizes, trials, seed=SEED + 10)
    exact_tails = []
    for point in curve.points:
        exact = float(binom.cdf(point.size // 2, point.size, 0.75))
        exact_tails.append((point.size, exact))
        se = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(point.rate - exact) <= 3 * se, (
            f"n={point.size}: rate {point.rate} vs exact {exact}"
        )
    kl = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    fit = fit_decay(exact_tails)
    assert fit.verdict == "fit"
    assert 0.8 * kl <= fit.alpha <= 1.2 * kl, f"alpha {fit.alpha} vs KL {kl}"
    report(
        f"criterion 10: PASS — rates within 3 SE of exact tails; "
        f"alpha {fit.alpha:.4f} vs KL {kl:.4f}"
    )


# -- 11: byte-identical reruns ----------------------------------------------


def test_criterion_11_determinism(tmp_path):
    issues = ("i0", "i1")
    space = IssueSpace(issues, 2)
    saliency = SaliencyDistribution({issue: 0.5 for issue in issues})
    population = MarginalPopulation(
        {
            "i0": {LinearOrder((0, 1)): 0.7, LinearOrder((1, 0)): 0.3},
            "i1": {LinearOrder((0, 1)): 0.4, LinearOrder((1, 0)): 0.6},
        }
    )
    pop_path = tmp_path / "population.json"
    save_population(pop_path, space, saliency, population)
    space_path = tmp_path / "space.json"
    save_candidate_space(space_path, CandidateSpace.full(space))

    configs = {
        "gen.json": {
            "kind": "generalization",
            "population": str(pop_path),
            "space": str(space_path),
            "sizes": [64, 256, 1024],
            "trials": 50,
            "seed": 424242,
        },
        "axiom.json": {
            "kind": "axiom",
            "population": str(pop_path),
            "space": str(space_path),
            "axiom": "w-pc",
            "issue": "i0",
            "pair": [0, 1],
            "sizes": [11, 21, 41],
            "trials": 300,
            "seed": 424242,
        },
    }
    artifacts = {"gen.json": "gaps.csv", "axiom.json": "decay.csv"}
    for name, doc in configs.items():
        config = tmp_path / name
        config.write_text(json.dumps(doc))
        out_a = tmp_path / f"{name}.a"
        out_b = tmp_path / f"{name}.b"
        assert cli_main(["run", str(config), "--out", str(out_a)]) == 0
        assert cli_main(["run", str(config), "--out", str(out_b)]) == 0
        artifact = artifacts[name]
        assert (out_a / artifact).read_bytes() == (out_b / artifact).read_bytes()
    report("criterion 11: PASS — CSV bodies byte-identical across reruns")
