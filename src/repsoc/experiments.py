"""Config-driven experiments: generalization runs, reports, and file output.

Everything here is deterministic given the config's master seed: trial t of
size index j draws from the derived stream (seed, j, t-block), and result
CSV bodies are byte-identical across re-runs.  Wall-clock and other
non-reproducible facts go to a separate metadata file.
"""

from __future__ import annotations

import contextlib
import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .axioms import (
    Scenario,
    cycle_violation_demo,
    decay_verdict,
    estimate_axiom,
)
from .complexity import (
    InducedLossClass,
    empirical_rademacher,
    is_shattered,
    massart_bound,
    vc_dimension_with_witness,
)
from .errors import InvalidArgumentError
from .mechanisms import (
    EXACT_MATCH,
    SCORING_RULES,
    acyclic_mechanism_from_counts,
    population_utility,
    scoring_mechanism_from_counts,
)
from .orders import LinearOrder, Permutation, Profile, apply_local_permutation
from .population import (
    MarginalPopulation,
    SaliencyDistribution,
    _cells,
    load_population,
    sample_pairs,
)
from .privilege import (
    PrivilegeGraph,
    build_privilege_graph,
    is_cyclically_privileged,
    scc_condensation,
    synthesize_acyclic,
    to_dot,
)
from .rng import derive_rng
from .spaces import CandidateSpace, load_candidate_space, save_candidate_space

__all__ = [
    "EXPERIMENT_KINDS",
    "make_mechanism",
    "GeneralizationResult",
    "generalization_experiment",
    "run_experiment",
    "RunReport",
]

EXPERIMENT_KINDS = (
    "generalization",
    "axiom",
    "privilege-analysis",
    "synthesize-acyclic",
    "condorcet-demo",
    "vc",
    "rademacher",
)


def _scoring_rule(rule_name: str):
    if rule_name not in SCORING_RULES:
        raise InvalidArgumentError(f"unknown scoring rule {rule_name!r}")
    return SCORING_RULES[rule_name]


def make_mechanism(name: str, space: CandidateSpace = None, plan=None):
    """Resolve a mechanism config string to a counts-based callable."""
    if name == "majority" or name.startswith("scoring:"):
        rule = EXACT_MATCH if name == "majority" else _scoring_rule(name.split(":", 1)[1])
        if space is None:
            raise InvalidArgumentError(f"mechanism {name!r} needs a candidate space")
        return lambda counts, total: scoring_mechanism_from_counts(
            counts, total, space, rule
        ).chosen
    if name == "acyclic":
        if plan is None:
            raise InvalidArgumentError("acyclic mechanism needs a synthesis plan")
        return lambda counts, total: acyclic_mechanism_from_counts(plan, counts)
    raise InvalidArgumentError(f"unknown mechanism {name!r}")


# -- generalization lab ----------------------------------------------------


@dataclass(frozen=True)
class GeneralizationResult:
    sizes: tuple
    trials: int
    gaps: dict  # size -> np.ndarray of per-trial sup-gaps
    regret_slack: dict  # size -> per-trial U(f_maj) - (max U - 2*gap), >= 0 by the chain
    population_utilities: np.ndarray
    epsilon: float | None = None

    def exceed_fraction(self, size: int, epsilon: float) -> float:
        gaps = self.gaps[size]
        return float((gaps > epsilon).mean())

    def median_gap(self, size: int) -> float:
        return float(np.median(self.gaps[size]))


def generalization_experiment(
    space: CandidateSpace,
    saliency: SaliencyDistribution,
    population: MarginalPopulation,
    sizes,
    trials: int,
    seed: int,
    epsilon: float | None = None,
) -> GeneralizationResult:
    """Per-trial sup over the space of |sample utility - population utility|.

    The sup is exact (full enumeration).  Also records, per trial, the slack
    in the majority-vote regret chain U(f_maj) >= max U - 2 * sup-gap.
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
    return GeneralizationResult(
        sizes=tuple(int(s) for s in sizes),
        trials=trials,
        gaps=gaps,
        regret_slack=regret_slack,
        population_utilities=pop_util,
        epsilon=epsilon,
    )


# -- runner ----------------------------------------------------------------


@dataclass
class RunReport:
    kind: str
    config: dict
    results: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    check_passed: bool = True
    outputs: list = field(default_factory=list)


def _require(config: dict, key: str):
    if key not in config:
        raise InvalidArgumentError(f"config missing key {key!r}")
    return config[key]


def int_setting(name: str, value) -> int:
    """``value`` as an int: an int, an integral float or an integer string.

    Anything else raises an InvalidArgumentError that names ``name``.
    """
    if isinstance(value, (int, str)) and not isinstance(value, bool) or (
        isinstance(value, float) and value.is_integer()
    ):
        with contextlib.suppress(ValueError):
            return int(value)
    raise InvalidArgumentError(f"{name}: expected an integer, got {value!r}")


def _require_int(config: dict, key: str, default: int | None = None) -> int:
    value = _require(config, key) if default is None else config.get(key, default)
    return int_setting(f"config key {key!r}", value)


def _require_sizes(config: dict) -> list:
    """The ``"sizes"`` list as ints; it must be nonempty, strictly ascending and >= 0."""
    sizes = _require(config, "sizes")
    if not isinstance(sizes, list):
        raise InvalidArgumentError(f"config key 'sizes': expected a list, got {sizes!r}")
    sizes = [int_setting("config key 'sizes'", size) for size in sizes]
    if not sizes or sizes != sorted(set(sizes)):
        raise InvalidArgumentError("config key 'sizes': must be nonempty and ascending")
    if sizes[0] < 0:
        raise InvalidArgumentError(f"config key 'sizes': must be >= 0, got {sizes[0]}")
    return sizes


def _validate_common(config: dict) -> None:
    kind = _require(config, "kind")
    if kind not in EXPERIMENT_KINDS:
        raise InvalidArgumentError(f"config key 'kind': unknown experiment {kind!r}")
    if "sizes" in config:
        _require_sizes(config)
    if "trials" in config and _require_int(config, "trials") < 1:
        raise InvalidArgumentError("config key 'trials': must be >= 1")
    for key in ("population", "space", "graphs"):
        if key in config and not Path(config[key]).exists():
            raise InvalidArgumentError(f"config key {key!r}: file {config[key]} not found")


def validate_config(config: dict) -> None:
    _validate_common(config)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _load_graphs(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["N"])
    return {
        issue: PrivilegeGraph(issue=issue, n=n, edges=frozenset(tuple(e) for e in edges))
        for issue, edges in doc["graphs"].items()
    }


def run_experiment(config: dict, out_dir, check: bool = False) -> RunReport:
    """Execute one experiment config; writes result files into ``out_dir``."""
    _validate_common(config)
    kind = config["kind"]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(kind=kind, config=dict(config))
    started = time.time()

    handler = {
        "generalization": _run_generalization,
        "axiom": _run_axiom,
        "privilege-analysis": _run_privilege_analysis,
        "synthesize-acyclic": _run_synthesize,
        "condorcet-demo": _run_condorcet,
        "vc": _run_vc,
        "rademacher": _run_rademacher,
    }[kind]
    handler(config, out_dir, report, check)

    meta = {
        "wall_clock_seconds": time.time() - started,
        "seed": config.get("seed"),
        "kind": kind,
    }
    with open(out_dir / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2)
    summary_path = out_dir / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(
            {
                "kind": kind,
                "results": report.results,
                "warnings": report.warnings,
                "check_passed": report.check_passed,
            },
            fh,
            indent=2,
        )
    report.outputs.append(str(summary_path))
    return report


def _run_generalization(config: dict, out_dir: Path, report: RunReport, check: bool) -> None:
    _, saliency, population = load_population(_require(config, "population"))
    space = load_candidate_space(_require(config, "space"))
    sizes = _require_sizes(config)
    trials = _require_int(config, "trials")
    seed = _require_int(config, "seed")
    epsilon = config.get("epsilon")
    delta = config.get("delta", 0.05)

    result = generalization_experiment(
        space, saliency, population, sizes, trials, seed, epsilon=epsilon
    )
    rows = []
    for size in result.sizes:
        gaps = result.gaps[size]
        rows.append(
            [
                size,
                trials,
                _fmt(float(gaps.mean())),
                _fmt(float(np.median(gaps))),
                _fmt(float(gaps.max())),
                _fmt(result.exceed_fraction(size, epsilon)) if epsilon is not None else "",
            ]
        )
    csv_path = out_dir / "gaps.csv"
    _write_csv(csv_path, ["size", "trials", "mean_gap", "median_gap", "max_gap", "frac_over_epsilon"], rows)
    report.outputs.append(str(csv_path))

    regret_violations = sum(
        int((result.regret_slack[size] < -1e-12).sum()) for size in result.sizes
    )
    report.results["regret_violations"] = regret_violations
    report.results["per_size"] = {
        str(size): {
            "median_gap": result.median_gap(size),
            "mean_gap": float(result.gaps[size].mean()),
        }
        for size in result.sizes
    }
    if check:
        ok = regret_violations == 0
        if epsilon is not None:
            ok = ok and all(
                result.exceed_fraction(size, epsilon) <= delta for size in result.sizes
            )
        report.check_passed = ok


def _scenario_from_config(config: dict) -> Scenario:
    _, saliency, population = load_population(_require(config, "population"))
    space = load_candidate_space(_require(config, "space"))
    mechanism = make_mechanism(config.get("mechanism", "majority"), space=space)
    issue = space.issue_space.resolve(_require(config, "issue"))
    pair = tuple(config["pair"]) if "pair" in config else None
    profile = None
    profile_against = None
    if "profile" in config:
        resolve = space.issue_space.resolve
        profile = Profile(
            {resolve(k): LinearOrder.from_string(v) for k, v in config["profile"].items()}
        )
        if pair is not None:
            profile_against = apply_local_permutation(
                profile, issue, Permutation.transposition(space.issue_space.n, *pair)
            )
    population_b = None
    if "population_b" in config:
        _, _, population_b = load_population(config["population_b"])
    return Scenario(
        saliency=saliency,
        population=population,
        space=space,
        mechanism=mechanism,
        axiom=_require(config, "axiom"),
        issue=issue,
        pair=pair,
        profile=profile,
        profile_against=profile_against,
        population_b=population_b,
    )


def _run_axiom(config: dict, out_dir: Path, report: RunReport, check: bool) -> None:
    scn = _scenario_from_config(config)
    curve = estimate_axiom(
        scn,
        _require_sizes(config),
        _require_int(config, "trials"),
        _require_int(config, "seed"),
    )
    csv_path = out_dir / "decay.csv"
    curve.to_csv(csv_path)
    report.outputs.append(str(csv_path))
    verdict = decay_verdict(curve)
    report.results["decay"] = curve.summary()
    report.results["verdict"] = verdict
    if check:
        report.check_passed = verdict != "fail"


def _run_privilege_analysis(config: dict, out_dir: Path, report: RunReport, check: bool) -> None:
    space = load_candidate_space(_require(config, "space"))
    issues = config.get("issues", list(space.issue_space.issue_ids))
    analysis = {}
    for issue_raw in issues:
        issue = space.issue_space.resolve(issue_raw)
        graph = build_privilege_graph(space, issue)
        cond = scc_condensation(graph)
        analysis[str(issue)] = {
            "edges": sorted(list(e) for e in graph.edges),
            "cyclically_privileged": is_cyclically_privileged(graph),
            "scc_sizes": [len(scc) for scc in cond.scc_members],
        }
        dot_path = out_dir / f"privilege_{issue}.dot"
        dot_path.write_text(to_dot(graph))
        report.outputs.append(str(dot_path))
    report.results["privilege"] = analysis


def _run_synthesize(config: dict, out_dir: Path, report: RunReport, check: bool) -> None:
    graphs = _load_graphs(_require(config, "graphs"))
    plan = synthesize_acyclic(graphs)
    space_path = out_dir / "synthesized_space.json"
    save_candidate_space(space_path, plan.space)
    report.outputs.append(str(space_path))
    supergraph_ok = True
    for issue, graph in graphs.items():
        produced = build_privilege_graph(plan.space, issue)
        if not graph.edges <= produced.edges:
            supergraph_ok = False
    report.results["factor_sizes"] = {
        str(issue): plan.factor_size(issue) for issue in graphs
    }
    report.results["supergraph_ok"] = supergraph_ok
    if check:
        report.check_passed = supergraph_ok


def _run_condorcet(config: dict, out_dir: Path, report: RunReport, check: bool) -> None:
    space = load_candidate_space(_require(config, "space"))
    mechanism = make_mechanism(config.get("mechanism", "majority"), space=space)
    issue = space.issue_space.issue_ids[0]
    # the classic symmetric mixture: every pairwise majority is 2/3
    orders = [LinearOrder((0, 1, 2)), LinearOrder((1, 2, 0)), LinearOrder((2, 0, 1))]
    population = MarginalPopulation(
        {issue: {order: 1.0 / 3.0 for order in orders}}
    )
    saliency = SaliencyDistribution({issue: 1.0})
    scn = Scenario(
        saliency=saliency, population=population, space=space, mechanism=mechanism, issue=issue
    )
    demo = cycle_violation_demo(
        scn,
        _require_sizes(config),
        _require_int(config, "trials"),
        _require_int(config, "seed"),
    )
    rows = [
        [size, trials, min_v, json.dumps(hist, sort_keys=True)]
        for size, trials, min_v, hist in demo.per_size
    ]
    csv_path = out_dir / "violations.csv"
    _write_csv(csv_path, ["size", "trials", "min_violations", "histogram"], rows)
    report.outputs.append(str(csv_path))
    report.results["majorities"] = sorted(list(m) for m in demo.majorities)
    report.results["always_violates"] = demo.always_violates()
    if check:
        report.check_passed = demo.always_violates()


def _run_vc(config: dict, out_dir: Path, report: RunReport, check: bool) -> None:
    space = load_candidate_space(_require(config, "space"))
    dimension, witness = vc_dimension_with_witness(space)
    verified = dimension == 0 or is_shattered(space, witness)
    report.results["vc_dimension"] = dimension
    report.results["witness"] = [str(i) for i in witness]
    report.results["witness_verified"] = verified
    if check:
        report.check_passed = verified


def _run_rademacher(config: dict, out_dir: Path, report: RunReport, check: bool) -> None:
    _, saliency, population = load_population(_require(config, "population"))
    space = load_candidate_space(_require(config, "space"))
    rule = _scoring_rule(config.get("scoring_rule", "exact"))
    seed = _require_int(config, "seed")
    sample = sample_pairs(saliency, population, _require_int(config, "sample_size"), seed)
    estimate, stderr = empirical_rademacher(
        InducedLossClass(space, rule),
        sample,
        _require_int(config, "sign_draws", 200),
        seed + 1,
    )
    bound = massart_bound(space.size(), len(sample))
    report.results["estimate"] = estimate
    report.results["stderr"] = stderr
    report.results["massart_bound"] = bound
    if check:
        report.check_passed = estimate <= bound + 3 * stderr
