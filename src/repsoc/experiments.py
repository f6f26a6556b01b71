"""Config-driven experiments: the config schema, the runner of each kind, reports, and file output.

Everything here is deterministic given the config's master seed.  The axiom
lab draws the trials of size index j from (seed, j, population), where
population 1 is PIIA's second population; the Rademacher kind samples from
(seed) and draws its signs from (seed + 1).  Result CSV bodies are
byte-identical across re-runs.  Wall-clock and other non-reproducible facts
go to a separate metadata file.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from . import generalization
from .axioms import (
    AXIOMS,
    Scenario,
    _condorcet,
    check_sizes,
    cycle_violation_demo,
    decay_verdict,
    estimate_axiom,
)
from .complexity import (
    empirical_rademacher,
    is_shattered,
    massart_bound,
    vc_dimension_with_witness,
)
from .errors import CapacityError, InvalidArgumentError
from .mechanisms import SCORING_RULES, Mechanism
from .orders import LinearOrder, Permutation, Profile, apply_local_permutation
from .population import (
    expect,
    load_population,
    read_json,
    read_outcome_count,
    sample_pairs,
    write_csv,
    write_json,
)
from .privilege import (
    PrivilegeGraph,
    build_privilege_graph,
    scc_condensation,
    synthesize_acyclic,
    to_dot,
)
from .spaces import (
    DEFAULT_ENUMERATION_CAP,
    CandidateSpace,
    load_candidate_space,
    save_candidate_space,
)

__all__ = ["make_mechanism", "run_experiment", "RunReport"]


# -- config schema: a parser checks and normalizes a value; ``setting`` names its key


def _integer(value, least: int | None = None) -> int:
    """An int, an integral float or an integer string, as an int no less than ``least``."""
    number = None
    if type(value) in (int, str) or type(value) is float and value.is_integer():
        with contextlib.suppress(ValueError):
            number = int(value)
    if number is None:
        raise InvalidArgumentError(f"expected an integer, got {value!r}")
    if least is not None and number < least:
        raise InvalidArgumentError(f"must be >= {least}, got {number}")
    return number


def _shape(test, what: str):
    """A parser of the values that pass ``test``; ``what`` describes them."""

    def parse(value):
        if test(value):
            return value
        raise InvalidArgumentError(f"expected {what}, got {value!r}")

    return parse


def _one_of(what: str, names):
    names = tuple(names)  # a tuple, so that an unhashable value is merely not in it

    def parse(value):
        if value in names:
            return value
        raise InvalidArgumentError(f"unknown {what} {value!r}; expected one of {', '.join(names)}")

    return parse


def _sizes(value) -> list:
    """Committee sizes: a list of integers that passes :func:`check_sizes`."""
    sizes = [_integer(size) for size in _shape(lambda v: isinstance(v, list), "a list")(value)]
    check_sizes(sizes)
    if sizes[-1] >= 2**63:  # committees are drawn by numpy, in int64
        raise InvalidArgumentError(f"must be <= 2**63 - 1, got {sizes[-1]:.4g}")
    return sizes


def _file(value) -> str:
    if not Path(_shape(lambda v: isinstance(v, str), "a file path")(value)).is_file():
        raise InvalidArgumentError(f"file {value} not found")
    return value


def _is_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and v[0] != v[1] and all(type(x) is int for x in v)


# a bool is not a number here, and NaN lies in no interval
_fraction = _shape(lambda v: type(v) in (int, float) and 0 < v < 1, "a number in (0, 1)")
_MECHANISM = _one_of("mechanism", ("majority", *(f"scoring:{rule}" for rule in SCORING_RULES)))

# config key -> (parser, default); _KINDS lists the keys each kind needs
_KEYS = {
    **dict.fromkeys(("population", "population_b", "space", "graphs"), (_file, None)),
    "out": (_shape(lambda v: isinstance(v, str), "a directory path"), "repsoc-out"),
    "sizes": (_sizes, None),
    "trials": (partial(_integer, least=1), None),
    "seed": (partial(_integer, least=0), None),
    "sample_size": (partial(_integer, least=1), None),
    "sign_draws": (partial(_integer, least=2), 200),  # a standard error needs two draws
    "epsilon": (_fraction, None),  # every gap lies in [0, 1]
    "delta": (_fraction, 0.05),
    "issue": (_shape(lambda v: type(v) in (str, int), "an issue id: text or an integer"), None),
    "issues": (_shape(lambda v: isinstance(v, list), "a list of issues"), None),  # None: all issues
    "pair": (_shape(_is_pair, "a list of two distinct integers"), None),
    "profile": (
        _shape(lambda v: isinstance(v, dict) and all(isinstance(o, str) for o in v.values()),
               "an object of ordering strings"),
        None,
    ),
    "axiom": (_one_of("axiom", AXIOMS), None),
    "mechanism": (_MECHANISM, "majority"),
    "scoring_rule": (_one_of("scoring rule", SCORING_RULES), "exact"),
}


def setting(key: str, value, name: str | None = None):
    """``value`` parsed as config key ``key``; an error names ``name``, by default the key."""
    parse, _ = _KEYS[key]
    try:
        return parse(value)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{name or f'config key {key!r}'}: {exc}") from None


def validate_config(config: dict) -> dict:
    """The settings of ``config``: its kind, and each schema key parsed or defaulted.

    Checks the config alone, and that its file paths exist; what a file holds
    is checked when a run reads it.  A key outside the schema, a bad value, or a key
    that the kind needs and the config lacks, raises an InvalidArgumentError naming it.
    """
    if "kind" not in config:
        raise InvalidArgumentError("config missing key 'kind'")
    if (kind := config["kind"]) not in tuple(_KINDS):  # a tuple: an unhashable kind is not in it
        raise InvalidArgumentError(f"config key 'kind': unknown experiment {kind!r}")
    if unknown := [key for key in config if key != "kind" and key not in _KEYS]:
        raise InvalidArgumentError(f"unknown config key {unknown[0]!r}")
    settings = {key: setting(key, config[key]) for key in _KEYS if key in config}
    _, required = _KINDS[kind]
    for key in required:
        if key not in settings:
            raise InvalidArgumentError(f"config missing key {key!r}")
    for key in _AXIOM_KEYS.get(settings["axiom"], ()) if kind == "axiom" else ():
        if key not in settings:
            raise InvalidArgumentError(f"config missing key {key!r}, which axiom {settings['axiom']!r} needs")
    if kind in ("axiom", "condorcet-demo"):  # the axiom lab's committees are nonempty
        try:
            check_sizes(settings["sizes"], least=1)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"config key 'sizes': {exc}") from None
    return {"kind": kind, **{key: default for key, (_, default) in _KEYS.items()}, **settings}


def make_mechanism(name: str, space: CandidateSpace = None, plan=None) -> Mechanism:
    """Resolve a mechanism config string to its :class:`Mechanism`, a space and a scoring rule.

    ``"acyclic"`` is Kendall scoring over the plan's synthesized space."""
    if name == "acyclic":
        if plan is None:
            raise InvalidArgumentError("acyclic mechanism needs a synthesis plan")
        name, space = "scoring:kendall", plan.space
    rule = SCORING_RULES["exact" if _MECHANISM(name) == "majority" else name.removeprefix("scoring:")]
    if space is None:
        raise InvalidArgumentError(f"mechanism {name!r} needs a candidate space")
    return Mechanism(space, rule)


# -- runner ----------------------------------------------------------------


@dataclass
class RunReport:
    kind: str
    results: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    check_passed: bool = True
    outputs: list = field(default_factory=list)


def _load_graphs(path) -> dict:
    """Read a graphs file; a malformed entry raises an error that names its key."""
    doc = read_json(path, "graphs")
    _expect = partial(expect, what="graphs")
    try:
        n, graphs = read_outcome_count(doc["N"], "graphs"), _expect(doc["graphs"], dict, "graphs")
    except KeyError as exc:
        raise InvalidArgumentError(f"graphs file missing key {exc}") from exc
    out = {}
    for issue, edges in graphs.items():
        pairs = [
            tuple(_expect(u, int, issue) for u in _expect(edge, list, issue))
            for edge in _expect(edges, list, issue)
        ]
        try:
            if any(len(pair) != 2 for pair in pairs):
                raise InvalidArgumentError("each edge must be a pair [u, v]")
            out[issue] = PrivilegeGraph(issue=issue, n=n, edges=frozenset(pairs))
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"graphs file key {issue!r}: {exc}") from None
    return out


def run_experiment(config: dict, out_dir) -> RunReport:
    """Execute one experiment config; writes result files into ``out_dir``.  The report's
    ``check_passed`` is the run's verdict, true for a kind that has none."""
    settings = validate_config(config)
    kind = settings["kind"]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(kind=kind)
    started = time.time()

    handler, _ = _KINDS[kind]
    handler(settings, out_dir, report)

    meta = {
        "wall_clock_seconds": time.time() - started,
        "seed": settings["seed"],
        "kind": kind,
    }
    write_json(out_dir / "metadata.json", meta)
    summary_path = out_dir / "summary.json"
    write_json(summary_path, {
        "kind": kind,
        "results": report.results,
        "warnings": report.warnings,
        "check_passed": report.check_passed,
    })
    report.outputs.append(str(summary_path))
    return report


def _population(settings: dict, key: str, space: CandidateSpace) -> tuple:
    """The saliency and marginals of the population file at config ``key``, over the space's N
    and issues: positive saliency on an issue the space lacks is rejected whatever is drawn."""
    issues, saliency, population = load_population(settings[key])
    if (n := space.issue_space.n) != issues.n:
        raise InvalidArgumentError(f"config key {key!r}: the population has N = {issues.n}, the space N = {n}")
    if lacking := [i for i in saliency.issues if saliency(i) > 0 and i not in space.issue_space]:
        lacks = f"the population puts saliency on issue {lacking[0]!r}, which the candidate space lacks"
        raise InvalidArgumentError(f"config key {key!r}: {lacks}")
    return saliency, population


def _run_generalization(settings: dict, out_dir: Path, report: RunReport) -> None:
    space = load_candidate_space(settings["space"])
    saliency, population = _population(settings, "population", space)
    trials, epsilon, delta = settings["trials"], settings["epsilon"], settings["delta"]

    result = generalization.generalization_experiment(
        space, saliency, population, settings["sizes"], trials, settings["seed"]
    )
    rows, per_size, within = [], {}, True
    for size in result.sizes:
        mean, median = result.mean_gap(size), result.median_gap(size)
        over = "" if epsilon is None else result.exceed_fraction(size, epsilon)
        rows.append([size, trials, mean, median, float(result.gaps[size].max()), over])
        per_size[str(size)] = {"median_gap": median, "mean_gap": mean}
        within = within and (epsilon is None or over <= delta)
    csv_path = out_dir / "gaps.csv"
    write_csv(csv_path, ["size", "trials", "mean_gap", "median_gap", "max_gap", "frac_over_epsilon"], rows)
    report.outputs.append(str(csv_path))

    regret_violations = sum(
        int((result.regret_slack[size] < -1e-12).sum()) for size in result.sizes
    )
    report.results["regret_violations"] = regret_violations
    report.results["per_size"] = per_size
    report.check_passed = regret_violations == 0 and within


def _run_axiom(settings: dict, out_dir: Path, report: RunReport) -> None:
    space, pair = load_candidate_space(settings["space"]), tuple(settings["pair"])
    if (n := space.issue_space.n) <= max(pair) or min(pair) < 0:
        raise InvalidArgumentError(f"config key 'pair': outcomes must lie in 0..{n - 1} at N = {n}, got {list(pair)}")
    saliency, population = _population(settings, "population", space)
    mechanism = make_mechanism(settings["mechanism"], space=space)
    issue = space.issue_space.resolve(settings["issue"])
    profile = profile_against = None
    if settings["profile"] is not None:
        resolve = space.issue_space.resolve
        profile = Profile(
            {resolve(k): LinearOrder.from_string(v) for k, v in settings["profile"].items()}
        )
        profile_against = apply_local_permutation(profile, issue, Permutation.transposition(n, *pair))
    population_b = None
    if settings["population_b"] is not None:
        _, population_b = _population(settings, "population_b", space)
    scn = Scenario(
        saliency=saliency,
        population=population,
        space=space,
        mechanism=mechanism,
        axiom=settings["axiom"],
        issue=issue,
        pair=pair,
        profile=profile,
        profile_against=profile_against,
        population_b=population_b,
    )
    curve = estimate_axiom(scn, settings["sizes"], settings["trials"], settings["seed"])
    csv_path = out_dir / "decay.csv"
    curve.to_csv(csv_path)
    report.outputs.append(str(csv_path))
    verdict = decay_verdict(curve)
    report.results["decay"] = curve.summary()
    report.results["verdict"] = verdict
    report.check_passed = verdict != "fail"


def _run_privilege_analysis(settings: dict, out_dir: Path, report: RunReport) -> None:
    space = load_candidate_space(settings["space"])
    listed = space.issue_space.issue_ids if settings["issues"] is None else settings["issues"]
    files = [(issue, f"privilege_{issue}.dot") for issue in map(space.issue_space.resolve, listed)]
    # each graph goes to its own file in out_dir, so no file is written unless every name is plain
    name_max = os.pathconf(out_dir, "PC_NAME_MAX")
    for issue, name in files:
        try:
            size = len(os.fsencode(name))
        except UnicodeEncodeError:  # a lone surrogate has no bytes in a file name
            size = None
        if size is None or "\0" in name or Path(name).name != name:
            raise InvalidArgumentError(f"config key 'space': issue {issue!r} gives {name!r}, not a plain file name")
        if size > name_max:
            raise InvalidArgumentError(
                f"config key 'space': issue {issue!r} gives a file name of {size} bytes, over the limit of {name_max}"
            )
    analysis = {}
    for issue, name in files:
        graph = build_privilege_graph(space, issue)
        cond = scc_condensation(graph)
        analysis[str(issue)] = {
            "edges": sorted(list(e) for e in graph.edges),
            "cyclically_privileged": cond.cyclic,
            "scc_sizes": [len(scc) for scc in cond.scc_members],
        }
        dot_path = out_dir / name
        dot_path.write_text(to_dot(graph))
        report.outputs.append(str(dot_path))
    report.results["privilege"] = analysis


def _run_synthesize(settings: dict, out_dir: Path, report: RunReport) -> None:
    graphs = _load_graphs(settings["graphs"])
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
    report.results["supergraph_ok"] = report.check_passed = supergraph_ok


def _run_condorcet(settings: dict, out_dir: Path, report: RunReport) -> None:
    space = load_candidate_space(settings["space"])
    mechanism = make_mechanism(settings["mechanism"], space=space)
    try:  # the classic symmetric population: every pairwise majority is 2/3
        scn = _condorcet(space, mechanism, (1.0 / 3.0,) * 3)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"config key 'space': {exc}") from None
    demo = cycle_violation_demo(scn, settings["sizes"], settings["trials"], settings["seed"])
    rows = [
        [size, trials, min_v, json.dumps(hist, sort_keys=True)]
        for size, trials, min_v, hist in demo.per_size
    ]
    csv_path = out_dir / "violations.csv"
    write_csv(csv_path, ["size", "trials", "min_violations", "histogram"], rows)
    report.outputs.append(str(csv_path))
    report.results["majorities"] = sorted(list(m) for m in demo.majorities)
    report.results["always_violates"] = report.check_passed = demo.always_violates()


def _run_vc(settings: dict, out_dir: Path, report: RunReport) -> None:
    space = load_candidate_space(settings["space"])
    dimension, witness = vc_dimension_with_witness(space)
    verified = dimension == 0 or is_shattered(space, witness)
    report.results["vc_dimension"] = dimension
    report.results["witness"] = [str(i) for i in witness]
    report.results["witness_verified"] = report.check_passed = verified


def _run_rademacher(settings: dict, out_dir: Path, report: RunReport) -> None:
    space = load_candidate_space(settings["space"])
    saliency, population = _population(settings, "population", space)
    seed, size, draws = settings["seed"], settings["sample_size"], settings["sign_draws"]
    members = max(len(codes) for _, _, codes in space._codes())
    # the estimate's signs, a block's scores and their products, checked before any draw
    if (entries := max(draws * size, size * members, draws * members)) > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(
            f"sample_size = {size} with sign_draws = {draws} over a block of {members} members "
            f"is {entries} entries, over the cap of {DEFAULT_ENUMERATION_CAP}"
        )
    cells, pairs = sample_pairs(saliency, population, size, seed)
    rule = SCORING_RULES[settings["scoring_rule"]]
    estimate, stderr = empirical_rademacher(space, rule, cells, pairs, draws, seed + 1)
    bound = massart_bound(space.size(), len(pairs))
    report.results["estimate"] = estimate
    report.results["stderr"] = stderr
    report.results["massart_bound"] = bound
    report.check_passed = estimate <= bound + 3 * stderr


# experiment kind -> (handler, the config keys it needs)
_KINDS = {
    "generalization": (_run_generalization, ("population", "space", "sizes", "trials", "seed")),
    "axiom": (_run_axiom, ("population", "space", "issue", "axiom", "pair", "sizes", "trials", "seed")),
    "privilege-analysis": (_run_privilege_analysis, ("space",)),
    "synthesize-acyclic": (_run_synthesize, ("graphs",)),
    "condorcet-demo": (_run_condorcet, ("space", "sizes", "trials", "seed")),
    "vc": (_run_vc, ("space",)),
    "rademacher": (_run_rademacher, ("population", "space", "seed", "sample_size")),
}
# axiom -> the config keys it needs beyond those of the axiom kind
_AXIOM_KEYS = {"ppe": ("profile",), "w-piia": ("population_b",), "s-piia": ("population_b",)}
