"""Config-driven experiments: the config schema, generalization runs, reports, and file output.

Everything here is deterministic given the config's master seed.  The
generalization lab draws all trials of size index j from the derived stream
(seed, j); the axiom lab draws them from (seed, j, population), where
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

import numpy as np

from .axioms import (
    AXIOMS,
    Scenario,
    _condorcet,
    check_sizes,
    cycle_violation_demo,
    decay_verdict,
    draw_tallies,
    estimate_axiom,
)
from .complexity import (
    empirical_rademacher,
    is_shattered,
    massart_bound,
    vc_dimension_with_witness,
)
from .errors import CapacityError, InvalidArgumentError
from .mechanisms import SCORING_RULES, Mechanism, _cell_index, _placed
from .orders import LinearOrder, Permutation, Profile, apply_local_permutation
from .population import (
    MarginalPopulation,
    SaliencyDistribution,
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
    _first_seen,
    load_candidate_space,
    save_candidate_space,
)

__all__ = [
    "make_mechanism",
    "GeneralizationResult",
    "generalization_experiment",
    "run_experiment",
    "RunReport",
]


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


# -- generalization lab ----------------------------------------------------


@dataclass(frozen=True)
class GeneralizationResult:
    sizes: tuple
    trials: int
    gaps: dict  # size -> np.ndarray of per-trial sup-gaps
    regret_slack: dict  # size -> per-trial U(f_maj) - (max U - 2*gap), >= 0 by the chain

    def exceed_fraction(self, size: int, epsilon: float) -> float:
        gaps = self.gaps[size]
        return float((gaps > epsilon).mean())

    def median_gap(self, size: int) -> float:
        return _median(self.gaps[size])


def _median(values: np.ndarray) -> float:
    """``np.median`` of a nonempty float array, bit for bit, without loading ``numpy.ma``:
    the middle value or ``(a + b) / 2``, summed from +0.0 first as numpy sums, so a zero's
    sign comes out as it does (``[0.0, -5e-324]`` gives -0.0)."""
    ordered, k = np.sort(values).tolist(), len(values) // 2
    return 0.0 + ordered[k] if len(values) % 2 else (0.0 + ordered[k - 1] + ordered[k]) / 2


@dataclass(frozen=True)
class _Block:
    """One block of the space, cut to one member per class: its kept members (rows) and issues (columns)."""

    classes: np.ndarray  # the cell index of each (member, issue)'s ordering, -1 off the cells
    terms: np.ndarray  # population term w * mass of each (member, issue)
    term_ids: np.ndarray  # per member: the index of the first member with equal terms
    totals: np.ndarray  # per member: its terms summed (approximately)


def _first_of_each_class(classes: np.ndarray) -> np.ndarray:
    """The index of the first row of each distinct row of ``classes``, in row order."""
    return np.flatnonzero(_first_seen(classes) == np.arange(len(classes)))


def _space_blocks(space: CandidateSpace, saliency, population, cells):
    """The blocks of ``space``, each cut to the first member, in member order, of each class of
    members that no exact-match committee over ``cells`` tells apart.

    An ordering that is no cell counts 0 in every tally and has population term 0.0, so on
    each issue a member's class is its ordering's index in the kernel's cell index, or -1,
    one shared class off the cells.  A block keeps the rows of its first members as its
    ``classes``, and their population terms: each cell's ``w * mass``, 0.0 at -1.

    Also returns the weighted issues in saliency order, as (block, column) pairs.
    """
    weighted = [issue for issue in saliency.issues if saliency(issue) != 0]
    sequence = list(map(space._locate, weighted))  # a weighted issue the space lacks raises here
    w, mass = {i: saliency(i) for i in weighted}, {i: population.distribution(i) for i in weighted}
    cell_terms = np.array([w[i] * mass[i][o] for i, o in cells] + [0.0])  # index -1, off the cells, reads 0.0
    blocks, cell_index = [], _cell_index(_placed(cells, space.issue_space.n), space)
    for (_, _, codes), index in zip(space._codes(), cell_index):
        classes = np.stack([cell[code] for cell, code in zip(index, codes.T)], axis=1)
        classes = classes[_first_of_each_class(classes)]
        terms = cell_terms[classes]
        blocks.append(_Block(classes=classes, terms=terms, term_ids=_first_seen(terms), totals=terms.sum(axis=1)))
    return blocks, sequence


def _population_at(blocks, sequence, picks):
    """Population utility at one member per block, summed ``total += w * mass`` in saliency order."""
    total = 0.0
    for b, j in sequence:
        total = total + blocks[b].terms[picks[b], j]
    return total


def _utility_ranges(blocks, sequence, candidates) -> dict:
    """Over every choice of one candidate per block: total count -> (least, greatest) utility.

    ``candidates[b]`` lists block ``b``'s ``(member, count)`` pairs.  The
    utility is summed as in :func:`_population_at`, one issue at a time.  A
    block is open from its first issue in that order to its last.  Choices
    with equal counts so far, and equal members in the open blocks, keep only
    their least and greatest partial sums: float addition is monotone, so no
    other partial sum can end below or above them.  More than
    ``DEFAULT_ENUMERATION_CAP`` choices among blocks open at once raise
    ``CapacityError`` before anything is summed.
    """
    first, last = {}, {}
    for q, (b, _) in enumerate(sequence):
        first.setdefault(b, q)
        last[b] = q
    open_choices = widest = 1
    for q, (b, _) in enumerate(sequence):
        open_choices *= len(candidates[b]) if first[b] == q else 1
        widest = max(widest, open_choices)
        open_choices //= len(candidates[b]) if last[b] == q else 1
    if widest > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(
            f"{widest} choices of profile parts lie within the rounding guard of the sup, "
            f"over the cap of {DEFAULT_ENUMERATION_CAP}"
        )
    rows = [  # per block: each candidate's terms
        dict(zip((ms := [m for m, _ in choices]), block.terms[ms].tolist()))
        for block, choices in zip(blocks, candidates)
    ]
    states = {(0, ()): (0.0, 0.0)}  # (count, open (block, member) pairs) -> (least, greatest)
    for q, (b, j) in enumerate(sequence):
        merged: dict = {}
        for (count, held), (low, high) in states.items():
            rest = tuple(pair for pair in held if pair[0] != b)
            options = candidates[b] if len(rest) == len(held) else [(dict(held)[b], 0)]
            for member, added in options:
                key = (count + added, rest if last[b] == q else rest + ((b, member),))
                term = rows[b][member][j]
                seen = merged.get(key)
                if seen is None:
                    merged[key] = (low + term, high + term)
                else:
                    merged[key] = (min(seen[0], low + term), max(seen[1], high + term))
        states = merged
    return {count: bounds for (count, _), bounds in states.items()}


def _sup_gap(blocks, sequence, counts, size: int, delta: float) -> np.ndarray:
    """Per trial, the largest ``|C / size - p|`` over the space.

    For each sign of the gap, a block keeps the members whose part
    ``count / size - terms`` lies within ``delta`` of the block's greatest
    (or least) part, one per distinct (count, terms).  A trial in which every
    block keeps one member is evaluated at that profile; otherwise over every
    choice of kept members, through :func:`_utility_ranges`.
    """
    trials = np.arange(len(counts[0]))
    scale = max(size, 1)  # an empty committee has C = 0 and sample utility 0
    parts = [np.true_divide(count, scale) for count in counts]  # count / scale - totals, in place
    for part, block in zip(parts, blocks):
        part -= block.totals
    by_sign = []
    for greatest in (True, False):
        picks, kept, mixed = [], [], np.zeros(len(trials), dtype=bool)
        for part, count, block in zip(parts, counts, blocks):
            pick = part.argmax(axis=1) if greatest else part.argmin(axis=1)
            best = part[trials, pick][:, None]
            keep = part >= best - delta if greatest else part <= best + delta  # negation is exact
            # a kept member mixes its trial unless it ties the pick (flat: np.nonzero is slower)
            t, m = np.divmod(np.flatnonzero(keep), keep.shape[1])
            at, ids = pick[t], block.term_ids
            mixed[t[(count[t, m] != count[t, at]) | (ids[m] != ids[at])]] = True
            picks.append(pick)
            kept.append(keep)
        total = sum(count[trials, pick] for count, pick in zip(counts, picks))
        gaps = np.abs(total / scale - _population_at(blocks, sequence, picks))
        for t in np.flatnonzero(mixed):
            candidates = []
            for keep, count, block in zip(kept, counts, blocks):
                members = np.flatnonzero(keep[t])
                key = count[t, members].astype(np.int64) * len(block.term_ids) + block.term_ids[members]
                _, first = np.unique(key, return_index=True)
                candidates.append([(m, int(count[t, m])) for m in members[first]])
            gaps[t] = max(
                max(abs(c / scale - low), abs(c / scale - high))
                for c, (low, high) in _utility_ranges(blocks, sequence, candidates).items()
            )
        by_sign.append(gaps)
    return np.maximum(*by_sign)


def generalization_experiment(
    space: CandidateSpace,
    saliency: SaliencyDistribution,
    population: MarginalPopulation,
    sizes,
    trials: int,
    seed: int,
) -> GeneralizationResult:
    """Per-trial sup over the space of |sample utility - population utility|.

    Each profile's gap is the float expression ``|C / size - p|``: ``C`` is
    the committee's integer count of the profile's (issue, ordering) cells and
    ``p`` is the population utility, ``total += w * mass`` issue by issue in
    saliency order.  Both utilities are sums over issues, so the sup is found
    block by block, over the space's code blocks, without enumerating the
    space.  An ordering that is no cell of the population counts 0 in every
    committee and has term 0.0, so members that differ only on such orderings
    are one point of the sup: the blocks are first cut to the first member of
    each such class, whose rows of cell indices are the block's ``classes``
    (:func:`_space_blocks`).  Members are kept in rank-tuple order, so every
    first argmax, tie and bound below is the full space's.  A kept member's
    count is the sum of its cells' columns of the tally matrix, with a zero
    column at index -1, gathered a chunk of trials at a time, in the least
    unsigned type that holds the committee size: every count, and every sum
    of counts over distinct issues, lies in ``[0, size]``.
    For each sign of the gap, a block keeps the members within a rounding
    guard ``delta = 4 * (k + 3) * 2**-52`` (``k`` issues) of its extreme.
    The float error of the expression, and of a block's part of it, is at
    most about ``(k + 1) * 2**-53``, so a profile with a member outside the
    guard has a smaller float gap than some profile of kept members.  The
    kept members are combined exactly (:func:`_utility_ranges`), so the
    result equals evaluating every profile, bit for bit.  More than
    ``DEFAULT_ENUMERATION_CAP`` choices of kept members among blocks that
    interleave in saliency order raise ``CapacityError``.

    Also records, per trial, the slack in the majority-vote regret chain
    U(f_maj) >= max U - 2 * sup-gap.  The majority vote takes each block's
    first count argmax, which is the first argmax in ``enumerate_profiles``
    order.  Max U is the sup-gap of the empty committee: its counts are 0,
    so its gap is |0 - U| = U, and the search's least side keeps exactly
    the members within the guard of each block's greatest terms.  The committees
    are drawn by :func:`~repsoc.axioms.draw_tallies`, from the stream
    (seed, j) for size index j; the sizes, and the trials over the
    population's cells, must pass its plan check.
    """
    cells, tallies = draw_tallies(saliency, population, sizes, trials, seed, least=0)
    blocks, sequence = _space_blocks(space, saliency, population, cells)
    delta = 4 * (len(space.issue_space.issue_ids) + 3) * 2.0**-52
    empty = [np.zeros((1, len(block.totals)), dtype=np.int64) for block in blocks]
    max_pop = _sup_gap(blocks, sequence, empty, 0, delta)[0]  # the empty committee's gap |0 - U|
    # per trial: its padded tallies, or every block's (members x issues) gather, within the cap
    step = max(1, DEFAULT_ENUMERATION_CAP // max(len(cells) + 1, sum(block.classes.size for block in blocks)))

    gaps, regret_slack = {}, {}
    for size, rows in tallies:
        narrow = np.min_scalar_type(size)  # counts, and their sums over distinct issues, lie in [0, size]
        gaps[size], regret_slack[size] = np.empty(trials), np.empty(trials)
        for lo in range(0, trials, step):
            at, padded = slice(lo, lo + step), np.pad(rows[lo : lo + step].astype(narrow), ((0, 0), (0, 1)))
            counts = [np.take(padded, block.classes.T, axis=1).sum(axis=1, dtype=narrow) for block in blocks]
            gaps[size][at] = gap = _sup_gap(blocks, sequence, counts, size, delta)
            winner = _population_at(blocks, sequence, [count.argmax(axis=1) for count in counts])
            regret_slack[size][at] = winner - (max_pop - 2.0 * gap)
    return GeneralizationResult(sizes=tuple(gaps), trials=trials, gaps=gaps, regret_slack=regret_slack)


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

    result = generalization_experiment(
        space, saliency, population, settings["sizes"], trials, settings["seed"]
    )
    rows = []
    for size in result.sizes:
        gaps = result.gaps[size]
        rows.append(
            [
                size,
                trials,
                float(gaps.mean()),
                _median(gaps),
                float(gaps.max()),
                result.exceed_fraction(size, epsilon) if epsilon is not None else "",
            ]
        )
    csv_path = out_dir / "gaps.csv"
    write_csv(csv_path, ["size", "trials", "mean_gap", "median_gap", "max_gap", "frac_over_epsilon"], rows)
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
    report.check_passed = regret_violations == 0 and (
        epsilon is None or all(result.exceed_fraction(size, epsilon) <= delta for size in result.sizes)
    )


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
