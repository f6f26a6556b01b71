"""Monte Carlo estimation of the probabilistic axioms and decay-rate fitting.

Each axiom is a failure event of a mechanism's sampled choice, defined once
in ``_axiom_event``: its premises, the populations to draw committees from
and the test of their choices.  ``estimate_axiom`` is the one
estimator of a failure curve.  The Arrow-like decisiveness and
field-expansion arguments are PC scenarios of it: a coalition unanimous on
c over c' (through a third outcome, for field expansion) beside a
complement unanimous on the reverse.  The Condorcet scenarios, whose pairwise
majorities cycle, are built by one private builder.

Axiom events are estimated by repeated seeded trials of
(sample -> mechanism -> check).  Mechanisms are anonymous, so each trial
draws a multinomial tally over the population's (issue, ordering) cells
rather than an ordered pair list; the two are identical in distribution.
For the same reason the mechanism's choice depends only on the tally, so
``_committees`` stacks every size's (trials x cells) tally matrix of a stream
into one call of the batched kernel :func:`repsoc.mechanisms.decide_tallies`.
No profile is built: a failure test is a numpy predicate over the target
issue's column of orderings, as positions, gathered by the winner indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from math import log, sqrt
from typing import Sequence

import numpy as np

from .errors import CapacityError, InvalidArgumentError, PreconditionError, VacuityError
from .mechanisms import Mechanism, check_headroom, decide_tallies
from .orders import LinearOrder, PartialOrder, Permutation, Profile, apply_local_permutation
from .population import MarginalPopulation, SaliencyDistribution, _cells, pair_marginal, write_csv
from .privilege import PrivilegeGraph, _closure_test, scc_condensation
from .rng import derive_rng
from .spaces import DEFAULT_ENUMERATION_CAP, CandidateSpace

__all__ = [
    "AXIOMS",
    "Scenario",
    "DecayPoint",
    "DecayCurve",
    "FitResult",
    "estimate_axiom",
    "condorcet_scenario",
    "cycle_violation_demo",
    "CycleViolationReport",
    "fit_decay",
    "decay_verdict",
]

AXIOMS = ("ppe", "w-piia", "s-piia", "w-pc", "s-pc")

_CI_Z = 1.96
_MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class Scenario:
    """One axiom-estimation setup: population(s), space, mechanism and target."""

    saliency: SaliencyDistribution
    population: MarginalPopulation
    space: CandidateSpace
    mechanism: Mechanism
    axiom: str | None = None  # one of AXIOMS
    issue: object = None
    pair: tuple | None = None
    profile: Profile | None = None  # the C of PPE
    profile_against: Profile | None = None  # the C' of PPE
    population_b: MarginalPopulation | None = None  # second population for PIIA


@dataclass(frozen=True)
class DecayPoint:
    size: int
    trials: int
    failures: int

    @property
    def rate(self) -> float:
        return self.failures / self.trials

    @property
    def ci_half_width(self) -> float:
        p = self.rate
        return _CI_Z * sqrt(p * (1.0 - p) / self.trials)


@dataclass(frozen=True)
class FitResult:
    verdict: str  # "fit" or "saturated"
    alpha: float | None = None
    r2: float | None = None
    n_used: int = 0
    n_zero: int = 0


@dataclass(frozen=True)
class DecayCurve:
    points: tuple
    fit: FitResult
    issue_weight: float = 1.0  # saliency of the target issue (per-issue effective size)
    notes: tuple = ()

    def to_csv(self, path) -> None:
        rows = [
            [p.size, p.trials, p.failures, p.rate,
             max(0.0, p.rate - p.ci_half_width), min(1.0, p.rate + p.ci_half_width)]
            for p in self.points
        ]
        write_csv(path, ["size", "trials", "failures", "rate", "ci_low", "ci_high"], rows)

    def summary(self) -> dict:
        return {
            "alpha": self.fit.alpha,
            "r2": self.fit.r2,
            "verdict": self.fit.verdict,
            "n_used": self.fit.n_used,
            "n_zero": self.fit.n_zero,
            "issue_weight": self.issue_weight,
            "notes": list(self.notes),
        }


# -- sampling helpers ------------------------------------------------------


def check_sizes(sizes, least: int = 0) -> None:
    """Raise unless the committee ``sizes`` are integers, not bools, nonempty, strictly increasing and >= ``least``."""
    if bad := [size for size in sizes if isinstance(size, bool) or not hasattr(type(size), "__index__")]:
        raise InvalidArgumentError(f"committee size {bad[0]!r} is not an integer")
    if len(sizes) == 0 or list(sizes) != sorted(set(sizes)):
        raise InvalidArgumentError("sizes must be nonempty and strictly increasing")
    if sizes[0] < least:
        raise InvalidArgumentError(f"committee sizes must be >= {least}, got {list(sizes)}")


def draw_tallies(saliency, population, sizes, trials: int, seed: int, stream=(), least: int = 1):
    """The population's cells, and per size index ``j`` a lazily drawn ``(size, rows)``: the
    (trials x cells) tallies of ``trials`` committees, from the stream (seed, j, *stream).
    Raises at once unless the ``sizes`` pass :func:`check_sizes` (>= ``least``: an empty
    committee is decided by the tie-break alone), ``trials`` is >= 1 and one size's tallies
    are within ``DEFAULT_ENUMERATION_CAP`` entries."""
    cells, probs = _cells(saliency, population)
    check_sizes(sizes, least)
    if trials < 1:
        raise InvalidArgumentError("need at least one trial per size")
    if trials * len(cells) > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(
            f"trials = {trials} over {len(cells)} cells is {trials * len(cells)} tally entries "
            f"per size, over the cap of {DEFAULT_ENUMERATION_CAP}"
        )
    return cells, (
        (size, derive_rng(seed, j, *stream).multinomial(size, probs, size=trials))
        for j, size in enumerate(map(int, sizes))
    )


def _committees(scn: Scenario, population, sizes, trials: int, seed: int, stream: int = 0):
    """The scenario mechanism's choices for ``trials`` committees of each size of
    :func:`draw_tallies` from ``population``, from the stream (seed, j, stream): lazily,
    consecutive (sizes x trials x blocks) arrays of winner indices into ``scn.space``.  The
    sizes' tallies are stacked into one kernel call, or into consecutive groups of as many
    sizes as fit ``DEFAULT_ENUMERATION_CAP`` entries.  Checks that the mechanism decides over
    ``scn.space``, the plan, and the largest size with :func:`check_headroom`, at once."""
    space, rule = scn.mechanism.space, scn.mechanism.rule
    if space is not scn.space:
        raise InvalidArgumentError("the scenario's mechanism must decide over the scenario's space")
    cells, tallies = draw_tallies(scn.saliency, population, sizes, trials, seed, (stream,))
    check_headroom(sizes[-1], rule, space.issue_space.n)
    fit = DEFAULT_ENUMERATION_CAP // (trials * len(cells))  # sizes per kernel call
    groups = ([rows for _, rows in islice(tallies, fit)] for _ in range(0, len(sizes), fit))
    return (
        decide_tallies(np.concatenate(g), cells, space, rule).winners.reshape(len(g), trials, -1)
        for g in groups
    )


def _of_choices(space: CandidateSpace, issue, value, winners: np.ndarray) -> np.ndarray:
    """The value of each choice's ordering on ``issue``, for the (... x blocks) winner indices
    ``winners``: ``value(at)`` gives one per ordering of the issue's column from its (orderings
    x N) position array ``at``, and it is gathered by the chosen members' column codes."""
    b, k = space._locate(issue)
    _, columns, codes = space._codes()[b]
    return value(columns[k])[codes[winners[..., b], k]]


# -- the axioms -------------------------------------------------------------


def _axiom_event(scn: Scenario):
    """The scenario's axiom as a failure event: the populations to draw committees from,
    one stream each, and the test that takes their (sizes x trials x blocks) winner indices
    and says, as a (sizes x trials) bool array, which trials fail.

    Raises unless the scenario meets the axiom's premises.
    """
    axiom, issue, pair = scn.axiom, scn.issue, scn.pair
    if axiom not in AXIOMS:
        raise InvalidArgumentError(f"unknown axiom {axiom!r}")
    if issue is None:
        raise InvalidArgumentError("scenario needs a target issue")
    if axiom != "ppe" and pair is None:
        raise InvalidArgumentError("scenario needs a target pair")
    n = scn.space.issue_space.n

    if axiom in {"w-piia", "w-pc"} and scn.space.variant != "full":
        raise PreconditionError("weak axioms are stated for the full candidate space only")

    if axiom in {"s-piia", "s-pc"}:
        c, cp = pair
        both = np.array([PartialOrder(seq, n).subset for seq in ((c, cp), (cp, c))])
        if not _closure_test(scn.space, issue)(both).all():
            raise PreconditionError(f"pair ({c},{cp}) is not bidirectionally privileged on issue {issue!r}")

    if axiom == "ppe":
        # fails when the mechanism picks C' although everyone ranks c above c'
        if scn.profile is None or scn.profile_against is None or pair is None:
            raise InvalidArgumentError("PPE needs the neighbor profiles C, C' and the pair")
        c, cp = pair
        if not scn.profile(issue).prefers(c, cp):
            raise InvalidArgumentError("PPE expects C to rank c above c'")
        swapped = apply_local_permutation(scn.profile, issue, Permutation.transposition(n, c, cp))
        if swapped != scn.profile_against:
            raise InvalidArgumentError("C' must equal C with the pair transposed on the issue")
        if not (scn.space.contains(scn.profile) and scn.space.contains(scn.profile_against)):
            raise PreconditionError("both PPE profiles must lie in the candidate space")
        if pair_marginal(scn.population, issue, (c, cp)) < 1.0 - _MARGINAL_TOL:
            raise PreconditionError("PPE requires a population unanimous on c over c'")
        against = scn.profile_against  # the choice is C' on every issue
        return (scn.population,), lambda chosen: np.logical_and.reduce(
            [_of_choices(scn.space, i, lambda at: (at == against(i).position).all(1), chosen) for i in against.issues]
        )

    pm = pair_marginal(scn.population, issue, pair)
    c, cp = pair  # ranks: whether each choice ranks c above c'
    ranks = partial(_of_choices, scn.space, issue, lambda at: at[:, c] < at[:, cp])
    if axiom in {"w-pc", "s-pc"}:
        # fails when the choice does not rank the pair the population's majority way
        if abs(pm - 0.5) <= _MARGINAL_TOL:
            raise VacuityError(
                "population is exactly uniform on the pair; the convergence premise is unmet"
            )
        return (scn.population,), lambda chosen: ranks(chosen) != (pm > 0.5)

    # PIIA fails when two independent committees, one from each population, rank the
    # pair apart: it quantifies over distributions, not couplings
    if scn.population_b is None:
        raise InvalidArgumentError("PIIA needs a second population")
    pm_b = pair_marginal(scn.population_b, issue, pair)
    if abs(pm - pm_b) > _MARGINAL_TOL:
        raise PreconditionError(f"pair marginals differ between populations ({pm} vs {pm_b})")
    if abs(pm - 0.5) <= _MARGINAL_TOL:
        raise VacuityError("shared pair marginal is exactly 0.5; tie behavior is undefined")
    return (scn.population, scn.population_b), lambda a, b: ranks(a) != ranks(b)


# -- the estimator ---------------------------------------------------------


def estimate_axiom(
    scn: Scenario,
    sizes: Sequence[int],
    trials_per_size: int,
    seed: int,
) -> DecayCurve:
    """Failure-rate curve of the scenario's axiom event over sample sizes.

    The committees of the event's k-th population are drawn from stream k.
    """
    populations, fails = _axiom_event(scn)
    streams = [
        _committees(scn, population, sizes, trials_per_size, seed, k)
        for k, population in enumerate(populations)
    ]
    failures = fails(*(np.concatenate(list(groups)) for groups in streams)).sum(axis=1)
    points = [
        DecayPoint(size=int(size), trials=trials_per_size, failures=int(count))
        for size, count in zip(sizes, failures)
    ]
    fit = fit_decay([(p.size, p.rate) for p in points])
    return DecayCurve(
        points=tuple(points),
        fit=fit,
        issue_weight=scn.saliency(scn.issue),
    )


# -- scenario constructors -------------------------------------------------


def _condorcet(space: CandidateSpace, mechanism: Mechanism, masses) -> Scenario:
    """The scenario on the space's single 3-outcome issue whose population is three coalitions
    of ``masses``, unanimous on 0>1>2, 2>0>1 and 1>2>0.  Each pair is ranked one way by two
    coalitions, so the majorities cycle, 0 over 1 over 2 over 0, when every mass is below 1/2."""
    issues, n = space.issue_space.issue_ids, space.issue_space.n
    if n != 3:
        raise InvalidArgumentError(f"the Condorcet demo needs N = 3, got N = {n}")
    if len(issues) != 1:
        raise InvalidArgumentError(f"the Condorcet demo needs a single issue, got {len(issues)} issues")
    orders = (LinearOrder((0, 1, 2)), LinearOrder((2, 0, 1)), LinearOrder((1, 2, 0)))
    return Scenario(
        saliency=SaliencyDistribution({issues[0]: 1.0}),
        population=MarginalPopulation({issues[0]: dict(zip(orders, masses))}),
        space=space,
        mechanism=mechanism,
        issue=issues[0],
    )


def condorcet_scenario(space: CandidateSpace, mechanism: Mechanism) -> Scenario:
    """The 2/9 - 4/9 - 1/3 three-coalition population on a single 3-outcome issue."""
    # masses 2/9, 4/9, 1/3, written so the pairwise sums land exactly on the
    # float values of 2/3 (0 over 1) and 7/9 (2 over 0) despite rounding
    m1 = 2.0 / 9.0
    m2 = 2.0 / 3.0 - m1
    return _condorcet(space, mechanism, (m1, m2, 7.0 / 9.0 - m2))


@dataclass(frozen=True)
class CycleViolationReport:
    majorities: tuple  # strict pairwise majorities (a, b) meaning a beats b
    per_size: tuple  # (size, trials, min_violations, violation_histogram dict)

    def always_violates(self) -> bool:
        return all(min_v >= 1 for _, _, min_v, _ in self.per_size)


def cycle_violation_demo(
    scn: Scenario,
    sizes: Sequence[int],
    trials_per_size: int,
    seed: int,
) -> CycleViolationReport:
    """Show that every output order contradicts some strict pairwise majority.

    Requires cyclic pairwise marginals: any cycle of strict majorities, of any
    length (``Condensation.cyclic`` of the majority digraph, which has no 2-cycle);
    a linear order agrees with no cycle, so a majority loses in every trial.
    """
    issue = scn.issue
    n = scn.space.issue_space.n
    majorities = tuple(
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and pair_marginal(scn.population, issue, (a, b)) > 0.5
    )
    if not scc_condensation(PrivilegeGraph(issue, n, frozenset(majorities))).cyclic:
        raise PreconditionError("pairwise marginals are not cyclic; nothing to demonstrate")

    committees = _committees(scn, scn.population, sizes, trials_per_size, seed)
    violated = _of_choices(  # per trial, the majorities its choice contradicts
        scn.space, issue, lambda at: sum(at[:, b] < at[:, a] for a, b in majorities),
        np.concatenate(list(committees)),
    )
    per_size = []
    for size, counts in zip(sizes, violated):
        histogram = {v: k for v, k in enumerate(np.bincount(counts).tolist()) if k}
        per_size.append((int(size), trials_per_size, min(histogram), histogram))
    return CycleViolationReport(majorities=majorities, per_size=tuple(per_size))


# -- decay fitting ---------------------------------------------------------


def fit_decay(points: Sequence[tuple]) -> FitResult:
    """Least-squares fit of log(failure rate) against sample size.

    Points with rate 0 or 1 carry no log information and are excluded; those
    at rate 0 are counted in ``n_zero``.  Fewer than 3 usable points yields
    the "saturated" verdict instead of a fit.
    """
    usable = [(size, rate) for size, rate in points if 0.0 < rate < 1.0]
    n_zero = sum(1 for _, rate in points if rate == 0.0)
    if len(usable) < 3:
        return FitResult(verdict="saturated", n_used=len(usable), n_zero=n_zero)
    xs = np.array([size for size, _ in usable], dtype=float)
    ys = np.array([log(rate) for _, rate in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    ss_res = float(((ys - predicted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(
        verdict="fit",
        alpha=float(-slope),
        r2=r2,
        n_used=len(usable),
        n_zero=n_zero,
    )


def decay_verdict(curve: DecayCurve) -> str:
    """Operational reading of the exponential-decay claim.

    "pass-saturated" when failures are (almost) all zero, "pass-decay" when
    nonzero rates decrease within confidence noise and the log-linear fit has
    r^2 >= 0.9, otherwise "fail".
    """
    if all(p.failures == 0 for p in curve.points):
        return "pass-saturated"
    if curve.fit.verdict == "saturated":
        # too few nonzero points to fit; accept if the tail has died out
        if curve.points[-1].failures == 0:
            return "pass-saturated"
        nonzero = [p for p in curve.points if p.failures > 0]
        if len(nonzero) >= 2 and nonzero[-1].rate >= nonzero[0].rate:
            return "fail"
        return "pass-saturated"
    decreasing = True
    previous = None
    for p in curve.points:
        if p.rate == 0.0:
            continue
        if previous is not None:
            if p.rate >= previous.rate + previous.ci_half_width + p.ci_half_width:
                decreasing = False
        previous = p
    if decreasing and curve.fit.r2 is not None and curve.fit.r2 >= 0.9:
        return "pass-decay"
    return "fail"
