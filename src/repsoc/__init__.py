"""repsoc: simulation and combinatorial analysis of representative social choice.

Preferences over multi-outcome issues are sampled as individual-issue pairs
from a synthetic population; aggregation mechanisms pick a profile from a
candidate space; the toolkit measures generalization empirically, analyzes
privilege structure of candidate spaces, and stress-tests probabilistic
axioms by Monte Carlo.

The namespace is lazy (PEP 562): ``import repsoc`` loads no submodule, and
each public name, or submodule, is imported the first time it is read.
"""

__version__ = "0.1.0"

# each submodule and the public names the package reads from it
_EXPORTS = {
    "axioms": (
        "DecayCurve",
        "DecayPoint",
        "FitResult",
        "Scenario",
        "condorcet_scenario",
        "cycle_violation_demo",
        "decay_verdict",
        "estimate_axiom",
        "fit_decay",
    ),
    "complexity": ("empirical_rademacher", "is_shattered", "massart_bound", "vc_dimension_with_witness"),
    "errors": (
        "CapacityError",
        "CyclicityError",
        "InvalidArgumentError",
        "PreconditionError",
        "RepsocError",
        "UnsupportedError",
        "VacuityError",
    ),
    "experiments": ("make_mechanism", "run_experiment"),
    "generalization": ("GeneralizationResult", "generalization_experiment"),
    "mechanisms": ("EXACT_MATCH", "KENDALL", "SCORING_RULES", "Mechanism", "ScoringRule", "decide_tallies"),
    "orders": (
        "LinearOrder",
        "PartialOrder",
        "Permutation",
        "Profile",
        "apply_local_permutation",
        "apply_permutation",
        "exact_match_score",
    ),
    "population": (
        "IssueSpace",
        "MarginalPopulation",
        "SaliencyDistribution",
        "load_population",
        "pair_marginal",
        "sample_pairs",
        "save_population",
    ),
    "privilege": (
        "AcyclicPlan",
        "Condensation",
        "PrivilegeGraph",
        "build_privilege_graph",
        "check_path_privilege",
        "is_cyclically_privileged",
        "is_privileged",
        "scc_condensation",
        "synthesize_acyclic",
    ),
    "rng": ("derive_rng",),
    "spaces": ("CandidateSpace", "all_linear_orders", "load_candidate_space", "save_candidate_space"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the submodule that ``name`` is, or that defines it, and keep the value here."""
    if name in _EXPORTS:
        __import__(f"{__name__}.{name}")  # the import system binds the submodule here
        return globals()[name]
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
