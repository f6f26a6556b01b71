"""repsoc: simulation and combinatorial analysis of representative social choice.

Preferences over multi-outcome issues are sampled as individual-issue pairs
from a synthetic population; aggregation mechanisms pick a profile from a
candidate space; the toolkit measures generalization empirically, analyzes
privilege structure of candidate spaces, and stress-tests probabilistic
axioms by Monte Carlo.
"""

from .axioms import (
    DecayCurve,
    DecayPoint,
    FitResult,
    Scenario,
    condorcet_scenario,
    cycle_violation_demo,
    decay_verdict,
    estimate_axiom,
    fit_decay,
)
from .complexity import (
    empirical_rademacher,
    is_shattered,
    massart_bound,
    vc_dimension_with_witness,
)
from .errors import (
    CapacityError,
    CyclicityError,
    InvalidArgumentError,
    PreconditionError,
    RepsocError,
    UnsupportedError,
    VacuityError,
)
from .experiments import (
    GeneralizationResult,
    generalization_experiment,
    make_mechanism,
    run_experiment,
)
from .mechanisms import (
    EXACT_MATCH,
    KENDALL,
    SCORING_RULES,
    Mechanism,
    ScoringRule,
    decide_tallies,
)
from .orders import (
    LinearOrder,
    PartialOrder,
    Permutation,
    Profile,
    apply_local_permutation,
    apply_permutation,
    exact_match_score,
)
from .population import (
    IssueSpace,
    MarginalPopulation,
    SaliencyDistribution,
    load_population,
    pair_marginal,
    sample_pairs,
    save_population,
)
from .privilege import (
    AcyclicPlan,
    Condensation,
    PrivilegeGraph,
    build_privilege_graph,
    check_path_privilege,
    is_cyclically_privileged,
    is_privileged,
    scc_condensation,
    synthesize_acyclic,
)
from .rng import derive_rng
from .spaces import CandidateSpace, all_linear_orders, load_candidate_space, save_candidate_space

__version__ = "0.1.0"
