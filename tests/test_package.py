"""The lazy ``repsoc`` namespace: the names it exports, the objects they bind, and the
submodules a fresh interpreter loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repsoc

SOURCE = Path(__file__).resolve().parents[1] / "src"

# every public name of the package, with the submodule that defines it
EXPORTED = {
    "axioms": (
        "DecayCurve", "DecayPoint", "FitResult", "Scenario", "condorcet_scenario", "cycle_violation_demo",
        "decay_verdict", "estimate_axiom", "fit_decay",
    ),
    "complexity": ("empirical_rademacher", "is_shattered", "massart_bound", "vc_dimension_with_witness"),
    "errors": (
        "CapacityError", "CyclicityError", "InvalidArgumentError", "PreconditionError", "RepsocError",
        "UnsupportedError", "VacuityError",
    ),
    "experiments": ("make_mechanism", "run_experiment"),
    "generalization": ("GeneralizationResult", "generalization_experiment"),
    "mechanisms": ("EXACT_MATCH", "KENDALL", "SCORING_RULES", "Mechanism", "ScoringRule", "decide_tallies"),
    "orders": (
        "LinearOrder", "PartialOrder", "Permutation", "Profile", "apply_local_permutation", "apply_permutation",
        "exact_match_score",
    ),
    "population": (
        "IssueSpace", "MarginalPopulation", "SaliencyDistribution", "load_population", "pair_marginal",
        "sample_pairs", "save_population",
    ),
    "privilege": (
        "AcyclicPlan", "Condensation", "PrivilegeGraph", "build_privilege_graph", "check_path_privilege",
        "is_cyclically_privileged", "is_privileged", "scc_condensation", "synthesize_acyclic",
    ),
    "rng": ("derive_rng",),
    "spaces": ("CandidateSpace", "all_linear_orders", "load_candidate_space", "save_candidate_space"),
}
NAMES = {name for names in EXPORTED.values() for name in names}


@pytest.mark.parametrize("module, name", [(module, name) for module, names in EXPORTED.items() for name in names])
def test_each_name_binds_its_module_attribute(module, name):
    assert getattr(repsoc, name) is getattr(importlib.import_module(f"repsoc.{module}"), name)


def test_all_and_dir_cover_every_name():
    assert sorted(repsoc.__all__) == sorted(NAMES)
    assert NAMES | set(EXPORTED) <= set(dir(repsoc))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from repsoc import *", namespace)
    assert {name: namespace[name] for name in NAMES} == {name: getattr(repsoc, name) for name in NAMES}


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        repsoc.no_such_name  # noqa: B018


def _fresh(script: str, cwd) -> list:
    """The lines a fresh interpreter prints when it runs ``script`` in ``cwd``."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_a_bare_import_loads_no_submodule_and_a_submodule_resolves(tmp_path):
    script = """
import sys
import repsoc
print(sorted(m for m in sys.modules if m.startswith("repsoc.")))
print(type(repsoc.axioms).__name__, repsoc.axioms.estimate_axiom is repsoc.estimate_axiom)
"""
    assert _fresh(script, tmp_path) == ["[]", "module True"]


def test_saving_and_loading_inputs_loads_no_lab(tmp_path):
    """A script that only builds, saves and loads a population and a full space pays for
    none of the labs, the mechanisms or the CLI."""
    script = """
import sys
import repsoc
issues = repsoc.IssueSpace(("a", "b"), 3)
orders = repsoc.all_linear_orders(3)
repsoc.save_population("population.json", issues, repsoc.SaliencyDistribution({"a": 0.5, "b": 0.5}),
                       repsoc.MarginalPopulation({i: {orders[0]: 0.7, orders[5]: 0.3} for i in ("a", "b")}))
repsoc.save_candidate_space("space.json", repsoc.CandidateSpace.full(issues))
repsoc.load_population("population.json")
repsoc.load_candidate_space("space.json")
print(sorted(m for m in ("axioms", "mechanisms", "complexity", "generalization", "experiments", "cli")
             if f"repsoc.{m}" in sys.modules))
"""
    assert _fresh(script, tmp_path) == ["[]"]


def test_the_generalization_lab_loads_no_runner(tmp_path):
    """The lab is a library module: importing it loads neither the runners nor the CLI, and
    the runners keep no alias of its names."""
    script = """
import sys
import repsoc.generalization
print(sorted(m for m in ("experiments", "cli") if f"repsoc.{m}" in sys.modules))
"""
    assert _fresh(script, tmp_path) == ["[]"]
    experiments = importlib.import_module("repsoc.experiments")
    assert [name for name in EXPORTED["generalization"] if hasattr(experiments, name)] == []


def test_importing_every_module_builds_no_ordering(tmp_path):
    """The interning cache of orderings fills only on use: importing every library module,
    the CLI included, leaves it empty."""
    script = """
import repsoc.cli
for name in repsoc.__all__:
    getattr(repsoc, name)
from repsoc import orders
print(orders._interned.cache_info().currsize)
"""
    assert _fresh(script, tmp_path) == ["0"]
