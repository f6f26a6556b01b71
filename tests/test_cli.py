import json
import time

import numpy as np
import pytest

from repsoc import (
    CandidateSpace,
    IssueSpace,
    LinearOrder,
    MarginalPopulation,
    Profile,
    SaliencyDistribution,
    all_linear_orders,
    generalization_experiment,
    run_experiment,
    save_candidate_space,
    save_population,
)
from repsoc import cli, errors, experiments, privilege
from repsoc.cli import build_parser, main


def lo(text):
    return LinearOrder.from_string(text)


@pytest.fixture
def binary_setup(tmp_path):
    """A small 2-issue binary population + full space, saved to disk."""
    issues = ("i0", "i1")
    space = IssueSpace(issues, 2)
    saliency = SaliencyDistribution({"i0": 0.5, "i1": 0.5})
    population = MarginalPopulation(
        {
            "i0": {lo("0>1"): 0.8, lo("1>0"): 0.2},
            "i1": {lo("0>1"): 0.35, lo("1>0"): 0.65},
        }
    )
    pop_path = tmp_path / "population.json"
    save_population(pop_path, space, saliency, population)
    space_path = tmp_path / "space.json"
    save_candidate_space(space_path, CandidateSpace.full(space))
    return {
        "tmp": tmp_path,
        "population": str(pop_path),
        "space": str(space_path),
        "saliency": saliency,
        "marginals": population,
        "candidate_space": CandidateSpace.full(space),
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestGeneralizationExperiment:
    def test_gap_shrinks_with_size(self, binary_setup):
        result = generalization_experiment(
            binary_setup["candidate_space"],
            binary_setup["saliency"],
            binary_setup["marginals"],
            sizes=[64, 4096],
            trials=80,
            seed=13,
        )
        assert result.median_gap(4096) < result.median_gap(64)

    def test_regret_chain_never_violated(self, binary_setup):
        result = generalization_experiment(
            binary_setup["candidate_space"],
            binary_setup["saliency"],
            binary_setup["marginals"],
            sizes=[16, 256],
            trials=200,
            seed=14,
        )
        for size in result.sizes:
            assert (result.regret_slack[size] >= 0).all()


class TestRunCommand:
    def test_generalization_run(self, binary_setup):
        tmp = binary_setup["tmp"]
        config = write_config(
            tmp,
            {
                "kind": "generalization",
                "population": binary_setup["population"],
                "space": binary_setup["space"],
                "sizes": [64, 256],
                "trials": 40,
                "seed": 99,
                "epsilon": 0.2,
            },
        )
        out = tmp / "out"
        assert main(["run", config, "--check", "--out", str(out)]) == 0
        assert (out / "gaps.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["check_passed"] is True
        assert summary["results"]["regret_violations"] == 0

    def test_byte_identical_reruns(self, binary_setup):
        tmp = binary_setup["tmp"]
        config = write_config(
            tmp,
            {
                "kind": "generalization",
                "population": binary_setup["population"],
                "space": binary_setup["space"],
                "sizes": [64, 256],
                "trials": 40,
                "seed": 7,
            },
        )
        out_a, out_b = tmp / "a", tmp / "b"
        assert main(["run", config, "--out", str(out_a)]) == 0
        assert main(["run", config, "--out", str(out_b)]) == 0
        assert (out_a / "gaps.csv").read_bytes() == (out_b / "gaps.csv").read_bytes()

    def test_seed_env_override(self, binary_setup, monkeypatch):
        tmp = binary_setup["tmp"]
        config = write_config(
            tmp,
            {
                "kind": "generalization",
                "population": binary_setup["population"],
                "space": binary_setup["space"],
                "sizes": [64],
                "trials": 40,
                "seed": 7,
            },
        )
        out_a, out_b = tmp / "a", tmp / "b"
        assert main(["run", config, "--out", str(out_a)]) == 0
        monkeypatch.setenv("REPSOC_SEED", "8")
        assert main(["run", config, "--out", str(out_b)]) == 0
        assert (out_a / "gaps.csv").read_bytes() != (out_b / "gaps.csv").read_bytes()

    def test_check_failure_exit_code(self, binary_setup, capsys):
        """An epsilon so small that the exceedance fraction cannot stay under delta: the run
        writes its failed verdict whether or not it is checked, and ``--check`` alone turns
        that verdict into exit 4."""
        tmp = binary_setup["tmp"]
        config = write_config(
            tmp,
            {
                "kind": "generalization",
                "population": binary_setup["population"],
                "space": binary_setup["space"],
                "sizes": [16],
                "trials": 40,
                "seed": 3,
                "epsilon": 1e-6,
                "delta": 0.05,
            },
        )
        assert main(["run", config, "--out", str(tmp / "unchecked")]) == 0
        assert main(["run", config, "--check", "--out", str(tmp / "out")]) == 4
        assert capsys.readouterr().err == "check: FAILED\n"
        for out in ("unchecked", "out"):
            assert json.loads((tmp / out / "summary.json").read_text())["check_passed"] is False

    def test_condorcet_run(self, tmp_path):
        space_path = tmp_path / "space.json"
        save_candidate_space(
            space_path, CandidateSpace.full(IssueSpace(("i",), 3))
        )
        config = write_config(
            tmp_path,
            {
                "kind": "condorcet-demo",
                "space": str(space_path),
                "sizes": [15, 45],
                "trials": 100,
                "seed": 5,
            },
        )
        out = tmp_path / "out"
        assert main(["run", config, "--check", "--out", str(out)]) == 0
        assert (out / "violations.csv").exists()

    def test_axiom_run(self, binary_setup):
        tmp = binary_setup["tmp"]
        config = write_config(
            tmp,
            {
                "kind": "axiom",
                "population": binary_setup["population"],
                "space": binary_setup["space"],
                "axiom": "w-pc",
                "issue": "i0",
                "pair": [0, 1],
                "sizes": [11, 21, 41, 81],
                "trials": 400,
                "seed": 2,
            },
        )
        out = tmp / "out"
        assert main(["run", config, "--check", "--out", str(out)]) == 0
        assert (out / "decay.csv").read_text().startswith(
            "size,trials,failures,rate,ci_low,ci_high"
        )


class TestValidateCommand:
    def test_ok(self, binary_setup):
        tmp = binary_setup["tmp"]
        config = write_config(
            tmp,
            {
                "kind": "generalization",
                "population": binary_setup["population"],
                "space": binary_setup["space"],
                "sizes": [10, 20],
                "trials": 5,
                "seed": 0,
            },
        )
        assert main(["validate", config]) == 0

    def test_sizes_out_of_order(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"kind": "generalization", "sizes": [20, 10], "trials": 5}
        )
        assert main(["validate", config]) == 2
        assert "sizes" in capsys.readouterr().err

    def test_sizes_mixed_types(self, tmp_path, capsys):
        config = write_config(
            tmp_path, {"kind": "generalization", "sizes": ["a", 1], "trials": 5}
        )
        assert main(["validate", config]) == 2
        assert "'sizes'" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path):
        config = write_config(tmp_path, {"kind": "nope"})
        assert main(["validate", config]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["validate", str(path)]) == 2


class TestPrivilegeCommand:
    def test_edges_and_dot(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        save_candidate_space(
            space_path,
            CandidateSpace.explicit(
                [Profile({"i": lo("0>1>2")})], IssueSpace(("i",), 3)
            ),
        )
        dot_path = tmp_path / "graph.dot"
        assert main(["privilege", str(space_path), "--issue", "i", "--dot", str(dot_path)]) == 0
        out = capsys.readouterr().out
        assert "3 privileged pairs" in out
        assert "cyclically privileged: False" in out
        assert "digraph" in dot_path.read_text()

    def test_unknown_issue(self, tmp_path):
        space_path = tmp_path / "space.json"
        save_candidate_space(
            space_path, CandidateSpace.full(IssueSpace(("i",), 3))
        )
        assert main(["privilege", str(space_path), "--issue", "zzz"]) == 2

    def test_factor_with_wrong_outcome_count(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({
            "variant": "product", "issues": ["i"], "N": 3,
            "blocks": [{"issues": ["i"], "profiles": [{"i": "0>1"}]}],
        }))
        assert main(["privilege", str(space_path), "--issue", "i"]) == 2
        assert "outcome count" in capsys.readouterr().err

    def test_an_issue_id_neither_text_nor_integer(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({"variant": "full", "issues": [{"x": 1}], "N": 3}))
        assert main(["privilege", str(space_path), "--issue", "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'issues'" in err

    def test_a_directory_as_the_space(self, tmp_path, capsys):
        assert main(["privilege", str(tmp_path), "--issue", "i"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"candidate-space file {tmp_path}" in err

    def test_six_outcomes(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        save_candidate_space(
            space_path,
            CandidateSpace.explicit(
                [Profile({"i": lo("0>1>2>3>4>5")})], IssueSpace(("i",), 6)
            ),
        )
        assert main(["privilege", str(space_path), "--issue", "i"]) == 0
        assert "15 privileged pairs" in capsys.readouterr().out


class TestOtherKinds:
    def test_vc_run(self, binary_setup):
        tmp = binary_setup["tmp"]
        config = write_config(
            tmp, {"kind": "vc", "space": binary_setup["space"], "seed": 0}
        )
        out = tmp / "out"
        assert main(["run", config, "--check", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["vc_dimension"] == 2
        assert summary["results"]["witness_verified"] is True

    def test_rademacher_run(self, binary_setup):
        tmp = binary_setup["tmp"]
        config = write_config(
            tmp,
            {
                "kind": "rademacher",
                "population": binary_setup["population"],
                "space": binary_setup["space"],
                "sample_size": 100,
                "sign_draws": 200,
                "seed": 21,
            },
        )
        assert main(["run", config, "--check", "--out", str(tmp / "out")]) == 0
        # the bytes of the per-pair float scoring that this run was first recorded with
        results = json.loads((tmp / "out" / "summary.json").read_text())["results"]
        assert {key: float.hex(results[key]) for key in ("estimate", "stderr", "massart_bound")} == {
            "estimate": "0x1.f06f694467383p-5",
            "stderr": "0x1.2326d16381d24p-8",
            "massart_bound": "0x1.5503adab4a439p-3",
        }

    def test_rademacher_unknown_scoring_rule(self, binary_setup, capsys):
        tmp = binary_setup["tmp"]
        config = write_config(
            tmp,
            {
                "kind": "rademacher",
                "population": binary_setup["population"],
                "space": binary_setup["space"],
                "sample_size": 10,
                "scoring_rule": "bogus",
                "seed": 21,
            },
        )
        assert main(["run", config, "--out", str(tmp / "out")]) == 2
        assert "unknown scoring rule 'bogus'" in capsys.readouterr().err

    def test_synthesize_run(self, tmp_path):
        graphs_path = tmp_path / "graphs.json"
        graphs_path.write_text(
            json.dumps({"N": 3, "graphs": {"i": [[0, 1], [1, 0], [0, 2], [1, 2]]}})
        )
        config = write_config(
            tmp_path, {"kind": "synthesize-acyclic", "graphs": str(graphs_path), "seed": 0}
        )
        out = tmp_path / "out"
        assert main(["run", config, "--check", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["supergraph_ok"] is True
        assert summary["results"]["factor_sizes"]["i"] == 2

    def test_privilege_analysis_run(self, tmp_path):
        space_path = tmp_path / "space.json"
        save_candidate_space(
            space_path, CandidateSpace.full(IssueSpace(("i",), 3))
        )
        config = write_config(
            tmp_path, {"kind": "privilege-analysis", "space": str(space_path), "seed": 0}
        )
        out = tmp_path / "out"
        assert main(["run", config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["privilege"]["i"]["cyclically_privileged"] is True
        assert (out / "privilege_i.dot").exists()

    def test_privilege_analysis_condenses_each_graph_once(self, tmp_path, monkeypatch):
        """One condensation per issue's graph gives both its SCC sizes and its cyclicity."""
        orders = all_linear_orders(3)
        space_path = tmp_path / "space.json"
        save_candidate_space(  # every ordering on i, only 0>1>2 on j
            space_path,
            CandidateSpace.explicit([Profile({"i": o, "j": orders[0]}) for o in orders], IssueSpace(("i", "j"), 3)),
        )
        condensed, condense = [], privilege.scc_condensation

        def counted(graph):
            condensed.append(graph.issue)
            return condense(graph)

        monkeypatch.setattr(experiments, "scc_condensation", counted)
        monkeypatch.setattr(privilege, "scc_condensation", counted)
        config = write_config(tmp_path, {"kind": "privilege-analysis", "space": str(space_path)})
        assert main(["run", config, "--out", str(tmp_path / "out")]) == 0
        results = json.loads((tmp_path / "out" / "summary.json").read_text())["results"]["privilege"]
        assert sorted(condensed) == ["i", "j"]
        assert {issue: (r["cyclically_privileged"], r["scc_sizes"]) for issue, r in results.items()} == {
            "i": (True, [3]),
            "j": (False, [1, 1, 1]),
        }


def _axiom(setup, **extra):
    return {
        "kind": "axiom", "population": setup["population"], "space": setup["space"],
        "axiom": "w-pc", "issue": "i0", "pair": [0, 1], "sizes": [5], "trials": 3,
        "seed": 1, **extra,
    }


def _generalization(setup, **extra):
    return {
        "kind": "generalization", "population": setup["population"], "space": setup["space"],
        "sizes": [8], "trials": 3, "seed": 1, **extra,
    }


def _rademacher(setup, **extra):
    return {
        "kind": "rademacher", "population": setup["population"], "space": setup["space"],
        "sample_size": 10, "seed": 1, **extra,
    }


def _bad_saliency(setup):
    path = setup["tmp"] / "bad_population.json"
    doc = json.loads(open(setup["population"]).read())
    doc["saliency"] = {"i0": 0.5, "zz": 0.5}
    path.write_text(json.dumps(doc))
    return _generalization(setup, population=str(path))


def _over_file(name, content, config):
    """A builder of ``config(setup, path)`` over a file ``name`` that holds ``content``: text as
    it is, anything else as JSON."""

    def build(setup):
        path = setup["tmp"] / name
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        return config(setup, str(path))

    return build


def _vc_over_space_file(content):
    return _over_file("bad_space.json", content, lambda s, path: {"kind": "vc", "space": path, "seed": 1})


def _generalization_over_marginals(marginals):
    doc = {"issues": ["i0", "i1"], "N": 2, "saliency": {"i0": 0.5, "i1": 0.5}, "marginals": marginals}
    return _over_file("bad_population.json", doc, lambda s, path: _generalization(s, population=path))


def _synthesis_over_graphs_file(doc):
    return _over_file("bad_graphs.json", doc, lambda s, path: {"kind": "synthesize-acyclic", "graphs": path})


def _privilege_over_space(doc):
    return _over_file("bad_space.json", doc, lambda s, path: {"kind": "privilege-analysis", "space": path})


def _condorcet_over_space(doc):
    return _over_file(
        "space_n.json", doc,
        lambda s, path: {"kind": "condorcet-demo", "space": path, "sizes": [5], "trials": 2, "seed": 0},
    )


# (config builder, REPSOC_SEED or None, text the error must contain)
BAD_INPUTS = {
    "profile-issue": (lambda s: _axiom(s, profile={"zz": "0>1", "i1": "0>1"}), None, "'zz'"),
    "axiom-issue": (lambda s: _axiom(s, issue="zz"), None, "'zz'"),
    "analysed-issue": (
        lambda s: {"kind": "privilege-analysis", "space": s["space"], "issues": ["zz"]},
        None,
        "'zz'",
    ),
    "saliency-issue": (_bad_saliency, None, "'zz'"),
    "seed-text": (lambda s: _generalization(s, seed="x"), None, "'seed'"),
    "trials-text": (lambda s: _axiom(s, trials="many"), None, "'trials'"),
    "trials-fraction": (lambda s: _generalization(s, trials=2.5), None, "'trials'"),
    "sample-size-text": (lambda s: _rademacher(s, sample_size="ten"), None, "'sample_size'"),
    "sign-draws-text": (lambda s: _rademacher(s, sign_draws=[200]), None, "'sign_draws'"),
    "sample-size-zero": (lambda s: _rademacher(s, sample_size=0), None, "'sample_size'"),
    "sample-size-negative": (lambda s: _rademacher(s, sample_size=-3), None, "'sample_size'"),
    "sign-draws-zero": (lambda s: _rademacher(s, sign_draws=0), None, "'sign_draws'"),
    "sign-draws-one": (lambda s: _rademacher(s, sign_draws=1), None, "'sign_draws': must be >= 2"),
    "epsilon-text": (lambda s: _generalization(s, epsilon="x"), None, "'epsilon'"),
    "epsilon-nan": (lambda s: _generalization(s, epsilon=float("nan")), None, "'epsilon'"),
    **{
        f"epsilon-{name}": (lambda s, epsilon=epsilon: _generalization(s, epsilon=epsilon), None, "'epsilon'")
        for name, epsilon in (("five", 5), ("negative", -1), ("zero", 0), ("one", 1.0))
    },
    "delta-text": (lambda s: _generalization(s, epsilon=0.2, delta="x"), None, "'delta'"),
    **{
        f"delta-{name}": (lambda s, delta=delta: _generalization(s, epsilon=0.2, delta=delta), None, "'delta'")
        for name, delta in (("five", 5), ("negative", -0.5), ("zero", 0), ("one", 1.0))
    },
    "env-seed-text": (_generalization, "abc", "REPSOC_SEED"),
    "sizes-mixed-types": (lambda s: _generalization(s, sizes=["a", 1]), None, "'sizes'"),
    "sizes-not-a-list": (lambda s: _axiom(s, sizes=5), None, "'sizes'"),
    "sizes-negative-generalization": (
        lambda s: _generalization(s, sizes=[-5, 3]), None, "'sizes'"
    ),
    "sizes-negative-axiom": (lambda s: _axiom(s, sizes=[-5, 3]), None, "'sizes'"),
    "sizes-zero-axiom": (
        lambda s: _axiom(s, sizes=[0, 3]), None, "'sizes': committee sizes must be >= 1"
    ),
    "sizes-zero-condorcet": (
        _over_file(
            "space3.json", {"variant": "full", "issues": ["i"], "N": 3},
            lambda s, path: {"kind": "condorcet-demo", "space": path, "sizes": [0, 5], "trials": 2,
                             "seed": 0},
        ),
        None,
        "'sizes': committee sizes must be >= 1",
    ),
    "space-ordering-not-text": (
        _vc_over_space_file({"variant": "explicit", "issues": ["a"], "N": 2, "profiles": [{"a": 5}]}),
        None,
        "'a'",
    ),
    "space-profile-not-object": (
        _vc_over_space_file({"variant": "explicit", "issues": ["a"], "N": 3, "profiles": ["0>1>2"]}),
        None,
        "'profiles'",
    ),
    "space-n-text": (
        _vc_over_space_file({"variant": "full", "issues": ["a"], "N": "abc"}), None, "'N'"
    ),
    "space-n-true": (_vc_over_space_file({"variant": "full", "issues": ["a"], "N": True}), None, "'N'"),
    "space-n-one": (_vc_over_space_file({"variant": "full", "issues": ["a"], "N": 1}), None, "'N'"),
    # files and configs name an issue by its text, so "1" and 1 could not be told apart
    "space-issues-one-as-text": (
        _privilege_over_space({"variant": "full", "issues": ["1", 1], "N": 2}), None, "'issues'"
    ),
    # privilege-analysis writes each issue's graph to privilege_<issue>.dot
    "analysed-issue-a-path": (
        _privilege_over_space({"variant": "full", "issues": ["a/b"], "N": 3}), None, "'space': issue 'a/b'"
    ),
    "analysed-issue-with-nul": (
        _privilege_over_space({"variant": "full", "issues": ["a\0b"], "N": 3}), None, "'space': issue 'a\\x00b'"
    ),
    "analysed-issue-a-lone-surrogate": (
        _privilege_over_space({"variant": "full", "issues": ["\ud800"], "N": 3}), None, "'space': issue '\\ud800'"
    ),
    # privilege_ + 300 bytes + .dot is over the 255-byte name limit of common file systems
    "analysed-issue-too-long": (
        _privilege_over_space({"variant": "full", "issues": ["x" * 300], "N": 3}),
        None,
        f"'space': issue '{'x' * 300}' gives a file name of 314 bytes",
    ),
    "space-issues-not-list": (
        _vc_over_space_file({"variant": "full", "issues": 5, "N": 2}), None, "'issues'"
    ),
    "space-block-without-profiles": (
        _vc_over_space_file(
            {"variant": "product", "issues": ["a"], "N": 2, "blocks": [{"issues": ["a"]}]}
        ),
        None,
        "'profiles'",
    ),
    "space-not-json": (_vc_over_space_file("{nope"), None, "bad_space.json"),
    "space-not-object": (_vc_over_space_file([]), None, "bad_space.json"),
    "population-list-marginal": (
        _generalization_over_marginals({"i0": [["0>1", 1.0]], "i1": {"0>1": 1.0}}), None, "'i0'"
    ),
    "population-issue-a-list": (
        _over_file(
            "bad_population.json",
            {"issues": [["a"], "b"], "N": 2, "saliency": {"b": 1.0}, "marginals": {"b": {"0>1": 1.0}}},
            lambda s, path: _generalization(s, population=path),
        ),
        None,
        "'issues'",
    ),
    "space-issue-an-object": (
        _vc_over_space_file({"variant": "full", "issues": [{"x": 1}], "N": 2}), None, "'issues'"
    ),
    "population-ordering-twice": (
        _generalization_over_marginals({"i0": {"0>1": 0.5, "0 > 1": 0.5, "1>0": 0.5}, "i1": {"0>1": 1.0}}),
        None,
        "'0 > 1'",
    ),
    "marginal-nan": (
        _generalization_over_marginals({"i0": {"0>1": float("nan"), "1>0": 0.5}, "i1": {"0>1": 1.0}}), None, "'i0'"
    ),
    "saliency-nan": (
        _over_file(
            "bad_population.json",
            {"issues": ["i0", "i1"], "N": 2, "saliency": {"i0": float("nan"), "i1": 1.0},
             "marginals": {"i0": {"0>1": 1.0}, "i1": {"0>1": 1.0}}},
            lambda s, path: _generalization(s, population=path),
        ),
        None,
        "'i0'",
    ),
    "population-mass-true": (
        _generalization_over_marginals({"i0": {"0>1": True, "1>0": False}, "i1": {"0>1": 1.0}}), None, "'0>1'"
    ),
    "saliency-true": (
        _over_file(
            "bad_population.json",
            {"issues": ["i0", "i1"], "N": 2, "saliency": {"i0": True, "i1": False},
             "marginals": {"i0": {"0>1": 1.0}, "i1": {"0>1": 1.0}}},
            lambda s, path: _generalization(s, population=path),
        ),
        None,
        "'i0'",
    ),
    "population-text-mass": (
        _generalization_over_marginals({"i0": {"0>1": "most"}, "i1": {"0>1": 1.0}}), None, "'0>1'"
    ),
    "graphs-without-n": (_synthesis_over_graphs_file({"graphs": {"i": [[0, 1]]}}), None, "'N'"),
    "graphs-not-object": (_synthesis_over_graphs_file({"N": 3, "graphs": [[0, 1]]}), None, "'graphs'"),
    "graphs-edge-of-bools": (_synthesis_over_graphs_file({"N": 3, "graphs": {"i": [[True, False]]}}), None, "'i'"),
    "graphs-edge-of-length-1": (
        _synthesis_over_graphs_file({"N": 3, "graphs": {"i": [[0]]}}), None, "'i'"
    ),
    "graphs-edge-out-of-range": (
        _synthesis_over_graphs_file({"N": 3, "graphs": {"i": [[0, 1]], "j": [[0, 5]]}}),
        None,
        "graphs file key 'j': edge (0,5) out of range for n=3",
    ),
    "graphs-self-loop": (
        _synthesis_over_graphs_file({"N": 3, "graphs": {"i": [[1, 1]]}}),
        None,
        "graphs file key 'i': privilege graph has no self-loops",
    ),
    "graphs-n-one": (
        _synthesis_over_graphs_file({"N": 1, "graphs": {"i": []}}),
        None,
        "graphs file key 'N': issues need at least 2 outcomes, got 1",
    ),
    # transitive, so it passes that check, and one SCC of all three outcomes
    "graphs-cyclic": (
        _synthesis_over_graphs_file(
            {"N": 3, "graphs": {"i": [[0, 1]], "j": [[u, v] for u in range(3) for v in range(3) if u != v]}}
        ),
        None,
        "issue 'j' is cyclically privileged",
    ),
    "population-b-missing": (
        lambda s: _axiom(s, population_b=str(s["tmp"] / "nope.json")), None, "'population_b'"
    ),
    "population-b-not-a-path": (lambda s: _axiom(s, population_b=7), None, "'population_b'"),
    "space-not-a-path": (lambda s: _generalization(s, space=7), None, "'space'"),
    "axiom-without-pair": (
        lambda s: {k: v for k, v in _axiom(s).items() if k != "pair"}, None, "config missing key 'pair'"
    ),
    "ppe-without-profile": (
        lambda s: _axiom(s, axiom="ppe"), None, "config missing key 'profile', which axiom 'ppe' needs"
    ),
    **{
        f"{axiom}-without-population-b": (
            lambda s, axiom=axiom: _axiom(s, axiom=axiom),
            None,
            f"config missing key 'population_b', which axiom {axiom!r} needs",
        )
        for axiom in ("w-piia", "s-piia")
    },
    "pair-of-one": (lambda s: _axiom(s, pair=[0]), None, "'pair'"),
    "pair-of-text": (lambda s: _axiom(s, pair=["a", "b"]), None, "'pair'"),
    "pair-not-a-list": (lambda s: _axiom(s, pair=5), None, "'pair'"),
    "pair-repeated": (lambda s: _axiom(s, pair=[1, 1]), None, "'pair'"),
    # checked against the space's N = 2, so by ``run`` alone
    "pair-out-of-range-ppe": (
        lambda s: _axiom(s, axiom="ppe", profile={"i0": "0>1", "i1": "0>1"}, pair=[0, 7]),
        None,
        "config key 'pair': outcomes must lie in 0..1 at N = 2, got [0, 7]",
    ),
    "pair-negative-ppe": (
        lambda s: _axiom(s, axiom="ppe", profile={"i0": "0>1", "i1": "0>1"}, pair=[-1, 0]),
        None,
        "config key 'pair'",
    ),
    "pair-out-of-range-w-pc": (lambda s: _axiom(s, pair=[0, 9]), None, "config key 'pair'"),
    "mechanism-not-text": (lambda s: _axiom(s, mechanism=5), None, "'mechanism'"),
    "axiom-not-text": (lambda s: _axiom(s, axiom=["w-pc"]), None, "'axiom'"),
    "profile-not-object": (lambda s: _axiom(s, profile=[1]), None, "'profile'"),
    "profile-ordering-not-text": (
        lambda s: _axiom(s, profile={"i0": 5, "i1": "0>1"}), None, "'profile'"
    ),
    "scoring-rule-not-text": (
        lambda s: _rademacher(s, scoring_rule=["exact"]), None, "'scoring_rule'"
    ),
    "analysed-issues-not-list": (
        lambda s: {"kind": "privilege-analysis", "space": s["space"], "issues": 5}, None, "'issues'"
    ),
    "sizes-over-int64": (lambda s: _axiom(s, sizes=[3, 1e300]), None, "'sizes'"),
    "sizes-at-2-to-the-63": (lambda s: _generalization(s, sizes=[3, 2**63]), None, "'sizes'"),
    "seed-negative-generalization": (lambda s: _generalization(s, seed=-1), None, "'seed'"),
    "seed-negative-axiom": (lambda s: _axiom(s, seed=-1), None, "'seed'"),
    "seed-negative-rademacher": (lambda s: _rademacher(s, seed=-1), None, "'seed'"),
    "seed-negative-condorcet": (
        _over_file(
            "space3.json", {"variant": "full", "issues": ["i"], "N": 3},
            lambda s, path: {"kind": "condorcet-demo", "space": path, "sizes": [5], "trials": 2,
                             "seed": -1},
        ),
        None,
        "'seed'",
    ),
    "env-seed-negative": (_generalization, "-1", "REPSOC_SEED"),
    "out-not-text": (lambda s: _generalization(s, out=5), None, "'out'"),
    "out-a-list": (lambda s: _generalization(s, out=["x"]), None, "'out'"),
    # outside the schema: a misspelt key would otherwise be ignored, and its test never run
    "config-key-misspelt": (lambda s: _generalization(s, epsilom=0.01), None, "unknown config key 'epsilom'"),
    "axiom-unknown": (lambda s: _axiom(s, axiom="nope"), None, "'axiom'"),
    "mechanism-unknown": (lambda s: _axiom(s, mechanism="bogus"), None, "'mechanism'"),
    "mechanism-acyclic": (lambda s: _axiom(s, mechanism="acyclic"), None, "'mechanism'"),
    "scoring-rule-unknown": (lambda s: _rademacher(s, scoring_rule="bogus"), None, "'scoring_rule'"),
    "issue-not-text": (lambda s: _axiom(s, issue=["i0"]), None, "'issue'"),
    "population-a-directory": (
        lambda s: _generalization(s, population=str(s["tmp"])), None, "'population'"
    ),
    "graphs-a-directory": (
        lambda s: {"kind": "synthesize-acyclic", "graphs": str(s["tmp"])}, None, "'graphs'"
    ),
    **{
        f"{key.replace('_', '-')}-of-3-outcomes-{kind.__name__.strip('_')}": (
            _over_file(
                "population_n3.json",
                {"issues": ["i0", "i1"], "N": 3, "saliency": {"i0": 0.5, "i1": 0.5},
                 "marginals": {"i0": {"0>1>2": 1.0}, "i1": {"2>1>0": 1.0}}},
                lambda s, path, kind=kind, key=key: kind(s, **{key: path}),
            ),
            None,
            f"'{key}': the population has N = 3, the space N = 2",
        )
        for kind, key in ((_generalization, "population"), (_axiom, "population"),
                          (_rademacher, "population"), (_axiom, "population_b"))
    },
    "condorcet-space-of-4-outcomes": (
        _condorcet_over_space({"variant": "full", "issues": ["i"], "N": 4}),
        None,
        "'space': the Condorcet demo needs N = 3",
    ),
    "condorcet-space-of-2-outcomes": (
        _condorcet_over_space({"variant": "full", "issues": ["i"], "N": 2}),
        None,
        "'space': the Condorcet demo needs N = 3",
    ),
    "condorcet-space-of-2-issues": (
        _condorcet_over_space({"variant": "full", "issues": ["i", "j"], "N": 3}),
        None,
        "'space': the Condorcet demo needs a single issue, got 2 issues",
    ),
}
# the rows that ``validate`` rejects as well, from the config alone
CONFIG_KEY_CASES = (
    "population-b-missing", "population-b-not-a-path", "space-not-a-path", "pair-of-one",
    "pair-of-text", "pair-not-a-list", "pair-repeated", "mechanism-not-text", "axiom-not-text",
    "profile-not-object", "profile-ordering-not-text", "scoring-rule-not-text",
    "analysed-issues-not-list", "sizes-over-int64", "sizes-at-2-to-the-63",
    "seed-negative-generalization", "seed-negative-axiom", "seed-negative-rademacher",
    "seed-negative-condorcet", "out-not-text", "out-a-list", "axiom-unknown",
    "mechanism-unknown", "mechanism-acyclic", "scoring-rule-unknown", "issue-not-text",
    "population-a-directory", "graphs-a-directory", "sizes-zero-axiom", "sizes-zero-condorcet",
    "axiom-without-pair", "ppe-without-profile", "w-piia-without-population-b",
    "s-piia-without-population-b", "sign-draws-one", "delta-five", "delta-negative", "delta-zero",
    "delta-one", "epsilon-five", "epsilon-negative", "epsilon-zero", "epsilon-one",
    "config-key-misspelt",
)


def test_every_config_key_has_a_bad_input_row():
    """A config key without a row here could go unchecked at the boundary."""
    named = {text for _, _, text in BAD_INPUTS.values()}
    assert [key for key in experiments._KEYS if repr(key) not in named] == []


PRIVILEGE_CAPACITY_INPUTS = {
    "privilege-analysis-of-a-million-outcomes": (
        _privilege_over_space({"variant": "full", "issues": ["i"], "N": 10**6}),
        "N = 1000000 has 999999000000 ordered outcome pairs, over the cap of 1000000",
    ),
    "synthesis-of-a-million-outcomes": (
        _synthesis_over_graphs_file({"N": 10**6, "graphs": {"i": []}}),
        "N = 1000000 has 999999000000 ordered outcome pairs, over the cap of 1000000",
    ),
}


# Beside BAD_INPUTS, the bad inputs that exit 3: (config builder, text the error must contain).
# Each passes ``validate``, since the tally matrix's cells come from the population file.
CAPACITY_INPUTS = {
    "trials-10-to-the-30": (
        lambda s: _axiom(s, trials=10**30), f"trials = {10**30} over 4 cells is {4 * 10**30}"
    ),
    "trials-a-million-on-2-cells": (
        _over_file(
            "population_2_cells.json",
            {"issues": ["i0"], "N": 2, "saliency": {"i0": 1.0},
             "marginals": {"i0": {"0>1": 0.8, "1>0": 0.2}}},
            lambda s, path: _generalization(s, population=path, trials=10**6),
        ),
        "trials = 1000000 over 2 cells is 2000000",
    ),
    "sample-size-10-to-the-30": (
        lambda s: _rademacher(s, sample_size=10**30), f"sample_size = {10**30} with sign_draws = 200"
    ),
    # 20 two-outcome SCCs: 2**20 orderings, refused before any is built
    "synthesis-2-to-the-20-orderings": (
        _synthesis_over_graphs_file(
            {"N": 40, "graphs": {"i": [edge for k in range(0, 40, 2) for edge in ([k, k + 1], [k + 1, k])]}}
        ),
        "issue 'i' has 1048576 orderings, over the cap of 1000000",
    ),
    # the privilege work of N outcomes is bounded by their N(N - 1) ordered pairs, checked
    # before any pair is tested (the pair filter) or any reachability set is built
    **PRIVILEGE_CAPACITY_INPUTS,
}


@pytest.mark.parametrize(
    "kind, key",
    [(_generalization, "population"), (_axiom, "population"), (_rademacher, "population"),
     (_axiom, "population_b")],
    ids=["generalization", "axiom", "rademacher", "axiom-population-b"],
)
def test_saliency_on_an_issue_the_space_lacks_exits_2_on_every_seed(kind, key, binary_setup, monkeypatch, capsys):
    """Issue 'b' has saliency 0.02 and is no issue of the space.  Whether a committee happens
    to draw it depends on the seed (the axiom and rademacher runs here drew none on two and
    five of these seeds), so the population is rejected before any draw; with zero saliency
    on 'b' it is never drawn, and the run goes ahead."""
    tmp = binary_setup["tmp"]

    def config(weight):
        path = tmp / f"population_with_b_{weight}.json"
        path.write_text(json.dumps({
            "issues": ["i0", "i1", "b"], "N": 2,
            "saliency": {"i0": 0.5 - weight / 2, "i1": 0.5 - weight / 2, "b": weight},
            "marginals": {issue: {"0>1": 0.8, "1>0": 0.2} for issue in ("i0", "i1", "b")},
        }))
        return ["run", write_config(tmp, kind(binary_setup, **{key: str(path)})), "--out", str(tmp / "out")]

    lacking = config(0.02)
    for seed in range(6):
        monkeypatch.setenv("REPSOC_SEED", str(seed))
        assert main(lacking) == 2
        assert capsys.readouterr().err == (
            f"error: config key {key!r}: the population puts saliency on issue 'b', "
            "which the candidate space lacks\n"
        )
    with pytest.warns(UserWarning, match="zero weight"):
        assert main(config(0.0)) == 0


@pytest.mark.parametrize("case", sorted(CAPACITY_INPUTS))
def test_capacity_input_exits_3_naming_it(case, binary_setup, capsys):
    build, named = CAPACITY_INPUTS[case]
    config = write_config(binary_setup["tmp"], build(binary_setup))
    assert main(["validate", config]) == 0
    assert main(["run", config, "--out", str(binary_setup["tmp"] / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and named in err


@pytest.mark.parametrize("case", sorted(PRIVILEGE_CAPACITY_INPUTS))
def test_privilege_capacity_is_refused_before_the_work(case, binary_setup, capsys):
    """Both runs took over 20 s without the check; refused up front, each takes milliseconds."""
    build, named = PRIVILEGE_CAPACITY_INPUTS[case]
    config = write_config(binary_setup["tmp"], build(binary_setup))
    started = time.perf_counter()
    assert main(["run", config, "--out", str(binary_setup["tmp"] / "out")]) == 3
    assert time.perf_counter() - started < 1.0
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("error", errors.__all__)
def test_every_library_error_has_its_exit_code(error, binary_setup, monkeypatch, capsys):
    """``main`` maps the error classes, not a list of them: ``CapacityError`` exits 3 and
    every other ``RepsocError`` 2, each with its message."""
    def run_experiment(*args, **kwargs):
        raise getattr(errors, error)("the message")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    config = write_config(binary_setup["tmp"], _generalization(binary_setup))
    code = main(["run", config, "--out", str(binary_setup["tmp"] / "out")])
    assert (code, capsys.readouterr().err) == (
        (3, "capacity error: the message\n") if error == "CapacityError" else (2, "error: the message\n")
    )


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_naming_it(case, binary_setup, monkeypatch, capsys):
    build, env_seed, named = BAD_INPUTS[case]
    if env_seed is not None:
        monkeypatch.setenv("REPSOC_SEED", env_seed)
    config = write_config(binary_setup["tmp"], build(binary_setup))
    assert main(["run", config, "--out", str(binary_setup["tmp"] / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("case", CONFIG_KEY_CASES)
def test_validate_names_a_bad_config_key(case, binary_setup, capsys):
    build, _, named = BAD_INPUTS[case]
    assert main(["validate", write_config(binary_setup["tmp"], build(binary_setup))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("case", ("env-seed-text", "env-seed-negative"))
def test_validate_names_a_bad_env_seed(case, binary_setup, monkeypatch, capsys):
    build, env_seed, named = BAD_INPUTS[case]
    monkeypatch.setenv("REPSOC_SEED", env_seed)
    assert main(["validate", write_config(binary_setup["tmp"], build(binary_setup))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_one_parser_serves_every_call(binary_setup, capsys):
    """``main`` reuses the process's parser; each call exits and prints as it does with a
    parser of its own, whatever the calls before it parsed."""
    config = write_config(binary_setup["tmp"], _generalization(binary_setup))
    calls = (
        ["validate", config],
        ["run", config, "--no-such-option"],  # argparse exits 2
        ["run", config, "--out", str(binary_setup["tmp"] / "out")],
    )

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 0]
    parser = build_parser()
    assert [outcome(argv) for argv in calls] == fresh
    assert build_parser() is parser


# per experiment kind, the config keys it requires
REQUIRED_KEYS = {
    "generalization": ("population", "space", "sizes", "trials", "seed"),
    "axiom": ("population", "space", "issue", "axiom", "pair", "sizes", "trials", "seed"),
    "privilege-analysis": ("space",),
    "synthesize-acyclic": ("graphs",),
    "condorcet-demo": ("space", "sizes", "trials", "seed"),
    "vc": ("space",),
    "rademacher": ("population", "space", "seed", "sample_size"),
}


def _complete_config(setup, kind):
    graphs_path = setup["tmp"] / "graphs.json"
    graphs_path.write_text(json.dumps({"N": 3, "graphs": {"i": [[0, 1]]}}))
    condorcet_path = setup["tmp"] / "space3.json"  # the demo needs one issue of 3 outcomes
    condorcet_path.write_text(json.dumps({"variant": "full", "issues": ["i"], "N": 3}))
    return {
        "generalization": _generalization(setup),
        "axiom": _axiom(setup),
        "privilege-analysis": {"kind": kind, "space": setup["space"]},
        "synthesize-acyclic": {"kind": kind, "graphs": str(graphs_path)},
        "condorcet-demo": {"kind": kind, "space": str(condorcet_path), "sizes": [5], "trials": 2, "seed": 0},
        "vc": {"kind": kind, "space": setup["space"]},
        "rademacher": _rademacher(setup),
    }[kind]


@pytest.mark.parametrize("kind", sorted(REQUIRED_KEYS))
def test_validate_and_run_name_each_missing_required_key(kind, binary_setup, capsys):
    tmp = binary_setup["tmp"]
    config = _complete_config(binary_setup, kind)
    assert main(["validate", write_config(tmp, config)]) == 0
    for key in REQUIRED_KEYS[kind]:
        path = write_config(tmp, {k: v for k, v in config.items() if k != key})
        for command in (["validate", path], ["run", path, "--out", str(tmp / "out")]):
            assert main(command) == 2
            assert f"config missing key {key!r}" in capsys.readouterr().err


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("kind", sorted(REQUIRED_KEYS))
def test_run_writes_strict_json(kind, binary_setup):
    """``json.dump`` writes NaN and Infinity, which RFC 8259 parsers reject."""
    tmp = binary_setup["tmp"]
    out = tmp / "out"
    assert main(["run", write_config(tmp, _complete_config(binary_setup, kind)), "--out", str(out), "--check"]) == 0
    for name in ("summary.json", "metadata.json"):
        json.loads((out / name).read_text(), parse_constant=_no_constant)


def test_majority_over_too_big_full_space_exits_3(tmp_path, capsys):
    issues = IssueSpace(("i",), 10)
    top = LinearOrder(tuple(range(10)))
    swapped = LinearOrder((1, 0) + tuple(range(2, 10)))
    pop_path = tmp_path / "population.json"
    save_population(
        pop_path, issues, SaliencyDistribution({"i": 1.0}),
        MarginalPopulation({"i": {top: 0.7, swapped: 0.3}}),
    )
    space_path = tmp_path / "space.json"
    save_candidate_space(space_path, CandidateSpace.full(issues))
    config = write_config(
        tmp_path,
        {"kind": "axiom", "population": str(pop_path), "space": str(space_path),
         "axiom": "w-pc", "issue": "i", "pair": [0, 1], "sizes": [5], "trials": 2, "seed": 0},
    )
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 3
    assert "capacity error" in capsys.readouterr().err


def _five_issue_full_setup(tmp_path):
    """A population and a full space over five issues at N = 4: 24**5 profiles, over the cap."""
    issues = IssueSpace(tuple(f"g{k}" for k in range(5)), 4)
    orders = all_linear_orders(4)
    pop_path = tmp_path / "population.json"
    save_population(
        pop_path, issues, SaliencyDistribution({issue: 0.2 for issue in issues.issue_ids}),
        MarginalPopulation(
            {issue: {orders[k]: 0.4, orders[k + 5]: 0.35, orders[k + 9]: 0.25}
             for k, issue in enumerate(issues.issue_ids)}
        ),
    )
    space_path = tmp_path / "space.json"
    save_candidate_space(space_path, CandidateSpace.full(issues))
    return str(pop_path), str(space_path)


def test_generalization_over_a_five_issue_full_space(tmp_path):
    """The block sup needs no enumeration."""
    pop_path, space_path = _five_issue_full_setup(tmp_path)
    config = write_config(
        tmp_path,
        {"kind": "generalization", "population": pop_path, "space": space_path,
         "sizes": [8, 64, 512], "trials": 20, "seed": 5, "epsilon": 0.9},
    )
    out = tmp_path / "out"
    assert main(["run", config, "--check", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["regret_violations"] == 0


def test_rademacher_over_a_five_issue_full_space(tmp_path):
    """The inner maximum is a sum of per-issue maxima: no enumeration."""
    pop_path, space_path = _five_issue_full_setup(tmp_path)
    config = write_config(
        tmp_path,
        {"kind": "rademacher", "population": pop_path, "space": space_path,
         "scoring_rule": "kendall", "sample_size": 40, "sign_draws": 100, "seed": 3},
    )
    assert main(["run", config, "--check", "--out", str(tmp_path / "out")]) == 0
    # the bytes of the per-pair float scoring that this run was first recorded with
    results = json.loads((tmp_path / "out" / "summary.json").read_text())["results"]
    assert {key: float.hex(results[key]) for key in ("estimate", "stderr", "massart_bound")} == {
        "estimate": "0x1.249ba5e353f7dp-3",
        "stderr": "0x1.21e63762a3df8p-7",
        "massart_bound": "0x1.c85fa97e9b59bp-1",
    }


def test_vc_over_a_25_issue_full_binary_space(tmp_path):
    """The issue cap applies per block, and each issue of a full space is a block."""
    space_path = tmp_path / "space.json"
    save_candidate_space(
        space_path, CandidateSpace.full(IssueSpace(tuple(f"b{k}" for k in range(25)), 2))
    )
    config = write_config(tmp_path, {"kind": "vc", "space": str(space_path), "seed": 0})
    out = tmp_path / "out"
    assert main(["run", config, "--check", "--out", str(out)]) == 0
    results = json.loads((out / "summary.json").read_text())["results"]
    assert results["vc_dimension"] == 25
    assert results["witness_verified"] is True
