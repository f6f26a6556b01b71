"""Benchmark of ``repsoc run``: three workloads, each loading different layers.

    python3 bench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --report [--seed N] [--seconds S]
    python3 bench/run.py --write-golden

A run sets up the workload's inputs from the seed several times, each in a
fresh interpreter (the median is ``setup_s``), then executes passes of the
workload's operations, one fresh interpreter after another, until
``--seconds`` have gone by.  Every operation's exit code, its result files
and its ``summary.json`` results are checked after each pass.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced passes with ``--trace 1``.

Set-up and pass times are medians of times at reference CPU speed: each
untraced set-up and pass runs under ``speed.SpeedProbe``, which divides the
program's work by the CPU speed it measures every few milliseconds, so that
the load of other tenants of a shared CPU cancels out.  The raw times are
per-layer metrics (``wall_s``, ``cpu_s``, with ``cpu.slowdown``).

``--report`` runs every workload untraced and traced and prints all metrics
as a table.  ``--write-golden`` records the digests of every result file at
the default seed into ``golden.json``; later passes at that seed must
reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
WORKLOADS = ("axiom-decay", "generalization", "privilege")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 20
SETUPS = 9  # set-ups per run; setup_s is their median
MIN_PASSES = 3
MIN_TRACED = 2  # traced and untraced passes alternate in a traced run
CHILD_TIMEOUT = 150  # seconds; a pass takes about 2

END_TO_END = {
    "norm_wall_s": "s",
    "norm_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "wall_s": "s",
    "cpu_s": "s",
    "cpu.slowdown": "ratio",
    "committees_per_s": "1/s",
    "pair_checks_per_s": "1/s",
    "failed_frac": "ratio",
    "axioms.trials": "count",
    "axioms.estimate_axiom.self_s": "s",
    "axioms.us_per_trial_overhead": "us",
    "axioms.cycle_violation_demo.self_s": "s",
    "mechanisms.calls": "count",
    "mechanisms.self_s": "s",
    "mechanisms.majority.us_per_call": "us",
    "mechanisms.scoring.us_per_call": "us",
    "mechanisms.acyclic.us_per_call": "us",
    "mechanisms.distinct_tally_frac": "ratio",
    "spaces.load_candidate_space.self_s": "s",
    "spaces.enumerate_profiles.self_s": "s",
    "spaces.enumerate_profiles.calls": "count",
    "spaces.profiles_enumerated": "count",
    "spaces.enumerations_per_space": "ratio",
    "population.load_population.self_s": "s",
    "population.sample_pairs.self_s": "s",
    "experiments.run_experiment.self_s": "s",
    "experiments.generalization_experiment.self_s": "s",
    "experiments.match_cells": "count",
    "complexity.empirical_rademacher.self_s": "s",
    "complexity.vc_dimension_with_witness.self_s": "s",
    "privilege.is_privileged.calls": "count",
    "privilege.is_privileged.self_s": "s",
    "privilege.privileged_frac": "ratio",
    "privilege.build_privilege_graph.self_s": "s",
    "privilege.scc_condensation.self_s": "s",
    "privilege.synthesize_acyclic.self_s": "s",
    "orders.profiles_built": "count",
    "orders.rule_evals": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run (missing sources, a set-up that failed)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPSOC_SEED", None)  # the program sees only the generated configs
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence counts, repeat
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # single-threaded load model
    return env


def _child(args: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        capture_output=True, text=True, env=_child_env(), timeout=CHILD_TIMEOUT,
    )


def digests(op_dir: Path) -> dict:
    """sha256 of every result file of one operation, ``metadata.json`` aside."""
    return {
        str(path.relative_to(op_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(op_dir.rglob("*"))
        if path.is_file() and path.name != "metadata.json"
    }


def _contains(actual, expected) -> bool:
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and _contains(actual[k], v) for k, v in expected.items()
        )
    return actual == expected


def grade(op: dict, result: dict, op_dir: Path, reference: dict, golden: dict | None) -> list:
    """Reasons the operation failed in this pass; empty when it passed.

    ``reference`` maps operation names to the digests of their first pass in
    this run; ``golden`` (at the default seed only) to the recorded ones.
    """
    if result["error"] is not None:
        return [f"raised {result['error']}"]
    problems = []
    if result["exit"] != op["expect_exit"]:
        problems.append(f"exit {result['exit']}, expected {op['expect_exit']}")
    found = digests(op_dir)
    reference.setdefault(op["name"], found)
    if found != reference[op["name"]]:
        problems.append("result files differ from the first pass")
    if golden is not None and found != golden.get(op["name"]):
        problems.append("result files differ from golden.json")
    summary_path = op_dir / "summary.json"
    results = json.loads(summary_path.read_text())["results"] if summary_path.exists() else None
    if not _contains(results, op["expect"]):
        problems.append(f"summary results lack {op['expect']}")
    return problems


def set_up(workload: str, seed: int, work: Path, tiny: bool, count: int = SETUPS):
    """Run ``count`` set-ups; returns (inputs dir, ops, per-set-up seconds at
    reference speed)."""
    times = []
    first = None
    for k in range(count):
        directory = work / f"setup{k}"
        cmd = ["setup", "--workload", workload, "--seed", str(seed), "--dir", str(directory)]
        proc = _child(cmd + (["--tiny"] if tiny else []))
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["norm_wall_s"])
        if first is None:
            first = directory
        else:
            if digests(directory) != digests(first):
                raise BenchError("set-up is not deterministic: inputs differ between set-ups")
            shutil.rmtree(directory)
    ops = json.loads((first / "ops.json").read_text())["ops"]
    return first, ops, times


def run_pass(inputs: Path, out: Path, trace: bool):
    """One pass in a fresh interpreter; returns its report, or None if it died."""
    try:
        proc = _child(["pass", "--dir", str(inputs), "--out", str(out), "--trace", str(int(trace))])
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"pass killed after {CHILD_TIMEOUT} s\n")
        return None
    report_path = out / "report.json"
    if proc.returncode != 0 or not report_path.exists():
        sys.stderr.write(f"pass died (exit {proc.returncode}):\n{proc.stderr[-2000:]}\n")
        return None
    return json.loads(report_path.read_text())


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run(workload, seed, seconds, trace, tiny=False, tamper=None):
    """Run the benchmark once; returns the result object printed last.

    ``tamper(pass_dir)``, when given, may alter a pass's result files before
    they are graded; the self-test uses it to show that the check bites.
    """
    if not (ROOT / "src" / "repsoc").is_dir():
        raise BenchError(f"no repsoc sources under {ROOT / 'src'}")
    golden = None
    if seed == DEFAULT_SEED and not tiny and GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text()).get(workload)
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, ops, setup_times = set_up(workload, seed, work, tiny)
        committees = sum(op["committees"] for op in ops)
        pair_checks = sum(op["pair_checks"] for op in ops)
        reference: dict = {}
        plain, traced = [], []
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        k = 0
        while k < (2 * MIN_TRACED if trace else MIN_PASSES) or time.perf_counter() < deadline:
            with_trace = trace and k % 2 == 1
            out = work / f"pass{k}"
            report = run_pass(inputs, out, with_trace)
            attempted += len(ops)
            if report is None:
                failed += len(ops)
            else:
                if tamper is not None:
                    tamper(out)
                for op, result in zip(ops, report["ops"]):
                    problems = grade(op, result, out / op["name"], reference, golden)
                    if problems:
                        failed += 1
                        sys.stderr.write(f"{op['name']}: {'; '.join(problems)}\n")
                (traced if with_trace else plain).append(report)
            shutil.rmtree(out, ignore_errors=True)
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [r["norm_wall_s"] for r in plain]
    op_seconds = {
        op["name"]: _median([r["ops"][j]["seconds"] for r in plain]) for j, op in enumerate(ops)
    }
    if trace:
        layers = {
            name: _median([r["layers"][name] for r in traced])
            for name in traced[0]["layers"]
        } if traced else {}
        for name in ("wall_s", "cpu_s"):
            layers[name] = _median([r[name] for r in plain])
        layers["cpu.slowdown"] = _median([r["slowdown"] for r in plain])
        layers["committees_per_s"] = _median([committees / w for w in walls])
        layers["pair_checks_per_s"] = _median([pair_checks / w for w in walls])
        layers["failed_frac"] = failed / attempted
        # traced passes run without the probe: compare raw times
        layers["trace.overhead_frac"] = (
            _median([r["wall_s"] for r in traced]) / layers["wall_s"] - 1.0
            if traced and plain else 0.0
        )
        metrics = {}
        for name, unit in PER_LAYER.items():
            value = layers.get(name, 0.0)
            metrics[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
    else:
        values = {
            "norm_wall_s": _median(walls),
            "norm_cpu_s": _median([r["norm_cpu_s"] for r in plain]),
            "setup_s": _median(setup_times),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": len(plain) + len(traced),
        "op_seconds": op_seconds,
    }


def _print_result(workload, result) -> None:
    """Human-readable lines; drops the keys that are not part of the result line."""
    print(f"# {workload}: {result.pop('passes')} passes, "
          f"{result['failed']}/{result['attempted']} operations failed")
    for name, seconds in result.pop("op_seconds").items():
        print(f"#   {name:43s} {seconds:>10.4f} s median per pass")
    for name, metric in result["metrics"].items():
        print(f"{workload:15s} {name:45s} {metric['value']:>14.6g} {metric['unit']}")


def write_golden() -> None:
    """Record result-file digests of one pass per workload at the default seed."""
    golden = {}
    for workload in WORKLOADS:
        work = ROOT / ".bench_work" / f"golden-{workload}-{os.getpid()}"
        try:
            inputs, ops, _ = set_up(workload, DEFAULT_SEED, work, tiny=False, count=1)
            out = work / "pass"
            report = run_pass(inputs, out, trace=False)
            if report is None or any(r["exit"] != op["expect_exit"] for op, r in zip(ops, report["ops"])):
                raise BenchError(f"{workload}: a pass failed; not recording golden digests")
            golden[workload] = {op["name"]: digests(out / op["name"]) for op in ops}
        finally:
            shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def _terminate(signum, frame):
    # unwinding kills the running child (subprocess.run) and removes the work dir
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--write-golden", action="store_true", help="record golden.json")
    args = parser.parse_args(argv)
    try:
        if args.write_golden:
            write_golden()
            return 0
        if args.report:
            for trace in (0, 1):
                for workload in WORKLOADS:
                    _print_result(workload, run(workload, args.seed, args.seconds, bool(trace)))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    _print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
