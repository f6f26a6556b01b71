"""One fresh interpreter of the benchmark: a set-up or a pass.

    python3 bench/child.py setup --workload W --seed S --dir D [--tiny]
    python3 bench/child.py pass --dir D --out O --trace 0|1

``setup`` imports repsoc, writes the workload's inputs for the seed into D
and loads every population and space once, then prints its own duration as
JSON.  ``pass`` executes the operations listed in ``D/ops.json`` in order,
each writing its result files under ``O/<op>/``, and writes
``O/report.json`` with each operation's exit code, the pass's wall and CPU
time and its peak resident set; with ``--trace 1`` it also installs the
tracer and reports per-layer metrics.  Untraced set-ups and passes run under
a ``SpeedProbe``, which also gives their times at reference CPU speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from speed import TIMES, SpeedProbe, clocks  # noqa: E402  (stdlib only; repsoc is imported later)


def _setup(args) -> None:
    probe = SpeedProbe()
    probe.start()
    try:
        start = clocks()
        import workloads  # imports repsoc

        workloads.generate(args.workload, args.seed, args.dir, tiny=args.tiny)
        workloads.load_inputs(args.dir)
        end = clocks()
    finally:
        probe.stop()
    print(json.dumps(probe.times(start, end)))


def _acyclic_axiom(op, out: Path) -> int:
    """Criterion-8 shape: ppe, s-pc and s-piia curves of the acyclic mechanism."""
    import repsoc
    import workloads

    doc = json.loads(Path(op["graphs"]).read_text())
    n = int(doc["N"])
    graphs = {
        issue: repsoc.PrivilegeGraph(issue=issue, n=n, edges=frozenset(map(tuple, edges)))
        for issue, edges in doc["graphs"].items()
    }
    plan = repsoc.synthesize_acyclic(graphs)
    issue = next(iter(graphs))
    u, v, o1, o2 = workloads.flip_pair(plan, issue)
    w, x = sorted(set(range(n)) - {u, v})[:2]
    sigma = repsoc.Permutation.transposition(n, w, x)
    pop_a = repsoc.MarginalPopulation({issue: {o1: 0.6, o2: 0.4}})
    pop_b = repsoc.MarginalPopulation(
        {issue: {repsoc.apply_permutation(o1, sigma): 0.6, repsoc.apply_permutation(o2, sigma): 0.4}}
    )
    base = dict(
        saliency=repsoc.SaliencyDistribution({issue: 1.0}),
        space=plan.space,
        mechanism=repsoc.make_mechanism("acyclic", plan=plan),
        issue=issue,
        pair=(u, v),
    )
    scenarios = (
        repsoc.Scenario(
            population=repsoc.MarginalPopulation({issue: {o1: 1.0}}), axiom="ppe",
            profile=repsoc.Profile({issue: o1}), profile_against=repsoc.Profile({issue: o2}),
            **base,
        ),
        repsoc.Scenario(population=pop_a, axiom="s-pc", **base),
        repsoc.Scenario(population=pop_a, population_b=pop_b, axiom="s-piia", **base),
    )
    verdicts = {}
    for k, scn in enumerate(scenarios):
        curve = repsoc.estimate_axiom(scn, op["sizes"], op["trials"], op["seed"] + k)
        curve.to_csv(out / f"decay_{scn.axiom}.csv")
        verdicts[scn.axiom] = repsoc.decay_verdict(curve)
    (out / "summary.json").write_text(json.dumps({"results": {"verdicts": verdicts}}, indent=2))
    return 4 if "fail" in verdicts.values() else 0


def _run_op(op, out: Path) -> int:
    import repsoc.cli

    out.mkdir(parents=True)
    if op["kind"] == "acyclic-axiom":
        return _acyclic_axiom(op, out)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return repsoc.cli.main(["run", op["config"], "--check", "--out", str(out)])
        except SystemExit as exc:  # argparse rejects its arguments
            return exc.code if isinstance(exc.code, int) else 1


def _pass(args) -> None:
    import repsoc.cli  # noqa: F401  (imported before the clock starts)
    import workloads  # noqa: F401

    tracer = probe = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        probe = SpeedProbe()
    ops = json.loads((Path(args.dir) / "ops.json").read_text())["ops"]
    out = Path(args.out).resolve()
    os.chdir(args.dir)  # configs name their input files relative to it
    results, windows = [], []
    if probe is not None:
        probe.start()
    try:
        for op in ops:
            start = clocks()
            try:
                code = _run_op(op, out / op["name"])
                error = None
            except Exception as exc:  # one failed operation must not end the pass
                code, error = None, f"{type(exc).__name__}: {exc}"
            windows.append((start, clocks()))
            results.append({"name": op["name"], "exit": code, "error": error})
    finally:
        if probe is not None:
            probe.stop()
    totals = dict.fromkeys(TIMES, 0.0)
    for result, (start, end) in zip(results, windows):
        if probe is None:
            times = {"wall_s": end[0] - start[0], "cpu_s": end[1] - start[1]}
        else:
            times = probe.times(start, end)
        for key, value in times.items():
            totals[key] += value
        result["seconds"] = times.get("norm_wall_s", times["wall_s"])
    report = {
        "ops": results,
        **totals,
        "slowdown": probe.slowdown() if probe is not None else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
    (out / "report.json").write_text(json.dumps(report))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True)
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--dir", required=True)
    setup.add_argument("--tiny", action="store_true")
    run = sub.add_parser("pass")
    run.add_argument("--dir", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    (_setup if args.mode == "setup" else _pass)(args)


if __name__ == "__main__":
    main()
