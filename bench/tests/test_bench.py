"""Self-test of the benchmark on tiny versions of its workloads.

    python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

COUNTS = (
    "axioms.trials",
    "mechanisms.calls",
    "spaces.profiles_enumerated",
    "privilege.is_privileged.calls",
    "orders.profiles_built",
    "orders.rule_evals",
)


def tiny(workload, trace, seed=3, tamper=None):
    return bench.run(workload, seed, 0, trace, tiny=True, tamper=tamper)


def test_manifest_names_every_metric_with_its_unit():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == bench.PER_LAYER


# a layer each workload must load, and one it must leave alone
EXERCISED = {
    "axiom-decay": ("mechanisms.acyclic.us_per_call", "experiments.match_cells"),
    "generalization": ("complexity.empirical_rademacher.self_s", "privilege.is_privileged.calls"),
    "privilege": ("privilege.is_privileged.calls", "mechanisms.calls"),
}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_printed_with_unit_and_counts_repeat(workload):
    plain = tiny(workload, trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == bench.END_TO_END
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    first, second = tiny(workload, trace=True), tiny(workload, trace=True)
    for result in (first, second):
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.PER_LAYER
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    loaded, idle = EXERCISED[workload]
    assert first["metrics"][loaded]["value"] > 0
    assert first["metrics"][idle]["value"] == 0


def test_tampered_result_file_fails_the_check():
    passes = []

    def tamper(pass_dir):
        passes.append(pass_dir)
        if len(passes) == 2:
            victim = next(p for p in sorted(pass_dir.rglob("*.csv")))
            victim.write_text(victim.read_text() + "0\n")

    result = tiny("axiom-decay", trace=False, tamper=tamper)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "privilege", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_golden_mismatch_fails_the_check(tmp_path):
    op_dir = tmp_path / "op"
    op_dir.mkdir()
    (op_dir / "summary.json").write_text(json.dumps({"results": {"verdict": "pass-saturated"}}))
    (op_dir / "decay.csv").write_text("size,trials\n3,10\n")
    (op_dir / "metadata.json").write_text("{}")
    op = {"name": "op", "expect_exit": 0, "expect": {"verdict": "pass-saturated"}}
    result = {"exit": 0, "error": None}
    golden = {"op": bench.digests(op_dir)}
    assert "metadata.json" not in golden["op"]
    assert bench.grade(op, result, op_dir, {}, golden) == []
    (op_dir / "metadata.json").write_text('{"wall_clock_seconds": 1}')
    assert bench.grade(op, result, op_dir, {}, golden) == []
    (op_dir / "decay.csv").write_text("size,trials\n3,11\n")
    assert bench.grade(op, result, op_dir, {}, golden) == ["result files differ from golden.json"]
    assert bench.grade(op, {"exit": 4, "error": None}, op_dir, {}, None) == ["exit 4, expected 0"]


def test_speed_probe_divides_work_by_measured_speed():
    from speed import NOMINAL_PROBE_S, WINDOW, SpeedProbe

    probe = SpeedProbe()
    # probes twice as slow as nominal, every 10 ms, each 1 ms of CPU on a half-speed core
    slow = 2 * NOMINAL_PROBE_S
    probe.marks = [(0.01 * k, 0.01 * k + slow, 0.01 * k, 0.01 * k + slow) for k in range(1, 20)]
    times = probe.times((0.0, 0.0), (0.2, 0.2))
    work = 0.2 - 19 * slow  # the window less the probes inside it
    assert times["wall_s"] == pytest.approx(work)
    assert times["cpu_s"] == pytest.approx(work)
    assert times["norm_wall_s"] == pytest.approx(work / 2)
    assert times["norm_cpu_s"] == pytest.approx(work / 2)
    assert probe.slowdown() == pytest.approx(2)
    # one probe disturbed by a preemption moves nothing: speeds are medians of WINDOW probes
    probe.marks[5] = (0.06, 0.06 + 5 * slow, 0.06, 0.06 + slow)
    assert WINDOW >= 3
    disturbed = probe.times((0.0, 0.0), (0.2, 0.2))
    assert disturbed["norm_cpu_s"] == pytest.approx(work / 2)


def test_speed_probe_samples_a_running_program():
    from speed import SpeedProbe, clocks

    probe = SpeedProbe()
    probe.start()
    try:
        start = clocks()
        while clocks()[0] - start[0] < 0.1:
            sum(range(1000))
        end = clocks()
    finally:
        probe.stop()
    times = probe.times(start, end)
    assert len(probe.marks) >= 5
    assert 0 < times["wall_s"] < end[0] - start[0]
    assert 0 < times["norm_wall_s"] and 0 < times["norm_cpu_s"]
