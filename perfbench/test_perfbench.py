"""Self-tests of the benchmark: output checks, metric names, failure path.

    python3 -m pytest perfbench -q
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run  # noqa: E402
from repro.cpu.exits import ExitReason  # noqa: E402
from workloads import BOOT_MODES, Fuzz  # noqa: E402

OFF = harness.Tracer(enabled=False)
#: A seed whose first campaign trips both known-bug shims.
BUG_SEED = 2


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc


def _fuzz_phase(bug, seed=BUG_SEED):
    workload = Fuzz(bug=bug)
    workload.setup(seed)
    with contextlib.ExitStack() as stack:
        for cm in workload.probes(OFF):
            stack.enter_context(cm)
        return harness.run_phase(workload, 0, OFF, 1, 1)


def test_fuzz_is_clean_without_a_shim():
    phase = _fuzz_phase(None)
    assert len(phase.ops) == Fuzz.cases
    assert [r for r in phase.ops if not r.ok] == []


@pytest.mark.parametrize("bug", ["pr5-vector-loop", "bt-stale-smc"])
def test_fuzz_reports_failures_with_a_known_bug(bug):
    phase = _fuzz_phase(bug)
    assert sum(1 for r in phase.ops if not r.ok) > 0


def test_report_failed_frac_follows_the_shim():
    for bug, failing in ((None, False), ("bt-stale-smc", True)):
        phase = _fuzz_phase(bug)
        e2e = harness.end_to_end(Fuzz(), phase, setup_s=1.0)
        report = harness.report(Fuzz(), phase, e2e)
        assert (report["failed_frac"]["value"] > 0) is failing


def test_an_op_that_raises_is_a_failed_op():
    def boom():
        raise RuntimeError("injected")

    records = harness._run_unit(harness.Unit("boom", 3, boom), OFF)
    assert len(records) == 3 and not any(r.ok for r in records)
    assert "injected" in records[0].error


def test_untraced_run_prints_the_end_to_end_metrics_and_repeats_its_digest():
    runs = [_run("--workload", "fleet", "--seed", "5", "--seconds", "1",
                 "--trace", "0") for _ in range(2)]
    names = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    digests = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        report, final = [json.loads(x) for x in proc.stdout.splitlines()[-2:]]
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True and final["failed"] == 0
        assert {k: v["unit"] for k, v in final["metrics"].items()} == names
        assert all(v["value"] > 0 for v in final["metrics"].values())
        assert len(report["report"]) == 12
        digests.append(report["sim_digest"])
    assert digests[0] == digests[1]


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "fleet", "--seed", "5", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    assert final["metrics"]["cluster.placements"]["value"] > 0
    # The fleet bypasses the CPU: the prediction there is "no change".
    assert final["metrics"]["cpu.instret"]["value"] == 0


def test_per_layer_list_matches_benchmark_json_and_the_program():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert run.EXIT_REASON_NAMES == tuple(r.value for r in ExitReason)
    assert run.BOOT_MODE_NAMES == tuple(m[0] for m in BOOT_MODES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "fleet", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (40, 60, 105, 200):
        pct = harness.tail_percentile(n)
        _value, beyond = harness.percentile(list(range(n)), pct)
        assert beyond >= 10


def test_overcommitted_guest_that_never_ends_is_a_failed_op(monkeypatch):
    import workloads
    from repro.core.hypervisor import RunOutcome
    workload = workloads.VMLifecycle()
    workload.setup(1)
    # Two slices of 1000 instructions are too few for the program, so
    # every guest stops at the cap instead of shutting down.
    monkeypatch.setattr(workloads, "OVERCOMMIT_SLICE", 1000)
    monkeypatch.setattr(workloads, "MAX_INSTRUCTIONS", 2000)
    record = workload._overcommit("overcommit", None, OFF)
    assert not record.ok
    assert record.guest_instr <= 3 * 2000
    assert RunOutcome.INSTR_LIMIT.name in record.error
