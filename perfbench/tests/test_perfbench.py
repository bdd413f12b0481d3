"""Tests of the benchmark itself: its output format and its checks."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads
from tracer import Tracer, layer_table

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seconds=1, seed=1):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == workloads.E2E_METRICS
    assert declared("per_layer") == workloads.LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == [
        "fuzz", "campaign", "service", "prove"]


@pytest.fixture(scope="module")
def fuzz_untraced():
    return run_bench("fuzz", trace=0)


@pytest.fixture(scope="module")
def fuzz_traced():
    return run_bench("fuzz", trace=1, seconds=2)


def test_untraced_output_names_every_end_to_end_metric(fuzz_untraced):
    result, stdout = fuzz_untraced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    facts = json.loads(stdout.splitlines()[-2].removeprefix("facts: "))
    assert set(facts) == {"nproc", "python", "start_method",
                          "service_connections"}


def test_traced_output_names_every_per_layer_metric(fuzz_traced):
    result, _ = fuzz_traced
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        declared("per_layer")


def test_layer_rows_sum_to_traced_wall_time(fuzz_traced):
    result, stdout = fuzz_traced
    values = {k: v["value"] for k, v in result["metrics"].items()}
    rows = [values[name] for name in workloads.LAYER_ROWS]
    wall = values["trace.wall_s"]
    assert sum(rows) + values["unattributed_s"] == pytest.approx(wall,
                                                                 rel=1e-6)
    assert all(r >= 0 for r in rows)
    # Self times do not overlap, so the remainder stays a small share.
    assert 0 <= values["unattributed_s"] < 0.25 * wall
    for layer in ("fuzz.generator.self_s", "bpf.verifier.self_s",
                  "bpf.interpreter.self_s", "fuzz.oracle.containment_s"):
        assert values[layer] > 0, layer
    assert "unattributed_s" in stdout


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.05))

    def outer_body():
        time.sleep(0.02)
        inner()

    outer = tracer.wrap("outer", outer_body)
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    snap = tracer.snapshot()
    assert snap["self_s"]["inner"] >= 0.05
    assert 0.02 <= snap["self_s"]["outer"] < 0.05
    table = layer_table(snap["self_s"], wall)
    assert sum(table.values()) == pytest.approx(wall)
    (outer_span,) = [s for s in snap["spans"] if s[2] == "outer"]
    (inner_span,) = [s for s in snap["spans"] if s[2] == "inner"]
    assert inner_span[1] == outer_span[0]   # parent link


def test_seed_changes_the_generated_inputs():
    first = workloads.service_stream(1, requests=40)
    assert workloads.service_stream(1, requests=40) == first
    assert workloads.service_stream(2, requests=40) != first


def test_wrong_verdict_counts_as_a_failure():
    programs, order = workloads.service_stream(3, requests=30)
    expected = workloads.expected_verdicts(programs)
    target = order[0]
    expected[target] = workloads.Expected(
        not expected[target].ok, expected[target].error_index)
    server = workloads.Server()
    try:
        load = workloads.drive(server, programs, order, expected, 30.0)
    finally:
        server.stop()
    assert len(load.latencies_s) == len(order)
    assert load.failed == order.count(target)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
