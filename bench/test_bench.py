"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
The short end-to-end runs take about two minutes in all.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import contention
import run
import workloads
from tracer import Tracer

run.import_kernelfield()

from kernelfield import cli, diagnostics, experiments, graph, spectral, stability  # noqa: E402

with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, seed: int, trace: int, seconds: float = 0.5) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    return {w: bench(w, 5, 1) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_run_prints_every_end_to_end_metric(workload):
    result = bench(workload, 5, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload, traced_runs):
    result = traced_runs[workload]
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_layer_expectations_hold(traced_runs):
    sweep = traced_runs["sweep-large"]["metrics"]
    scan = traced_runs["param-scan"]["metrics"]
    mix = traced_runs["cli-mix"]["metrics"]
    assert sweep["spectral.eig_calls"]["value"] == 3
    assert sweep["spectral.eig_dense_calls"]["value"] == 2  # mix is half plain, half coupled
    assert scan["spectral.eig_calls"]["value"] == 3
    assert scan["spectral.eig_dense_calls"]["value"] == 0
    assert scan["spectral.basis_eig_ms"]["value"] == 0
    assert mix["cli.import_ms"]["value"] > 0 and mix["experiments.bytes_written"]["value"] > 0


@pytest.mark.parametrize("workload", ["sweep-large", "cli-mix"])
def test_exact_counts_repeat_on_one_seed(workload, traced_runs):
    again = bench(workload, 5, 1)["metrics"]
    for name in ("spectral.eig_calls", "spectral.eig_dense_calls", "field.iterations",
                 "experiments.bytes_written"):
        assert again[name] == traced_runs[workload]["metrics"][name], name


def test_tracer_wraps_every_alias_and_restores_them():
    original = spectral.eig_symmetric
    holders = (spectral, stability, diagnostics, experiments, cli)
    assert all(m.eig_symmetric is original for m in holders)
    runner = experiments.RUNNERS["exp2"]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(m.eig_symmetric is not original for m in holders)
        assert experiments.RUNNERS["exp2"] is not runner
        experiments.RUNNERS["exp2"]()
    finally:
        tracer.uninstall()
    assert all(m.eig_symmetric is original for m in holders)
    assert experiments.RUNNERS["exp2"] is runner
    assert [s["func"] for s in tracer.spans if s["parent"] is None] == ["run_exp2"]


@pytest.mark.parametrize("coupled, dense", [(False, 1), (True, 3)])
def test_sweep_row_eig_counts(coupled, dense):
    tracer = Tracer()
    tracer.install()
    try:
        experiments.sweep_graph(graph.build_path(12), 4, 5, [0.3], coupled=coupled)
    finally:
        tracer.uninstall()
    eig = [s for s in tracer.spans if s["func"] == "eig_symmetric"]
    assert len(eig) == 3
    assert sum(s["dense"] for s in eig) == dense


def test_param_scan_op_eig_counts():
    w = workloads.ParamScan()
    w.SIZES = (8,)
    w.setup(0, "unused")
    tracer = Tracer()
    tracer.install()
    try:
        for op in w.cycle():
            w.run(op)
    finally:
        tracer.uninstall()
    eig = [s for s in tracer.spans if s["func"] == "eig_symmetric"]
    assert len(eig) == 3 * 2 and not any(s["dense"] for s in eig)


def test_perturbed_h_star_fails_the_sweep_check():
    w = workloads.SweepLarge()
    w.setup(0, "unused")
    op = {"n": 32, "coupled": False, "u": 7, "eps": 0.2}
    rec = w.run(op)
    assert w.check(op, rec) is None
    bad = dataclasses.replace(rec, h_star=rec.h_star * (1 + 1e-8))
    assert "fixed-point" in w.check(op, bad)
    bad = dataclasses.replace(rec, lambda1=rec.lambda1 + 1e-8)
    assert "lambda1" in w.check(op, bad)


def test_corrupted_param_scan_output_is_counted_as_failed():
    class Corrupted(workloads.ParamScan):
        SIZES = (8, 16)

        def run(self, op):
            rep, srep, drec = super().run(op)
            return rep, srep, dataclasses.replace(drec, von_neumann_entropy=drec.von_neumann_entropy + 1e-9)

    w = Corrupted()
    w.setup(0, "unused")
    with contention.Monitor() as monitor:
        records, _, _ = run.run_loop(w, 0.0, False, monitor)
    assert len(records) == 4 and all("von Neumann" in r["error"] for r in records)


def test_flipped_reproduce_verdict_fails_the_cli_check(tmp_path):
    lines = [f"{k}: {v}" for k, v in workloads.REPRODUCE_EXPECTED.items()]
    w = workloads.CliMix()
    op = {"kind": "reproduce", "argv": ["reproduce", "all"]}
    flipped = "\n".join(lines).replace("exp5: FAIL", "exp5: PASS")
    assert "verdicts" in w.check(op, {"code": 2, "stdout": flipped, "dir": str(tmp_path)})
    assert "exit 0" in w.check(op, {"code": 0, "stdout": "\n".join(lines), "dir": str(tmp_path)})
    # Right verdicts but no artifacts on disk.
    assert "missing" in w.check(op, {"code": 2, "stdout": "\n".join(lines), "dir": str(tmp_path)})


def test_unconverged_sweep_records_fail_the_cli_check(tmp_path):
    w = workloads.CliMix()
    op = {"kind": "sweep", "target": "path", "coupled": False, "n_eps": 2}
    (tmp_path / "sweep_path_records.json").write_text(json.dumps([{"converged": True}, {"converged": False}]))
    (tmp_path / "sweep_path_plotdata.csv").write_text("h\n1\n2\n")
    assert "converged" in w.check(op, {"code": 0, "stdout": "", "stderr": "", "dir": str(tmp_path)})


def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(100)]
    value, pct = run.tail(xs)
    assert value == 89.0 and sum(x > value for x in xs) == 10 and pct == 90.0


def test_monitor_scales_wall_time_by_the_sampled_loop_time():
    with contention.Monitor() as monitor:
        t0 = time.perf_counter()
        time.sleep(0.2)
        t1 = time.perf_counter()
    assert len(monitor.samples) >= 5
    assert monitor.scale(t0, t1) > 0
    monitor.samples = [(1.0, 2.0), (1.02, 2.0), (1.0205, 2.0), (1.04, 9.0)]
    assert monitor.scale(1.0, 1.02) == pytest.approx(contention.REF_LOOP_S / 2.0)  # 5.0 is outside


def test_setup_fails_without_the_source_tree(tmp_path):
    """In a directory with only the benchmark files the command exits non-zero and prints no result."""
    shutil.copytree(os.path.join(workloads.ROOT, "bench"), tmp_path / "bench")
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "param-scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and "correct" not in proc.stdout
