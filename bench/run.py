#!/usr/bin/env python3
"""kernelfield benchmark: three seeded closed-loop workloads with one client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sweep-large,param-scan,cli-mix} \
        --seed N --seconds S --trace {0,1}

The program under test is the checkout's own src/. With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced cycles and reports the per-layer metrics. Set-up time is the median
of several fresh processes that each start, import, build the inputs and
run one warm-up op. Op and set-up times are scaled to an idle core by the
contention monitor (see contention.py). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it is a report with the environment and the details behind the
metrics. Reports, per-op records and spans are written to .bench_run/.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads, here and in every child process.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from contention import REF_LOOP_S, Monitor  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, CliMix  # noqa: E402

RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUP_PROBES = 3  # fresh processes timed per run for setup_s
TAIL_BEYOND = 10


def import_kernelfield():
    """Import kernelfield from the checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import kernelfield
    except ImportError as exc:
        sys.exit(f"cannot import kernelfield from {SRC}: {exc}")
    if not os.path.abspath(kernelfield.__file__).startswith(SRC + os.sep):
        sys.exit(f"kernelfield imported from {kernelfield.__file__}, not from {SRC}")
    return kernelfield


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' outside git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    kf = sys.modules["kernelfield"]
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernelfield_file": os.path.relpath(kf.__file__, ROOT),
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def setup_probe(workload: str, seed: int):
    """Child mode: import, set up and warm up, then report readiness."""
    import_kernelfield()
    workdir = os.path.join(RUN_DIR, f"probe-{os.getpid()}")
    try:
        WORKLOADS[workload]().setup(seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ready", flush=True)


def time_setup(workload: str, seed: int, monitor: Monitor) -> tuple[float, float]:
    """(wall, idle-core-scaled) seconds from spawning a fresh process to its ready line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    monitor.sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    monitor.sample()
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        sys.exit(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed, elapsed * monitor.scale(t0, t0 + elapsed)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    idx = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def ops_per_s(records: list[dict], key: str) -> float:
    """Ops that passed their checks per second of op time (key: "scaled" or "latency")."""
    return sum(r["error"] is None for r in records) / sum(r[key] for r in records)


def merge_spans(spans: list, new: list[dict], op_id=None):
    """Append spans whose ids start at 0, shifting ids and parents past the existing ones."""
    base = len(spans)
    for s in new:
        s["id"] += base
        if s["parent"] is not None:
            s["parent"] += base
        if op_id is not None:
            s["op"] = op_id
    spans.extend(new)


def run_loop(w, seconds: float, trace: bool, monitor: Monitor):
    """Run whole cycles until the time is up, at least one (two when tracing, where
    odd cycles are traced).

    Returns (records, spans, counts): one record per attempted op, all
    spans, and the exact counts of the first traced cycle. Only op execution
    is timed; input files, checks and artifact counting happen outside it.
    """
    in_process = not isinstance(w, CliMix)
    records, spans = [], []
    counts = {"spans": [], "ops": 0, "bytes": 0, "import_s": []}
    deadline = time.perf_counter() + seconds
    n_cycles = 0
    while n_cycles < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and n_cycles % 2 == 1
        counted = trace and n_cycles == 1
        cycle_start = len(spans)
        tracer = Tracer() if traced and in_process else None
        if not in_process:
            w.traced = traced
        ops = w.cycle()
        for op in ops:
            rec = {"cycle": n_cycles, "kind": op["kind"], "traced": traced, "latency": None,
                   "scaled": None, "error": None}
            records.append(rec)
            out = None
            try:
                if tracer is not None:
                    tracer.op_id = len(records) - 1
                    tracer.install()
                monitor.sample()
                t0 = time.perf_counter()
                try:
                    out = w.run(op)
                finally:
                    # A CLI op times its child process alone, without writing inputs or reading outputs.
                    rec["latency"] = out["elapsed"] if isinstance(out, dict) else time.perf_counter() - t0
                    monitor.sample()
                    rec["scaled"] = rec["latency"] * monitor.scale(t0, t0 + rec["latency"])
                    if tracer is not None:
                        tracer.uninstall()
                rec["error"] = w.check(op, out)
                if traced and not in_process:
                    with open(os.path.join(out["dir"], "spans.json")) as fh:
                        child = json.load(fh)
                    merge_spans(spans, child["spans"], op_id=len(records) - 1)
                    counts["import_s"].append(child["import_s"])
                    if counted:
                        counts["bytes"] += w.artifact_bytes(op, out)
            except Exception as exc:  # an op that raises is a failed op; the loop goes on
                rec["error"] = f"{type(exc).__name__}: {exc}"
            if out is not None and not in_process:
                w.cleanup(out)
        if tracer is not None:
            merge_spans(spans, tracer.spans)
        if counted:
            counts["spans"] = spans[cycle_start:]
            counts["ops"] = len(ops)
        n_cycles += 1
    return records, spans, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_kernelfield()
    os.makedirs(RUN_DIR, exist_ok=True)
    # One core for the harness and its children, so the monitor samples the
    # core that runs the operations.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    w = WORKLOADS[args.workload]()
    workdir = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    with Monitor() as monitor:
        setup = [time_setup(args.workload, args.seed, monitor) for _ in range(SETUP_PROBES)]
        try:
            w.setup(args.seed, workdir)
            records, spans, counts = run_loop(w, args.seconds, bool(args.trace), monitor)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r["error"] is not None]
    ok = [r for r in records if r["error"] is None]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, 1 client", "env": environment(),
        "attempted": len(records), "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "failures": [r["error"] for r in failed[:5]],
        "strict_check_misses": w.strict_misses,
        "setup_wall_s": [wall for wall, _ in setup],
        "median_scale": statistics.median(REF_LOOP_S / loop for _, loop in monitor.samples),
    }
    if not args.trace:
        scaled = [r["scaled"] for r in ok]
        tail_value, tail_pct = tail(scaled) if ok else (float("nan"), float("nan"))
        rss_kb = w.max_rss_kb if isinstance(w, CliMix) else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "ops_per_s": (ops_per_s(records, "scaled"), "1/s"),
            "op_p50_ms": (1000.0 * statistics.median(scaled) if ok else float("nan"), "ms"),
            "op_tail_ms": (1000.0 * tail_value, "ms"),
            "ok_frac": (len(ok) / len(records), "frac"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        kinds: dict[str, list[float]] = {}
        for rec in ok:
            kinds.setdefault(rec["kind"], []).append(1000.0 * rec["scaled"])
        report.update(
            tail_percentile=tail_pct, tail_samples=len(ok), tail_samples_beyond=TAIL_BEYOND,
            cycles=records[-1]["cycle"] + 1,
            wall={"ops_per_s": ops_per_s(records, "latency"),
                  "op_p50_ms": 1000.0 * statistics.median(r["latency"] for r in ok) if ok else None,
                  "op_tail_ms": 1000.0 * tail([r["latency"] for r in ok])[0] if ok else None,
                  "setup_s": statistics.median(wall for wall, _ in setup)},
            kind_p50_ms={k: statistics.median(v) for k, v in sorted(kinds.items())})
    else:
        traced = [r for r in records if r["traced"]]
        untraced = [r for r in records if not r["traced"]]
        layers = layer_metrics(spans, len(traced), counts["spans"], counts["ops"])
        layers["cli.import_ms"] = 1000.0 * sum(counts["import_s"]) / len(traced)
        layers["experiments.bytes_written"] = counts["bytes"] / counts["ops"]
        layers["trace.overhead_frac"] = ops_per_s(traced, "scaled") / ops_per_s(untraced, "scaled") - 1.0
        units = {"spectral.eig_calls": "count", "spectral.eig_dense_calls": "count",
                 "field.iterations": "count", "experiments.bytes_written": "bytes",
                 "trace.overhead_frac": "frac"}
        metrics = {k: (v, units.get(k, "ms")) for k, v in layers.items()}
        report.update(traced_ops=len(traced), untraced_ops=len(untraced), count_ops=counts["ops"],
                      traced_op_wall_ms=1000.0 * statistics.fmean(r["latency"] for r in traced))
        with open(os.path.join(RUN_DIR, f"{args.workload}-spans.jsonl"), "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")

    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(RUN_DIR, f"{args.workload}-trace{args.trace}-report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    with open(os.path.join(RUN_DIR, f"{args.workload}-trace{args.trace}-ops.jsonl"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed),
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
