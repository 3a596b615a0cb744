"""Seeded inputs, operations and output checks for the benchmark workloads.

Each workload is a closed loop with one client. Inputs come in cycles: a
cycle holds a fixed mix of operation kinds, and the seed only draws the
numeric parameters and shuffles the order, so every cycle has the same mix.
Checks run outside the timed region and must hold for any correct
eigensolver; a check returns an error string, or None when the output is
right.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")

# Any one child process may run this long before it is killed and its op fails.
CHILD_TIMEOUT_S = 60.0


def edges_laplacian(n: int, edges) -> np.ndarray:
    """Weighted Laplacian from (u, v, w) edges, built without kernelfield."""
    lap = np.zeros((n, n))
    for u, v, w in edges:
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    return lap


def residual_ok(residual: float, h: np.ndarray) -> bool:
    """The field residual is at most 1e-10, or within what the solver's stop rule allows.

    solve_fixed_point stops on an absolute step below tol=1e-12, so at h*
    |F(h) - h| < 1e-12 and the log-space residual can reach about 1e-12 / min h,
    above 1e-10 once some h_l is below 0.02.
    """
    return residual <= max(1e-10, 2e-12 / float(np.min(h)))


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


# --------------------------------------------------------------------------
# sweep-large: one edge-weakening row on a path graph per op.

class SweepLarge:
    """Dense eigendecompositions dominate: the Laplacian basis on every row
    and two Hessian eigendecompositions on every coupled row. Path graphs
    have simple spectra, so the checked outputs do not depend on the solver.
    """

    name = "sweep-large"
    strict_misses = 0
    # Half plain, half coupled. The median op falls among the two N=64 plain
    # rows, and the tail (ten samples beyond it) among the three N=64 coupled
    # rows once four cycles have run, not between kinds whose costs differ.
    MIX = ((32, False), (32, True), (48, False), (64, False), (64, False),
           (64, True), (64, True), (64, True))
    ETA = 0.05

    def setup(self, seed: int, workdir: str):
        from kernelfield import experiments, graph
        self.experiments, self.graph = experiments, graph
        self.rng = random.Random(seed)
        self.run({"n": 8, "coupled": True, "u": 3, "eps": 0.5})  # warm-up, untimed

    def cycle(self) -> list[dict]:
        ops = []
        for n, coupled in self.MIX:
            ops.append({"kind": f"N{n}-{'coupled' if coupled else 'plain'}", "n": n,
                        "coupled": coupled, "u": self.rng.randrange(n - 1),
                        "eps": log_uniform(self.rng, 0.01, 1.0)})
        self.rng.shuffle(ops)
        return ops

    def run(self, op: dict):
        base = self.graph.build_path(op["n"])
        return self.experiments.sweep_graph(base, op["u"], op["u"] + 1, [op["eps"]],
                                            coupled=op["coupled"], eta=self.ETA)[0]

    def check(self, op: dict, rec) -> str | None:
        if not rec.converged:
            return "row did not converge"
        n, u = op["n"], op["u"]
        edges = [(i, i + 1, op["eps"] if i == u else 1.0) for i in range(n - 1)]
        lam = np.linalg.eigvalsh(edges_laplacian(n, edges))
        if not abs(rec.lambda1 - lam[1]) <= 1e-9:
            return f"lambda1 {rec.lambda1!r} != eigvalsh {lam[1]!r}"
        if not op["coupled"]:
            # sweep_graph's source: sigma2=1, mu2=2, eigenvalue weights, h0=1.
            h = np.asarray(rec.h_star)
            fp = np.exp(-1.0 - 2.0 * lam / (2.0 * (1.0 + h)))
            err = float(np.max(np.abs(h - fp)))
            if not err <= 1e-10:
                return f"h* misses its scalar fixed-point equation by {err:.3g}"
        return None


# --------------------------------------------------------------------------
# param-scan: solve + stability + diagnostics on a precomputed basis.

class ParamScan:
    """The basis is computed once in set-up and reused, so the eigensolver
    only sees diagonal matrices and the field, stability and diagnostics
    Python code is the per-op cost; the N=128 basis is in set-up time.
    """

    name = "param-scan"
    SIZES = (8, 16, 32, 64, 128)
    RULES = ("uniform", "eigenvalue")

    def setup(self, seed: int, workdir: str):
        import kernelfield as kf
        self.kf = kf
        self.rng = random.Random(seed)
        self.bases = {n: kf.eig_symmetric(kf.laplacian(kf.build_path(n))) for n in self.SIZES}
        self.strict_misses = 0
        self.run({"n": 8, "rule": "eigenvalue", "sigma2": 1.0, "mu2": 2.0})  # warm-up, untimed

    def cycle(self) -> list[dict]:
        ops = []
        for n in self.SIZES:
            for rule in self.RULES:
                ops.append({"kind": f"N{n}-{rule}", "n": n, "rule": rule,
                            "sigma2": log_uniform(self.rng, 0.1, 10.0), "mu2": self.rng.uniform(0.0, 8.0)})
        self.rng.shuffle(ops)
        return ops

    def run(self, op: dict):
        kf, basis = self.kf, self.bases[op["n"]]
        spec = kf.SourceSpec(sigma2=op["sigma2"], mu2=op["mu2"], weight_rule=kf.WeightRule(op["rule"]))
        rep = kf.solve_fixed_point(spec, basis, np.ones(basis.n))
        srep = kf.stability_report(spec, basis, rep.h_star)
        drec = kf.diagnostics_record(rep.h_star.h, rep.h_star.h0)
        return rep, srep, drec

    def check(self, op: dict, out) -> str | None:
        rep, srep, drec = out
        if not rep.converged:
            return "fixed point did not converge"
        h = np.asarray(rep.h_star.h)
        w = self.bases[op["n"]].lambdas if op["rule"] == "eigenvalue" else np.ones(len(h))
        if not residual_ok(rep.residual_inf, h):
            return f"residual_inf {rep.residual_inf:.3g} at min h* {h.min():.3g}"
        self.strict_misses += rep.residual_inf > 1e-10
        margins = 1.0 / h - op["mu2"] * w / (2.0 * (op["sigma2"] + h) ** 2)
        want = float(np.min(margins))
        if not abs(srep.hessian_gap - want) <= 1e-12 * max(1.0, abs(want)):
            return f"hessian_gap {srep.hessian_gap!r} != min margin {want!r}"
        p = h ** -2.0
        p = np.sort(p / p.sum())
        exact = float(-(p * np.log(p)).sum())
        if not abs(drec.von_neumann_entropy - exact) <= 1e-12:
            # eig_symmetric clamps a bottom eigenvalue below 1e-10 to zero,
            # which drops the smallest normalised Fisher weight.
            clamped = float(-(p[1:] * np.log(p[1:])).sum())
            if not (p[0] < 1e-10 and abs(drec.von_neumann_entropy - clamped) <= 1e-12):
                return f"von Neumann entropy {drec.von_neumann_entropy!r} != {exact!r}"
            self.strict_misses += 1
        return None


# --------------------------------------------------------------------------
# cli-mix: one `python -m kernelfield.cli` subprocess per op.

REPRODUCE_EXPECTED = {"exp1": "PASS", "exp2": "PASS", "exp3": "PASS", "exp4": "PASS",
                      "exp5": "FAIL", "exp6": "PASS", "exp6b": "PASS", "exp7": "PASS"}
SWEEP_TARGETS = ("path", "river", "trunk")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class CliMix:
    """Every op pays interpreter start-up, import and artifact writes, so
    start-up, CLI and experiments changes show here; `sweep --graph trunk
    --coupled` runs coupled stability on a repeated spectrum.
    """

    name = "cli-mix"

    def setup(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.traced = False
        self.serial = 0
        self.max_rss_kb = 0
        self.strict_misses = 0
        os.makedirs(workdir, exist_ok=True)
        out = self.run({"kind": "graph", "argv": ["graph", "path:4"], "files": {}})  # warm-up
        if out["code"] != 0:
            raise RuntimeError(f"warm-up `kernelfield graph path:4` exited {out['code']}: {out['stderr']}")
        self.max_rss_kb = 0

    def cycle(self) -> list[dict]:
        rng = self.rng
        ops = [{"kind": "reproduce", "argv": ["reproduce", "all"]}]
        for target in SWEEP_TARGETS:
            for coupled in (False, True):
                eps = sorted((log_uniform(rng, 0.01, 1.0) for _ in range(5)), reverse=True)
                argv = ["sweep", "--graph", target, "--eps-values", ",".join(f"{e:.6g}" for e in eps)]
                ops.append({"kind": f"sweep-{target}" + "-coupled" * coupled, "target": target,
                            "coupled": coupled, "n_eps": 5, "argv": argv + ["--coupled"] * coupled})
        n = rng.randint(10, 16)
        u = rng.randrange(n - 1)
        spec = f"path:{n}:weaken={u},{u + 1},{log_uniform(rng, 0.01, 1.0):.6g}"
        source = ["--sigma2", f"{log_uniform(rng, 0.1, 10.0):.6g}", "--mu2", f"{rng.uniform(0, 8):.6g}",
                  "--weights", rng.choice(("uniform", "eigenvalue"))]
        ops.append({"kind": "solve", "argv": ["solve", "--graph", spec] + source})
        ops.append({"kind": "solve-eta", "argv": ["solve", "--graph", spec] + source
                    + ["--eta", f"{rng.uniform(0.01, 0.1):.6g}"]})
        # A random spanning tree with random weights, read back through from_json.
        n = rng.randint(10, 14)
        edges = [[v, rng.randrange(v), round(rng.uniform(0.5, 2.0), 6)] for v in range(1, n)]
        config = {"graph": "graph.json", "sigma2": log_uniform(rng, 0.1, 10.0),
                  "mu2": rng.uniform(0, 8), "weights": rng.choice(("uniform", "eigenvalue"))}
        ops.append({"kind": "solve-config", "argv": ["solve", "--config", "config.json"],
                    "files": {"graph.json": {"n": n, "edges": edges}, "config.json": config}})
        stem = rng.randint(5, 8)
        tribs = [x for _ in range(2) for x in (rng.randrange(stem), rng.randint(1, 3))]
        ops.append({"kind": "graph", "argv": ["graph", "river:" + ",".join(map(str, [stem] + tribs))]})
        rng.shuffle(ops)
        return ops

    def run(self, op: dict) -> dict:
        """Write the op's input files (untimed), then time one CLI child process."""
        self.serial += 1
        out_dir = os.path.join(self.workdir, f"op{self.serial}")
        os.makedirs(out_dir)
        for fname, obj in op.get("files", {}).items():
            with open(os.path.join(out_dir, fname), "w") as fh:
                json.dump(obj, fh)
        if self.traced:
            cmd = [sys.executable, os.path.join(BENCH, "cli_child.py"), "spans.json"]
        else:
            cmd = [sys.executable, "-m", "kernelfield.cli"]
        cmd += op["argv"] + ["--out", "."]
        with open(os.path.join(out_dir, "stdout.txt"), "w") as so, \
                open(os.path.join(out_dir, "stderr.txt"), "w") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=out_dir, env=child_env(), stdout=so, stderr=se)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        with open(os.path.join(out_dir, "stdout.txt")) as fh:
            stdout = fh.read()
        with open(os.path.join(out_dir, "stderr.txt")) as fh:
            stderr = fh.read()
        return {"code": proc.returncode, "stdout": stdout, "stderr": stderr, "dir": out_dir,
                "elapsed": elapsed}

    def artifact_bytes(self, op: dict, out: dict) -> int:
        """Bytes the program wrote into the op directory, counted from outside."""
        skip = {"stdout.txt", "stderr.txt", "spans.json", *op.get("files", {})}
        return sum(os.path.getsize(os.path.join(out["dir"], f))
                   for f in os.listdir(out["dir"]) if f not in skip)

    def cleanup(self, out: dict):
        shutil.rmtree(out["dir"], ignore_errors=True)

    def check(self, op: dict, out: dict) -> str | None:
        try:
            return getattr(self, "_check_" + op["kind"].split("-")[0])(op, out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{op['kind']}: artifact missing or malformed: {exc!r}"

    @staticmethod
    def _load(out: dict, name: str):
        with open(os.path.join(out["dir"], name)) as fh:
            return json.load(fh)

    @staticmethod
    def _csv_rows(out: dict, name: str) -> list[list[str]]:
        with open(os.path.join(out["dir"], name)) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        if not rows:
            raise ValueError(f"{name} is empty")
        return rows

    def _check_reproduce(self, op, out):
        verdicts = dict(line.split(": ", 1) for line in out["stdout"].splitlines() if ": " in line)
        if out["code"] != 2 or verdicts != REPRODUCE_EXPECTED:
            return f"reproduce all: exit {out['code']}, verdicts {verdicts}"
        for exp, verdict in REPRODUCE_EXPECTED.items():
            if self._load(out, f"{exp}_results.json")["passed"] != (verdict == "PASS"):
                return f"{exp}_results.json disagrees with the printed verdict"
            self._csv_rows(out, f"{exp}_table.csv")
        for prefix in ("sweep", "sweep_coupled"):
            if not all(r["converged"] for r in self._load(out, f"{prefix}_records.json")):
                return f"{prefix}_records.json has unconverged rows"
            self._csv_rows(out, f"{prefix}_plotdata.csv")
        return None

    def _check_sweep(self, op, out):
        prefix = f"sweep_{op['target']}" + ("_coupled" if op["coupled"] else "")
        if out["code"] != 0:
            return f"{prefix}: exit {out['code']}: {out['stderr'][-200:]}"
        records = self._load(out, f"{prefix}_records.json")
        if len(records) != op["n_eps"] or not all(r["converged"] for r in records):
            return f"{prefix}_records.json: {len(records)} rows, {[r['converged'] for r in records]} converged"
        if len(self._csv_rows(out, f"{prefix}_plotdata.csv")) != op["n_eps"] + 1:
            return f"{prefix}_plotdata.csv has the wrong row count"
        return None

    def _check_solve(self, op, out):
        if out["code"] != 0:
            return f"solve: exit {out['code']}: {out['stderr'][-200:]}"
        fp = self._load(out, "fixed_point.json")
        if not fp["converged"] or not residual_ok(fp["residual_inf"], np.array(fp["h_star"])):
            return f"fixed_point.json: converged={fp['converged']} residual={fp['residual_inf']}"
        self.strict_misses += fp["residual_inf"] > 1e-10
        self._load(out, "stability.json")["hessian_gap"]
        self._load(out, "diagnostics.json")["von_neumann_entropy"]
        return None

    def _check_graph(self, op, out):
        if out["code"] != 0:
            return f"graph: exit {out['code']}: {out['stderr'][-200:]}"
        g = self._load(out, "graph.json")
        rows = self._csv_rows(out, "eigenbasis.csv")
        lam = np.array([float(r[1]) for r in rows])
        want = np.linalg.eigvalsh(edges_laplacian(g["n"], g["edges"]))
        if len(rows) != g["n"] or not np.max(np.abs(lam - want)) <= 1e-9:
            return "eigenbasis.csv eigenvalues disagree with eigvalsh"
        return None


WORKLOADS = {w.name: w for w in (SweepLarge, ParamScan, CliMix)}
