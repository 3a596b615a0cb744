"""Deterministic reproduction runners for the numbered experiments and the
edge-weakening sweep driver.

run_sweep is the one sweep driver: the CLI `sweep` command, exp6, exp6b and
exp7 all call it. Every runner is pure computation plus optional artifact
files; there is no randomness anywhere, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import field, graph, stability
from .diagnostics import spectral_entropy
from .errors import DomainError
from .field import SourceSpec, WeightRule
from .spectral import SpectralKernel, eig_symmetric, heat_kernel_weights

# Edge-weakening grid used throughout the sweeps.
EPS_GRID = (1.000, 0.644, 0.287, 0.109, 0.020)

# Reference sweep values: (eps, lambda1, entropy, fiedler_gap).
REFERENCE_SWEEP = (
    (1.000, 0.1522, 1.596, 2.962),
    (0.644, 0.1355, 1.627, 2.933),
    (0.287, 0.0949, 1.658, 2.865),
    (0.109, 0.0481, 1.668, 2.790),
    (0.020, 0.0103, 1.670, 2.733),
)

HEAT_TAUS = (0.1, 0.5, 1.0, 2.0, 5.0)

# SweepRecord scalars in table order: the sweep plotdata and the exp6/exp6b tables.
_SWEEP_COLUMNS = ("eps", "lambda1", "entropy", "delta_fiedler", "coupling_entropy")


@dataclass(frozen=True)
class SweepRecord:
    """One row of an edge-weakening sweep."""

    eps: float
    lambda1: float
    h_star: np.ndarray
    entropy: float
    delta_fiedler: float
    coupling_entropy: float
    converged: bool


@dataclass
class ExperimentResult:
    id: str
    passed: bool
    metrics: dict


def _write_atomic(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], rows: list[list], fmt: str):
    """Header line, then one line per row: floats in `fmt`, anything else by str."""
    lines = [",".join(header)]
    lines += [",".join(format(x, fmt) if isinstance(x, float) else str(x) for x in row)
              for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def _result(exp_id: str, passed: bool, metrics: dict, out_dir: str | None,
            table_header: list[str], table_rows: list[list]) -> ExperimentResult:
    """The runner's result, also written to <id>_results.json and <id>_table.csv if out_dir."""
    result = ExperimentResult(exp_id, passed, metrics)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_atomic(os.path.join(out_dir, f"{exp_id}_results.json"),
                      json.dumps(asdict(result), indent=2))
        _write_csv(os.path.join(out_dir, f"{exp_id}_table.csv"), table_header, table_rows, ".6g")
    return result


def _p8_setup():
    basis = eig_symmetric(graph.laplacian(graph.build_path(8)))
    return basis, SourceSpec(sigma2=1.0, mu2=2.0)


def run_exp1(out_dir: str | None = None) -> ExperimentResult:
    """Gradient check: analytic geometric response vs central finite differences."""
    h0 = np.ones(8)  # P8's modes; no eigenbasis is needed at h = h0
    kernel = SpectralKernel(h0.copy(), h0)
    analytic = field.geometric_R(kernel)
    step = 1e-6
    fd = np.empty(len(h0))
    for l in range(len(h0)):
        hp, hm = h0.copy(), h0.copy()
        hp[l] += step
        hm[l] -= step
        f = lambda h: float(-(h[l]) * np.log(h[l] / h0[l]))
        fd[l] = (f(hp) - f(hm)) / (2 * step)
    err = float(np.max(np.abs(analytic - fd)))
    return _result("exp1", err <= 1e-8,
                   {"max_abs_error": err, "fd_step": step, "R_values": list(analytic)},
                   out_dir, ["mode", "analytic", "finite_difference"],
                   [[l, analytic[l], fd[l]] for l in range(len(h0))])


def run_exp2(out_dir: str | None = None) -> ExperimentResult:
    """Fixed-point convergence with the uniform-weight source."""
    basis, spec = _p8_setup()
    report = field.solve_fixed_point(spec, basis, np.ones(basis.n))
    h = report.h_star.h
    passed = (
        report.converged
        and bool(np.all(np.abs(h - 0.15470) <= 1e-3))
        and report.residual_inf <= 1e-10
        and 0.09 <= report.contraction_ratio <= 0.15
        and report.iterations <= 30
    )
    return _result("exp2", passed,
                   {"h_star": list(h), "iterations": report.iterations,
                    "residual_inf": report.residual_inf,
                    "contraction_ratio": report.contraction_ratio},
                   out_dir, ["mode", "h_star"], [[l, float(h[l])] for l in range(basis.n)])


def run_exp3(out_dir: str | None = None) -> ExperimentResult:
    """Vacuum solution ratio and geodesic log-linearity."""
    basis, _ = _p8_setup()
    h0 = np.ones(basis.n)
    vac = field.vacuum_solution(h0)
    vac_err = float(np.max(np.abs(vac.h / h0 - np.exp(-1.0))))

    a = np.zeros(basis.n)
    b = -basis.lambdas
    path = [field.geodesic(a, b, t) for t in (0.0, 1.0, 2.0, 3.0)]
    ratios = np.array([path[i + 1] / path[i] for i in range(3)])
    ratio_dev = float(np.max(np.abs(ratios - ratios[0])))
    rate_err = float(np.max(np.abs(ratios[0] - np.exp(b))))

    passed = vac_err < 1e-6 and ratio_dev <= 1e-12 and rate_err <= 1e-12
    return _result("exp3", passed,
                   {"vacuum_ratio_error": vac_err, "geodesic_ratio_deviation": ratio_dev,
                    "geodesic_rate_error": rate_err},
                   out_dir, ["mode", "t0", "t1", "t2"],
                   [[l, float(path[0][l]), float(path[1][l]), float(path[2][l])]
                    for l in range(basis.n)])


def run_exp4(out_dir: str | None = None) -> ExperimentResult:
    """Hessian structure and stability margins at the uniform-source fixed point."""
    basis, spec = _p8_setup()
    report = field.solve_fixed_point(spec, basis, np.ones(basis.n))
    srep = stability.stability_report(spec, basis, report.h_star)
    off = srep.hessian - np.diag(np.diag(srep.hessian))
    off_max = float(np.max(np.abs(off)))
    eig_err = float(np.max(np.abs(srep.eigenvalues - (-5.714))))
    margin_err = float(np.max(np.abs(srep.margins - 5.714)))
    scoup_err = abs(srep.coupling_entropy - np.log(7))
    passed = (
        off_max <= 1e-12
        and eig_err <= 0.01
        and margin_err <= 0.01
        and abs(srep.hessian_gap - 5.71) <= 0.01
        and scoup_err <= 1e-9
        and srep.stable
    )
    return _result("exp4", passed,
                   {"hessian_offdiag_max": off_max, "eigenvalues": list(srep.eigenvalues),
                    "margins": list(srep.margins), "hessian_gap": srep.hessian_gap,
                    "coupling_entropy": srep.coupling_entropy, "stable": srep.stable},
                   out_dir, ["mode", "hessian_eigenvalue", "margin"],
                   [[l, float(srep.eigenvalues[l]), float(srep.margins[l])]
                    for l in range(basis.n)])


def run_exp5(out_dir: str | None = None) -> ExperimentResult:
    """Heat-kernel field-equation residuals over increasing diffusion time."""
    basis, spec = _p8_setup()
    residuals = [field.residual_inf(spec, basis, heat_kernel_weights(basis, tau))
                 for tau in HEAT_TAUS]
    monotone = all(b > a for a, b in zip(residuals, residuals[1:]))
    passed = (monotone
              and abs(residuals[0] - 1.50) <= 0.01
              and abs(residuals[-1] - 17.24) <= 0.05)
    return _result("exp5", passed,
                   {"taus": list(HEAT_TAUS), "residuals": residuals,
                    "strictly_increasing": monotone},
                   out_dir, ["tau", "residual_inf"],
                   [[tau, r] for tau, r in zip(HEAT_TAUS, residuals)])


# Builtin sweep targets with their stressed edges: the 8-node path at edge
# (2, 3), the river stem edge just past the first tributary, and the
# mid-trunk edge.
SWEEP_TARGETS = {
    "path": (lambda: graph.build_path(8), (2, 3)),
    "river": (lambda: graph.build_river_channel(6, [(1, 2), (3, 2)]), (1, 2)),
    "trunk": (lambda: graph.build_trunk_roots(4, 3, 3), (1, 2)),
}

# Exp. 7 synthetic topologies.
EXP7_TOPOLOGIES = {name: SWEEP_TARGETS[name] for name in ("river", "trunk")}


def sweep_graph(base: graph.Graph, u: int, v: int, eps_values,
                coupled: bool = False, eta: float = 0.05) -> list[SweepRecord]:
    """Weaken edge (u, v) over eps_values and re-solve the field equation each time.

    The source has sigma2=1, mu2=2 and eigenvalue mode weights. The coupling
    matrix, when requested, is rebuilt per eps from the perturbed adjacency.
    Rows that fail to converge are recorded with converged=False, not raised.
    """
    records = []
    for eps in eps_values:
        g = graph.weaken_edge(base, u, v, eps)
        basis = eig_symmetric(graph.laplacian(g))
        coupling = field.build_coupling(basis, g) if coupled else None
        spec = SourceSpec(sigma2=1.0, mu2=2.0, weight_rule=WeightRule.EIGENVALUE,
                          eta=eta if coupled else 0.0, coupling=coupling)
        report = field.solve_fixed_point(spec, basis, np.ones(basis.n))
        srep = stability.stability_report(spec, basis, report.h_star)
        records.append(SweepRecord(
            eps=float(eps),
            lambda1=float(basis.lambdas[1]),
            h_star=report.h_star.h,
            entropy=spectral_entropy(report.h_star.h),
            delta_fiedler=srep.fiedler_gap,
            coupling_entropy=srep.coupling_entropy,
            converged=report.converged,
        ))
    return records


def run_sweep(target: str = "path", eps_values=EPS_GRID, coupled: bool = False,
              eta: float = 0.05, out_dir: str | None = None,
              prefix: str = "sweep") -> list[SweepRecord]:
    """Edge-weakening sweep on a builtin target, optionally written to out_dir.

    With out_dir set, writes <prefix>[_coupled]_plotdata.csv (the columns and
    their min-max normalizations) and <prefix>[_coupled]_records.json.

    Raises:
        DomainError: target is not one of SWEEP_TARGETS.
    """
    if target not in SWEEP_TARGETS:
        raise DomainError(f"sweep needs a builtin graph ({', '.join(SWEEP_TARGETS)}), "
                          f"got {target!r}")
    builder, (u, v) = SWEEP_TARGETS[target]
    records = sweep_graph(builder(), u, v, eps_values, coupled=coupled, eta=eta)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, prefix + ("_coupled" if coupled else ""))
        table = [_sweep_row(r) for r in records]
        norms = zip(*(_normalize(col) for col in list(zip(*table))[1:]))
        _write_csv(stem + "_plotdata.csv",
                   [*_SWEEP_COLUMNS, *(f"{c}_norm" for c in _SWEEP_COLUMNS[1:])],
                   [row + list(norm) for row, norm in zip(table, norms)], ".17g")
        _write_atomic(stem + "_records.json", json.dumps(
            [dict(asdict(r), h_star=list(r.h_star)) for r in records], indent=2))
    return records


def _sweep_row(rec: SweepRecord) -> list:
    return [getattr(rec, c) for c in _SWEEP_COLUMNS]


def _normalize(xs) -> list[float]:
    lo, span = min(xs), max(xs) - min(xs)
    return [(x - lo) / span if span else 0.0 for x in xs]


def run_exp6(out_dir: str | None = None) -> ExperimentResult:
    """Reference-sweep reproduction with the eigenvalue-aware source."""
    records = run_sweep(out_dir=out_dir)
    ok = True
    for rec, (_, lam1, ent, gap) in zip(records, REFERENCE_SWEEP):
        d_lam = abs(rec.lambda1 - lam1)
        d_ent = abs(rec.entropy - ent)
        d_gap = abs(rec.delta_fiedler - gap)
        ok &= rec.converged and d_lam <= 2e-3 and d_ent <= 5e-3 and d_gap <= 5e-3
    return _result("exp6", bool(ok),
                   {"rows": [[r.eps, r.lambda1, r.entropy, r.delta_fiedler] for r in records]},
                   out_dir, list(_SWEEP_COLUMNS), [_sweep_row(r) for r in records])


def run_exp6b(out_dir: str | None = None) -> ExperimentResult:
    """Coupled-source sweep: coupling entropy becomes eps-dependent."""
    records = run_sweep(coupled=True, out_dir=out_dir)
    scoup = [r.coupling_entropy for r in records]
    entropy = [r.entropy for r in records]
    gaps = [r.delta_fiedler for r in records]
    scoup_range = max(scoup) - min(scoup)
    entropy_up = all(b >= a for a, b in zip(entropy, entropy[1:]))
    gap_down = all(b <= a for a, b in zip(gaps, gaps[1:]))
    passed = (all(r.converged for r in records)
              and scoup_range > 1e-3 and entropy_up and gap_down)
    return _result("exp6b", bool(passed),
                   {"coupling_entropy": scoup, "coupling_entropy_range": scoup_range,
                    "entropy_nondecreasing": entropy_up, "gap_nonincreasing": gap_down},
                   out_dir, list(_SWEEP_COLUMNS), [_sweep_row(r) for r in records])


def run_exp7(out_dir: str | None = None) -> ExperimentResult:
    """Constriction sweeps on the river-channel and trunk+roots topologies."""
    metrics: dict = {}
    passed = True
    rows = []
    drops = {}
    for name in EXP7_TOPOLOGIES:
        records = run_sweep(name)
        lam = [r.lambda1 for r in records]
        ent = [r.entropy for r in records]
        gap = [r.delta_fiedler for r in records]
        checks = {
            "lambda1_strictly_decreasing": all(b < a for a, b in zip(lam, lam[1:])),
            "entropy_nondecreasing": all(b >= a for a, b in zip(ent, ent[1:])),
            "gap_nonincreasing": all(b <= a for a, b in zip(gap, gap[1:])),
        }
        passed &= all(checks.values()) and all(r.converged for r in records)
        coupled = run_sweep(name, coupled=True)
        scoup = [r.coupling_entropy for r in coupled]
        drops[name] = scoup[0] - scoup[-1]
        metrics[name] = {"lambda1": lam, "entropy": ent, "delta_fiedler": gap,
                         "coupling_entropy_coupled": scoup, **checks}
        rows += [[name, r.eps, r.lambda1, r.entropy, r.delta_fiedler] for r in records]
    # Cross-topology comparison is reported, not gating: the topology
    # parameters are package defaults rather than anything canonical.
    metrics["river_scoup_drop_ge_trunk"] = bool(drops["river"] >= drops["trunk"])
    metrics["scoup_drops"] = drops
    return _result("exp7", bool(passed), metrics, out_dir,
                   ["topology", "eps", "lambda1", "entropy", "delta_fiedler"], rows)


RUNNERS = {
    "exp1": run_exp1,
    "exp2": run_exp2,
    "exp3": run_exp3,
    "exp4": run_exp4,
    "exp5": run_exp5,
    "exp6": run_exp6,
    "exp6b": run_exp6b,
    "exp7": run_exp7,
}
