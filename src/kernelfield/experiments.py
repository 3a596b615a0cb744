"""The one pipeline, the edge-weakening sweep driver and deterministic
reproduction runners for the numbered experiments.

solve_graph is the one pipeline (Laplacian basis, source, fixed point from
h0 = 1, stability report): the CLI `solve` command, every sweep row, exp2,
exp3 and exp4 run it. run_sweep is the one sweep driver: the CLI `sweep` command,
exp6, exp6b and exp7 all call it on a builtin target, a graph spec in
SWEEP_TARGETS. Every runner is pure computation plus optional artifact
files; there is no randomness anywhere, so repeated runs are byte-identical.
write_artifacts writes every file kernelfield writes, the CLI's included.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import field, graph, stability
from .diagnostics import fisher_rao_diag, spectral_entropy
from .errors import DomainError
from .field import SourceSpec, WeightRule
from .spectral import SpectralKernel, eig_symmetric, heat_kernel_weights, materialize_kernel

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

# The mode-coupling strength eta of a coupled sweep row.
SWEEP_ETA = 0.05

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


def write_artifacts(out_dir: str, texts: dict[str, str], stale=()) -> None:
    """Create out_dir, remove its stale names, then write each name -> text to
    name.tmp and rename it over name. Every file kernelfield writes comes here."""
    os.makedirs(out_dir, exist_ok=True)
    for name in stale:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    for name, text in texts.items():
        path = os.path.join(out_dir, name)
        with open(path + ".tmp", "w") as fh:
            fh.write(text)
        os.replace(path + ".tmp", path)


def _csv(header: list[str], rows: list[list], fmt: str) -> str:
    """Header line, then one line per row: floats in `fmt`, anything else by str."""
    lines = [",".join(header)]
    lines += [",".join(format(x, fmt) if isinstance(x, float) else str(x) for x in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _result(exp_id: str, passed: bool, metrics: dict, out_dir: str | None,
            table_header: list[str], table_rows: list[list]) -> ExperimentResult:
    """The runner's result, also written to <id>_results.json and <id>_table.csv if out_dir."""
    result = ExperimentResult(exp_id, passed, metrics)
    if out_dir is not None:
        write_artifacts(out_dir, {f"{exp_id}_results.json": json.dumps(asdict(result), indent=2),
                                  f"{exp_id}_table.csv": _csv(table_header, table_rows, ".6g")})
    return result


def solve_graph(g: graph.Graph, sigma2: float = 1.0, mu2: float = 2.0,
                weight_rule: WeightRule = WeightRule.UNIFORM, eta: float = 0.0,
                tol: float = 1e-12, max_iter: int = 200):
    """The paper's chain on one graph: basis, source, fixed point, stability.

    The source's coupling matrix is built from the basis exactly when eta > 0,
    and the fixed point is iterated from h0 = 1. Returns the tuple (basis,
    spec, fixed-point report, stability report at h*).
    """
    basis = eig_symmetric(graph.laplacian(g))
    coupling = field.build_coupling(basis) if eta > 0 else None
    spec = SourceSpec(sigma2=sigma2, mu2=mu2, weight_rule=weight_rule, eta=eta, coupling=coupling)
    report = field.solve_fixed_point(spec, basis, np.ones(basis.n), tol=tol, max_iter=max_iter)
    return basis, spec, report, stability.stability_report(spec, basis, report.h_star)


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
    err = float(np.abs(analytic - fd).max())
    return _result("exp1", err <= 1e-8,
                   {"max_abs_error": err, "fd_step": step, "R_values": list(analytic)},
                   out_dir, ["mode", "analytic", "finite_difference"],
                   [[l, analytic[l], fd[l]] for l in range(len(h0))])


def run_exp2(out_dir: str | None = None) -> ExperimentResult:
    """Fixed-point convergence with the uniform-weight source."""
    basis, _, report, _ = solve_graph(graph.build_path(8))
    h = report.h_star.h
    passed = (
        report.converged
        and bool((np.abs(h - 0.15470) <= 1e-3).all())
        and report.residual_inf <= 1e-10
        and 0.09 <= report.contraction_ratio <= 0.15
        and report.iterations <= 30
    )
    return _result("exp2", passed,
                   {"h_star": list(h), "iterations": report.iterations,
                    "residual_inf": report.residual_inf,
                    "contraction_ratio": report.contraction_ratio},
                   out_dir, ["mode", "h_star"], [[l, float(h[l])] for l in range(basis.n)])


def _fisher_rao_length(log_h: np.ndarray) -> float:
    """Length under fisher_rao_diag of the path through the rows of log_h = ln h: the sum
    over its steps of sqrt(dh^T I dh), with I at the step's geometric midpoint."""
    h = np.exp(log_h)
    return float(np.sqrt((fisher_rao_diag(np.sqrt(h[1:] * h[:-1]))
                          * np.diff(h, axis=0) ** 2).sum(axis=1)).sum())


def run_exp3(out_dir: str | None = None) -> ExperimentResult:
    """Vacuum, geodesics and isometry, each through the code that computes it. On P8 the
    solver's source-free fixed point is h0 / e; under fisher_rao_diag the log-linear path from
    it to the eigenvalue-weight fixed point h1 has length ||ln h1 - ln h0|| / sqrt 2, and a
    bent one is longer. On trunk:4,3,3 (eigenvalue 1 five-fold) ||K1 - K2||_F = ||h1 - h2||."""
    p8 = graph.build_path(8)
    vac = solve_graph(p8, mu2=0.0)[2].h_star
    vac_err = float(np.abs(vac.h / vac.h0 - np.exp(-1.0)).max())

    h1 = solve_graph(p8, weight_rule=WeightRule.EIGENVALUE)[2].h_star.h
    t = np.linspace(0.0, 1.0, 2001)[:, None]  # 2000 steps
    b = np.log(h1) - np.log(vac.h)
    line = np.log(vac.h) + t * b
    length = _fisher_rao_length(line)
    closed_form = float(np.linalg.norm(b) / np.sqrt(2.0))
    length_err = abs(length - closed_form) / closed_form
    bent = _fisher_rao_length(line + 0.5 * np.sin(np.pi * t))

    trunk = eig_symmetric(graph.laplacian(graph.parse_graph_spec(SWEEP_TARGETS["trunk"][0])))
    k1, k2 = (heat_kernel_weights(trunk, tau) for tau in (1.0, 2.0))
    frob = np.linalg.norm(materialize_kernel(trunk, k1) - materialize_kernel(trunk, k2))
    iso_err = abs(float(frob) - float(np.linalg.norm(k1.h - k2.h)))

    passed = vac_err <= 1e-12 and length_err <= 1e-6 and bent > length and iso_err <= 1e-12
    return _result("exp3", passed,
                   {"vacuum_ratio_error": vac_err, "geodesic_length": length,
                    "geodesic_length_closed_form": closed_form,
                    "geodesic_length_error": length_err, "bent_path_length": bent,
                    "isometry_error": iso_err},
                   out_dir, ["mode", "vacuum", "h_star"],
                   [[l, float(vac.h[l]), float(h1[l])] for l in range(p8.n)])


def run_exp4(out_dir: str | None = None) -> ExperimentResult:
    """Hessian structure and stability margins at the uniform-source fixed point."""
    basis, _, _, srep = solve_graph(graph.build_path(8))
    off = srep.hessian - np.diag(np.diag(srep.hessian))
    off_max = float(np.abs(off).max())
    eig_err = float(np.abs(srep.eigenvalues - (-5.714)).max())
    margin_err = float(np.abs(srep.margins - 5.714).max())
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
    basis = eig_symmetric(graph.laplacian(graph.build_path(8)))
    residuals = [field.residual_inf(SourceSpec(), basis, heat_kernel_weights(basis, tau))
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


# Builtin sweep targets, a graph spec and its stressed edge: the river stem
# edge just past the first tributary, and the mid-trunk edge.
SWEEP_TARGETS = {
    "path": ("path:8", (2, 3)),
    "river": ("river:6,1,2,3,2", (1, 2)),
    "trunk": ("trunk:4,3,3", (1, 2)),
}

# The SWEEP_TARGETS that exp7 sweeps: its synthetic topologies.
EXP7_TOPOLOGIES = ("river", "trunk")


def sweep_graph(base: graph.Graph, u: int, v: int, eps_values,
                coupled: bool = False, eta: float = SWEEP_ETA) -> list[SweepRecord]:
    """Weaken edge (u, v) over eps_values and re-solve the field equation each time.

    Each row runs solve_graph with eigenvalue mode weights and, when coupled,
    eta, so the coupling matrix is rebuilt per eps from the perturbed
    Laplacian (and a coupled row with eta = 0 is a plain one). Rows that fail
    to converge are recorded with converged=False, not raised.
    """
    records = []
    for eps in eps_values:
        basis, _, report, srep = solve_graph(graph.weaken_edge(base, u, v, eps),
                                             weight_rule=WeightRule.EIGENVALUE,
                                             eta=eta if coupled else 0.0)
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
              eta: float = SWEEP_ETA, out_dir: str | None = None,
              prefix: str = "sweep") -> list[SweepRecord]:
    """Edge-weakening sweep on a builtin target's graph spec, optionally written to out_dir.

    With out_dir set, writes <prefix>[_coupled]_plotdata.csv (the columns and
    their min-max normalizations) and <prefix>[_coupled]_records.json.

    Raises:
        DomainError: target is not one of SWEEP_TARGETS.
    """
    if target not in SWEEP_TARGETS:
        raise DomainError(f"sweep needs a builtin graph ({', '.join(SWEEP_TARGETS)}), "
                          f"got {target!r}")
    spec, (u, v) = SWEEP_TARGETS[target]
    records = sweep_graph(graph.parse_graph_spec(spec), u, v, eps_values, coupled=coupled, eta=eta)
    if out_dir is not None:
        stem = prefix + ("_coupled" if coupled else "")
        table = [_sweep_row(r) for r in records]
        norms = zip(*(_normalize(col) for col in list(zip(*table))[1:]))
        plot = _csv([*_SWEEP_COLUMNS, *(f"{c}_norm" for c in _SWEEP_COLUMNS[1:])],
                    [row + list(norm) for row, norm in zip(table, norms)], ".17g")
        write_artifacts(out_dir, {f"{stem}_plotdata.csv": plot, f"{stem}_records.json": json.dumps(
            [dict(asdict(r), h_star=list(r.h_star)) for r in records], indent=2)})
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
