"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 5's strict-monotonicity clause is asserted as stated and
is expected to fail: the zero mode pins the heat-kernel residual to exactly
1.5 for every tau below ~0.9, so the first two grid values tie.
"""

import filecmp
import os
import time

import numpy as np

from kernelfield import (
    SourceSpec,
    SpectralKernel,
    WeightRule,
    build_path,
    eig_symmetric,
    fisher_rao_diag,
    heat_kernel_weights,
    laplacian,
    materialize_kernel,
    residual_inf,
    solve_fixed_point,
    source_T,
    source_jacobian,
    spectral_entropy,
    weaken_edge,
)
from kernelfield import experiments as ex
from kernelfield.field import geometric_R
from kernelfield.graph import parse_graph_spec


def _report(criterion: str, passed: bool) -> bool:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'}")
    return passed


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return (lo + hi) / 2


def test_criterion_1_gradient_check():
    ex.run_exp1()  # warm caches before timing
    elapsed = []
    for _ in range(5):
        t0 = time.perf_counter()
        res = ex.run_exp1()
        elapsed.append(time.perf_counter() - t0)
    ok = res.metrics["max_abs_error"] <= 1e-8 and min(elapsed) < 0.010
    assert _report("1 (gradient check)", ok), res.metrics | {"runtime_s": elapsed}


def test_criterion_2_fixed_point():
    basis = eig_symmetric(laplacian(build_path(8)))
    spec = SourceSpec(sigma2=1.0, mu2=2.0)
    report = solve_fixed_point(spec, basis, np.ones(8))
    oracle = bisect_root(lambda h: h - np.exp(-1 - 1 / (1 + h)), 0.01, 1.0)
    ok = (
        np.max(np.abs(report.h_star.h - 0.15470)) <= 1e-3
        and np.max(np.abs(report.h_star.h - oracle)) <= 1e-3
        and report.residual_inf <= 1e-10
        and abs(report.contraction_ratio - 0.116) <= 0.03
        and report.iterations <= 30
    )
    assert _report("2 (fixed point)", ok)


def test_criterion_3_vacuum_and_geodesics():
    """The solver's vacuum is h0 / e, and the log-linear path h(t) = exp(a + b t)
    from it to the eigenvalue-weight fixed point has Fisher-Rao length ||b|| / sqrt 2:
    Simpson's rule on the speed sqrt(sum_l I_ll (h_l b_l)^2), with I = fisher_rao_diag."""
    vac = ex.solve_graph(build_path(8), mu2=0.0)[2].h_star
    vacuum_ok = np.max(np.abs(vac.h / vac.h0 - np.exp(-1.0))) <= 1e-12
    h1 = ex.solve_graph(build_path(8), weight_rule=WeightRule.EIGENVALUE)[2].h_star.h
    a, b = np.log(vac.h), np.log(h1) - np.log(vac.h)
    ts = np.linspace(0.0, 1.0, 201)
    path = lambda t: np.exp(a + b * t)
    speed = [np.sqrt(np.sum(fisher_rao_diag(path(t)) * (path(t) * b) ** 2)) for t in ts]
    length = (ts[1] - ts[0]) / 3 * (speed[0] + speed[-1] + 4 * sum(speed[1:-1:2])
                                    + 2 * sum(speed[2:-1:2]))
    geo_ok = abs(length - np.linalg.norm(b) / np.sqrt(2)) <= 1e-12 * length
    assert _report("3 (vacuum + geodesics)", vacuum_ok and geo_ok)


def test_criterion_4_stability():
    from kernelfield import stability_report
    basis = eig_symmetric(laplacian(build_path(8)))
    spec = SourceSpec(sigma2=1.0, mu2=2.0)
    kernel = solve_fixed_point(spec, basis, np.ones(8)).h_star
    rep = stability_report(spec, basis, kernel)
    h = kernel.h[0]
    oracle_eig = -1 / h + 1 / (1 + h) ** 2  # = -5.712 at h* = 0.15474
    off = rep.hessian - np.diag(np.diag(rep.hessian))
    ok = (
        np.max(np.abs(off)) <= 1e-12
        and np.max(np.abs(rep.eigenvalues - (-5.714))) <= 0.01
        and np.max(np.abs(rep.eigenvalues - oracle_eig)) <= 1e-9
        and abs(rep.hessian_gap - 5.71) <= 0.01
        and abs(rep.coupling_entropy - np.log(7)) <= 1e-9
    )
    assert _report("4 (stability)", ok)


def test_criterion_5_heat_kernel_residuals():
    basis = eig_symmetric(laplacian(build_path(8)))
    spec = SourceSpec(sigma2=1.0, mu2=2.0)
    res = [residual_inf(spec, basis, heat_kernel_weights(basis, tau))
           for tau in (0.1, 0.5, 1.0, 2.0, 5.0)]
    lam7 = 2 - 2 * np.cos(7 * np.pi / 8)
    oracle_last = abs(lam7 * 5.0 - 1 - 1 / (1 + np.exp(-lam7 * 5.0)))
    endpoints_ok = (abs(res[0] - 1.50) <= 0.01
                    and abs(res[-1] - 17.24) <= 0.05
                    and abs(res[-1] - oracle_last) <= 1e-9)
    strict_ok = all(b > a for a, b in zip(res, res[1:]))
    ok = endpoints_ok and strict_ok
    assert _report("5 (heat-kernel residuals)", ok), (
        f"residuals {res}: the zero-mode residual is exactly 1.5 at every tau, "
        "so strict increase between tau=0.1 and tau=0.5 is unattainable; "
        "endpoints and non-decreasing order hold")


def test_criterion_6_reference_sweep():
    t0 = time.perf_counter()
    records = ex.run_sweep()
    elapsed = time.perf_counter() - t0
    tol_ok = True
    for rec, (eps, lam1, ent, gap) in zip(records, ex.REFERENCE_SWEEP):
        tol_ok &= (rec.converged and abs(rec.lambda1 - lam1) <= 2e-3
                   and abs(rec.entropy - ent) <= 5e-3
                   and abs(rec.delta_fiedler - gap) <= 5e-3)
    # independent per-mode oracle at eps = 1: scalar roots of h = exp(-1 - lam/(1+h))
    lam = eig_symmetric(laplacian(build_path(8))).lambdas
    roots = np.array([bisect_root(lambda h, L=L: h - np.exp(-1 - L / (1 + h)), 1e-6, 1.0)
                      for L in lam])
    oracle_entropy = spectral_entropy(roots)
    oracle_gap = np.min((1 / roots - lam / (1 + roots) ** 2)[lam > 1e-10])
    oracle_ok = (abs(records[0].entropy - oracle_entropy) <= 1e-9
                 and abs(records[0].delta_fiedler - oracle_gap) <= 1e-9)
    ok = tol_ok and oracle_ok and elapsed < 1.0
    assert _report("6 (reference sweep)", ok)


def test_criterion_7_coupled_sweep():
    records = ex.run_sweep(coupled=True)
    scoup = [r.coupling_entropy for r in records]
    ent = [r.entropy for r in records]
    gap = [r.delta_fiedler for r in records]
    ok = (max(scoup) - min(scoup) > 1e-3
          and all(b >= a for a, b in zip(ent, ent[1:]))
          and all(b <= a for a, b in zip(gap, gap[1:])))
    assert _report("7 (coupled sweep)", ok)


def test_criterion_8_cross_topology():
    ok = True
    for name in ex.EXP7_TOPOLOGIES:
        spec, edge = ex.SWEEP_TARGETS[name]
        records = ex.sweep_graph(parse_graph_spec(spec), *edge, ex.EPS_GRID)
        lam = [r.lambda1 for r in records]
        ent = [r.entropy for r in records]
        gap = [r.delta_fiedler for r in records]
        ok &= (all(b < a for a, b in zip(lam, lam[1:]))
               and all(b >= a for a, b in zip(ent, ent[1:]))
               and all(b <= a for a, b in zip(gap, gap[1:])))
    assert _report("8 (cross topology)", ok)


def test_criterion_9_property_suites(tmp_path):
    basis = eig_symmetric(laplacian(build_path(8)))
    rng = np.random.default_rng(42)

    isometry_ok = True
    for _ in range(100):
        k1 = SpectralKernel(rng.uniform(0.05, 5.0, size=8), np.ones(8))
        k2 = SpectralKernel(rng.uniform(0.05, 5.0, size=8), np.ones(8))
        frob = np.linalg.norm(materialize_kernel(basis, k1) - materialize_kernel(basis, k2), "fro")
        isometry_ok &= abs(np.linalg.norm(k1.h - k2.h) - frob) <= 1e-9

    fisher_ok = entropy_ok = True
    for _ in range(50):
        h = rng.uniform(0.01, 50.0, size=8)
        base_f = fisher_rao_diag(h)
        base_e = spectral_entropy(h)
        # power-of-two factors rescale bitwise exactly; c=10 cannot in binary64
        fisher_ok &= np.array_equal(fisher_rao_diag(0.5 * h), base_f / 0.25)
        fisher_ok &= np.array_equal(fisher_rao_diag(2.0 * h), base_f / 4.0)
        fisher_ok &= np.max(np.abs(fisher_rao_diag(10.0 * h) - base_f / 100.0)
                            / (base_f / 100.0)) <= 1e-12
        entropy_ok &= spectral_entropy(0.5 * h) == base_e
        entropy_ok &= spectral_entropy(2.0 * h) == base_e
        entropy_ok &= abs(spectral_entropy(10.0 * h) - base_e) <= 1e-12

    from kernelfield import build_coupling
    coupled = SourceSpec(weight_rule=WeightRule.EIGENVALUE, eta=0.05,
                         coupling=build_coupling(basis))
    jac_ok = True
    for i in range(50):
        spec = coupled if i % 2 else SourceSpec()
        h = rng.uniform(0.05, 3.0, size=8)
        jac = source_jacobian(spec, basis, h)
        for m in range(8):
            step = 1e-6 * max(1.0, h[m])
            hp, hm = h.copy(), h.copy()
            hp[m] += step
            hm[m] -= step
            fd = (source_T(spec, basis, hp) - source_T(spec, basis, hm)) / (2 * step)
            jac_ok &= bool(np.max(np.abs(jac[:, m] - fd) / np.maximum(np.abs(jac[:, m]), 1.0)) <= 1e-6)

    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        ex.run_exp2(str(out))
        ex.run_exp6(str(out))
    determinism_ok = all(
        filecmp.cmp(out1 / name, out2 / name, shallow=False)
        for name in sorted(os.listdir(out1)))

    ok = isometry_ok and fisher_ok and entropy_ok and jac_ok and determinism_ok
    assert _report("9 (property suites)", ok), {
        "isometry": isometry_ok, "fisher": fisher_ok, "entropy": entropy_ok,
        "jacobian": jac_ok, "determinism": determinism_ok}
