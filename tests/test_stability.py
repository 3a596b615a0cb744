import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernelfield import (
    SourceSpec,
    SpectralKernel,
    StabilityReport,
    WeightRule,
    build_coupling,
    build_path,
    build_trunk_roots,
    eig_symmetric,
    geometric_R,
    hessian,
    laplacian,
    solve_fixed_point,
    source_T,
    source_jacobian,
    stability_report,
    vacuum_solution,
    weaken_edge,
)
from kernelfield.experiments import EPS_GRID, SWEEP_TARGETS
from kernelfield.spectral import _jacobi


@pytest.fixture(scope="module")
def p8():
    return eig_symmetric(laplacian(build_path(8)))


@pytest.fixture(scope="module")
def exp2_state(p8):
    spec = SourceSpec(sigma2=1.0, mu2=2.0)
    report = solve_fixed_point(spec, p8, np.ones(8))
    return spec, report.h_star


def test_hessian_at_uniform_fixed_point(p8, exp2_state):
    spec, kernel = exp2_state
    hess = hessian(spec, p8, kernel)
    off = hess - np.diag(np.diag(hess))
    assert np.max(np.abs(off)) <= 1e-12
    assert np.allclose(np.diag(hess), -5.71, atol=0.01)


def test_vacuum_hessian(p8):
    spec = SourceSpec(mu2=0.0)
    hess = hessian(spec, p8, vacuum_solution(np.ones(8)))
    assert np.allclose(hess, -np.e * np.eye(8), atol=1e-12)


def test_coupled_hessian_offdiagonal(p8):
    c = build_coupling(p8, build_path(8))
    spec = SourceSpec(eta=0.05, coupling=c)
    kernel = SpectralKernel(np.ones(8), np.ones(8))
    hess = hessian(spec, p8, kernel)
    off = hess - np.diag(np.diag(hess))
    assert np.allclose(off, -0.05 * (c - np.diag(np.diag(c))), atol=1e-15)


def test_margins(p8, exp2_state):
    spec, kernel = exp2_state
    assert np.allclose(stability_report(spec, p8, kernel).margins, 5.71, atol=0.01)
    vac_margin = stability_report(SourceSpec(mu2=0.0), p8, vacuum_solution(np.ones(8))).margins
    assert np.allclose(vac_margin, np.e, atol=1e-12)


def test_fiedler_margin_in_eigenvalue_aware_sweep(p8):
    spec = SourceSpec(weight_rule=WeightRule.EIGENVALUE)
    report = solve_fixed_point(spec, p8, np.ones(8))
    assert abs(stability_report(spec, p8, report.h_star).fiedler_gap - 2.962) <= 5e-3


def test_hessian_gap_values(p8, exp2_state):
    spec, kernel = exp2_state
    rep = stability_report(spec, p8, kernel)
    assert abs(rep.hessian_gap - 5.71) <= 0.01
    assert abs(rep.fiedler_gap - 5.71) <= 0.01
    vac = stability_report(SourceSpec(mu2=0.0), p8, vacuum_solution(np.ones(8)))
    assert abs(vac.hessian_gap - np.e) <= 1e-10
    assert abs(vac.fiedler_gap - np.e) <= 1e-12


def test_coupling_entropy_diagonal_source(p8, exp2_state):
    spec, kernel = exp2_state
    assert abs(stability_report(spec, p8, kernel).coupling_entropy - np.log(7)) <= 1e-9


def test_coupling_entropy_concentrated(p8):
    # one dominant off-diagonal partner per row -> entropy near 0
    c = np.zeros((8, 8))
    for l in range(8):
        c[l, (l + 1) % 8] = 1.0
    spec = SourceSpec(eta=0.05, coupling=c)
    kernel = SpectralKernel(np.ones(8), np.ones(8))
    assert stability_report(spec, p8, kernel).coupling_entropy == 0.0


def test_coupling_entropy_bounds(p8):
    c = build_coupling(p8, build_path(8))
    spec = SourceSpec(eta=0.05, coupling=c)
    rng = np.random.default_rng(13)
    for _ in range(20):
        kernel = SpectralKernel(rng.uniform(0.05, 4.0, size=8), np.ones(8))
        s = stability_report(spec, p8, kernel).coupling_entropy
        assert 0.0 <= s <= np.log(7) + 1e-12


def test_stability_report_uniform(p8, exp2_state):
    spec, kernel = exp2_state
    rep = stability_report(spec, p8, kernel)
    assert rep.stable
    assert np.allclose(rep.eigenvalues, -5.71, atol=0.01)
    assert json.loads(rep.to_json())["symmetrized"] is True


def test_stability_report_descriptive_off_fixed_point(p8):
    from kernelfield import heat_kernel_weights
    spec = SourceSpec(sigma2=1.0, mu2=2.0)
    rep = stability_report(spec, p8, heat_kernel_weights(p8, 1.0))
    assert rep.hessian.shape == (8, 8)  # report produced regardless of criticality


def test_stability_report_coupled(p8):
    c = build_coupling(p8, build_path(8))
    spec = SourceSpec(weight_rule=WeightRule.EIGENVALUE, eta=0.05, coupling=c)
    report = solve_fixed_point(spec, p8, np.ones(8))
    rep = stability_report(spec, p8, report.h_star)
    sym = (rep.hessian + rep.hessian.T) / 2
    assert np.max(np.abs(sym - np.diag(np.diag(sym)))) > 1e-3  # dense case
    assert np.allclose(rep.eigenvalues, np.sort(np.linalg.eigvalsh(sym)), atol=1e-9)
    assert rep.stable == (rep.eigenvalues[-1] < 0)
    assert rep.hessian_gap == pytest.approx(-np.max(np.linalg.eigvalsh(sym)), abs=1e-9)
    assert np.array_equal(rep.margins, -np.diag(rep.hessian))
    assert rep.fiedler_gap == np.min(rep.margins[1:])  # P8 has one zero mode
    # Read off H, the coupling entropy is that of |offdiag J|, row by row.
    jac = np.abs(source_jacobian(spec, p8, report.h_star.h))
    rows = [np.delete(jac[l], l) / np.delete(jac[l], l).sum() for l in range(8)]
    assert rep.coupling_entropy == pytest.approx(
        np.mean([-(p * np.log(p)).sum() for p in rows]), abs=1e-12)


@functools.cache
def _path_basis(n):
    return eig_symmetric(laplacian(build_path(n)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([8, 64, 128]).flatmap(
           lambda n: arrays(np.float64, (n,), elements=st.floats(0.05, 5.0))),
       st.sampled_from(list(WeightRule)))
def test_diagonal_case_margin_iff_stable(h, rule):
    basis = _path_basis(len(h))
    spec = SourceSpec(sigma2=1.0, mu2=2.0, weight_rule=rule)
    rep = stability_report(spec, basis, SpectralKernel(h, np.ones(len(h))))
    off = rep.hessian - np.diag(np.diag(rep.hessian))
    assert np.max(np.abs(off)) <= 1e-12
    # Exact: the uncoupled stability.json and exp4 outputs rest on it.
    assert np.array_equal(rep.eigenvalues, np.sort(np.diag(rep.hessian)))
    assert rep.stable == bool(np.all(rep.margins > 0))


def _coupled_row(g, u, v, eps):
    """The state of one coupled sweep row: basis, source and fixed point."""
    g = weaken_edge(g, u, v, eps)
    basis = eig_symmetric(laplacian(g))
    spec = SourceSpec(weight_rule=WeightRule.EIGENVALUE, eta=0.05, coupling=build_coupling(basis, g))
    return spec, basis, solve_fixed_point(spec, basis, np.ones(basis.n)).h_star


@pytest.mark.parametrize("target, u, v, eps", [
    *((name, *edge, eps) for name, (_, edge) in SWEEP_TARGETS.items() for eps in EPS_GRID),
    ("path64", 31, 32, 0.109),
])
def test_hessian_eigenvalues_match_the_jacobi_solver(target, u, v, eps):
    g = build_path(64) if target == "path64" else SWEEP_TARGETS[target][0]()
    rep = stability_report(*_coupled_row(g, u, v, eps))
    sym = (rep.hessian + rep.hessian.T) / 2.0
    assert np.max(np.abs(sym - np.diag(np.diag(sym)))) > 1e-6  # a dense case
    jacobi = np.sort(_jacobi(sym.copy())[0])
    assert np.all(np.abs(rep.eigenvalues - jacobi) <= 1e-13 * np.abs(jacobi))


@pytest.mark.parametrize("target, eps", [(name, eps) for name in SWEEP_TARGETS for eps in EPS_GRID])
def test_hessian_eigenvalues_match_mpmath(target, eps, mp_eigvalsh, mp_rel_error):
    """LAPACK's eigenvalues of sym(H) on the coupled sweep rows against 50-digit
    mpmath.eigsy on the same binary64 matrix. Measured: relative error at most
    3.5e-14 (trunk, eps=0.109)."""
    make, (u, v) = SWEEP_TARGETS[target]
    rep = stability_report(*_coupled_row(make(), u, v, eps))
    ref = mp_eigvalsh((rep.hessian + rep.hessian.T) / 2.0)
    assert max(mp_rel_error(x, r) for x, r in zip(rep.eigenvalues, ref)) <= 3e-13


@pytest.mark.parametrize("rule", list(WeightRule))
@pytest.mark.parametrize("g", [build_path(8), weaken_edge(build_path(12), 4, 5, 0.05),
                               build_trunk_roots(4, 3, 3)], ids=["p8", "path12-weakened", "trunk"])
def test_hessian_is_the_jacobian_of_the_field_residual(g, rule):
    """Corollary "hessian", uncoupled: H is the Jacobian of R - T, the gradient
    of the action, checked by central differences at h* and at a random h."""
    basis = eig_symmetric(laplacian(g))
    spec = SourceSpec(sigma2=1.0, mu2=2.0, weight_rule=rule)
    h0 = np.ones(basis.n)
    h_star = solve_fixed_point(spec, basis, h0).h_star.h
    h_random = np.exp(np.random.default_rng(3).uniform(-2.0, 1.0, basis.n))
    grad = lambda h: geometric_R(SpectralKernel(h, h0)) - source_T(spec, basis, h)
    for h in (h_star, h_random):
        fd = np.empty((basis.n, basis.n))
        for m in range(basis.n):
            step = np.zeros(basis.n)
            step[m] = 1e-6 * h[m]
            fd[:, m] = (grad(h + step) - grad(h - step)) / (2 * step[m])
        hess = hessian(spec, basis, SpectralKernel(h, h0))
        assert np.all(np.abs(fd - hess) <= 1e-8 * np.abs(hess))


def test_report_json(p8, exp2_state):
    spec, kernel = exp2_state
    rep = stability_report(spec, p8, kernel)
    obj = json.loads(rep.to_json())
    assert obj["stable"] is True
    assert len(obj["hessian"]) == 8


@pytest.mark.parametrize("n, written", [(64, True), (65, False)])
def test_report_json_writes_hessian_up_to_64_modes(n, written):
    rep = StabilityReport(hessian=-np.eye(n), eigenvalues=-np.ones(n), margins=np.ones(n),
                          hessian_gap=1.0, fiedler_gap=1.0, coupling_entropy=np.log(n - 1),
                          stable=True)
    obj = json.loads(rep.to_json())
    assert ("hessian" in obj) == written
    assert len(obj["margins"]) == n
