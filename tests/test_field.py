import mpmath
import numpy as np
import pytest

from kernelfield import (
    DomainError,
    NumericalError,
    SourceSpec,
    SpectralKernel,
    WeightRule,
    build_coupling,
    build_path,
    contraction_certificate,
    eig_symmetric,
    geodesic,
    geometric_R,
    heat_kernel_weights,
    laplacian,
    residual_inf,
    solve_fixed_point,
    source_T,
    source_jacobian,
    vacuum_solution,
    weaken_edge,
)
from kernelfield.diagnostics import fisher_rao_diag
from kernelfield.experiments import EPS_GRID, SWEEP_TARGETS


def bisect_root(f, lo, hi, iters=200):
    """Plain bisection; the independent oracle for scalar fixed points."""
    flo = f(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return (lo + hi) / 2


@pytest.fixture(scope="module")
def p8():
    basis = eig_symmetric(laplacian(build_path(8)))
    return basis, SourceSpec(sigma2=1.0, mu2=2.0)


def test_source_uniform(p8):
    basis, spec = p8
    assert np.allclose(source_T(spec, basis, np.ones(8)), 0.5)


def test_source_eigenvalue_aware_at_fixed_point(p8):
    basis, _ = p8
    spec = SourceSpec(weight_rule=WeightRule.EIGENVALUE)
    h = np.full(8, 0.3280345719286303)  # mode-1 root of h = exp(-1 - lambda1/(1+h))
    t = source_T(spec, basis, h)
    assert abs(t[1] - basis.lambdas[1] / (1 + h[1])) <= 1e-15
    assert abs(t[1] - 0.11463627393098323) <= 1e-12


def test_source_coupled_row_stochastic(p8):
    basis, _ = p8
    c = np.full((8, 8), 1.0 / 7.0)
    np.fill_diagonal(c, 0.0)
    spec = SourceSpec(eta=0.05, coupling=c)
    t = source_T(spec, basis, np.ones(8))
    assert np.allclose(t, 0.5 + 0.05)


def test_source_rejects_nonpositive(p8):
    basis, spec = p8
    with pytest.raises(DomainError):
        source_T(spec, basis, np.zeros(8))


def test_spec_validation():
    with pytest.raises(DomainError):
        SourceSpec(sigma2=0.0)
    with pytest.raises(DomainError):
        SourceSpec(eta=0.1)  # eta without coupling
    c = np.eye(2)  # nonzero diagonal
    with pytest.raises(DomainError):
        SourceSpec(eta=0.1, coupling=c)


def test_jacobian_diagonal_value(p8):
    basis, spec = p8
    h = np.full(8, 0.15474230746224887)
    jac = source_jacobian(spec, basis, h)
    assert np.allclose(np.diag(jac), -1.0 / (1 + h) ** 2)
    assert abs(jac[0, 0] - (-0.7500)) < 1e-3
    assert np.max(np.abs(jac - np.diag(np.diag(jac)))) == 0.0


def test_jacobian_vs_finite_differences(p8):
    basis, _ = p8
    g = build_path(8)
    coupled = SourceSpec(weight_rule=WeightRule.EIGENVALUE, eta=0.05,
                         coupling=build_coupling(basis, g))
    rng = np.random.default_rng(11)
    for spec in (SourceSpec(), coupled):
        for _ in range(25):
            h = rng.uniform(0.05, 3.0, size=8)
            jac = source_jacobian(spec, basis, h)
            for m in range(8):
                step = 1e-6 * max(1.0, h[m])
                hp, hm = h.copy(), h.copy()
                hp[m] += step
                hm[m] -= step
                fd = (source_T(spec, basis, hp) - source_T(spec, basis, hm)) / (2 * step)
                scale = np.maximum(np.abs(jac[:, m]), 1.0)
                assert np.max(np.abs(jac[:, m] - fd) / scale) <= 1e-6


def test_geometric_R_closed_forms(p8):
    basis, _ = p8
    h0 = np.ones(8)
    assert np.allclose(geometric_R(SpectralKernel(h0.copy(), h0)), -1.0)
    assert np.allclose(geometric_R(SpectralKernel(h0 * np.exp(-1.0), h0)), 0.0, atol=1e-15)
    tau = 0.8
    k = heat_kernel_weights(basis, tau)
    assert np.max(np.abs(geometric_R(k) - (basis.lambdas * tau - 1))) <= 1e-12


def test_gradient_check_random_points(p8):
    # analytic R vs central differences of the density f(h) = -h ln(h/h0)
    rng = np.random.default_rng(3)
    step = 1e-6
    for _ in range(50):
        h = rng.uniform(0.1, 4.0, size=8)
        h0 = rng.uniform(0.1, 4.0, size=8)
        analytic = geometric_R(SpectralKernel(h, h0))
        fd = (-(h + step) * np.log((h + step) / h0) - (-(h - step) * np.log((h - step) / h0))) / (2 * step)
        assert np.max(np.abs(analytic - fd)) <= 1e-8


def test_fixed_point_uniform_source(p8):
    basis, spec = p8
    report = solve_fixed_point(spec, basis, np.ones(8))
    root = bisect_root(lambda h: h - np.exp(-1 - 1 / (1 + h)), 0.01, 1.0)
    assert report.converged
    assert np.max(np.abs(report.h_star.h - root)) <= 1e-10
    assert np.max(np.abs(report.h_star.h - 0.15470)) <= 1e-3
    assert report.iterations <= 30
    assert report.residual_inf <= 1e-10
    assert 0.09 <= report.contraction_ratio <= 0.15


def test_fixed_point_consistency(p8):
    basis, spec = p8
    tol = 1e-12
    report = solve_fixed_point(spec, basis, np.ones(8), tol=tol)
    lhs = report.h_star.h
    rhs = np.exp(-1 - source_T(spec, basis, lhs))
    assert np.max(np.abs(lhs - rhs)) <= 10 * tol


def test_fixed_point_zero_source_is_vacuum(p8):
    basis, _ = p8
    spec = SourceSpec(mu2=0.0)
    report = solve_fixed_point(spec, basis, np.ones(8))
    assert report.converged
    assert np.array_equal(report.h_star.h, vacuum_solution(np.ones(8)).h)


def test_fixed_point_eigenvalue_aware_per_mode_roots(p8):
    basis, _ = p8
    spec = SourceSpec(weight_rule=WeightRule.EIGENVALUE)
    report = solve_fixed_point(spec, basis, np.ones(8))
    roots = np.array([bisect_root(lambda h, lam=lam: h - np.exp(-1 - lam / (1 + h)), 1e-6, 1.0)
                      for lam in basis.lambdas])
    assert np.max(np.abs(report.h_star.h - roots)) <= 1e-10
    assert abs(report.h_star.h[1] - 0.3281) <= 1e-4
    assert abs(report.h_star.h[0] - np.exp(-1)) <= 1e-12  # zero mode is vacuum


def test_fixed_point_nonconvergence_reported(p8):
    basis, spec = p8
    report = solve_fixed_point(spec, basis, np.ones(8), tol=1e-12, max_iter=3)
    assert not report.converged
    assert report.iterations == 3


def test_fixed_point_overflow_guard(p8):
    basis, _ = p8
    spec = SourceSpec(mu2=1e6)
    with pytest.raises(NumericalError):
        solve_fixed_point(spec, basis, np.full(8, 1e-3))


def test_contraction_certificate(p8):
    basis, spec = p8
    report = solve_fixed_point(spec, basis, np.ones(8))
    h = report.h_star.h
    cert = contraction_certificate(spec, basis, h, np.ones(8))
    # analytic value at the fixed point: h* / (1 + h*)^2
    assert abs(cert - h[0] / (1 + h[0]) ** 2) <= 1e-8
    assert abs(cert - 0.116) <= 0.003
    assert cert < 1

    assert contraction_certificate(SourceSpec(mu2=0.0), basis, h, np.ones(8)) == 0.0
    # with a large source and reference scale the bound exceeds 1 and the
    # certificate withholds the uniqueness claim (no convergence asserted)
    big = contraction_certificate(SourceSpec(mu2=200.0), basis,
                                  np.full(8, 49.0), np.full(8, 1000.0))
    assert big > 1


def test_residual_at_heat_kernels(p8):
    basis, spec = p8
    assert abs(residual_inf(spec, basis, heat_kernel_weights(basis, 0.1)) - 1.50) <= 0.01
    assert abs(residual_inf(spec, basis, heat_kernel_weights(basis, 5.0)) - 17.24) <= 0.05


def test_residual_monotone_over_tau(p8):
    # Required invariant: residual_inf strictly increasing over {0.1, 0.5, 1, 2, 5}.
    # The zero mode contributes exactly |-1 - 0.5| = 1.5 at every tau and
    # dominates until tau ~ 0.9, so the first two values tie at 1.5 and the
    # strict version is unsatisfiable; deliberately left red (see README).
    basis, spec = p8
    res = [residual_inf(spec, basis, heat_kernel_weights(basis, t)) for t in (0.1, 0.5, 1, 2, 5)]
    assert all(b > a for a, b in zip(res, res[1:])), (
        f"strict increase fails: {res}")


def test_vacuum_solution():
    h0 = np.ones(8)
    vac = vacuum_solution(h0)
    assert np.allclose(vac.h, 0.36788, atol=1e-5)
    assert np.allclose(geometric_R(vac), 0.0, atol=1e-15)
    twice = vacuum_solution(vac.h)
    assert np.allclose(twice.h, h0 * np.exp(-2.0))


def test_geodesic_properties(p8):
    basis, _ = p8
    a = np.zeros(8)
    b = -basis.lambdas
    assert np.allclose(geodesic(a, b, 0.0), 1.0)
    # constant path
    assert np.array_equal(geodesic(a, np.zeros(8), 1.0), geodesic(a, np.zeros(8), 5.0))
    # successive-ratio constancy
    r01 = geodesic(a, b, 1.0) / geodesic(a, b, 0.0)
    r12 = geodesic(a, b, 2.0) / geodesic(a, b, 1.0)
    assert np.max(np.abs(r01 - r12)) <= 1e-12
    # rate-to-value correspondence at unit time
    assert np.max(np.abs(r01 - np.exp(b))) <= 1e-12


def test_geodesics_compose(p8):
    basis, _ = p8
    rng = np.random.default_rng(5)
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    for s, t in ((0.3, 1.1), (1.0, 2.0), (0.0, 0.7)):
        direct = geodesic(a, b, s + t)
        restarted = geodesic(np.log(geodesic(a, b, s)), b, t)
        assert np.max(np.abs(direct - restarted)) <= 1e-12


def _fisher_rao_length(path, n_steps=2000):
    """Length of t -> path(t) over [0, 1] under the diagonal Fisher-Rao metric:
    composite Simpson on the speed, with central-difference velocities."""
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    dt = 1e-6
    speed = np.array([
        np.sqrt(np.sum(fisher_rao_diag(path(t)) * ((path(t + dt) - path(t - dt)) / (2 * dt)) ** 2))
        for t in ts])
    return float((ts[1] - ts[0]) / 3 * (speed[0] + speed[-1] + 4 * speed[1:-1:2].sum()
                                        + 2 * speed[2:-1:2].sum()))


def test_geodesic_length_under_fisher_rao():
    """Corollary "geodesics": the log-linear path has length ||b|| / sqrt 2 and
    is shorter than every perturbed path with the same endpoints."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    straight = _fisher_rao_length(lambda t: geodesic(a, b, t))
    assert abs(straight - np.linalg.norm(b) / np.sqrt(2)) <= 1e-8 * straight
    for _ in range(5):
        c = 0.3 * rng.normal(size=8)
        k = rng.integers(1, 4)
        bent = _fisher_rao_length(lambda t: geodesic(a + c * np.sin(k * np.pi * t), b, t))
        assert bent > straight


@pytest.mark.parametrize("rule", list(WeightRule))
@pytest.mark.parametrize("target, eps", [(name, eps) for name in SWEEP_TARGETS for eps in EPS_GRID])
def test_decoupled_fixed_point_is_stationary(target, eps, rule):
    """Corollary "selfconsistent": with no coupling, h*_l is a stationary point of
    phi_l(x) = -x ln(x / h0_l) - (mu2 w_l / 2) ln(sigma2 + x), mode by mode."""
    make, (u, v) = SWEEP_TARGETS[target]
    basis = eig_symmetric(laplacian(weaken_edge(make(), u, v, eps)))
    sigma2, mu2 = 1.0, 2.0
    h0 = np.ones(basis.n)
    h = solve_fixed_point(SourceSpec(sigma2=sigma2, mu2=mu2, weight_rule=rule), basis, h0).h_star.h
    w = basis.lambdas if rule is WeightRule.EIGENVALUE else np.ones(basis.n)
    for l in range(basis.n):
        phi = lambda x: -x * np.log(x / h0[l]) - mu2 * w[l] / 2 * np.log(sigma2 + x)
        step = 1e-6 * h[l]
        assert abs((phi(h[l] + step) - phi(h[l] - step)) / (2 * step)) <= 1e-6


@pytest.mark.parametrize("rule", list(WeightRule))
@pytest.mark.parametrize("target, eps", [(name, eps) for name in SWEEP_TARGETS for eps in EPS_GRID]
                         + [("p8", None)])
def test_decoupled_fixed_point_matches_mpmath(target, eps, rule, mp_findroot, mp_rel_error):
    """Uncoupled h*_l against the 50-digit root of ln x + 1 + (mu2 w_l / 2) / (sigma2 + x) = 0,
    the scalar field equation with h0 = 1, taken by mpmath.findroot from the float h*_l.

    Measured: relative error at most 2.9e-13 (uniform) and 1.3e-12 (eigenvalue
    weights; river, eps=0.109), set by the solver's 1e-12 step tolerance.
    """
    if target == "p8":
        g = build_path(8)
    else:
        make, (u, v) = SWEEP_TARGETS[target]
        g = weaken_edge(make(), u, v, eps)
    basis = eig_symmetric(laplacian(g))
    sigma2, mu2 = 1.0, 2.0
    h = solve_fixed_point(SourceSpec(sigma2=sigma2, mu2=mu2, weight_rule=rule), basis,
                          np.ones(basis.n)).h_star.h
    w = basis.lambdas if rule is WeightRule.EIGENVALUE else np.ones(basis.n)
    for l in range(basis.n):
        a = mu2 * w[l] / 2  # exact in binary64, since mu2 = 2
        root = mp_findroot(lambda x: mpmath.log(x) + 1 + a / (sigma2 + x), h[l])
        assert mp_rel_error(h[l], root) <= 1e-11


def test_build_coupling_structure(p8):
    basis, _ = p8
    c = build_coupling(basis, build_path(8))
    assert np.all(c >= 0)
    assert np.max(np.abs(np.diag(c))) == 0.0
    sums = c.sum(axis=1)
    assert np.all((np.abs(sums - 1) < 1e-12) | (sums == 0))


def test_report_json_round_trip(p8):
    import json
    basis, spec = p8
    report = solve_fixed_point(spec, basis, np.ones(8))
    obj = json.loads(report.to_json())
    assert obj["converged"] is True
    assert obj["iterations"] == report.iterations
    assert obj["h_star"] == list(report.h_star.h)
