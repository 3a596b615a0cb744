import functools
import json
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelfield import (
    DimensionMismatchError,
    DomainError,
    NumericalError,
    SourceSpec,
    SpectralKernel,
    WeightRule,
    build_coupling,
    build_path,
    eig_symmetric,
    geometric_R,
    heat_kernel_weights,
    laplacian,
    residual_inf,
    solve_fixed_point,
    source_T,
    source_jacobian,
    weaken_edge,
)
from kernelfield import field
from kernelfield.cli import main
from kernelfield.diagnostics import fisher_rao_diag
from kernelfield.experiments import EPS_GRID, SWEEP_TARGETS, solve_graph
from kernelfield.field import MAX_MU2, MAX_SIGMA2, mode_weights
from kernelfield.graph import Graph, parse_graph_spec

from conftest import ORACLE_DPS


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


def test_spec_validation(p8):
    with pytest.raises(DomainError):
        SourceSpec(sigma2=0.0)
    with pytest.raises(DomainError, match=r"sigma2 must be in \(0, 1e\+100\]"):
        SourceSpec(sigma2=float(np.nextafter(MAX_SIGMA2, np.inf)))
    assert SourceSpec(sigma2=MAX_SIGMA2).sigma2 == 1e100
    with pytest.raises(DomainError, match=r"mu2 must be in \[0, 1e\+100\]"):
        SourceSpec(mu2=float(np.nextafter(MAX_MU2, np.inf)))
    with pytest.raises(DomainError, match=r"mu2 must be in \[0, 1e\+100\]"):
        SourceSpec(mu2=-1.0)
    assert SourceSpec(mu2=MAX_MU2).mu2 == 1e100
    with pytest.raises(DomainError):
        SourceSpec(eta=0.1)  # eta without coupling
    c = np.eye(2)  # nonzero diagonal
    with pytest.raises(DomainError):
        SourceSpec(eta=0.1, coupling=c)
    for c in (np.zeros((3, 5)), np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(DimensionMismatchError, match="coupling matrix must be square"):
            SourceSpec(eta=0.1, coupling=c)
    # A valid 3 x 3 coupling meets an 8-mode basis.
    basis, _ = p8
    spec = SourceSpec(eta=0.1, coupling=(np.ones((3, 3)) - np.eye(3)) / 2.0)
    for entry in (source_T, source_jacobian, solve_fixed_point):
        with pytest.raises(DimensionMismatchError, match="coupling matrix size 3 does not match"):
            entry(spec, basis, np.ones(8))


def test_jacobian_diagonal_value(p8):
    basis, spec = p8
    h = np.full(8, 0.15474230746224887)
    jac = source_jacobian(spec, basis, h)
    assert np.allclose(np.diag(jac), -1.0 / (1 + h) ** 2)
    assert abs(jac[0, 0] - (-0.7500)) < 1e-3
    assert np.max(np.abs(jac - np.diag(np.diag(jac)))) == 0.0


def test_jacobian_vs_finite_differences(p8):
    basis, _ = p8
    coupled = SourceSpec(weight_rule=WeightRule.EIGENVALUE, eta=0.05,
                         coupling=build_coupling(basis))
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
    assert np.array_equal(report.h_star.h, np.exp(-1.0) * np.ones(8))
    # the map is constant (J = 0), so its rate is exactly 0
    assert report.contraction_ratio == 0.0


def test_fixed_point_eigenvalue_aware_per_mode_roots(p8):
    basis, _ = p8
    spec = SourceSpec(weight_rule=WeightRule.EIGENVALUE)
    report = solve_fixed_point(spec, basis, np.ones(8))
    roots = np.array([bisect_root(lambda h, lam=lam: h - np.exp(-1 - lam / (1 + h)), 1e-6, 1.0)
                      for lam in basis.lambdas])
    assert np.max(np.abs(report.h_star.h - roots)) <= 1e-10
    assert abs(report.h_star.h[1] - 0.3281) <= 1e-4
    assert abs(report.h_star.h[0] - np.exp(-1)) <= 1e-12  # zero mode is vacuum


def _assert_reports_its_own_residual(spec, basis, report, tol):
    """converged is derived from residual_inf, measured at the returned h*."""
    assert report.converged == (report.residual_inf < tol)
    assert abs(residual_inf(spec, basis, report.h_star) - report.residual_inf) <= 1e-13


def test_fixed_point_nonconvergence_reported(p8):
    basis, spec = p8
    report = solve_fixed_point(spec, basis, np.ones(8), tol=1e-12, max_iter=3)
    assert not report.converged
    assert report.iterations == 3
    _assert_reports_its_own_residual(spec, basis, report, 1e-12)


def test_a_solve_checks_its_operands_a_fixed_number_of_times(monkeypatch):
    """The solve checks h0 at its entry and the loop does not re-check the iterates it makes,
    so 3 and 200 iterations call field's checks equally often. At sigma2 = 0.005, mu2 = 0.28
    on path:8 (near the fold) Picard is slow, and tol = 1e-300 keeps Newton off."""
    basis, _ = _basis_and_coupling("path:8", False)
    spec = SourceSpec(sigma2=0.005, mu2=0.28)
    calls = []
    for name in ("check_positive", "check_length"):
        check = getattr(field, name)
        monkeypatch.setattr(field, name,
                            lambda *args, name=name, check=check: calls.append(name) or check(*args))
    counts = []
    for max_iter, tol in ((3, 1e-12), (200, 1e-300)):
        calls.clear()
        assert solve_fixed_point(spec, basis, np.ones(8), tol, max_iter).iterations == max_iter
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert set(counts[0]) == {"check_length", "check_positive"}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 16]),
       sigma2=st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
       mu2=st.floats(0.0, 8.0),
       rule=st.sampled_from(list(WeightRule)),
       max_iter=st.sampled_from([3, 200]))
def test_converged_means_the_reported_residual_is_below_tol(n, sigma2, mu2, rule, max_iter):
    basis = eig_symmetric(laplacian(build_path(n)))
    spec = SourceSpec(sigma2=sigma2, mu2=mu2, weight_rule=rule)
    report = solve_fixed_point(spec, basis, np.ones(n), max_iter=max_iter)
    assert report.iterations <= max_iter
    _assert_reports_its_own_residual(spec, basis, report, 1e-12)


def _reference_solve(spec, basis, h0, max_iter, tol=1e-12, newton=True):
    """field.solve_fixed_point's loop written in the style it had before its reductions
    became ndarray methods (np.any, np.max), with source_T, its Jacobian and the positivity
    check inlined: a test-only reference that the loop must match bit for bit. Picard runs
    until the residual falls below sqrt(tol), then Newton on G(u) = u - u_next with
    G' = I + J diag(h) while each step lowers the residual; a step with a diagonal of G' not
    positive, a singular G', an update beyond the exp guard or a residual that did not fall
    hands the rest to Picard. With newton=False it is the plain Picard loop, the reference
    for which root the solver must end on. Returns the bytes of h_star, the iterations,
    residual_inf and contraction_ratio."""

    def t_of(h):
        if np.any(h <= 0):
            raise DomainError("spectral weights must be strictly positive")
        t = spec.mu2 * mode_weights(spec, basis) / (2.0 * (spec.sigma2 + h))
        if spec.coupling is not None:
            t = t + spec.eta * (spec.coupling @ h)
        return t

    def slopes_of(h):
        return -spec.mu2 * mode_weights(spec, basis) / (2.0 * (spec.sigma2 + h) ** 2)

    def newton_of(h, u, u_next):
        d = 1.0 + h * slopes_of(h)
        if not np.all(d > 0):
            return None
        try:
            if spec.coupling is None:
                u_new = u - (u - u_next) / d
            else:
                u_new = u - np.linalg.solve(np.diag(d) + spec.eta * spec.coupling * h[None, :],
                                            u - u_next)
        except np.linalg.LinAlgError:
            return None
        return u_new if np.all(np.abs(u_new) <= 700.0) else None

    h0 = np.asarray(h0, dtype=float)
    h, u = h0.copy(), np.zeros_like(h0)
    below = math.sqrt(tol) if newton else 0.0
    for iterations in range(1, max_iter + 1):
        u_next = -1.0 - t_of(h)
        if np.any(np.abs(u_next) > 700.0):
            raise NumericalError("exp argument out of range in fixed-point map")
        residual = float(np.max(np.abs(u_next - u)))
        if residual < tol or iterations == max_iter:
            break
        if residual < below:
            u_new = newton_of(h, u, u_next)
            if u_new is None:
                below = 0.0
            else:
                u_next, below = u_new, residual
        elif below < math.sqrt(tol):
            below = 0.0
        u, h = u_next, h0 * np.exp(u_next)
    slopes = slopes_of(h)
    if spec.coupling is None:
        eigs = h * slopes
    else:
        eigs = np.linalg.eigvals(h[:, None] * (np.diag(slopes) + spec.eta * spec.coupling))
    return h.tobytes(), iterations, residual, float(np.max(np.abs(eigs)))


def _solve(spec, basis, h0, max_iter):
    rep = solve_fixed_point(spec, basis, h0, max_iter=max_iter)
    return rep.h_star.h.tobytes(), rep.iterations, rep.residual_inf, rep.contraction_ratio


def _outcome(solve, *args):
    """What solve(*args) returns, or the type and message of the error it raises."""
    try:
        return solve(*args)
    except (DomainError, NumericalError) as exc:
        return type(exc), str(exc)


@functools.lru_cache(maxsize=None)
def _basis_and_coupling(spec, coupled):
    basis = eig_symmetric(laplacian(parse_graph_spec(spec)))
    return basis, build_coupling(basis) if coupled else None


# Draws as param-scan makes them (path graphs, both weight rules, sigma2 log-uniform on
# [0.1, 10], mu2 uniform on [0, 8], h0 = 1), plus other constant h0 and coupled sources on
# path:8 and trunk:4,3,3, whose eigenvectors are cheap. The examples take both error paths:
# the exp guard, and an iterate that underflows to 0, once where the next T, T(0) = 1390,
# would trip the exp guard: the underflow must be caught first.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.tuples(st.integers(2, 128).map("path:{}".format), st.just(0.0))
       | st.tuples(st.sampled_from(["path:8", "trunk:4,3,3"]),
                   st.floats(0.0, 0.3, exclude_min=True)),
       sigma2=st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
       mu2=st.floats(0.0, 8.0),
       rule=st.sampled_from(list(WeightRule)),
       max_iter=st.sampled_from([3, 200]),
       h0=st.just(1.0) | st.floats(0.1, 10.0))
@example(case=("path:8", 0.0), sigma2=1.0, mu2=1e6, rule=WeightRule.UNIFORM, max_iter=200, h0=1e-3)
@example(case=("trunk:4,3,3", 0.1), sigma2=1.0, mu2=1e6, rule=WeightRule.EIGENVALUE, max_iter=200,
         h0=1e-3)
@example(case=("path:16", 0.0), sigma2=1.0, mu2=2.0, rule=WeightRule.EIGENVALUE, max_iter=200,
         h0=5e-324)
@example(case=("path:8", 0.0), sigma2=1e-30, mu2=2.78e-27, rule=WeightRule.UNIFORM, max_iter=200,
         h0=1e-30)
def test_solve_matches_the_reference_loop(case, sigma2, mu2, rule, max_iter, h0):
    graph, eta = case
    basis, coupling = _basis_and_coupling(graph, eta > 0)
    spec = SourceSpec(sigma2=sigma2, mu2=mu2, weight_rule=rule, eta=eta, coupling=coupling)
    args = (spec, basis, np.full(basis.n, h0), max_iter)
    assert _outcome(_solve, *args) == _outcome(_reference_solve, *args)


def _picard_h(spec, basis, h0, max_iter=200):
    """h* of the plain Picard loop, or None where it did not converge or raised."""
    try:
        h, _, residual, _ = _reference_solve(spec, basis, h0, max_iter, newton=False)
    except (DomainError, NumericalError):
        return None
    return np.frombuffer(h) if residual < 1e-12 else None


# The solver takes Picard's steps until the residual falls below sqrt(tol), then Newton's:
# wherever Picard converges, the solver must converge too, on the same root. sigma2 reaches
# down to 10^-2.5, into the bistable window of path:8 with uniform weights (three roots per
# mode for mu2 in (0.0709, 0.2809) at sigma2 = 0.005), where a Newton step could reach
# another root than Picard's. The examples: a bistable case, where Picard returns the upper
# of the two stable roots, and a case 3e-4 below the upper fold, where Picard's rate is 0.925
# and 200 steps leave it at residual 1.9e-9.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 16, 64]),
       sigma2=st.floats(-2.5 * math.log(10.0), math.log(10.0)).map(math.exp),
       mu2=st.floats(0.0, 8.0),
       rule=st.sampled_from(list(WeightRule)),
       eta=st.sampled_from([0.0, 0.05, 0.3]))
@example(n=8, sigma2=0.005, mu2=0.2, rule=WeightRule.UNIFORM, eta=0.0)
@example(n=8, sigma2=0.005, mu2=0.28, rule=WeightRule.UNIFORM, eta=0.0)
def test_the_solver_ends_on_picards_root(n, sigma2, mu2, rule, eta):
    basis, coupling = _basis_and_coupling(f"path:{n}", eta > 0)
    spec = SourceSpec(sigma2=sigma2, mu2=mu2, weight_rule=rule, eta=eta, coupling=coupling)
    picard = _picard_h(spec, basis, np.ones(n))
    if picard is None:
        return
    report = solve_fixed_point(spec, basis, np.ones(n))
    assert report.converged
    assert np.max(np.abs(report.h_star.h - picard) / picard) <= 1e-10


@pytest.mark.parametrize("mu2, picard_iterations", [(0.2, 200), (0.28, 1000)],
                         ids=["bistable", "near-fold"])
def test_newton_keeps_picards_branch_and_converges_near_the_fold(mu2, picard_iterations):
    """path:8, uniform weights, sigma2 = 0.005. At mu2 = 0.2 each mode has the roots 7.58e-10,
    0.0401 and 0.2476; the solver returns Picard's, the upper one. At mu2 = 0.28 Picard
    needs more than 200 steps (its residual is 1.9e-9 there); the solver converges within
    the default 200 to the root that Picard reaches given 1000."""
    basis, _ = _basis_and_coupling("path:8", False)
    spec = SourceSpec(sigma2=0.005, mu2=mu2)
    report = solve_fixed_point(spec, basis, np.ones(8))
    assert report.converged
    assert (_picard_h(spec, basis, np.ones(8)) is None) == (mu2 == 0.28)
    picard = _picard_h(spec, basis, np.ones(8), picard_iterations)
    assert np.max(np.abs(report.h_star.h - picard) / picard) <= 1e-10
    if mu2 == 0.2:
        assert np.max(np.abs(report.h_star.h - 0.247623435)) <= 1e-9


@pytest.mark.parametrize("c", [2.0, 0.9, 1.0 - 1e-12],
                         ids=["diagonal-not-positive", "residual-rises", "beyond-exp-guard"])
def test_a_failed_newton_step_hands_the_solve_back_to_picard(c, monkeypatch):
    """Newton reads dT_l/dh_l from field._mi_slopes. Replaced by -c / h, the diagonal of
    G' = I + J diag(h) is 1 - c: not positive, or small enough that the step overshoots
    (0.1 where the true diagonal is 0.884, so the residual rises) or leaves the exp guard.
    Each time Picard finishes the solve, on its own root; the first and last kinds leave
    Picard's iterates untouched, bit for bit. Had Newton been tried again once Picard
    brought the residual back down, the overshoot would repeat, and at c = 0.9 the solve
    would cycle to max_iter."""
    basis, _ = _basis_and_coupling("path:8", False)
    spec = SourceSpec(sigma2=1.0, mu2=2.0)
    picard_bytes, picard_iterations, _, _ = _reference_solve(spec, basis, np.ones(8), 200,
                                                             newton=False)
    monkeypatch.setattr(field, "_mi_slopes", lambda spec, basis, h: -c / h)
    report = solve_fixed_point(spec, basis, np.ones(8))
    assert report.converged
    picard = np.frombuffer(picard_bytes)
    assert np.max(np.abs(report.h_star.h - picard) / picard) <= 1e-10
    if c != 0.9:
        assert report.h_star.h.tobytes() == picard_bytes
        assert report.iterations == picard_iterations


def test_a_singular_newton_system_falls_back_to_picard(tmp_path, monkeypatch):
    """np.linalg.solve raises LinAlgError, a ValueError, on a singular system. The coupled
    solve then finishes with Picard and exits 0 with Picard's h*, not 1."""
    systems = []

    def singular(a, b):
        systems.append(a.shape)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(field.np.linalg, "solve", singular)
    assert main(["solve", "--graph", "path:8", "--eta", "0.1", "--out", str(tmp_path)]) == 0
    assert systems == [(8, 8)]
    h_star = np.array(json.loads((tmp_path / "fixed_point.json").read_text())["h_star"])
    basis, coupling = _basis_and_coupling("path:8", True)
    picard = _picard_h(SourceSpec(eta=0.1, coupling=coupling), basis, np.ones(8))
    assert np.max(np.abs(h_star - picard) / picard) <= 1e-10


def test_fixed_point_overflow_guard(p8):
    basis, _ = p8
    spec = SourceSpec(mu2=1e6)
    with pytest.raises(NumericalError):
        solve_fixed_point(spec, basis, np.full(8, 1e-3))


def test_contraction_certificate(p8):
    """The reported rate certifies local contraction: its closed form on P8."""
    basis, spec = p8
    report = solve_fixed_point(spec, basis, np.ones(8))
    h = report.h_star.h
    # analytic value at the fixed point: h* / (1 + h*)^2
    assert abs(report.contraction_ratio - h[0] / (1 + h[0]) ** 2) <= 1e-12
    assert abs(report.contraction_ratio - 0.116) <= 0.003
    assert solve_fixed_point(SourceSpec(mu2=0.0), basis, np.ones(8)).contraction_ratio == 0.0


def test_uncoupled_rate_needs_no_eigensolve(p8, monkeypatch):
    """Without coupling diag(h*) J is diagonal, so its diagonal is its spectrum."""
    basis, spec = p8

    def no_eigvals(mat):
        raise AssertionError("eigvals called on a diagonal Jacobian")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    assert solve_fixed_point(spec, basis, np.ones(8)).contraction_ratio > 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 16]),
       sigma2=st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
       mu2=st.floats(0.0, 8.0),
       rule=st.sampled_from(list(WeightRule)),
       eta=st.sampled_from([0.0, 0.05, 0.3]))
def test_contraction_ratio_is_the_spectral_radius_at_h_star(n, sigma2, mu2, rule, eta):
    """The rate against J diag(h*), built here from the formula for T's
    Jacobian, and against the infinity norm of diag(h*) J, which bounds it."""
    basis, spec, report, _ = solve_graph(build_path(n), sigma2=sigma2, mu2=mu2,
                                         weight_rule=rule, eta=eta)
    h = report.h_star.h
    a = mu2 * (np.ones(n) if rule is WeightRule.UNIFORM else basis.lambdas) / 2.0
    jac = -np.diag(a / (sigma2 + h) ** 2)
    if eta:
        jac += eta * spec.coupling
    rate = report.contraction_ratio
    ref = max(abs(np.linalg.eigvals(jac * h[None, :])))
    assert abs(rate - ref) <= 1e-12 * ref
    assert rate <= np.max(np.sum(np.abs(h[:, None] * jac), axis=1)) * (1 + 1e-12)
    if not eta:
        assert abs(rate - np.max(h * a / (sigma2 + h) ** 2)) <= 1e-12 * rate


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


def test_vacuum_solution(p8):
    """With no source the solver's fixed point is h0 / e, for any reference h0."""
    basis, _ = p8
    h0 = np.linspace(0.5, 4.0, 8)
    vac = solve_fixed_point(SourceSpec(mu2=0.0), basis, h0).h_star
    assert np.allclose(vac.h, np.exp(-1.0) * h0, rtol=1e-15, atol=0)
    assert np.allclose(geometric_R(vac), 0.0, atol=1e-15)
    twice = solve_fixed_point(SourceSpec(mu2=0.0), basis, vac.h).h_star
    assert np.allclose(twice.h, h0 * np.exp(-2.0))


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
    straight = _fisher_rao_length(lambda t: np.exp(a + b * t))
    assert abs(straight - np.linalg.norm(b) / np.sqrt(2)) <= 1e-8 * straight
    for _ in range(5):
        c = 0.3 * rng.normal(size=8)
        k = rng.integers(1, 4)
        bent = _fisher_rao_length(lambda t: np.exp(a + c * np.sin(k * np.pi * t) + b * t))
        assert bent > straight


@pytest.mark.parametrize("rule", list(WeightRule))
@pytest.mark.parametrize("target, eps", [(name, eps) for name in SWEEP_TARGETS for eps in EPS_GRID])
def test_decoupled_fixed_point_is_stationary(target, eps, rule):
    """Corollary "selfconsistent": with no coupling, h*_l is a stationary point of
    phi_l(x) = -x ln(x / h0_l) - (mu2 w_l / 2) ln(sigma2 + x), mode by mode."""
    spec, (u, v) = SWEEP_TARGETS[target]
    sigma2, mu2 = 1.0, 2.0
    basis, _, report, _ = solve_graph(weaken_edge(parse_graph_spec(spec), u, v, eps), sigma2=sigma2, mu2=mu2,
                                      weight_rule=rule)
    h0, h = report.h_star.h0, report.h_star.h
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

    Measured: relative error at most 5.2e-14 (uniform weights; trunk at eps = 1 with
    eigenvalue weights), set by the residual the last Newton step leaves below tol. Picard
    alone stopped up to 7.1e-13 from the root (path, eps = 0.02, eigenvalue weights).
    """
    if target == "p8":
        g = build_path(8)
    else:
        spec, (u, v) = SWEEP_TARGETS[target]
        g = weaken_edge(parse_graph_spec(spec), u, v, eps)
    sigma2, mu2 = 1.0, 2.0
    basis, _, report, _ = solve_graph(g, sigma2=sigma2, mu2=mu2, weight_rule=rule)
    h = report.h_star.h
    w = basis.lambdas if rule is WeightRule.EIGENVALUE else np.ones(basis.n)
    for l in range(basis.n):
        a = mu2 * w[l] / 2  # exact in binary64, since mu2 = 2
        root = mp_findroot(lambda x: mpmath.log(x) + 1 + a / (sigma2 + x), h[l])
        assert mp_rel_error(h[l], root) <= 1e-13


# The golden uncoupled solves (CLI defaults sigma2 = 1, mu2 = 2) and the uncoupled rows of
# the builtin sweeps (eigenvalue weights). An uncoupled h*_l depends on lambda_l alone, so
# the trunk's five-fold eigenvalue does not enter it.
_ORACLE_CASES = [("path:8", None, WeightRule.UNIFORM),
                 ("river:6,1,2,3,2", None, WeightRule.EIGENVALUE),
                 ("path:64", None, WeightRule.UNIFORM)] + [
    (name, eps, WeightRule.EIGENVALUE) for name in SWEEP_TARGETS for eps in EPS_GRID]


@pytest.mark.parametrize("graph, eps, rule", _ORACLE_CASES)
def test_h_star_is_the_root_of_the_binary64_laplacian(graph, eps, rule, mp_eigvalsh,
                                                      mp_findroot):
    """The pipeline's h* against the exact fixed point of the same binary64 Laplacian: per
    mode the root of u + 1 + a_l / (sigma2 + e^u) = 0, u = ln h_l, a_l = mu2 w_l / 2, with
    w_l the 50-digit eigenvalue for eigenvalue weights, by mpmath.findroot at 50 digits in
    log space (in h, findroot fails on modes with tiny h). So the error counts both the
    eigenvalues' rounding and the solver's stop.

    Measured: relative error at most 5.2e-14 (path:8 and path:64 with uniform weights,
    trunk at eps = 1) and at most 4.1e-15 on every other case (path at eps = 0.109). The
    plain Picard loop stops 1.3e-13 to 7.1e-13 from the root on the same cases; the test
    asserts that the solver ends closer on each.
    """
    g = parse_graph_spec(graph) if eps is None else weaken_edge(
        parse_graph_spec(SWEEP_TARGETS[graph][0]), *SWEEP_TARGETS[graph][1], eps)
    basis, spec, report, _ = solve_graph(g, weight_rule=rule)
    w = mp_eigvalsh(laplacian(g)) if rule is WeightRule.EIGENVALUE else [1] * basis.n

    roots = [mp_findroot(lambda u: u + 1 + spec.mu2 * w[l] / 2 / (spec.sigma2 + mpmath.exp(u)),
                         math.log(report.h_star.h[l])) for l in range(basis.n)]

    def error(h):  # max |ln h_l - u_l|, which is |dh / h| to first order
        with mpmath.workdps(ORACLE_DPS):
            return max(float(abs(mpmath.log(x) - u)) for x, u in zip(h, roots))

    assert report.converged
    newton = error(report.h_star.h)
    assert newton <= 1e-13 and newton < error(_picard_h(spec, basis, np.ones(basis.n)))


def _coupling_reference(basis, g):
    """C from the adjacency of g's edge list: |Phi^T A Phi|, zero diagonal,
    rows with off-diagonal mass above 1e-14 normalized to sum 1."""
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = a[v, u] = w
    phi = basis.vectors
    c = np.abs(phi.T @ a @ phi)
    np.fill_diagonal(c, 0.0)
    sums = c.sum(axis=1)
    keep = sums > 1e-14
    c[keep] /= sums[keep, None]
    c[~keep] = 0.0
    return c


def _random_tree(seed):
    """A random spanning tree on 10 to 14 nodes with weights in [0.5, 2]."""
    rng = random.Random(seed)
    n = rng.randint(10, 14)
    return Graph(n, tuple((v, rng.randrange(v), round(rng.uniform(0.5, 2.0), 6))
                          for v in range(1, n)))


def _coupling_graph(case):
    kind, arg = case
    if kind == "sweep":
        name, eps = arg
        spec, (u, v) = SWEEP_TARGETS[name]
        return weaken_edge(parse_graph_spec(spec), u, v, eps)
    return parse_graph_spec(arg) if kind == "spec" else _random_tree(arg)


@pytest.mark.parametrize("case", [
    *(("sweep", (name, eps)) for name in SWEEP_TARGETS for eps in EPS_GRID),
    ("spec", "path:64"),
    *(("tree", seed) for seed in range(20)),
], ids=str)
def test_build_coupling_reads_the_graph_adjacency_from_the_basis(case):
    g = _coupling_graph(case)
    basis = eig_symmetric(laplacian(g))
    assert np.array_equal(build_coupling(basis), _coupling_reference(basis, g))


def test_build_coupling_structure(p8):
    basis, _ = p8
    c = build_coupling(basis)
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
