import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernelfield import (
    DomainError,
    Graph,
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
    weaken_edge,
)
from kernelfield.experiments import EPS_GRID, SWEEP_TARGETS, solve_graph
from kernelfield.graph import parse_graph_spec
from kernelfield.diagnostics import shannon
from kernelfield.spectral import _jacobi
from kernelfield.stability import _offdiag_row_entropy


@pytest.fixture(scope="module")
def p8():
    return eig_symmetric(laplacian(build_path(8)))


# The source-free fixed point on P8 from h0 = 1.
VACUUM = SpectralKernel(np.exp(-1.0) * np.ones(8), np.ones(8))


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
    hess = hessian(spec, p8, VACUUM)
    assert np.allclose(hess, -np.e * np.eye(8), atol=1e-12)


def test_coupled_hessian_offdiagonal(p8):
    c = build_coupling(p8)
    spec = SourceSpec(eta=0.05, coupling=c)
    kernel = SpectralKernel(np.ones(8), np.ones(8))
    hess = hessian(spec, p8, kernel)
    off = hess - np.diag(np.diag(hess))
    assert np.allclose(off, -0.05 * (c - np.diag(np.diag(c))), atol=1e-15)


def test_margins(p8, exp2_state):
    spec, kernel = exp2_state
    assert np.allclose(stability_report(spec, p8, kernel).margins, 5.71, atol=0.01)
    vac_margin = stability_report(SourceSpec(mu2=0.0), p8, VACUUM).margins
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
    vac = stability_report(SourceSpec(mu2=0.0), p8, VACUUM)
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
    c = build_coupling(p8)
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
    c = build_coupling(p8)
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


# sigma2 log-uniform on [0.1, 10] and mu2 uniform on [0, 8], as the param-scan
# benchmark draws them.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from([8, 64, 128]).flatmap(
           lambda n: arrays(np.float64, (n,), elements=st.floats(0.05, 5.0))),
       st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
       st.floats(0.0, 8.0),
       st.sampled_from(list(WeightRule)))
def test_diagonal_case_margin_iff_stable(h, sigma2, mu2, rule):
    basis = _path_basis(len(h))
    spec = SourceSpec(sigma2=sigma2, mu2=mu2, weight_rule=rule)
    rep = stability_report(spec, basis, SpectralKernel(h, np.ones(len(h))))
    off = rep.hessian - np.diag(np.diag(rep.hessian))
    assert np.max(np.abs(off)) == 0
    # Bit for bit what LAPACK gives for sym(H): the uncoupled stability.json
    # and exp4 outputs rest on it.
    lapack = np.linalg.eigvalsh((rep.hessian + rep.hessian.T) / 2.0)
    assert rep.eigenvalues.tobytes() == lapack.tobytes()
    assert rep.stable == bool(np.all(rep.margins > 0))


def test_uncoupled_report_needs_no_eigensolve(p8, monkeypatch):
    """Corollary "hessian": without coupling H is diagonal, so its sorted
    diagonal is its spectrum."""
    spec = SourceSpec(sigma2=1.0, mu2=2.0, weight_rule=WeightRule.EIGENVALUE)
    h = solve_fixed_point(spec, p8, np.ones(8)).h_star

    def no_eigvalsh(mat):
        raise AssertionError("eigvalsh called on a diagonal Hessian")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    rep = stability_report(spec, p8, h)
    assert rep.stable and rep.eigenvalues[-1] == -rep.hessian_gap


def _reference_row_entropy(mat):
    """_offdiag_row_entropy as it was before the empty-row term ln(N-1) was
    taken out of the loop: the same terms, added in the same order."""
    mag = np.abs(mat)
    n = mag.shape[0]
    total = 0.0
    for l in range(n):
        off = np.delete(mag[l], l)
        mass = off.sum()
        if mass == 0:
            total += np.log(n - 1)
            continue
        total += shannon(off / mass)
    return total / n


def _reference_uncoupled_report(basis, hess):
    """An uncoupled stability report as it was assembled before, reading H's diagonal twice."""
    eigs = np.sort(np.diag(hess))
    margins = -np.diag(hess)
    return StabilityReport(
        hessian=hess,
        eigenvalues=eigs,
        margins=margins,
        hessian_gap=float(-eigs[-1]),
        fiedler_gap=float(margins[basis.components:].min()),
        coupling_entropy=_reference_row_entropy(hess),
        stable=bool(eigs[-1] < 0),
    )


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _offdiag_matrices(draw):
    """N in [2, 128]: a diagonal matrix, or a dense one of either sign with some
    rows' off-diagonal part zeroed (N = 2 has ln(N-1) = 0)."""
    n = draw(st.integers(2, 128))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, n))
    if draw(st.booleans()):
        return np.diag(np.diag(mat))
    for l in rng.choice(n, size=draw(st.integers(1, n)), replace=False):
        mat[l, np.arange(n) != l] = 0.0
    mat[rng.random((n, n)) < draw(st.floats(0.0, 0.9))] = 0.0  # scattered exact zeros
    return mat


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_offdiag_matrices())
def test_row_entropy_matches_the_per_row_reference_bit_for_bit(mat):
    new, ref = _offdiag_row_entropy(mat), _reference_row_entropy(mat)
    assert type(new) is type(ref) and float(new).hex() == float(ref).hex()


# The param-scan workload's draw: path:N bases, sigma2 log-uniform on
# [0.1, 10], mu2 uniform on [0, 8], either weight rule, solved from h0 = 1.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 128),
       st.floats(math.log(0.1), math.log(10.0)).map(math.exp),
       st.floats(0.0, 8.0),
       st.sampled_from(list(WeightRule)))
def test_uncoupled_report_matches_the_reference_bit_for_bit(n, sigma2, mu2, rule):
    basis = _path_basis(n)
    spec = SourceSpec(sigma2=sigma2, mu2=mu2, weight_rule=rule)
    kernel = solve_fixed_point(spec, basis, np.ones(n)).h_star
    rep = stability_report(spec, basis, kernel)
    ref = _reference_uncoupled_report(basis, hessian(spec, basis, kernel))
    for name in ("hessian", "eigenvalues", "margins", "hessian_gap", "fiedler_gap",
                 "coupling_entropy", "stable"):
        assert _same_bits(getattr(rep, name), getattr(ref, name)), name
        assert type(getattr(rep, name)) is type(getattr(ref, name)), name
    assert np.count_nonzero(rep.hessian + np.diag(rep.margins)) == 0  # every row is empty
    assert rep.to_json().encode() == ref.to_json().encode()


def _coupled_row(g, u, v, eps):
    """The stability report of one coupled sweep row, from the pipeline it runs."""
    return solve_graph(weaken_edge(g, u, v, eps), weight_rule=WeightRule.EIGENVALUE, eta=0.05)[3]


@pytest.mark.parametrize("target, u, v, eps", [
    *((name, *edge, eps) for name, (_, edge) in SWEEP_TARGETS.items() for eps in EPS_GRID),
    ("path64", 31, 32, 0.109),
])
def test_hessian_eigenvalues_match_the_jacobi_solver(target, u, v, eps):
    g = build_path(64) if target == "path64" else parse_graph_spec(SWEEP_TARGETS[target][0])
    rep = _coupled_row(g, u, v, eps)
    sym = (rep.hessian + rep.hessian.T) / 2.0
    assert np.max(np.abs(sym - np.diag(np.diag(sym)))) > 1e-6  # a dense case
    jacobi = np.sort(_jacobi(sym.copy())[0])
    assert np.all(np.abs(rep.eigenvalues - jacobi) <= 1e-13 * np.abs(jacobi))


@pytest.mark.parametrize("target, eps", [(name, eps) for name in SWEEP_TARGETS for eps in EPS_GRID])
def test_hessian_eigenvalues_match_mpmath(target, eps, mp_eigvalsh, mp_rel_error):
    """LAPACK's eigenvalues of sym(H) on the coupled sweep rows against 50-digit
    mpmath.eigsy on the same binary64 matrix. Measured: relative error at most
    3.5e-14 (trunk, eps=0.109)."""
    spec, (u, v) = SWEEP_TARGETS[target]
    rep = _coupled_row(parse_graph_spec(spec), u, v, eps)
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


def _union_find_components(n, edges):
    parent = list(range(n))

    def root(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for u, v, _ in edges:
        parent[root(u)] = root(v)
    return sum(root(u) == u for u in range(n))


@st.composite
def _relabelled_graphs(draw):
    """1 to 12 nodes, any edge subset, weights log-uniform in [1e-12, 1e12],
    and the nodes relabelled by a random permutation."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    label = draw(st.permutations(range(n)))
    return Graph(n, tuple((label[u], label[v], 10.0 ** draw(st.floats(-12.0, 12.0))) for u, v in chosen))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_relabelled_graphs(), st.data())
def test_fiedler_gap_skips_one_zero_mode_per_component(g, data):
    """The zero modes are counted from the graph's structure, not by a
    tolerance on eigenvalues whose rounding scales with the largest weight."""
    basis = eig_symmetric(laplacian(g))
    assert basis.components == _union_find_components(g.n, g.edges)
    h = np.array(data.draw(st.lists(st.floats(0.05, 5.0), min_size=g.n, max_size=g.n)))
    kernel = SpectralKernel(h, np.ones(g.n))
    spec = SourceSpec(sigma2=1.0, mu2=2.0, weight_rule=WeightRule.EIGENVALUE)
    if basis.components == g.n:
        with pytest.raises(DomainError, match="the graph has no edge"):
            stability_report(spec, basis, kernel)
        return
    rep = stability_report(spec, basis, kernel)
    assert rep.fiedler_gap == np.min(rep.margins[basis.components:])
