import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernelfield import (
    DimensionMismatchError,
    DomainError,
    InvalidMatrixError,
    NumericalError,
    SourceSpec,
    SpectralKernel,
    WeightRule,
    build_coupling,
    build_path,
    diagnostics_record,
    eig_symmetric,
    fisher_rao_diag,
    heat_kernel_weights,
    hessian,
    laplacian,
    materialize_kernel,
    residual_inf,
    solve_fixed_point,
    source_jacobian,
    source_T,
    spectral_entropy,
    stability_report,
    weaken_edge,
)
from kernelfield import field, spectral
from kernelfield.experiments import EPS_GRID, SWEEP_TARGETS, solve_graph
from kernelfield.graph import Graph, parse_graph_spec
from kernelfield.spectral import _jacobi, eigenbasis_to_csv

SWEEP_ROWS = [(name, eps) for name in SWEEP_TARGETS for eps in EPS_GRID]


def _sweep_laplacian(target, eps):
    spec, (u, v) = SWEEP_TARGETS[target]
    return laplacian(weaken_edge(parse_graph_spec(spec), u, v, eps))

P8_SPECTRUM = np.array([2 - 2 * np.cos(np.pi * l / 8) for l in range(8)])


@pytest.fixture
def jacobi_calls(monkeypatch):
    """The list of matrix shapes spectral._jacobi is called on during the test."""
    calls = []

    def counting_jacobi(a):
        calls.append(a.shape)
        return _jacobi(a)

    monkeypatch.setattr(spectral, "_jacobi", counting_jacobi)
    return calls


@pytest.fixture(scope="module")
def p8_basis():
    return eig_symmetric(laplacian(build_path(8)))


def test_p8_closed_form_spectrum(p8_basis):
    assert np.max(np.abs(p8_basis.lambdas - P8_SPECTRUM)) <= 1e-9
    assert p8_basis.lambdas[0] == 0.0
    assert abs(p8_basis.lambdas[1] - 0.152) < 1e-3
    assert abs(p8_basis.lambdas[7] - 3.848) < 1e-3


def test_p2_spectrum():
    basis = eig_symmetric(laplacian(build_path(2)))
    assert np.allclose(basis.lambdas, [0.0, 2.0])


def test_orthonormality_and_reconstruction(p8_basis):
    phi = p8_basis.vectors
    assert np.max(np.abs(phi.T @ phi - np.eye(8))) <= 1e-9
    lap = laplacian(build_path(8))
    assert np.max(np.abs((phi * p8_basis.lambdas) @ phi.T - lap)) <= 1e-9
    assert np.max(np.abs(lap @ phi - phi * p8_basis.lambdas)) <= 1e-9


@pytest.mark.parametrize("target, eps", SWEEP_ROWS)
def test_sweep_spectra_match_lapack(target, eps):
    """The LAPACK spectrum of every sweep Laplacian agrees with the Jacobi sweep's."""
    lap = _sweep_laplacian(target, eps)
    lambdas = eig_symmetric(lap).lambdas
    jacobi = np.sort(_jacobi(lap.copy())[0])
    assert np.all(np.abs(lambdas[1:] - jacobi[1:]) <= 1e-12 * lambdas[1:])
    assert lambdas[0] == 0.0
    assert abs(jacobi[0]) <= 1e-12


@pytest.mark.parametrize("target, eps", SWEEP_ROWS + [("p8", None)])
def test_laplacian_spectra_match_mpmath(target, eps, mp_eigvalsh, mp_rel_error):
    """LAPACK against 50-digit mpmath.eigsy on the same binary64 Laplacian.

    Measured: relative error at most 1.4e-14 (river, eps=0.02, on lambda1);
    the exact bottom eigenvalue is at most 2.8e-17, from the rounded degrees.
    """
    lap = laplacian(build_path(8)) if target == "p8" else _sweep_laplacian(target, eps)
    lambdas = eig_symmetric(lap).lambdas
    ref = mp_eigvalsh(lap)
    assert lambdas[0] == 0.0 and abs(ref[0]) <= 1e-15
    assert max(mp_rel_error(lambdas[l], ref[l]) for l in range(1, len(ref))) <= 1e-13


@pytest.mark.parametrize("target, eps", SWEEP_ROWS)
def test_values_only_basis_has_the_same_eigenvalues(target, eps, jacobi_calls):
    """Until vectors is read the basis holds values only; the first read runs the Jacobi once."""
    lap = _sweep_laplacian(target, eps)
    basis = eig_symmetric(lap)
    lambdas = basis.lambdas.copy()
    assert jacobi_calls == []
    phi = basis.vectors
    assert jacobi_calls == [lap.shape]
    assert basis.vectors is phi and len(jacobi_calls) == 1
    assert not phi.flags.writeable
    assert np.array_equal(basis.lambdas, lambdas)


def test_a_values_only_pipeline_runs_no_jacobi(jacobi_calls):
    """Solve, stability and diagnostics read eigenvalues only, as a parameter scan does."""
    basis = eig_symmetric(laplacian(build_path(128)))
    spec = SourceSpec(sigma2=1.0, mu2=2.0, weight_rule=WeightRule.EIGENVALUE)
    report = solve_fixed_point(spec, basis, np.ones(basis.n))
    stability_report(spec, basis, report.h_star)
    diagnostics_record(report.h_star.h, report.h_star.h0)
    assert report.converged and jacobi_calls == []


@pytest.mark.parametrize("target, eps", SWEEP_ROWS)
def test_lapack_eigenvalues_pair_with_the_jacobi_columns(target, eps):
    lap = _sweep_laplacian(target, eps)
    basis = eig_symmetric(lap)
    residual = np.max(np.abs(lap @ basis.vectors - basis.vectors * basis.lambdas))
    assert residual <= 1e-12 * np.max(np.abs(basis.lambdas))


@pytest.mark.parametrize("target, eps", SWEEP_ROWS + [("p8", None)])
def test_eigenvector_residual_matches_mpmath(target, eps, mp_eigenvectors, mp_eig_residual):
    """max|L Phi - Phi Lambda| at 50 digits with LAPACK's eigenvalues, for the
    basis's columns and for mpmath.eigsy's columns rounded to binary64.

    The oracle's columns show what binary64 attains, with no Jacobi in the
    reference. Measured, relative to max|lambda|: the oracle's at most 3.5e-16
    (river, eps=1); the Jacobi's at most 6.3e-14 (trunk, eps=0.287), where its
    absolute 1e-12 off-diagonal stop leaves the most.
    """
    lap = laplacian(build_path(8)) if target == "p8" else _sweep_laplacian(target, eps)
    basis = eig_symmetric(lap)
    scale = np.max(np.abs(basis.lambdas))
    assert mp_eig_residual(lap, basis.lambdas, mp_eigenvectors(lap)) <= 1e-15 * scale
    assert mp_eig_residual(lap, basis.lambdas, basis.vectors) <= 1e-12 * scale


def test_vector_readers_share_one_jacobi_run(jacobi_calls):
    basis = eig_symmetric(_sweep_laplacian("path", 1.0))
    assert jacobi_calls == []
    build_coupling(basis)
    materialize_kernel(basis, SpectralKernel(np.ones(8), np.ones(8)))
    eigenbasis_to_csv(basis)
    assert jacobi_calls == [(8, 8)]


def test_sign_convention_deterministic(p8_basis):
    again = eig_symmetric(laplacian(build_path(8)))
    assert np.array_equal(p8_basis.vectors, again.vectors)
    for l, line in enumerate(eigenbasis_to_csv(p8_basis).strip().split("\n")):
        col = np.array([float(x) for x in line.split(",")[2:]])
        assert np.array_equal(np.abs(col), np.abs(p8_basis.vectors[:, l]))
        first = col[np.abs(col) > 1e-12][0]
        assert first > 0


def test_rejects_asymmetric():
    with pytest.raises(InvalidMatrixError):
        eig_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrixError):
        eig_symmetric(np.ones((2, 3)))


def test_rejects_non_finite():
    with pytest.raises(InvalidMatrixError, match="non-finite"):
        eig_symmetric(np.array([[np.nan]]))
    with pytest.raises(InvalidMatrixError, match="non-finite"):
        eig_symmetric(np.array([[np.inf, -1.0], [-1.0, 1.0]]))


def test_rejects_an_empty_matrix():
    with pytest.raises(InvalidMatrixError, match="non-empty square"):
        eig_symmetric(np.zeros((0, 0)))


_HALF_MAX = float(np.finfo(np.float64).max) / 2.0


@pytest.mark.parametrize("mat", [
    [[1e308, -1e308], [-1e308, 1e308]],  # mat + mat.T overflows
    [[0.0, 9e307], [-9e307, 0.0]],  # mat - mat.T overflows
    [[np.nextafter(_HALF_MAX, np.inf)]],  # the smallest entry above the bound
])
def test_rejects_entries_whose_symmetrization_overflows(mat):
    """Each matrix is finite, and without the magnitude check symmetrizing it
    overflows with a RuntimeWarning (an error under the test suite's filter);
    the message names the bound."""
    with pytest.raises(InvalidMatrixError, match=re.escape(repr(_HALF_MAX))):
        eig_symmetric(np.array(mat))


def test_an_entry_at_the_overflow_bound_is_accepted():
    basis = eig_symmetric(np.diag([_HALF_MAX, -_HALF_MAX]))
    assert basis.lambdas.tolist() == [-_HALF_MAX, _HALF_MAX]


@pytest.mark.filterwarnings("error")
def test_rejects_an_eigenvalue_beyond_binary64():
    """Every entry is below the symmetrization bound, yet the top eigenvalue,
    3 * 8e307, is not a binary64 number: an input error, not an inf among the
    eigenvalues or an overflow warning."""
    with pytest.raises(InvalidMatrixError, match="eigenvalue beyond the binary64 range"):
        eig_symmetric(np.full((3, 3), 8e307))
    # Two such entries have the top eigenvalue 1.6e308, and tiny entries a scale whose
    # bound, the largest float over the scale, is inf: both pass without a warning.
    assert eig_symmetric(np.full((2, 2), 8e307)).lambdas[-1] == pytest.approx(1.6e308, rel=1e-15)
    assert eig_symmetric(np.full((3, 3), 1e-300)).lambdas[-1] == pytest.approx(3e-300, rel=1e-15)


@pytest.mark.parametrize("tau", [np.inf, np.nan, 0.0, -1.0, -np.inf])
def test_heat_kernel_rejects_a_tau_not_positive_and_finite(p8_basis, tau):
    with pytest.raises(DomainError, match="tau must be positive and finite"):
        heat_kernel_weights(p8_basis, tau)


def test_heat_kernel_names_a_tau_whose_weights_underflow(p8_basis):
    """exp(-lambda_7 tau) underflows to 0 on P8 at tau = 200 (lambda_7 = 3.848),
    which is named, with tau, rather than reported as a weight not positive."""
    top = float(p8_basis.lambdas[-1])
    with pytest.raises(DomainError, match=re.escape(f"tau = 200.0 underflows exp(-lambda tau) "
                                                    f"to 0 at the largest eigenvalue lambda = {top!r}")):
        heat_kernel_weights(p8_basis, 200.0)
    assert heat_kernel_weights(p8_basis, 150.0).h.min() > 0


@pytest.mark.filterwarnings("error")
def test_heat_kernel_names_a_tau_whose_weights_overflow():
    """On the negated P8 Laplacian exp(-lambda_0 tau) overflows at tau = 200
    (lambda_0 = -3.848): a DomainError naming tau and that eigenvalue, raised
    before numpy warns (a warning fails this test), rather than an inf weight."""
    basis = eig_symmetric(-laplacian(build_path(8)))
    least = float(basis.lambdas[0])
    with pytest.raises(DomainError, match=re.escape(f"tau = 200.0 overflows exp(-lambda tau) at "
                                                    f"the smallest eigenvalue lambda = {least!r}")):
        heat_kernel_weights(basis, 200.0)
    assert np.isfinite(heat_kernel_weights(basis, 150.0).h).all()


def test_materialize_identity(p8_basis):
    k = SpectralKernel(np.ones(8), np.ones(8))
    assert np.allclose(materialize_kernel(p8_basis, k), np.eye(8), atol=1e-12)


def test_materialize_recovers_laplacian(p8_basis):
    # h = eigenvalues is only a valid kernel off the zero mode; shift by
    # identity instead: h = lambda + 1 materializes L + I.
    k = SpectralKernel(p8_basis.lambdas + 1.0, np.ones(8))
    lap = laplacian(build_path(8))
    assert np.max(np.abs(materialize_kernel(p8_basis, k) - (lap + np.eye(8)))) <= 1e-9


def _expm_taylor(mat, terms=60, squarings=10):
    """Scaling-and-squaring Taylor series, independent of any eigensolver."""
    scaled = mat / (2.0**squarings)
    out = np.eye(mat.shape[0])
    term = np.eye(mat.shape[0])
    for k in range(1, terms):
        term = term @ scaled / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def test_heat_kernel_matches_matrix_exponential(p8_basis):
    lap = laplacian(build_path(8))
    k = heat_kernel_weights(p8_basis, 1.0)
    assert np.max(np.abs(materialize_kernel(p8_basis, k) - _expm_taylor(-lap))) <= 1e-8


def test_heat_kernel_weights_values(p8_basis):
    k = heat_kernel_weights(p8_basis, 1.0)
    assert k.h[0] == 1.0
    assert abs(k.h[2] - 0.5567) < 1e-4  # exp(-lambda_2), lambda_2 = 2 - 2cos(pi/4)


def test_heat_kernel_log_linear(p8_basis):
    h1 = heat_kernel_weights(p8_basis, 0.7).h
    h2 = heat_kernel_weights(p8_basis, 1.6).h
    h12 = heat_kernel_weights(p8_basis, 2.3).h
    assert np.max(np.abs(h1 * h2 - h12)) <= 1e-12


@pytest.mark.parametrize("target", list(SWEEP_TARGETS))
def test_isometry_batch(target):
    """Proposition "isometry": the Euclidean distance of the weights is the Frobenius
    distance of the materialized kernels, also where an eigenvalue repeats (trunk)."""
    basis = eig_symmetric(_sweep_laplacian(target, 1.0))
    rng = np.random.default_rng(7)
    for _ in range(100):
        h1 = rng.uniform(0.05, 5.0, size=basis.n)
        h2 = rng.uniform(0.05, 5.0, size=basis.n)
        k1 = SpectralKernel(h1, np.ones(basis.n))
        k2 = SpectralKernel(h2, np.ones(basis.n))
        frob = np.linalg.norm(materialize_kernel(basis, k1) - materialize_kernel(basis, k2), "fro")
        assert abs(np.linalg.norm(h1 - h2) - frob) <= 1e-9


def test_dimension_mismatch(p8_basis):
    with pytest.raises(DimensionMismatchError):
        materialize_kernel(p8_basis, SpectralKernel(np.ones(4), np.ones(4)))


def test_kernel_requires_positive_weights():
    with pytest.raises(DomainError):
        SpectralKernel(np.array([1.0, 0.0]), np.ones(2))


_P2_BASIS = eig_symmetric(laplacian(build_path(2)))
_NAN_ENTRIES = {
    "SpectralKernel-h": lambda h: SpectralKernel(h, np.ones(2)),
    "SpectralKernel-h0": lambda h: SpectralKernel(np.ones(2), h),
    "source_T": lambda h: source_T(SourceSpec(), _P2_BASIS, h),
    "source_jacobian": lambda h: source_jacobian(SourceSpec(), _P2_BASIS, h),
    "solve_fixed_point": lambda h: solve_fixed_point(SourceSpec(), _P2_BASIS, h),
    "spectral_entropy": spectral_entropy,
    "fisher_rao_diag": fisher_rao_diag,
    "diagnostics_record-h": lambda h: diagnostics_record(h, np.ones(2)),
    "diagnostics_record-h0": lambda h: diagnostics_record(np.ones(2), h),
}


def _spy_on_T(monkeypatch) -> list:
    """Record each evaluation of field._source_T, T's formula behind source_T and the solve."""
    steps = []
    source_T = field._source_T
    monkeypatch.setattr(field, "_source_T", lambda *args: steps.append(args) or source_T(*args))
    return steps


def test_the_T_spy_sees_each_step_of_a_valid_solve(monkeypatch):
    steps = _spy_on_T(monkeypatch)
    report = solve_fixed_point(SourceSpec(), _P2_BASIS, np.ones(2))
    assert report.converged
    assert len(steps) == report.iterations > 1


@pytest.mark.parametrize("entry", _NAN_ENTRIES.values(), ids=_NAN_ENTRIES.keys())
@pytest.mark.parametrize("h", [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]])
def test_a_nan_weight_is_a_domain_error(entry, h, monkeypatch):
    """NaN is not strictly positive; source_T and a solve refuse it before T is evaluated."""
    steps = _spy_on_T(monkeypatch)
    with pytest.raises(DomainError, match="spectral weights must be strictly positive"):
        entry(np.array(h))
    assert steps == []


_P8_BASIS = eig_symmetric(laplacian(build_path(8)))


def _at_p8(entry):
    """entry(spec, basis, kernel) on path:8 with a kernel of weights h and reference 1."""
    return lambda h: entry(SourceSpec(), _P8_BASIS, SpectralKernel(h, np.ones(h.shape)))


_LENGTH_ENTRIES = {
    "source_T": lambda h: source_T(SourceSpec(), _P8_BASIS, h),
    "source_jacobian": lambda h: source_jacobian(SourceSpec(), _P8_BASIS, h),
    "solve_fixed_point": lambda h: solve_fixed_point(SourceSpec(), _P8_BASIS, h),
    "residual_inf": _at_p8(residual_inf),
    "hessian": _at_p8(hessian),
    "stability_report": _at_p8(stability_report),
    "materialize_kernel": lambda h: materialize_kernel(_P8_BASIS, SpectralKernel(h, np.ones(h.shape))),
    "diagnostics_record": lambda h: diagnostics_record(np.ones(8), h),
}


@pytest.mark.parametrize("entry", _LENGTH_ENTRIES.values(), ids=_LENGTH_ENTRIES.keys())
@pytest.mark.parametrize("shape", [(1,), (3,), (9,), (8, 1)])
def test_a_kernel_of_the_wrong_length_is_a_dimension_mismatch(entry, shape):
    """A length-1 or an 8 x 1 kernel would broadcast against the 8 modes, and
    the others would fail inside numpy. Each is refused by name."""
    with pytest.raises(DimensionMismatchError, match="does not match basis size|same length"):
        entry(np.ones(shape))


@pytest.mark.parametrize("entry", [
    lambda: SpectralKernel(np.ones((8, 1)), np.ones((8, 1))),
    lambda: SpectralKernel(np.ones(()), np.ones(())),
    lambda: spectral_entropy(np.ones((2, 2))),
], ids=["kernel-8x1", "kernel-0d", "entropy-2x2"])
def test_weights_that_are_not_a_vector_are_a_dimension_mismatch(entry):
    """Spectral weights are one per mode: a column or a scalar is no kernel, and a 2 x 2
    array is not four weights."""
    with pytest.raises(DimensionMismatchError, match="vector"):
        entry()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(arrays(np.float64, (6, 6), elements=st.floats(-5, 5)))
@example(np.pad([[5e-324, 2.0]], ((0, 5), (0, 4))))  # theta underflows to 0
def test_jacobi_on_random_symmetric(a):
    sym = (a + a.T) / 2.0
    basis = eig_symmetric(sym)
    assert np.all(np.diff(basis.lambdas) >= -1e-12)
    assert np.max(np.abs(basis.vectors.T @ basis.vectors - np.eye(6))) <= 1e-9
    assert np.max(np.abs((basis.vectors * basis.lambdas) @ basis.vectors.T - sym)) <= 1e-8


def test_a_subnormal_off_diagonal_keeps_the_scaled_matrix_finite():
    """The scale never falls below 2^-52 max|entry|, so dividing a general
    symmetric matrix by it cannot overflow its diagonal."""
    mat = np.diag([5.0, 1.0, 2.0])
    mat[0, 1] = mat[1, 0] = 5e-324
    basis = eig_symmetric(mat)
    assert basis.scale == 2.0**-50
    assert np.array_equal(basis.lambdas, [1.0, 2.0, 5.0])
    assert np.array_equal(np.abs(basis.vectors), np.eye(3)[:, [1, 2, 0]])


def _textbook_jacobi(a):
    """The cyclic Jacobi sweep as the textbook writes it (Golub & Van Loan,
    section 8.5): rotate columns p and q of A, then rows p and q, zero
    A[p, q] and rotate columns p and q of V. A test-only reference for the
    stacked sweep in spectral._jacobi."""
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(spectral._MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= spectral._OFFDIAG_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-150 * abs(diff):
                    t = apq / diff  # negligible angle; theta itself would overflow
                elif diff == 0.0:
                    t = 1.0
                else:
                    theta = diff / (2.0 * apq)
                    t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vec_p, vec_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    else:
        raise NumericalError(f"Jacobi sweep did not converge in {spectral._MAX_SWEEPS} sweeps")
    return np.diag(a).copy(), v


def _assert_jacobi_matches_the_textbook_bitwise(sym):
    """Eigenvalues and columns equal to the last bit, signed zeros included,
    in the same C-contiguous layout."""
    lam, vec = _jacobi(sym.copy())
    ref_lam, ref_vec = _textbook_jacobi(sym.copy())
    assert np.array_equal(lam.view(np.int64), ref_lam.view(np.int64))
    assert np.array_equal(vec.view(np.int64), ref_vec.view(np.int64))
    assert vec.flags.c_contiguous


def _symmetric(draw, elements):
    n = draw(st.integers(1, 12))
    a = draw(arrays(np.float64, (n, n), elements=elements))
    return (a + a.T) / 2.0


@st.composite
def _jacobi_inputs(draw):
    """A general symmetric matrix, one of small integers (many equal diagonal
    entries, so the diff == 0 angle), or a unit-weight graph Laplacian (repeated
    eigenvalues), as eig_symmetric keeps it: exactly symmetric."""
    kind = draw(st.sampled_from(["general", "integer", "laplacian"]))
    if kind == "general":
        return _symmetric(draw, st.floats(-5, 5))
    if kind == "integer":
        return _symmetric(draw, st.integers(-3, 3).map(float))
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return laplacian(Graph(n, tuple((u, v, 1.0) for u, v in edges)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_jacobi_inputs())
@example(np.array([[0.0, 1.0], [1.0, 5e-324]]))  # theta underflows to 0: t = 1
def test_jacobi_is_bit_identical_to_the_textbook_sweep(sym):
    _assert_jacobi_matches_the_textbook_bitwise(sym)


# Paths at the sizes the coupled sweep rows of the benchmark run, intact and
# weakened at one edge to eps in [0.01, 1].
_LARGE_PATHS = ["path:64", "path:32:weaken=5,6,0.3", "path:32:weaken=20,21,0.0123",
                "path:48:weaken=23,24,0.01", "path:48:weaken=0,1,0.61",
                "path:64:weaken=5,6,0.3", "path:64:weaken=40,41,0.047", "path:64:weaken=62,63,0.9"]


@pytest.mark.parametrize("target, eps", SWEEP_ROWS + [(spec, None) for spec in _LARGE_PATHS])
def test_jacobi_is_bit_identical_to_the_textbook_sweep_on_sweep_laplacians(target, eps):
    lap = laplacian(parse_graph_spec(target)) if eps is None else _sweep_laplacian(target, eps)
    _assert_jacobi_matches_the_textbook_bitwise(lap)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.floats(-1e300, 1e300, allow_subnormal=True)
       | st.floats(-1e300, 1e300).map(lambda x: x * 1e-8)
       | st.floats(-2.0, 2.0)
       | st.sampled_from([5e-324, -2.2250738585072014e-308, 1e300, -1e300, 0.0, -0.0]))
def test_complex_abs_is_the_hypot_ufunc_bit_for_bit(x):
    """The Jacobi takes its angle from abs(complex(x, 1.0)): CPython's complex
    abs and numpy's float64 hypot both call the C library's hypot. A result
    is at least 1, so == compares every bit."""
    assert abs(complex(x, 1.0)) == np.hypot(x, 1.0)


def test_an_exhausted_sweep_raises_on_the_vectors_read(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_SWEEPS", 1)
    basis = eig_symmetric(laplacian(build_path(8)))
    with pytest.raises(NumericalError, match="did not converge in 1 sweeps"):
        basis.vectors


def test_eigenbasis_csv(p8_basis):
    lines = eigenbasis_to_csv(p8_basis).strip().split("\n")
    assert len(lines) == 8
    cells = lines[1].split(",")
    assert cells[0] == "1"
    assert float(cells[1]) == p8_basis.lambdas[1]  # 17 sig digits round-trips


# Unit-weight graphs with repeated eigenvalues (the trunk and the C8 cycle)
# and a weakened path whose lightest edge weighs 0.02.
_SCALE_GRAPHS = {
    "path": parse_graph_spec("path:8"),
    "river": parse_graph_spec("river:6,1,2,3,2"),
    "trunk": parse_graph_spec("trunk:4,3,3"),
    "cycle": Graph(8, tuple((i, (i + 1) % 8, 1.0) for i in range(8))),
    "path-weakened": parse_graph_spec("path:8:weaken=2,3,0.02"),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_SCALE_GRAPHS)), k=st.integers(-200, 300),
       eta=st.sampled_from([0.05, 0.3]))
def test_power_of_two_weights_scale_the_spectrum_and_nothing_else(name, k, eta):
    """Multiplying every weight by 2^k multiplies the Laplacian spectrum by 2^k
    and, with uniform mode weights, leaves the coupled solve bit-identical:
    the basis's tolerances act relative to the heaviest edge. The heaviest
    edge stays at most 2^300 < MAX_WEIGHT."""
    g = _SCALE_GRAPHS[name]
    scaled = Graph(g.n, tuple((u, v, w * 2.0**k) for u, v, w in g.edges))
    basis, spec, report, srep = solve_graph(g, eta=eta)
    basis_k, spec_k, report_k, srep_k = solve_graph(scaled, eta=eta)
    want = 2.0**k * basis.lambdas
    assert basis_k.lambdas[0] == 0.0
    assert np.all(np.abs(basis_k.lambdas - want) <= 1e-14 * np.abs(want))
    assert np.array_equal(report_k.h_star.h, report.h_star.h)
    assert np.array_equal(spec_k.coupling, spec.coupling)
    assert srep_k.coupling_entropy == srep.coupling_entropy
    assert srep_k.fiedler_gap == srep.fiedler_gap
    assert srep_k.hessian_gap == srep.hessian_gap
