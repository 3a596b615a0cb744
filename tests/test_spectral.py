import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernelfield import (
    DimensionMismatchError,
    InvalidMatrixError,
    SourceSpec,
    SpectralKernel,
    WeightRule,
    build_coupling,
    build_path,
    diagnostics_record,
    eig_symmetric,
    heat_kernel_weights,
    hs_distance,
    laplacian,
    materialize_kernel,
    solve_fixed_point,
    stability_report,
    weaken_edge,
)
from kernelfield import spectral
from kernelfield.experiments import EPS_GRID, SWEEP_TARGETS
from kernelfield.spectral import _jacobi, eigenbasis_to_csv

SWEEP_ROWS = [(name, eps) for name in SWEEP_TARGETS for eps in EPS_GRID]


def _sweep_laplacian(target, eps):
    make, (u, v) = SWEEP_TARGETS[target]
    g = weaken_edge(make(), u, v, eps)
    return g, laplacian(g)

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
    _, lap = _sweep_laplacian(target, eps)
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
    lap = laplacian(build_path(8)) if target == "p8" else _sweep_laplacian(target, eps)[1]
    lambdas = eig_symmetric(lap).lambdas
    ref = mp_eigvalsh(lap)
    assert lambdas[0] == 0.0 and abs(ref[0]) <= 1e-15
    assert max(mp_rel_error(lambdas[l], ref[l]) for l in range(1, len(ref))) <= 1e-13


@pytest.mark.parametrize("target, eps", SWEEP_ROWS)
def test_values_only_basis_has_the_same_eigenvalues(target, eps, jacobi_calls):
    """Until vectors is read the basis holds values only; the first read runs the Jacobi once."""
    _, lap = _sweep_laplacian(target, eps)
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
    _, lap = _sweep_laplacian(target, eps)
    basis = eig_symmetric(lap)
    residual = np.max(np.abs(lap @ basis.vectors - basis.vectors * basis.lambdas))
    assert residual <= 1e-12 * np.max(np.abs(basis.lambdas))


def test_vector_readers_share_one_jacobi_run(jacobi_calls):
    g, lap = _sweep_laplacian("path", 1.0)
    basis = eig_symmetric(lap)
    assert jacobi_calls == []
    build_coupling(basis, g)
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


def test_hs_distance_trivial(p8_basis):
    k1 = SpectralKernel(np.ones(8), np.ones(8))
    k2 = SpectralKernel(2 * np.ones(8), np.ones(8))
    assert hs_distance(p8_basis, k1, k1) == 0.0
    assert abs(hs_distance(p8_basis, k1, k2) - np.sqrt(8)) <= 1e-12


def test_isometry_batch(p8_basis):
    # spectral distance must equal Frobenius distance of materialized kernels
    rng = np.random.default_rng(7)
    for _ in range(100):
        h1 = rng.uniform(0.05, 5.0, size=8)
        h2 = rng.uniform(0.05, 5.0, size=8)
        k1 = SpectralKernel(h1, np.ones(8))
        k2 = SpectralKernel(h2, np.ones(8))
        frob = np.linalg.norm(materialize_kernel(p8_basis, k1) - materialize_kernel(p8_basis, k2), "fro")
        assert abs(hs_distance(p8_basis, k1, k2) - frob) <= 1e-9


def test_dimension_mismatch(p8_basis):
    with pytest.raises(DimensionMismatchError):
        materialize_kernel(p8_basis, SpectralKernel(np.ones(4), np.ones(4)))


def test_kernel_requires_positive_weights():
    from kernelfield import DomainError
    with pytest.raises(DomainError):
        SpectralKernel(np.array([1.0, 0.0]), np.ones(2))


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (6, 6), elements=st.floats(-5, 5)))
def test_jacobi_on_random_symmetric(a):
    sym = (a + a.T) / 2.0
    basis = eig_symmetric(sym)
    assert np.all(np.diff(basis.lambdas) >= -1e-12)
    assert np.max(np.abs(basis.vectors.T @ basis.vectors - np.eye(6))) <= 1e-9
    assert np.max(np.abs((basis.vectors * basis.lambdas) @ basis.vectors.T - sym)) <= 1e-8


def test_eigenbasis_csv(p8_basis):
    lines = eigenbasis_to_csv(p8_basis).strip().split("\n")
    assert len(lines) == 8
    cells = lines[1].split(",")
    assert cells[0] == "1"
    assert float(cells[1]) == p8_basis.lambdas[1]  # 17 sig digits round-trips
