"""The independent high-precision oracle: mpmath at 50 digits."""

import mpmath
import numpy as np
import pytest

ORACLE_DPS = 50


@pytest.fixture(scope="session")
def mp_eigvalsh():
    """Ascending eigenvalues of a float symmetric matrix, as mpf (mpmath.eigsy)."""

    def eigvalsh(mat: np.ndarray) -> list:
        with mpmath.workdps(ORACLE_DPS):
            ev = mpmath.eigsy(mpmath.matrix(mat.tolist()), eigvals_only=True)
            return sorted(ev[i] for i in range(mat.shape[0]))

    return eigvalsh


@pytest.fixture(scope="session")
def mp_rel_error():
    """|value - ref| / |ref| of a float against an mpf, evaluated at the oracle's precision."""

    def rel_error(value: float, ref) -> float:
        with mpmath.workdps(ORACLE_DPS):
            return float(abs(mpmath.mpf(value) - ref) / abs(ref))

    return rel_error


@pytest.fixture(scope="session")
def mp_findroot():
    """The root of a scalar function near a float start, as mpf (mpmath.findroot)."""

    def findroot(f, start: float):
        with mpmath.workdps(ORACLE_DPS):
            return mpmath.findroot(f, mpmath.mpf(start))

    return findroot


@pytest.fixture(scope="session")
def mp_eigenvectors():
    """mpmath.eigsy's eigenvector columns of a float symmetric matrix, in ascending
    eigenvalue order, rounded to binary64: the best columns binary64 can hold."""

    def eigenvectors(mat: np.ndarray) -> np.ndarray:
        n = mat.shape[0]
        with mpmath.workdps(ORACLE_DPS):
            ev, q = mpmath.eigsy(mpmath.matrix(mat.tolist()))
            order = sorted(range(n), key=lambda i: ev[i])
            return np.array([[float(q[i, j]) for j in order] for i in range(n)])

    return eigenvectors


@pytest.fixture(scope="session")
def mp_eig_residual():
    """max |L Phi - Phi Lambda| of a float matrix, eigenvalues and columns, evaluated
    at the oracle's precision, so no binary64 rounding enters the residual itself."""

    def residual(mat: np.ndarray, lambdas: np.ndarray, vectors: np.ndarray) -> float:
        n = mat.shape[0]
        with mpmath.workdps(ORACLE_DPS):
            phi = mpmath.matrix(vectors.tolist())
            lphi = mpmath.matrix(mat.tolist()) * phi
            return float(max(abs(lphi[i, j] - phi[i, j] * mpmath.mpf(float(lambdas[j])))
                             for i in range(n) for j in range(n)))

    return residual


@pytest.fixture
def no_numpy_linalg(monkeypatch):
    """Make every numpy.linalg function raise, so that a test shows its code path makes no
    LAPACK call: not eigvalsh, nor any eigensolver, inverse, factorisation or solve."""

    def forbid(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")
        return raiser

    for name, value in list(vars(np.linalg).items()):
        if callable(value) and not name.startswith("_") and not isinstance(value, type):
            monkeypatch.setattr(np.linalg, name, forbid(name))
