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
