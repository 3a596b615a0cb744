"""Dense symmetric eigendecomposition and spectral kernel primitives.

Every eigenvalue comes from LAPACK (numpy.linalg.eigvalsh): the Laplacian
spectrum here, the stability Hessian's in stability. eig_symmetric is the
one basis constructor. It computes the eigenvalues at once and the
eigenvector columns on the first read of EigenBasis.vectors, since the
uncoupled field equation, its Hessian and the spectral entropy depend on
the eigenvalues alone. The columns come from a cyclic Jacobi sweep:
deterministic, and accurate well past the 1e-9 residual budget at the
matrix sizes used here. The Jacobi stays because the coupled outputs read
the eigenvectors, which are not unique where an eigenvalue repeats: until
the basis is made canonical on such subspaces, another solver would change
those numbers. Its NumericalError therefore comes from reading vectors.
An eigenvector's sign is not fixed here; every reader but eigenbasis.csv
is invariant under flipping a column, and that file applies its own sign
convention.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, DomainError, InvalidMatrixError, NumericalError

_OFFDIAG_TOL = 1e-12
_MAX_SWEEPS = 100


@dataclass(frozen=True)
class EigenBasis:
    """Ascending eigenvalues with orthonormal eigenvectors (column l <-> lambdas[l]).

    Build it with eig_symmetric. vectors is computed on its first read from
    the symmetrized matrix the basis keeps, and cached.
    """

    lambdas: np.ndarray
    matrix: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @cached_property
    def vectors(self) -> np.ndarray:
        """Read-only eigenvector columns from the Jacobi sweep, ordered by its eigenvalues.

        Raises:
            NumericalError: sweep budget exhausted.
        """
        jacobi_lam, vec = _jacobi(self.matrix.copy())
        vec = vec[:, np.argsort(jacobi_lam, kind="stable")]
        vec.setflags(write=False)
        return vec


def check_positive(h: np.ndarray):
    """Raise DomainError unless every weight in h is strictly positive."""
    if np.any(h <= 0):
        raise DomainError("spectral weights must be strictly positive")


@dataclass(frozen=True)
class SpectralKernel:
    """Positive spectral weights h with a positive reference h0."""

    h: np.ndarray
    h0: np.ndarray

    def __post_init__(self):
        if self.h.shape != self.h0.shape:
            raise DimensionMismatchError("h and h0 must have the same length")
        check_positive(self.h)
        check_positive(self.h0)


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi rotations; returns (eigenvalues, eigenvector columns) unsorted."""
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= _OFFDIAG_TOL:
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
                    t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
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
        raise NumericalError(f"Jacobi sweep did not converge in {_MAX_SWEEPS} sweeps")
    return np.diag(a).copy(), v


def _symmetrized(mat) -> np.ndarray:
    """(mat + mat^T) / 2 of a checked real square matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InvalidMatrixError("matrix has a non-finite entry")
    if np.max(np.abs(mat - mat.T)) > 1e-9:
        raise InvalidMatrixError("matrix is not symmetric")
    return (mat + mat.T) / 2.0


def _eigenvalues(sym: np.ndarray) -> np.ndarray:
    """LAPACK's ascending eigenvalues, a bottom one in [-1e-10, 1e-10] set to 0, read-only."""
    lam = np.linalg.eigvalsh(sym)
    if abs(lam[0]) < 1e-10:
        lam[0] = 0.0
    lam.setflags(write=False)
    return lam


def eig_symmetric(mat: np.ndarray) -> EigenBasis:
    """Eigendecompose a symmetric matrix into an ascending basis.

    The eigenvalues come from LAPACK, and an eigenvalue in [-1e-10, 1e-10]
    at the bottom of the spectrum is clamped to exactly 0 so
    eigenvalue-derived mode weights stay sign-clean. The eigenvector
    columns come from the cyclic Jacobi sweep when vectors is first read,
    so that read may raise the sweep's NumericalError. Each eigenvector's
    sign is whatever the sweep produced.

    Raises:
        InvalidMatrixError: not square, a non-finite entry, or asymmetry
            above 1e-9.
    """
    sym = _symmetrized(mat)
    sym.setflags(write=False)
    return EigenBasis(_eigenvalues(sym), sym)


def materialize_kernel(basis: EigenBasis, kernel: SpectralKernel) -> np.ndarray:
    """K = Phi diag(h) Phi^T.

    Raises:
        DimensionMismatchError: kernel and basis sizes differ.
        NumericalError: the Jacobi sweep behind basis.vectors failed.
    """
    if len(kernel.h) != basis.n:
        raise DimensionMismatchError("kernel length does not match basis size")
    phi = basis.vectors
    return (phi * kernel.h) @ phi.T


def hs_distance(basis: EigenBasis, k1: SpectralKernel, k2: SpectralKernel) -> float:
    """Hilbert-Schmidt distance; equals the Euclidean distance of the weight vectors."""
    if len(k1.h) != basis.n or len(k2.h) != basis.n:
        raise DimensionMismatchError("kernel length does not match basis size")
    return float(np.sqrt(np.sum((k1.h - k2.h) ** 2)))


def heat_kernel_weights(basis: EigenBasis, tau: float) -> SpectralKernel:
    """Heat-kernel transfer function h_l = exp(-lambda_l * tau), reference all-ones."""
    if not tau > 0:
        raise DomainError(f"tau must be positive, got {tau}")
    return SpectralKernel(np.exp(-basis.lambdas * tau), np.ones(basis.n))


def eigenbasis_to_csv(basis: EigenBasis) -> str:
    """One row per mode: index, eigenvalue, then the eigenvector components.

    Sign convention: each eigenvector is printed with its first component
    of magnitude above 1e-12 positive.

    Raises:
        NumericalError: the Jacobi sweep behind basis.vectors failed.
    """
    phi = basis.vectors
    buf = io.StringIO()
    for l in range(basis.n):
        col = phi[:, l]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if len(nz) and col[nz[0]] < 0:
            col = -col
        cells = [str(l), f"{basis.lambdas[l]:.17g}"]
        cells += [f"{x:.17g}" for x in col]
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()
