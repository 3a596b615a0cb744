"""Dense symmetric eigendecomposition and spectral kernel primitives.

Every eigenvalue comes from LAPACK (numpy.linalg.eigvalsh): the Laplacian
spectrum here, a coupled stability Hessian's in stability (an uncoupled
one is diagonal: its spectrum is its sorted diagonal). eig_symmetric is the
one basis constructor. It computes the eigenvalues at once and the
eigenvector columns on the first read of EigenBasis.vectors, since the
uncoupled field equation, its Hessian and the spectral entropy depend on
the eigenvalues alone. The columns come from a cyclic Jacobi sweep:
deterministic, and accurate well past the 1e-9 residual budget at the
matrix sizes used here. It keeps A and V in one n x 2n array whose row l is
row l of A beside column l of V, so one in-place rotation of two rows
rotates A's rows and V's columns at once; since A stays exactly symmetric,
A's new rows are also its new columns off the rotated 2x2 block, and the
sweep is bit-identical to the textbook loop that rotates columns, then
rows, then V (see _jacobi). Each rotation's angle is computed in Python
floats with the C library's hypot, as np.hypot computes it, and reaches the
row ufuncs as 0-d float64 operands, which spare numpy converting a Python
float on every call. The Jacobi stays because the coupled outputs read the
eigenvectors, which are not unique where an eigenvalue repeats: until the
basis is made canonical on such subspaces, another solver would change
those numbers. Its NumericalError therefore comes from reading vectors.
An eigenvector's sign is not fixed here; every reader but eigenbasis.csv
is invariant under flipping a column, and that file applies its own sign
convention.

The absolute tolerances here (the bottom-eigenvalue clamp and the Jacobi's
stop) and build_coupling's empty-row test act on the kept matrix divided by
EigenBasis.scale, for a Laplacian the largest power of two not above the
heaviest edge. The division is exact, so scaling every weight by a power of
two scales the eigenvalues by it and leaves the eigenvectors bit-identical;
scale is 1 when the heaviest edge weighs 1.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, DomainError, InvalidMatrixError, NumericalError

_OFFDIAG_TOL = 1e-12
_MAX_SWEEPS = 100
_MAX_ENTRY = float(np.finfo(np.float64).max) / 2.0  # mat + mat.T and mat - mat.T stay finite


@dataclass(frozen=True)
class EigenBasis:
    """Ascending eigenvalues with orthonormal eigenvectors (column l <-> lambdas[l]).

    Build it with eig_symmetric. vectors and components are computed on
    their first read from the symmetrized matrix the basis keeps, and cached;
    vectors from that matrix over scale, components from its own nonzero
    pattern, which the division could underflow. For a graph Laplacian,
    components is the multiplicity of the zero eigenvalue, so the zero modes
    are the first `components` columns.
    """

    lambdas: np.ndarray
    matrix: np.ndarray = field(repr=False, compare=False)
    scale: float = field(compare=False)

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @cached_property
    def vectors(self) -> np.ndarray:
        """Read-only eigenvector columns from the Jacobi sweep, ordered by its eigenvalues.

        Raises:
            NumericalError: sweep budget exhausted.
        """
        jacobi_lam, vec = _jacobi(self.matrix / self.scale)
        vec = vec[:, np.argsort(jacobi_lam, kind="stable")]
        vec.setflags(write=False)
        return vec

    @cached_property
    def components(self) -> int:
        """Connected components of the kept matrix's off-diagonal nonzero pattern, by BFS."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in zip(*(idx.tolist() for idx in np.nonzero(self.matrix))):
            adj[u].append(v)  # a diagonal entry is a self-loop, which the search skips
        seen = [False] * self.n
        count = 0
        for start in range(self.n):
            if seen[start]:
                continue
            count += 1
            seen[start] = True
            stack = [start]
            while stack:
                for v in adj[stack.pop()]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
        return count


def check_positive(h: np.ndarray):
    """Raise DomainError unless every weight in h is strictly positive (so not NaN)."""
    if not (h > 0).all():
        raise DomainError("spectral weights must be strictly positive")


def check_length(h: np.ndarray, n: int):
    """Raise DimensionMismatchError unless the array h is a vector of n weights, one per basis mode."""
    if h.shape != (n,):
        raise DimensionMismatchError(f"kernel length does not match basis size: "
                                     f"got shape {h.shape}, the basis has {n} modes")


@dataclass(frozen=True)
class SpectralKernel:
    """Positive spectral weights h with a positive reference h0, vectors of one length."""

    h: np.ndarray
    h0: np.ndarray

    def __post_init__(self):
        if self.h.ndim != 1 or self.h.shape != self.h0.shape:
            raise DimensionMismatchError(f"h and h0 must be vectors of the same length, "
                                         f"got shapes {self.h.shape} and {self.h0.shape}")
        check_positive(self.h)
        check_positive(self.h0)


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi rotations; returns (eigenvalues, eigenvector columns) unsorted.

    a must be exactly symmetric, as eig_symmetric's kept matrix is. The
    sweep is the textbook cyclic one (Golub & Van Loan, Matrix Computations,
    section 8.5): for each pair p < q in row order, rotate columns p and q of
    A, then rows p and q, zero A[p, q], and rotate columns p and q of V.

    It works on one n x 2n array w whose row l is row l of A beside column l
    of V. Rotating rows p and q of w in place rotates A's rows and V's
    columns in one step. A stays exactly symmetric: off the 2x2 block
    {p, q} x {p, q}, the column rotation computes A[j, p] = c A[j, p] - s A[j, q]
    from the same operands, in the same order, as the row rotation computes
    A[p, j], so copying A's new rows p and q into its columns p and q gives
    the textbook result bit for bit. Only the block, where the row rotation
    reads the column rotation's output, is set from scalars with the
    textbook's two steps. The result is bit-identical to the textbook loop.
    The angle is computed in Python floats with the C library's hypot, which
    np.hypot calls too. The two rows turn in six numpy calls with preallocated
    outputs: s row_p and s row_q into two buffers, then four in place. c and s
    enter them as 0-d float64 arrays, set through memoryviews, because a
    Python float operand costs each call a conversion, about 0.25 us on a
    128-element row. Scalars of w go through a memoryview too, which is
    cheaper than w.item and w[p, q] = x.
    """
    n = a.shape[0]
    w = np.hstack((a, np.eye(n)))
    mat = w[:, :n]
    rows, heads, cols = list(w), list(mat), list(mat.T)  # views: row l of w, of A, column l of A
    wv = memoryview(w)  # scalar reads and writes of w as Python floats
    c_op, s_op = np.empty(()), np.empty(())  # c and s as 0-d float64 ufunc operands
    c_set, s_set = memoryview(c_op), memoryview(s_op)
    s_row_p, s_row_q = np.empty(2 * n), np.empty(2 * n)
    for _ in range(_MAX_SWEEPS):
        off = np.sqrt((np.tril(mat, -1) ** 2).sum() * 2.0)
        if off <= _OFFDIAG_TOL:
            break
        for p in range(n - 1):
            row_p, head_p, col_p = rows[p], heads[p], cols[p]
            for q in range(p + 1, n):
                apq = wv[p, q]
                if apq == 0.0:
                    continue
                app, aqq = wv[p, p], wv[q, q]
                diff = aqq - app
                if abs(apq) < 1e-150 * abs(diff):
                    t = apq / diff  # negligible angle; theta itself would overflow
                else:
                    # The textbook's sign, t > 0 for theta >= 0: t = 1 where diff is 0
                    # or theta underflows to 0, so that A[p, q] is rotated away.
                    theta = diff / (2.0 * apq)
                    t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + abs(complex(theta, 1.0)))
                # abs(complex(x, 1.0)) is libm's hypot(x, 1.0), as np.hypot's is;
                # math.hypot differs from it in the last bit on some inputs.
                c = 1.0 / abs(complex(t, 1.0))
                s = t * c
                # Rows p, q of w become c row_p - s row_q and c row_q + s row_p.
                c_set[()], s_set[()] = c, s
                row_q = rows[q]
                np.multiply(s_op, row_p, out=s_row_p)
                np.multiply(s_op, row_q, out=s_row_q)
                row_p *= c_op
                row_p -= s_row_q
                row_q *= c_op
                row_q += s_row_p
                col_p[...] = head_p
                cols[q][...] = heads[q]
                # The block: the column rotation's 2x2, then the row rotation's.
                bpp, bpq = c * app - s * apq, s * app + c * apq
                bqp, bqq = c * apq - s * aqq, s * apq + c * aqq
                wv[p, p] = c * bpp - s * bqp
                wv[q, q] = s * bpq + c * bqq
                wv[p, q] = wv[q, p] = 0.0
    else:
        raise NumericalError(f"Jacobi sweep did not converge in {_MAX_SWEEPS} sweeps")
    return w.diagonal().copy(), w[:, n:].T.copy()


def _symmetrized(mat) -> np.ndarray:
    """(mat + mat^T) / 2 of a checked real non-empty square matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise InvalidMatrixError(f"expected a non-empty square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise InvalidMatrixError("matrix has a non-finite entry")
    if np.abs(mat).max() > _MAX_ENTRY:
        raise InvalidMatrixError(f"matrix has an entry of magnitude above {_MAX_ENTRY!r}, "
                                 f"half the largest float, where symmetrizing overflows")
    if np.abs(mat - mat.T).max() > 1e-9:
        raise InvalidMatrixError("matrix is not symmetric")
    return (mat + mat.T) / 2.0


def _scale(sym: np.ndarray) -> float:
    """The largest power of two not above the largest off-diagonal magnitude (a
    Laplacian's heaviest edge), or not above 2^-52 max|sym| where that is larger,
    so that sym / scale stays finite; 1 for a zero matrix."""
    mag = np.abs(sym)
    top = float(mag.max()) * 2.0**-52
    np.fill_diagonal(mag, 0.0)
    top = max(top, float(mag.max()))
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if top > 0 else 1.0


def _eigenvalues(sym: np.ndarray, scale: float) -> np.ndarray:
    """scale times LAPACK's ascending eigenvalues of sym / scale, a bottom one of
    these in [-1e-10, 1e-10] set to 0, read-only."""
    lam = np.linalg.eigvalsh(sym / scale)
    if abs(lam[0]) < 1e-10:
        lam[0] = 0.0
    lam *= scale
    lam.setflags(write=False)
    return lam


def eig_symmetric(mat: np.ndarray) -> EigenBasis:
    """Eigendecompose a symmetric matrix into an ascending basis.

    The eigenvalues come from LAPACK on the matrix over its scale (see
    EigenBasis), and an eigenvalue at the bottom of the spectrum within
    1e-10 * scale of 0 is clamped to exactly 0 so eigenvalue-derived mode
    weights stay sign-clean. The eigenvector columns come from the cyclic
    Jacobi sweep when vectors is first read, so that read may raise the
    sweep's NumericalError. Each eigenvector's sign is whatever the sweep
    produced.

    Raises:
        InvalidMatrixError: not square, empty, a non-finite entry, an entry
            above half the largest float, or asymmetry above 1e-9.
    """
    sym = _symmetrized(mat)
    sym.setflags(write=False)
    scale = _scale(sym)
    return EigenBasis(_eigenvalues(sym, scale), sym, scale)


def materialize_kernel(basis: EigenBasis, kernel: SpectralKernel) -> np.ndarray:
    """K = Phi diag(h) Phi^T.

    Raises:
        DimensionMismatchError: kernel and basis sizes differ.
        NumericalError: the Jacobi sweep behind basis.vectors failed.
    """
    check_length(kernel.h, basis.n)
    phi = basis.vectors
    return (phi * kernel.h) @ phi.T


def heat_kernel_weights(basis: EigenBasis, tau: float) -> SpectralKernel:
    """Heat-kernel transfer function h_l = exp(-lambda_l * tau), reference all-ones.

    Raises:
        DomainError: tau is not positive and finite.
    """
    if not 0 < tau < math.inf:
        raise DomainError(f"tau must be positive and finite, got {tau}")
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
