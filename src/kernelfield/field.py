"""The kernel field equation: sources, the geometric response and fixed points.

A self-consistent kernel solves R[h] = T[h] per mode, equivalently the
fixed point h_l = h0_l * exp(-1 - T_l[h]). The geometric response is
diagonal in the eigenbasis; any inter-mode structure enters through the
source's coupling term. With mu2 = 0 the fixed point is the vacuum h0 / e
(experiments.run_exp3 checks it through solve_fixed_point). Public functions
check their operands; the solve's loop does not re-check the iterates it makes.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NumericalError
from .spectral import EigenBasis, SpectralKernel, check_length, check_positive

_EXP_GUARD = 700.0  # exp argument beyond this over/underflows binary64

# The largest sigma2 a SourceSpec accepts, so that (sigma2 + h)^2 in the
# source Jacobian stays far below binary64's top (1.8e308).
MAX_SIGMA2 = 1e100
# The largest mu2 a SourceSpec accepts, so that mu2 * w_l in the source stays
# finite for every weight a bounded graph gives (w_l <= lambda_max).
MAX_MU2 = 1e100


class WeightRule(enum.Enum):
    """Per-mode weight w_l in the mutual-information source."""

    UNIFORM = "uniform"           # w_l = 1
    EIGENVALUE = "eigenvalue"     # w_l = lambda_l


@dataclass(frozen=True)
class SourceSpec:
    """Parameters of the source functional T and its Jacobian.

    T_l[h] = mu2 * w_l / (2 * (sigma2 + h_l)) + eta * (C h)_l

    sigma2 lies in (0, MAX_SIGMA2] and mu2 in [0, MAX_MU2]. The coupling
    matrix C must be square, nonnegative with zero diagonal, symmetric bit
    for bit and of spectral radius at most 1 + 1e-12, as build_coupling's
    is; eta is zero exactly when no coupling matrix is supplied. Its size is
    checked against a basis where the two first meet: in source_T,
    source_jacobian and solve_fixed_point's entry.
    """

    sigma2: float = 1.0
    mu2: float = 2.0
    weight_rule: WeightRule = WeightRule.UNIFORM
    eta: float = 0.0
    coupling: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and math.isfinite(self.mu2) and math.isfinite(self.eta)):
            raise DomainError(f"sigma2, mu2 and eta must be finite, got "
                              f"{self.sigma2}, {self.mu2}, {self.eta}")
        if not 0 < self.sigma2 <= MAX_SIGMA2:
            raise DomainError(f"sigma2 must be in (0, {MAX_SIGMA2:g}], got {self.sigma2}")
        if not 0 <= self.mu2 <= MAX_MU2:
            raise DomainError(f"mu2 must be in [0, {MAX_MU2:g}], got {self.mu2}")
        if self.eta < 0:
            raise DomainError("eta must be nonnegative")
        if (self.eta == 0) != (self.coupling is None):
            raise DomainError("eta must be zero iff no coupling matrix is given")
        if self.coupling is not None:
            c = self.coupling
            if c.ndim != 2 or c.shape[0] != c.shape[1]:
                raise DimensionMismatchError(f"coupling matrix must be square, got shape {c.shape}")
            if not np.isfinite(c).all() or (c < 0).any() or np.diag(c).any():
                raise DomainError("coupling matrix must be finite, nonnegative and zero-diagonal")
            if not np.array_equal(c, c.T):
                raise DomainError("coupling matrix must be symmetric")
            if not np.abs(np.linalg.eigvalsh(c)).max() <= 1.0 + 1e-12:
                raise DomainError("coupling matrix must have spectral radius at most 1")


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of the fixed-point iteration.

    residual_inf is max|R - T| at h_star, and converged is residual_inf < tol.
    iterations counts evaluations of T, one per Picard or Newton step, and
    h_star is the last iterate, whichever step made it. contraction_ratio is
    Picard's local rate at h_star: the spectral radius of diag(h) J, h = h_star,
    similar to J diag(h), the map's Jacobian in u = ln(h / h0) up to sign, and
    to scaled_jacobian's M. It depends on h_star alone, not on the iterates.
    """

    h_star: SpectralKernel
    iterations: int
    residual_inf: float
    contraction_ratio: float
    converged: bool

    def to_json(self) -> str:
        return json.dumps({
            "h_star": list(self.h_star.h),
            "h0": list(self.h_star.h0),
            "iterations": self.iterations,
            "residual_inf": self.residual_inf,
            "contraction_ratio": self.contraction_ratio,
            "converged": self.converged,
        })


def mode_weights(spec: SourceSpec, basis: EigenBasis) -> np.ndarray:
    if spec.weight_rule is WeightRule.EIGENVALUE:
        return basis.lambdas
    return np.ones(basis.n)


def build_coupling(basis: EigenBasis) -> np.ndarray:
    """Inter-mode coupling matrix: the degree field of the kept Laplacian in the eigenbasis.

    Off the diagonal Phi^T A Phi = Phi^T D Phi - Lambda, A = D - L, so with the
    degrees D of L / basis.scale, B = |Phi^T (D - d_min I) Phi| is the adjacency's
    coupling with no adjacency built, and exactly 0 on a regular graph. B is made
    symmetric bit for bit as (B + B^T) / 2, diagonal zeroed; a row with off-diagonal
    mass at most 1e-14 (relative to the heaviest edge, by the scale) is zeroed with
    its column. C is that over its Perron root, its largest eigenvalue, so
    rho(C) = 1 unless C is 0. The absolute value keeps entries nonnegative as
    entropy weights; the symmetry makes eta C h the gradient of (eta / 2) h^T C h.

    Raises:
        NumericalError: the Jacobi sweep behind basis.vectors failed.
    """
    deg = np.diag(basis.matrix) / basis.scale
    phi = basis.vectors
    b = np.abs(phi.T @ ((deg - deg.min())[:, None] * phi))
    c = (b + b.T) / 2.0
    np.fill_diagonal(c, 0.0)
    empty = c.sum(axis=1) <= 1e-14
    c[empty] = c[:, empty] = 0.0
    perron = np.linalg.eigvalsh(c)[-1]
    return c / perron if perron > 0 else c


def _check_operands(spec: SourceSpec, basis: EigenBasis, h: np.ndarray):
    """Raise unless h is n positive weights and the coupling, if any, is n x n, n = basis.n."""
    check_length(h, basis.n)
    check_positive(h)
    if spec.coupling is not None and len(spec.coupling) != basis.n:
        raise DimensionMismatchError(f"coupling matrix size {len(spec.coupling)} does not match "
                                     f"basis size {basis.n}")


def _source_T(spec: SourceSpec, mu2_w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """source_T's formula from mu2_w = spec.mu2 * mode_weights(spec, basis), h unchecked."""
    t = mu2_w / (2.0 * (spec.sigma2 + h))
    if spec.coupling is not None:
        t = t + spec.eta * (spec.coupling @ h)
    return t


def source_T(spec: SourceSpec, basis: EigenBasis, h: np.ndarray) -> np.ndarray:
    """Per-mode source T_l[h], including the optional coupling term.

    Raises:
        DimensionMismatchError: h or the coupling matrix does not match basis.n.
        DomainError: h not strictly positive.
    """
    _check_operands(spec, basis, h)
    return _source_T(spec, spec.mu2 * mode_weights(spec, basis), h)


def _mi_slopes(spec: SourceSpec, basis: EigenBasis, h: np.ndarray) -> np.ndarray:
    """dT_l/dh_l of the MI part, the diagonal of J without coupling."""
    return -spec.mu2 * mode_weights(spec, basis) / (2.0 * (spec.sigma2 + h) ** 2)


def source_jacobian(spec: SourceSpec, basis: EigenBasis, h: np.ndarray) -> np.ndarray:
    """J_lm = dT_l/dh_m: diagonal MI part plus eta*C.

    Raises:
        DimensionMismatchError: h or the coupling matrix does not match basis.n.
        DomainError: h not strictly positive.
    """
    _check_operands(spec, basis, h)
    jac = np.diag(_mi_slopes(spec, basis, h))
    if spec.coupling is not None:
        jac = jac + spec.eta * spec.coupling
    return jac


def scaled_jacobian(spec: SourceSpec, basis: EigenBasis, h: np.ndarray) -> np.ndarray:
    """M = S J S, S = diag(sqrt h): symmetric, similar to diag(h) J, and I + M = -S H S
    for the Hessian H at h. Raises as source_jacobian does."""
    root_h = np.sqrt(h)
    return np.outer(root_h, root_h) * source_jacobian(spec, basis, h)


def geometric_R(kernel: SpectralKernel) -> np.ndarray:
    """Geometric response R_l = -ln(h_l / h0_l) - 1."""
    return -np.log(kernel.h / kernel.h0) - 1.0


def residual_inf(spec: SourceSpec, basis: EigenBasis, kernel: SpectralKernel) -> float:
    """Field-equation residual max_l |R_l - T_l| at the given kernel."""
    return float(np.abs(geometric_R(kernel) - source_T(spec, basis, kernel.h)).max())


def _newton_update(spec: SourceSpec, basis: EigenBasis, h: np.ndarray, u: np.ndarray,
                   u_next: np.ndarray) -> np.ndarray | None:
    """The Newton update u - G'^-1 G(u) for G(u) = u + 1 + T[h0 e^u] = u - u_next, with
    G' = I + J diag(h), or None where it cannot be taken: a diagonal of G' not positive,
    G' singular, or an update beyond the exp guard."""
    d = 1.0 + h * _mi_slopes(spec, basis, h)  # the diagonal of G'; C's is zero
    if not (d > 0).all():
        return None
    if spec.coupling is None:
        u_new = u - (u - u_next) / d
    else:
        try:
            u_new = u - np.linalg.solve(np.diag(d) + spec.eta * spec.coupling * h, u - u_next)
        except np.linalg.LinAlgError:
            return None
    return u_new if (np.abs(u_new) <= _EXP_GUARD).all() else None


def solve_fixed_point(
    spec: SourceSpec,
    basis: EigenBasis,
    h0: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> FixedPointReport:
    """Solve u = ln(h / h0) = -1 - T[h] from h0 until max|R - T| < tol.

    Picard iterates u <- -1 - T[h] while the residual max|R - T| is at or
    above sqrt(tol). Below it, Newton steps on G(u) = u + 1 + T[h0 e^u]
    take over; each takes a residual r to about r^2, so one step from
    sqrt(tol) lands near tol. A Newton step that cannot be taken (see
    _newton_update) or does not lower the residual hands the rest of the
    solve back to Picard, which ends on the same root. Either way Picard's
    step u_next - u at h is the residual at h, so tol bounds it at the
    returned h_star (see FixedPointReport). Non-convergence is reported,
    not raised; exp overflow is raised.

    Raises:
        DimensionMismatchError: h0 or the coupling matrix does not match basis.n.
        DomainError: h0 not strictly positive, tol not finite and positive,
            max_iter < 1, or an iterate h0 * exp(u) underflows to 0.
        NumericalError: exp argument out of the binary64 range.
    """
    h0 = np.asarray(h0, dtype=float)
    _check_operands(spec, basis, h0)
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    h, u = h0.copy(), np.zeros_like(h0)
    # Newton runs while the residual is below newton_below: sqrt(tol) at first, then the
    # residual its last step started from, and 0 once a Newton step failed.
    newton_below = math.sqrt(tol)
    mu2_w = spec.mu2 * mode_weights(spec, basis)
    for iterations in range(1, max_iter + 1):
        u_next = -1.0 - _source_T(spec, mu2_w, h)
        if (np.abs(u_next) > _EXP_GUARD).any():
            raise NumericalError("exp argument out of range in fixed-point map")
        # u = ln(h / h0), so the step u_next - u is R - T at h.
        residual = float(np.abs(u_next - u).max())
        if residual < tol or iterations == max_iter:
            break
        if residual < newton_below:
            u_newton = _newton_update(spec, basis, h, u, u_next)
            u_next, newton_below = (u_next, 0.0) if u_newton is None else (u_newton, residual)
        elif newton_below < math.sqrt(tol):  # the last Newton step did not lower the residual
            newton_below = 0.0
        u, h = u_next, h0 * np.exp(u_next)
        if not h.min() > 0:  # h0 was checked at entry: exp(u) underflowed to 0, or h is NaN
            raise DomainError("spectral weights must be strictly positive")
    # Uncoupled, diag(h) J is diagonal; see FixedPointReport.
    eigs = (h * _mi_slopes(spec, basis, h) if spec.coupling is None
            else np.linalg.eigvalsh(scaled_jacobian(spec, basis, h)))
    return FixedPointReport(
        h_star=SpectralKernel(h, h0),
        iterations=iterations,
        residual_inf=residual,
        contraction_ratio=float(np.abs(eigs).max()),
        converged=residual < tol,
    )

