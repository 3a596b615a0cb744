"""The kernel field equation: sources, the geometric response and fixed points.

A self-consistent kernel solves R[h] = T[h] per mode, equivalently the
fixed point h_l = h0_l * exp(-1 - T_l[h]). The geometric response is
diagonal in the eigenbasis; any inter-mode structure enters through the
source's coupling term. With mu2 = 0 the fixed point is the vacuum h0 / e
(experiments.run_exp3 checks it through solve_fixed_point).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .spectral import EigenBasis, SpectralKernel, check_positive

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
    matrix C must be nonnegative with zero diagonal and rows summing to 1
    (or to 0 for empty rows); eta is zero exactly when no coupling matrix is
    supplied.
    """

    sigma2: float = 1.0
    mu2: float = 2.0
    weight_rule: WeightRule = WeightRule.UNIFORM
    eta: float = 0.0
    coupling: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite([self.sigma2, self.mu2, self.eta]).all():
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
            if (c < 0).any():
                raise DomainError("coupling matrix must be nonnegative")
            if np.abs(np.diag(c)).max() != 0:
                raise DomainError("coupling matrix must have zero diagonal")
            sums = c.sum(axis=1)
            if not ((np.abs(sums - 1.0) < 1e-12) | (sums == 0.0)).all():
                raise DomainError("coupling rows must sum to 1 or be empty")


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of the fixed-point iteration.

    residual_inf is max|R - T| at h_star, and converged is residual_inf < tol.
    iterations counts evaluations of T. contraction_ratio is the iteration's
    local rate at h_star: the spectral radius of diag(h_star) J, which is
    similar to J diag(h_star), the Jacobian of the map in u = ln(h / h0) up
    to sign. It depends on h_star alone, not on the iterates.
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
    """Inter-mode coupling matrix from the weighted adjacency A = diag(diag(L)) - L
    of the Laplacian L the basis keeps, over basis.scale.

    C = |Phi^T A Phi| with the diagonal zeroed, then rows normalized to
    sum 1; rows with off-diagonal mass below 1e-14 (relative to the heaviest
    edge, by the scale) stay zero. The absolute value keeps entries
    nonnegative so they can serve as entropy weights.

    Raises:
        NumericalError: the Jacobi sweep behind basis.vectors failed.
    """
    lap = basis.matrix / basis.scale
    phi = basis.vectors
    c = np.abs(phi.T @ (np.diag(np.diag(lap)) - lap) @ phi)
    np.fill_diagonal(c, 0.0)
    sums = c.sum(axis=1)
    keep = sums > 1e-14
    c[keep] /= sums[keep, None]
    c[~keep] = 0.0
    return c


def source_T(spec: SourceSpec, basis: EigenBasis, h: np.ndarray) -> np.ndarray:
    """Per-mode source T_l[h], including the optional coupling term."""
    check_positive(h)
    t = spec.mu2 * mode_weights(spec, basis) / (2.0 * (spec.sigma2 + h))
    if spec.coupling is not None:
        t = t + spec.eta * (spec.coupling @ h)
    return t


def _mi_slopes(spec: SourceSpec, basis: EigenBasis, h: np.ndarray) -> np.ndarray:
    """dT_l/dh_l of the MI part, the diagonal of J without coupling."""
    return -spec.mu2 * mode_weights(spec, basis) / (2.0 * (spec.sigma2 + h) ** 2)


def source_jacobian(spec: SourceSpec, basis: EigenBasis, h: np.ndarray) -> np.ndarray:
    """J_lm = dT_l/dh_m: diagonal MI part plus eta*C."""
    check_positive(h)
    jac = np.diag(_mi_slopes(spec, basis, h))
    if spec.coupling is not None:
        jac = jac + spec.eta * spec.coupling
    return jac


def geometric_R(kernel: SpectralKernel) -> np.ndarray:
    """Geometric response R_l = -ln(h_l / h0_l) - 1."""
    return -np.log(kernel.h / kernel.h0) - 1.0


def residual_inf(spec: SourceSpec, basis: EigenBasis, kernel: SpectralKernel) -> float:
    """Field-equation residual max_l |R_l - T_l| at the given kernel."""
    return float(np.abs(geometric_R(kernel) - source_T(spec, basis, kernel.h)).max())


def solve_fixed_point(
    spec: SourceSpec,
    basis: EigenBasis,
    h0: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> FixedPointReport:
    """Iterate u = ln(h / h0) <- -1 - T[h] from h0 until max|R - T| < tol.

    The step max|u_next - u| is the residual max|R - T| at h, so tol bounds
    it at the returned h_star (see FixedPointReport). Non-convergence is
    reported, not raised; exp overflow is raised.

    Raises:
        DomainError: h0 not strictly positive, tol not finite and positive,
            or max_iter < 1.
        NumericalError: exp argument out of the binary64 range.
    """
    h0 = np.asarray(h0, dtype=float)
    check_positive(h0)
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    h, u = h0.copy(), np.zeros_like(h0)
    for iterations in range(1, max_iter + 1):
        u_next = -1.0 - source_T(spec, basis, h)
        if (np.abs(u_next) > _EXP_GUARD).any():
            raise NumericalError("exp argument out of range in fixed-point map")
        # u = ln(h / h0), so the step u_next - u is R - T at h.
        residual = float(np.abs(u_next - u).max())
        if residual < tol or iterations == max_iter:
            break
        u, h = u_next, h0 * np.exp(u_next)
    # diag(h) J is similar to the map's Jacobian in u, and diagonal when uncoupled.
    if spec.coupling is None:
        eigs = h * _mi_slopes(spec, basis, h)
    else:
        eigs = np.linalg.eigvals(h[:, None] * source_jacobian(spec, basis, h))
    return FixedPointReport(
        h_star=SpectralKernel(h, h0),
        iterations=iterations,
        residual_inf=residual,
        contraction_ratio=float(np.abs(eigs).max()),
        converged=residual < tol,
    )

