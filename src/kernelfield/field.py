"""The kernel field equation: sources, the geometric response, fixed points,
vacuum solutions, and log-linear geodesics.

A self-consistent kernel solves R[h] = T[h] per mode, equivalently the
fixed point h_l = h0_l * exp(-1 - T_l[h]). The geometric response is
diagonal in the eigenbasis; any inter-mode structure enters through the
source's coupling term.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from . import graph as graphmod
from .errors import DimensionMismatchError, DomainError, NumericalError
from .spectral import EigenBasis, SpectralKernel, check_positive

_EXP_GUARD = 700.0  # exp argument beyond this over/underflows binary64


class WeightRule(enum.Enum):
    """Per-mode weight w_l in the mutual-information source."""

    UNIFORM = "uniform"           # w_l = 1
    EIGENVALUE = "eigenvalue"     # w_l = lambda_l


@dataclass(frozen=True)
class SourceSpec:
    """Parameters of the source functional T and its Jacobian.

    T_l[h] = mu2 * w_l / (2 * (sigma2 + h_l)) + eta * (C h)_l

    The coupling matrix C must be nonnegative with zero diagonal and rows
    summing to 1 (or to 0 for empty rows); eta is zero exactly when no
    coupling matrix is supplied.
    """

    sigma2: float = 1.0
    mu2: float = 2.0
    weight_rule: WeightRule = WeightRule.UNIFORM
    eta: float = 0.0
    coupling: np.ndarray | None = None

    def __post_init__(self):
        if not np.all(np.isfinite([self.sigma2, self.mu2, self.eta])):
            raise DomainError(f"sigma2, mu2 and eta must be finite, got "
                              f"{self.sigma2}, {self.mu2}, {self.eta}")
        if not self.sigma2 > 0:
            raise DomainError(f"sigma2 must be positive, got {self.sigma2}")
        if self.mu2 < 0 or self.eta < 0:
            raise DomainError("mu2 and eta must be nonnegative")
        if (self.eta == 0) != (self.coupling is None):
            raise DomainError("eta must be zero iff no coupling matrix is given")
        if self.coupling is not None:
            c = self.coupling
            if np.any(c < 0):
                raise DomainError("coupling matrix must be nonnegative")
            if np.max(np.abs(np.diag(c))) != 0:
                raise DomainError("coupling matrix must have zero diagonal")
            sums = c.sum(axis=1)
            if not np.all((np.abs(sums - 1.0) < 1e-12) | (sums == 0.0)):
                raise DomainError("coupling rows must sum to 1 or be empty")


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of the fixed-point iteration."""

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


def build_coupling(basis: EigenBasis, g: graphmod.Graph) -> np.ndarray:
    """Inter-mode coupling matrix from the weighted adjacency.

    C = |Phi^T A Phi| with the diagonal zeroed, then rows normalized to
    sum 1; rows with off-diagonal mass below 1e-14 stay zero. The absolute
    value keeps entries nonnegative so they can serve as entropy weights.

    Raises:
        NumericalError: the Jacobi sweep behind basis.vectors failed.
    """
    phi = basis.vectors
    c = np.abs(phi.T @ graphmod.adjacency(g) @ phi)
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


def source_jacobian(spec: SourceSpec, basis: EigenBasis, h: np.ndarray) -> np.ndarray:
    """J_lm = dT_l/dh_m: diagonal MI part plus eta*C."""
    check_positive(h)
    jac = np.diag(-spec.mu2 * mode_weights(spec, basis) / (2.0 * (spec.sigma2 + h) ** 2))
    if spec.coupling is not None:
        jac = jac + spec.eta * spec.coupling
    return jac


def geometric_R(kernel: SpectralKernel) -> np.ndarray:
    """Geometric response R_l = -ln(h_l / h0_l) - 1."""
    return -np.log(kernel.h / kernel.h0) - 1.0


def residual_inf(spec: SourceSpec, basis: EigenBasis, kernel: SpectralKernel) -> float:
    """Field-equation residual max_l |R_l - T_l| at the given kernel."""
    return float(np.max(np.abs(geometric_R(kernel) - source_T(spec, basis, kernel.h))))


def solve_fixed_point(
    spec: SourceSpec,
    basis: EigenBasis,
    h0: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> FixedPointReport:
    """Iterate h <- h0 * exp(-1 - T[h]) from h0 until the step norm drops below tol.

    The contraction ratio is empirical: the median of successive step-norm
    ratios over the last few steps. Non-convergence is reported, not raised;
    exp overflow is raised.

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
    h = h0.copy()
    steps: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        arg = -1.0 - source_T(spec, basis, h)
        if np.any(np.abs(arg) > _EXP_GUARD):
            raise NumericalError("exp argument out of range in fixed-point map")
        h_next = h0 * np.exp(arg)
        step = float(np.max(np.abs(h_next - h)))
        steps.append(step)
        h = h_next
        if step < tol:
            converged = True
            break
    ratios = [b / a for a, b in zip(steps[-6:-1], steps[-5:]) if a > 0]
    ratio = float(np.median(ratios)) if ratios else 0.0
    kernel = SpectralKernel(h, h0)
    return FixedPointReport(
        h_star=kernel,
        iterations=iterations,
        residual_inf=residual_inf(spec, basis, kernel),
        contraction_ratio=ratio,
        converged=converged,
    )


def contraction_certificate(spec: SourceSpec, basis: EigenBasis, h: np.ndarray, h0: np.ndarray) -> float:
    """Pointwise contraction test max_l F_l(h) * sum_m |J_lm(h)|.

    F_l(h) = h0_l * exp(-1 - T_l(h)). A value below 1 certifies local
    contraction of the fixed-point map at h; above 1 no uniqueness claim
    is made.
    """
    f = h0 * np.exp(-1.0 - source_T(spec, basis, h))
    jac_rows = np.abs(source_jacobian(spec, basis, h)).sum(axis=1)
    return float(np.max(f * jac_rows))


def vacuum_solution(h0: np.ndarray) -> SpectralKernel:
    """Source-free fixed point: the reference rescaled uniformly by 1/e."""
    h0 = np.asarray(h0, dtype=float)
    check_positive(h0)
    return SpectralKernel(h0 * np.exp(-1.0), h0)


def geodesic(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Log-linear geodesic h_l(t) = exp(a_l + b_l * t)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError("geodesic coefficients must have the same shape")
    return np.exp(a + b * t)
