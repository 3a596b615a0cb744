"""Second-order structure at a kernel: Hessian, stability margins, gaps,
and the inter-mode coupling entropy.

The Hessian H_lm = -delta_lm / h_l - J_lm is the second derivative of the
functional whose gradient is R - T. J is diagonal plus eta*C, and
SourceSpec holds C symmetric, so H is symmetric bit for bit. With no
coupling H is diagonal (the paper's Hessian corollary: stability is judged
mode by mode), so its spectrum, verdict and gap Delta come from its sorted
diagonal, bit for bit what LAPACK returns. A coupled H is graded where h
spans decades, so its verdict and gap come from the well-scaled I + M (see
stability_report), its spectrum from numpy.linalg.eigvalsh without
spectral's zero-mode band, a Laplacian convention. Delta' uses
the raw diagonal entries over the nonzero modes. Which modes are zero is
structural, not a tolerance: a Laplacian has one zero mode per connected
component (EigenBasis.components).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .diagnostics import shannon
from .errors import DomainError
from .field import SourceSpec, scaled_jacobian, source_jacobian
from .spectral import EigenBasis, SpectralKernel


@dataclass(frozen=True)
class StabilityReport:
    """Full stability diagnostics at one kernel.

    `eigenvalues` are those of the symmetric Hessian, ascending; a coupled H's
    only to about eps * max|H| in absolute terms (LAPACK's). The JSON key
    `symmetrized`, always true, stays for the artifact format.
    """

    hessian: np.ndarray
    eigenvalues: np.ndarray
    margins: np.ndarray
    hessian_gap: float
    fiedler_gap: float
    coupling_entropy: float
    stable: bool

    def to_json(self) -> str:
        """The report; the Hessian itself only up to 64 modes."""
        obj = {
            "eigenvalues": list(self.eigenvalues),
            "margins": list(self.margins),
            "hessian_gap": self.hessian_gap,
            "fiedler_gap": self.fiedler_gap,
            "coupling_entropy": self.coupling_entropy,
            "stable": self.stable,
            "symmetrized": True,
        }
        if self.hessian.shape[0] <= 64:
            obj["hessian"] = [list(row) for row in self.hessian]
        return json.dumps(obj)


def hessian(spec: SourceSpec, basis: EigenBasis, kernel: SpectralKernel) -> np.ndarray:
    """H_lm = -delta_lm / h_l - J_lm."""
    return -np.diag(1.0 / kernel.h) - source_jacobian(spec, basis, kernel.h)


def _offdiag_row_entropy(mat: np.ndarray) -> float:
    """Mean Shannon entropy of the normalized off-diagonal magnitudes of each row.

    Rows with no off-diagonal mass carry the maximal entropy ln(N-1), the
    convention under which a strictly diagonal source reports the maximum
    (no preferential coupling). Off the diagonal H is exactly -eta*C, and
    build_coupling zeroes an empty row of C exactly, so no tolerance is needed.
    """
    mag = np.abs(mat)
    n = mag.shape[0]
    empty_row = np.log(n - 1)
    total = 0.0
    for l in range(n):
        off = np.delete(mag[l], l)
        mass = off.sum()
        if mass == 0:
            total += empty_row
            continue
        total += shannon(off / mass)
    return total / n


def stability_report(spec: SourceSpec, basis: EigenBasis, kernel: SpectralKernel) -> StabilityReport:
    """Assemble Hessian, eigenvalues, margins, gaps, and coupling entropy.

    Uncoupled, J is built once and the spectrum is H's sorted diagonal. Coupled,
    field.scaled_jacobian builds J again to form I + M = -S H S, and H is stable exactly
    when I + M is positive definite (Sylvester's law of inertia); then Delta = 1 / max eig
    S (I + M)^-1 S, as (-H)^-1 = S (I + M)^-1 S; else -max eig H. The margins are -H_ll =
    J_ll + 1/h_l, and the coupling entropy is read off H, since off the diagonal |H_lm| = |J_lm|.
    Delta' skips the first basis.components modes, the Laplacian's zero modes.

    Raises:
        DomainError: every mode is a zero mode (a graph with no edge), so
            the Fiedler gap is undefined.
    """
    hess = hessian(spec, basis, kernel)
    diag = np.diag(hess)
    eigs = np.sort(diag) if spec.coupling is None else np.linalg.eigvalsh(hess)
    stable, gap = bool(eigs[-1] < 0), float(-eigs[-1])
    if spec.coupling is not None:  # judge the well-scaled I + M = -S H S instead
        i_plus_m = np.eye(basis.n) + scaled_jacobian(spec, basis, kernel.h)
        stable = bool(np.linalg.eigvalsh(i_plus_m)[0] > 0)
        if stable:
            root_h = np.sqrt(kernel.h)[:, None]
            gap = float(1.0 / np.linalg.eigvalsh(root_h * np.linalg.inv(i_plus_m) * root_h.T)[-1])
    margins = -diag
    nonzero_margins = margins[basis.components:]
    if not nonzero_margins.size:
        raise DomainError(f"the graph has no edge, so all {basis.n} Laplacian modes are "
                          "zero modes and the Fiedler gap is undefined")
    return StabilityReport(
        hessian=hess,
        eigenvalues=eigs,
        margins=margins,
        hessian_gap=gap,
        fiedler_gap=float(nonzero_margins.min()),
        coupling_entropy=_offdiag_row_entropy(hess),
        stable=stable,
    )
