"""Second-order structure at a kernel: Hessian, stability margins, gaps,
and the inter-mode coupling entropy.

The Hessian H_lm = -delta_lm / h_l - J_lm can be asymmetric when the
source couples modes through a non-symmetric C. The quadratic form only
sees the symmetric part, so the definiteness verdict (and the gap Delta)
are computed from the spectrum of (H + H^T) / 2. With no coupling H is
diagonal (the paper's Hessian corollary: stability is judged mode by
mode), and that spectrum is its sorted diagonal, which is what LAPACK
returns for a diagonal matrix, bit for bit. A coupled H takes LAPACK
(numpy.linalg.eigvalsh) like the Laplacian spectrum, but without
spectral's bottom-eigenvalue clamp, which is a Laplacian convention. The
Fiedler-mode gap Delta' uses the raw diagonal entries over the nonzero
modes. Which modes are zero is structural, not a tolerance: a Laplacian
has one zero mode per connected component (EigenBasis.components).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .diagnostics import shannon
from .errors import DomainError
from .field import SourceSpec, source_jacobian
from .spectral import EigenBasis, SpectralKernel


@dataclass(frozen=True)
class StabilityReport:
    """Full stability diagnostics at one kernel.

    `eigenvalues` are those of the symmetrized Hessian, ascending; the JSON
    key `symmetrized` records that convention.
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

    One Jacobian, and one symmetric eigenvalue solve when the source is
    coupled (uncoupled, the spectrum is H's sorted diagonal): the margins are
    J_ll + 1/h_l = -H_ll (positive means the mode is diagonally stable),
    the gap Delta is -max eig sym(H), and the coupling entropy is read off
    H because off the diagonal |H_lm| = |J_lm|. Delta' skips the first
    basis.components modes, the Laplacian's zero modes.

    Raises:
        DomainError: every mode is a zero mode (a graph with no edge), so
            the Fiedler gap is undefined.
    """
    hess = hessian(spec, basis, kernel)
    diag = np.diag(hess)
    if spec.coupling is None:
        eigs = np.sort(diag)
    else:
        eigs = np.linalg.eigvalsh((hess + hess.T) / 2.0)
    margins = -diag
    nonzero_margins = margins[basis.components:]
    if not nonzero_margins.size:
        raise DomainError(f"the graph has no edge, so all {basis.n} Laplacian modes are "
                          "zero modes and the Fiedler gap is undefined")
    return StabilityReport(
        hessian=hess,
        eigenvalues=eigs,
        margins=margins,
        hessian_gap=float(-eigs[-1]),
        fiedler_gap=float(nonzero_margins.min()),
        coupling_entropy=_offdiag_row_entropy(hess),
        stable=bool(eigs[-1] < 0),
    )
