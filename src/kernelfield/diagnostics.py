"""Scalar early-warning diagnostics: spectral entropy, the Fisher-Rao
metric, its von Neumann entropy, and the vacuum-calibrated alarm.

Note: because the vacuum rescales the reference uniformly by 1/e and
spectral entropy is scale-invariant, the vacuum-calibrated threshold
equals the entropy of the reference kernel itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NumericalError
from .spectral import check_positive

DEFAULT_ALARM_MARGIN = 0.05  # nats


@dataclass(frozen=True)
class DiagnosticsRecord:
    spectral_entropy: float
    fisher_diag: np.ndarray
    von_neumann_entropy: float
    threshold: float
    alarm: bool

    def to_json(self) -> str:
        return json.dumps({
            "spectral_entropy": self.spectral_entropy,
            "fisher_diag": list(self.fisher_diag),
            "von_neumann_entropy": self.von_neumann_entropy,
            "threshold": self.threshold,
            "alarm": self.alarm,
        })


def shannon(p: np.ndarray) -> float:
    """Shannon entropy -sum p ln p (nats), zeros dropped, summed in the given order."""
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def spectral_entropy(h: np.ndarray) -> float:
    """Shannon entropy (nats) of the normalized weight vector; a share that underflows drops out."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 1:
        raise DimensionMismatchError(f"expected a vector of weights, got shape {h.shape}")
    check_positive(h)
    return shannon(h / h.sum())


def fisher_rao_diag(h: np.ndarray) -> np.ndarray:
    """Diagonal Fisher-Rao metric I_ll = 1 / (2 h_l^2).

    Raises:
        NumericalError: an entry or the trace (which von_neumann_entropy
            divides by) overflows binary64, as when some h_l is below 1e-154.
    """
    h = np.asarray(h, dtype=float)
    check_positive(h)
    with np.errstate(over="ignore", divide="ignore"):
        fisher = 1.0 / (2.0 * h**2)
        trace = fisher.sum()
    if not np.isfinite(trace):
        raise NumericalError(f"Fisher-Rao metric 1/(2 h^2) overflows binary64 at min h = {h.min():.3g}")
    return fisher


def von_neumann_entropy(fisher: np.ndarray) -> float:
    """-Tr(I_hat ln I_hat) for the trace-normalized diagonal metric, with 0 ln 0 := 0.

    `fisher` is the diagonal, as returned by fisher_rao_diag. A diagonal
    matrix has its diagonal as spectrum, so this is the Shannon entropy of
    the normalized weights, summed in ascending order.
    """
    fisher = np.asarray(fisher, dtype=float)
    if fisher.ndim != 1:
        raise DimensionMismatchError(f"expected the metric's diagonal, got shape {fisher.shape}")
    trace = float(fisher.sum())
    if trace <= 0:
        raise DomainError("Fisher metric must have positive trace")
    return shannon(np.sort(fisher / trace))


def vacuum_threshold(h0: np.ndarray) -> float:
    """Alarm threshold: spectral entropy of the vacuum solution.

    Equals spectral_entropy(h0) because the 1/e rescaling cancels in the
    normalization.
    """
    return spectral_entropy(np.asarray(h0, dtype=float) * np.exp(-1.0))


def diagnostics_record(h: np.ndarray, h0: np.ndarray) -> DiagnosticsRecord:
    """Compute all diagnostics for a kernel; alarm fires when the entropy
    falls more than DEFAULT_ALARM_MARGIN nats below the vacuum-calibrated
    threshold.

    Raises:
        DimensionMismatchError: h and h0 differ in shape.
    """
    if np.shape(h) != np.shape(h0):
        raise DimensionMismatchError("h and h0 must have the same length")
    entropy = spectral_entropy(h)
    fisher = fisher_rao_diag(h)
    threshold = vacuum_threshold(h0)
    return DiagnosticsRecord(
        spectral_entropy=entropy,
        fisher_diag=fisher,
        von_neumann_entropy=von_neumann_entropy(fisher),
        threshold=threshold,
        alarm=bool(entropy < threshold - DEFAULT_ALARM_MARGIN),
    )
