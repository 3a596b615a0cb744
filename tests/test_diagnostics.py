import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kernelfield import (
    DimensionMismatchError,
    DomainError,
    NumericalError,
    diagnostics_record,
    fisher_rao_diag,
    spectral_entropy,
    vacuum_threshold,
    von_neumann_entropy,
)


def test_uniform_entropy():
    assert abs(spectral_entropy(np.ones(8)) - np.log(8)) <= 1e-12


def test_entropy_rejects_nonpositive():
    with pytest.raises(DomainError):
        spectral_entropy(np.array([1.0, -1.0]))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(arrays(np.float64, (8,), elements=st.floats(0.01, 100.0)))
def test_entropy_scale_invariant_and_bounded(h):
    base = spectral_entropy(h)
    for c in (0.5, 2.0):  # power-of-two rescaling is bitwise exact
        assert spectral_entropy(c * h) == base
    assert abs(spectral_entropy(10.0 * h) - base) <= 1e-12
    assert 0.0 <= base <= np.log(8) + 1e-12


def test_entropy_drops_an_underflowing_weight():
    # 5e-324 / 4.0 underflows to 0, whose term 0 ln 0 is 0, not NaN.
    assert spectral_entropy(np.array([5e-324, 4.0])) == 0.0


def test_entropy_max_iff_constant():
    assert spectral_entropy(np.full(8, 3.7)) == pytest.approx(np.log(8), abs=1e-12)
    assert spectral_entropy(np.array([1.0, 2, 1, 1, 1, 1, 1, 1])) < np.log(8) - 1e-4


def test_fisher_rao_values():
    assert np.allclose(fisher_rao_diag(np.ones(4)), 0.5)
    assert fisher_rao_diag(np.array([0.1]))[0] == pytest.approx(50.0)
    # 1.1e308 still fits; two such entries overflow the trace (below).
    assert fisher_rao_diag(np.array([6.7e-155]))[0] == pytest.approx(1.1138338e308)


@pytest.mark.parametrize("h", [[2.6e-218, 1.0], [1e-160], [6.7e-155] * 2],
                         ids=["square-underflows", "entry-overflows", "trace-overflows"])
def test_fisher_rao_overflow_is_a_numerical_error(h):
    with pytest.raises(NumericalError, match="overflows binary64"):
        fisher_rao_diag(np.array(h))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(arrays(np.float64, (8,), elements=st.floats(0.01, 100.0)))
def test_fisher_rao_scale_covariance(h):
    base = fisher_rao_diag(h)
    for c in (0.5, 2.0):
        assert np.array_equal(fisher_rao_diag(c * h), base / c**2)
    scaled = fisher_rao_diag(10.0 * h)
    assert np.max(np.abs(scaled - base / 100.0) / (base / 100.0)) <= 1e-12


def test_von_neumann_equal_diagonal():
    assert von_neumann_entropy(np.full(8, 0.3)) == pytest.approx(np.log(8), abs=1e-10)


def test_von_neumann_from_two_weights():
    # h = (1, 2) -> I = diag(0.5, 0.125) -> normalized (0.8, 0.2)
    ent = von_neumann_entropy(fisher_rao_diag(np.array([1.0, 2.0])))
    assert ent == pytest.approx(0.5004024235381879, abs=1e-10)


def test_von_neumann_rank_one():
    assert von_neumann_entropy(np.array([2.0, 0.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_von_neumann_zero_trace():
    with pytest.raises(DomainError):
        von_neumann_entropy(np.zeros(3))


def test_von_neumann_rejects_a_matrix():
    with pytest.raises(DimensionMismatchError):
        von_neumann_entropy(np.eye(3))


def test_von_neumann_keeps_a_weight_below_1e_10():
    # h = (1, 1e6) -> normalized Fisher weights (1 - 1e-12, 1e-12); the
    # small weight still contributes its -p ln p of about 2.9e-11 nats.
    fisher = fisher_rao_diag(np.array([1.0, 1e6]))
    p = fisher / fisher.sum()
    assert p.min() < 1e-10
    assert von_neumann_entropy(fisher) == -(p[1] * np.log(p[1]) + p[0] * np.log(p[0]))
    assert von_neumann_entropy(fisher) > 2e-11


def test_von_neumann_vs_spectral_entropy_differ():
    # For diagonal Fisher metrics the von Neumann entropy is the Shannon
    # entropy of the normalized 1/h^2 vector, which is generally NOT the
    # spectral entropy of h itself.
    h = np.array([1.0, 2.0, 3.0, 4.0])
    vn = von_neumann_entropy(fisher_rao_diag(h))
    inv2 = 1.0 / h**2
    shannon = spectral_entropy(inv2)
    assert vn == pytest.approx(shannon, abs=1e-10)
    assert abs(vn - spectral_entropy(h)) > 0.1


def test_vacuum_threshold_equals_reference_entropy():
    h0 = np.array([1.0, 0.5, 2.0, 1.5])
    assert vacuum_threshold(h0) == pytest.approx(spectral_entropy(h0), abs=1e-12)
    assert vacuum_threshold(np.ones(8)) == pytest.approx(np.log(8), abs=1e-12)


def test_alarm_semantics():
    h0 = np.ones(8)
    concentrated = np.array([4.0, 1, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2])
    rec = diagnostics_record(concentrated, h0)
    assert rec.threshold == pytest.approx(np.log(8), abs=1e-12)
    assert rec.alarm == (rec.spectral_entropy < rec.threshold - 0.05)
    assert rec.alarm
    assert not diagnostics_record(h0, h0).alarm


def test_alarm_reference_values():
    # H = 1.596 against H* = ln 8 = 2.079 with 0.05 margin -> alarm
    rec = diagnostics_record(np.ones(8), np.ones(8))
    assert rec.spectral_entropy == pytest.approx(2.0794, abs=1e-4)
    assert 1.596 < rec.threshold - 0.05


def test_record_serialization():
    rec = diagnostics_record(np.ones(8), np.ones(8))
    obj = json.loads(rec.to_json())
    assert obj["alarm"] is False
    assert len(obj["fisher_diag"]) == 8
