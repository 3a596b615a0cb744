import filecmp
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from kernelfield import experiments as ex


def test_exp1_gradient_check():
    res = ex.run_exp1()
    assert res.passed
    assert res.metrics["max_abs_error"] <= 1e-8
    assert np.allclose(res.metrics["R_values"], -1.0)
    assert res.metrics["fd_step"] == 1e-6


def test_exp2_fixed_point():
    res = ex.run_exp2()
    assert res.passed
    assert res.metrics["iterations"] <= 30
    assert res.metrics["residual_inf"] <= 1e-10
    assert abs(res.metrics["contraction_ratio"] - 0.116) <= 0.03


def test_exp3_vacuum_and_geodesics():
    res = ex.run_exp3()
    m = res.metrics
    assert res.passed
    assert m["vacuum_ratio_error"] == 0.0
    assert abs(m["geodesic_length"] - m["geodesic_length_closed_form"]) <= 1e-6 * m["geodesic_length"]
    assert m["geodesic_length_error"] <= 1e-6
    assert m["bent_path_length"] > m["geodesic_length"]
    assert m["isometry_error"] <= 1e-12


# Each mutant maps the original function to its broken twin. field._source_T is T's formula,
# which both source_T and solve_fixed_point's loop evaluate.
@pytest.mark.parametrize("module, name, mutant", [
    (ex, "fisher_rao_diag", lambda fisher_rao_diag: lambda h: 1.0 / (2.0 * h)),
    (ex.field, "_source_T", lambda source_T: lambda *args: source_T(*args) + 1.0),
], ids=["fisher-rao-1-over-2h", "source-T-plus-1"])
def test_exp3_fails_under_a_mutant(monkeypatch, module, name, mutant):
    """exp3 runs the metric and the solver it checks: a wrong metric moves the
    geodesic length off ||b|| / sqrt 2, and a source T + 1 moves the vacuum to h0 / e^2.
    The spy records each call, so a mutant that exp3 never reaches cannot pass unseen."""
    calls = []
    broken = mutant(getattr(module, name))
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or broken(*args))
    assert not ex.run_exp3().passed
    assert calls


def test_exp4_stability():
    res = ex.run_exp4()
    assert res.passed
    assert abs(res.metrics["hessian_gap"] - 5.71) <= 0.01
    assert abs(res.metrics["coupling_entropy"] - np.log(7)) <= 1e-9


def test_exp5_residuals():
    res = ex.run_exp5()
    residuals = res.metrics["residuals"]
    assert abs(residuals[0] - 1.50) <= 0.01
    assert abs(residuals[-1] - 17.24) <= 0.05
    assert all(b >= a for a, b in zip(residuals, residuals[1:]))
    # passed mirrors the strict-monotonicity gate; the zero mode pins the
    # first two residuals to exactly 1.5, so strictness cannot hold.
    assert res.passed == (res.metrics["strictly_increasing"]
                          and abs(residuals[0] - 1.50) <= 0.01
                          and abs(residuals[-1] - 17.24) <= 0.05)


def test_sweep_matches_reference_rows():
    records = ex.run_sweep()
    assert len(records) == 5
    for rec, (eps, lam1, ent, gap) in zip(records, ex.REFERENCE_SWEEP):
        assert rec.converged
        assert rec.eps == eps
        assert abs(rec.lambda1 - lam1) <= 2e-3
        assert abs(rec.entropy - ent) <= 5e-3
        assert abs(rec.delta_fiedler - gap) <= 5e-3


@pytest.mark.parametrize("target", list(ex.SWEEP_TARGETS))
def test_plain_and_coupled_rows_report_the_same_lambda1(target):
    """Both sources read one LAPACK spectrum; only the coupled one needs eigenvectors."""
    plain = [r.lambda1 for r in ex.run_sweep(target)]
    assert plain == [r.lambda1 for r in ex.run_sweep(target, coupled=True)]


def test_exp6_reference_reproduction():
    assert ex.run_exp6().passed


def test_exp6b_coupled_sweep():
    res = ex.run_exp6b()
    assert res.passed
    assert res.metrics["coupling_entropy_range"] > 1e-3
    assert res.metrics["entropy_nondecreasing"]
    assert res.metrics["gap_nonincreasing"]


def test_exp7_cross_topology():
    res = ex.run_exp7()
    assert res.passed
    for name in ("river", "trunk"):
        m = res.metrics[name]
        assert m["lambda1_strictly_decreasing"]
        assert m["entropy_nondecreasing"]
        assert m["gap_nonincreasing"]
    # reported but non-gating
    assert "river_scoup_drop_ge_trunk" in res.metrics


def test_sweep_record_fixed_point_consistency():
    from kernelfield import (SourceSpec, WeightRule, build_path, eig_symmetric,
                             laplacian, source_T, weaken_edge)
    for rec in ex.run_sweep():
        g = weaken_edge(build_path(8), 2, 3, rec.eps)
        basis = eig_symmetric(laplacian(g))
        spec = SourceSpec(weight_rule=WeightRule.EIGENVALUE)
        rhs = np.exp(-1 - source_T(spec, basis, rec.h_star))
        assert np.max(np.abs(rec.h_star - rhs)) <= 1e-11


def test_artifacts_and_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        ex.run_exp2(str(out))
        ex.run_exp6(str(out))
        ex.run_exp6b(str(out))
    names = sorted(os.listdir(out1))
    assert "exp2_results.json" in names
    assert "exp2_table.csv" in names
    assert "sweep_plotdata.csv" in names
    assert "sweep_coupled_plotdata.csv" in names
    for name in names:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), f"{name} not byte-identical"


def test_plotdata_normalized_columns(tmp_path):
    ex.run_sweep(out_dir=str(tmp_path))
    lines = (tmp_path / "sweep_plotdata.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert "lambda1_norm" in header and "delta_fiedler_norm" in header
    for line in lines[1:]:
        vals = dict(zip(header, map(float, line.split(","))))
        for key in ("lambda1_norm", "entropy_norm", "delta_fiedler_norm", "coupling_entropy_norm"):
            assert -1e-12 <= vals[key] <= 1 + 1e-12


def test_results_json_shape(tmp_path):
    ex.run_exp4(str(tmp_path))
    with open(tmp_path / "exp4_results.json") as fh:
        obj = json.load(fh)
    assert list(obj) == ["id", "passed", "metrics"]
    assert obj["id"] == "exp4"
    assert obj["passed"] is True
    assert obj["metrics"]["stable"] is True
    assert sorted(os.listdir(tmp_path)) == ["exp4_results.json", "exp4_table.csv"]


def test_run_sweep_names_files_by_prefix_and_source(tmp_path):
    records = ex.run_sweep("river", [1.0, 0.5], coupled=True, out_dir=str(tmp_path), prefix="x")
    assert sorted(os.listdir(tmp_path)) == ["x_coupled_plotdata.csv", "x_coupled_records.json"]
    with open(tmp_path / "x_coupled_records.json") as fh:
        rows = json.load(fh)
    assert [list(row) for row in rows] == [[f.name for f in fields(ex.SweepRecord)]] * 2
    assert [row["coupling_entropy"] for row in rows] == [r.coupling_entropy for r in records]

