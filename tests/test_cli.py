import functools
import json

import numpy as np
import pytest

from kernelfield import experiments
from kernelfield.cli import main, parse_graph_spec
from kernelfield.errors import KernelFieldError
from kernelfield.graph import build_path, build_river_channel, build_trunk_roots, weaken_edge


def test_parse_graph_specs():
    assert parse_graph_spec("path:8") == build_path(8)
    assert parse_graph_spec("path:8:weaken=2,3,0.3") == weaken_edge(build_path(8), 2, 3, 0.3)
    assert parse_graph_spec("river:6,1,2,3,2") == build_river_channel(6, [(1, 2), (3, 2)])
    assert parse_graph_spec("trunk:4,3,3") == build_trunk_roots(4, 3, 3)


def test_parse_graph_spec_errors():
    for bad in ("path:1", "path:8:foo=1", "river:6,1", "trunk:4,3", "no_such_file.json"):
        with pytest.raises(KernelFieldError):
            parse_graph_spec(bad)


def test_solve_writes_reports(tmp_path, capsys):
    code = main(["solve", "--graph", "path:8", "--sigma2", "1", "--mu2", "2",
                 "--weights", "uniform", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "fixed_point.json") as fh:
        report = json.load(fh)
    assert report["converged"] is True
    assert abs(report["h_star"][0] - 0.1547) <= 1e-3
    assert (tmp_path / "stability.json").exists()
    assert (tmp_path / "diagnostics.json").exists()
    assert "converged=True" in capsys.readouterr().out


def test_solve_vacuum(tmp_path):
    assert main(["solve", "--graph", "path:8", "--mu2", "0", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fixed_point.json") as fh:
        report = json.load(fh)
    assert np.allclose(report["h_star"], np.exp(-1.0))


def test_solve_nonconvergence_exit_2(tmp_path):
    code = main(["solve", "--graph", "path:8", "--max-iter", "2",
                 "--tol", "1e-14", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("flag, value", [("--mu2", "nan"), ("--sigma2", "inf"), ("--eta", "nan")])
def test_solve_nonfinite_parameter_exit_1(tmp_path, capsys, flag, value):
    assert main(["solve", "--graph", "path:8", flag, value, "--out", str(tmp_path)]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "fixed_point.json").exists()


def test_solve_missing_graph_file(tmp_path, capsys):
    code = main(["solve", "--graph", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_solve_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "path:8", "mu2": 2.0, "out": str(tmp_path)}))
    assert main(["solve", "--config", str(cfg), "--mu2", "0"]) == 0
    with open(tmp_path / "fixed_point.json") as fh:
        report = json.load(fh)
    assert np.allclose(report["h_star"], np.exp(-1.0))  # flag overrode config


def test_reproduce_exp2(tmp_path, capsys):
    assert main(["reproduce", "exp2", "--out", str(tmp_path)]) == 0
    assert "exp2: PASS" in capsys.readouterr().out
    assert (tmp_path / "exp2_results.json").exists()


def test_reproduce_unknown_id(capsys):
    assert main(["reproduce", "exp9"]) == 1
    assert "unknown experiment" in capsys.readouterr().err


def test_reproduce_all_consistent_exit(tmp_path, capsys):
    code = main(["reproduce", "all", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == 8
    assert code == (2 if "FAIL" in out else 0)


def test_sweep_default_matches_reference(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5
    assert "eps=1" in lines[0] and "lambda1=0.152" in lines[0]
    assert (tmp_path / "sweep_path_plotdata.csv").exists()


def test_sweep_coupled(tmp_path, capsys):
    assert main(["sweep", "--coupled", "--eta", "0.05", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep_path_coupled_plotdata.csv").exists()


def test_sweep_river_coupled(tmp_path):
    assert main(["sweep", "--graph", "river", "--coupled", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep_river_coupled_plotdata.csv").exists()


def test_graph_dump(tmp_path, capsys):
    assert main(["graph", "path:8", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "n=8" in out and "connected=True" in out
    csv = (tmp_path / "eigenbasis.csv").read_text()
    assert len(csv.strip().split("\n")) == 8
    with open(tmp_path / "graph.json") as fh:
        assert json.load(fh)["n"] == 8


def test_sweep_nonconvergence_exit_2(tmp_path, capsys, monkeypatch):
    solve = experiments.field.solve_fixed_point
    monkeypatch.setattr(experiments.field, "solve_fixed_point", functools.partial(solve, max_iter=2))
    assert main(["sweep", "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5 and all(line.endswith("[not converged]") for line in lines)


def test_sweep_rejects_non_builtin_graph_before_reading_it(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    graph_file.write_text("not json")  # would raise a parse error if it were read
    assert main(["sweep", "--graph", str(graph_file), "--out", str(tmp_path)]) == 1
    assert "builtin graph" in capsys.readouterr().err


# Non-finite or out-of-range input is an input error, not a non-convergence.
@pytest.mark.parametrize("argv", [
    ["sweep", "--eps-values", "inf"],
    ["solve", "--graph", "path:8:weaken=2,3,inf"],
    ["solve", "--graph", "{graph_file}"],
    ["solve", "--graph", "path:8", "--tol", "inf"],
    ["solve", "--graph", "path:8", "--max-iter", "0"],
], ids=["sweep-eps-inf", "weaken-inf", "json-weight-infinity", "tol-inf", "max-iter-0"])
def test_nonfinite_or_out_of_range_input_exit_1(tmp_path, capsys, argv):
    graph_file = tmp_path / "g.json"
    graph_file.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2, Infinity]]}')
    out = tmp_path / "out"
    argv = [str(graph_file) if a == "{graph_file}" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() or not any(out.iterdir())


# A graph file of the wrong JSON types, with a non-finite Laplacian or with
# no Laplacian eigenvalue above the zero-mode tolerance is an input error.
@pytest.mark.parametrize("argv, graph_text, message", [
    (["graph"], '{"n": 3.7, "edges": [[0, 1.9, 1], [1, 2, true]]}', "malformed graph JSON"),
    (["graph"], '{"n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]}', "non-finite"),
    (["solve", "--graph"], '{"n": 1, "edges": []}', "zero-mode tolerance"),
    (["solve", "--graph"], '{"n": 2, "edges": []}', "zero-mode tolerance"),
    (["solve", "--graph"], '{"n": 2, "edges": [[0, 1, 1e-12]]}', "zero-mode tolerance"),
], ids=["json-types", "degree-overflow", "one-node", "two-isolated-nodes", "tiny-weight"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_graph_file_input_error_exit_1(tmp_path, capsys, argv, graph_text, message):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(graph_text)
    out = tmp_path / "out"
    assert main(argv + [str(graph_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv, code", [
    (["solve", "--sigma2", "abc"], 1),
    (["solve", "--weights", "bogus"], 1),
    (["solve", "--no-such-flag"], 1),
    (["sweep", "--coupled", "yes"], 1),
    (["sweep", "--help"], 0),
])
def test_parser_exit_code(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert ("error:" in capsys.readouterr().err) == (code == 1)


@pytest.mark.parametrize("setting", [
    {"coupled": "false"},
    {"coupled": 1},
    {"eps_values": ["0.5"]},
    {"eps_values": [0.5, True]},
    {"eps_values": 0.5},
    {"eps_values": []},
], ids=["coupled-string", "coupled-int", "eps-string-entry", "eps-bool-entry", "eps-scalar",
        "eps-empty"])
def test_sweep_config_type_error_exit_1(tmp_path, capsys, setting):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "out"), **setting}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_sweep_config_boolean_and_number_list(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "trunk", "coupled": False, "eps_values": [1, 0.5],
                               "out": str(tmp_path)}))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "sweep_trunk_plotdata.csv", "sweep_trunk_records.json"]


@pytest.mark.parametrize("setting", [
    {"max_iter": 2.7, "tol": 1e-14},
    {"max_iter": True},
    {"sigma2": "1"},
    {"mu2": True},
    {"eta": "0.1"},
    {"tol": None},
    {"graph": 8},
    {"weights": 1},
    {"out": 5},
], ids=["max-iter-float", "max-iter-bool", "sigma2-string", "mu2-bool", "eta-string", "tol-null",
        "graph-number", "weights-number", "out-number"])
def test_solve_config_type_error_exit_1(tmp_path, capsys, monkeypatch, setting):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "path:8", "out": "out", **setting}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config {next(iter(setting))} must be ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("argv, setting, message", [
    (["--eta", "0.3"], {}, "--eta needs --coupled"),
    ([], {"eta": 0.3}, "--eta needs --coupled"),
    (["--coupled", "--eta", "0"], {}, "eta must be positive for a coupled sweep"),
    ([], {"coupled": True, "eta": 0}, "eta must be positive for a coupled sweep"),
], ids=["flag-uncoupled", "config-uncoupled", "flag-zero", "config-zero"])
def test_sweep_eta_needs_a_coupled_sweep(tmp_path, capsys, argv, setting, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "out"), **setting}))
    assert main(["sweep", "--config", str(cfg), *argv]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
