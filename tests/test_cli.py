import contextlib
import functools
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernelfield
from kernelfield import experiments, spectral
from kernelfield.cli import _CONFIG_TYPES, main, parse_graph_spec
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


# A graph file of the wrong JSON types, with a weight above the bound (one
# whose weighted degree would overflow) or with no Laplacian eigenvalue above
# the zero-mode tolerance is an input error.
@pytest.mark.parametrize("argv, graph_text, message", [
    (["graph"], '{"n": 3.7, "edges": [[0, 1.9, 1], [1, 2, true]]}', "malformed graph JSON"),
    (["graph"], '{"n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]}', "weight must be in (0, 1e+100]"),
    (["solve", "--graph"], '{"n": 1, "edges": []}', "zero-mode tolerance"),
    (["solve", "--graph"], '{"n": 2, "edges": []}', "zero-mode tolerance"),
    (["solve", "--graph"], '{"n": 2, "edges": [[0, 1, 1e-12]]}', "zero-mode tolerance"),
], ids=["json-types", "degree-overflow", "one-node", "two-isolated-nodes", "tiny-weight"])
def test_graph_file_input_error_exit_1(tmp_path, capsys, argv, graph_text, message):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(graph_text)
    out = tmp_path / "out"
    assert main(argv + [str(graph_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists() or not any(out.iterdir())


def test_degree_overflow_is_one_error_line(tmp_path):
    graph_file = tmp_path / "g.json"
    graph_file.write_text('{"n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]}')
    src = os.path.dirname(os.path.dirname(kernelfield.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "kernelfield.cli", "graph", str(graph_file)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: edge (0, 1) weight must be in (0, 1e+100], got 1e+308"]


def test_solve_warns_on_a_disconnected_graph(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    graph_file.write_text('{"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]}')
    out = tmp_path / "out"
    assert main(["solve", "--graph", str(graph_file), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: graph has 2 connected components, so its Laplacian's zero eigenvalue is 2-fold"]
    assert "converged=True" in captured.out
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.json", "fixed_point.json", "stability.json"]
    assert main(["graph", str(graph_file)]) == 0
    captured = capsys.readouterr()
    assert "connected=False" in captured.out and captured.err == ""


@pytest.mark.parametrize("argv, calls", [
    (["reproduce", "all", "--out", "{out}"], 15),
    (["sweep", "--out", "{out}"], 0),
    (["sweep", "--coupled", "--out", "{out}"], 5),
    (["solve", "--graph", "path:8", "--out", "{out}"], 0),
    (["solve", "--graph", "path:8", "--eta", "0.1", "--out", "{out}"], 1),
    (["graph", "path:8"], 0),
    (["graph", "path:8", "--out", "{out}"], 1),
], ids=["reproduce-all", "sweep", "sweep-coupled", "solve", "solve-coupled", "graph",
        "graph-out"])
def test_jacobi_runs_only_where_an_eigenvector_is_read(tmp_path, monkeypatch, argv, calls):
    jacobi = spectral._jacobi
    counted = []

    def counting_jacobi(a):
        counted.append(a.shape)
        return jacobi(a)

    monkeypatch.setattr(spectral, "_jacobi", counting_jacobi)
    main([str(tmp_path) if a == "{out}" else a for a in argv])
    assert len(counted) == calls


# The builtin graph-spec grammar, valid and broken. Every number stays at
# most 64, so a spec builds at most 192 nodes: each becomes a dense Laplacian.
_INT = (st.integers(-1, 12) | st.integers(13, 64)).map(str) | st.sampled_from(
    ["", "x", "1.5", "1e1", " 3", "-0"])
_WEIGHT = st.sampled_from(["0.3", "1", "1e-300", "5e-324", "1e300", "0", "-1", "nan", "inf",
                           "", "w", "1,2"])
_WEAKEN = (st.builds(":weaken={},{},{}".format, _INT, _INT, _WEIGHT)
           | st.integers(0, 12).flatmap(lambda u: st.builds(
               ":weaken={},{},{}".format, st.just(u), st.sampled_from([u + 1, u - 1]), _WEIGHT)))
_PATH = st.builds("path:{}{}".format, _INT, st.sampled_from(["", ":", ":weaken=", ":foo=1"]) | _WEAKEN)
_RIVER = st.lists(_INT, max_size=5).map(lambda parts: "river:" + ",".join(parts))
_TRUNK = st.lists(_INT, min_size=2, max_size=4).map(lambda parts: "trunk:" + ",".join(parts))


def _parses(spec):
    try:
        parse_graph_spec(spec)
    except KernelFieldError:
        return False
    return True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=_PATH | _RIVER | _TRUNK)
def test_graph_spec_grammar_exits_0_or_1(spec):
    code = main(["graph", spec])
    assert code in (0, 1)
    assert (code == 0) == _parses(spec)


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


# Every JSON kind as the value of one config key that solve reads. A string
# graph is one of a few small specs, since a generated path:100000 would
# allocate a dense 80 GB Laplacian, and a string out is a directory under the
# test's temporary one. max_iter draws small integers, since a huge budget on a
# non-converging source would loop for hours.
_SOLVE_SPECS = ["path:3", "path:8", "trunk:2,1,1", "river:4,1,2"]
_NUMBER = st.integers() | st.floats(allow_nan=False) | st.just(10**400)  # 1e400 loads as inf
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)
_NOT_STRING = st.none() | st.booleans() | st.lists(_JSON, max_size=3) | st.dictionaries(
    st.text(max_size=3), _JSON, max_size=3)
_CONFIG_VALUES = {
    "graph": st.sampled_from(_SOLVE_SPECS + ["path:0"]) | _NUMBER | _NOT_STRING,
    "out": st.sampled_from(["out", "a/b"]) | _NUMBER | _NOT_STRING,
    "max_iter": st.integers(-2, 300) | st.floats(allow_nan=False) | st.text(max_size=4) | _NOT_STRING,
    "weights": st.sampled_from(["uniform", "eigenvalue"]) | st.text(max_size=4) | _NUMBER | _NOT_STRING,
}
_SOLVE_KEYS = ("graph", "sigma2", "mu2", "weights", "eta", "tol", "max_iter", "out")


# Run as the CLI runs, where numpy's RuntimeWarnings print and do not raise:
# extreme parameters (sigma2 near 1e154, or mu2 near 1000 so that h* underflows)
# warn inside the numerics, which is not what this grammar test is about.
@pytest.mark.filterwarnings("default::RuntimeWarning")
@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(_SOLVE_SPECS), st.sampled_from(_SOLVE_KEYS).flatmap(
    lambda key: st.tuples(st.just(key), _CONFIG_VALUES.get(key, _NUMBER | st.text(max_size=4) | _NOT_STRING))))
def test_solve_config_grammar(tmp_path_factory, spec, setting):
    """One config key of any JSON kind: exit 1 naming the key exactly when its type
    test fails, and otherwise exit 0, 1 or 2 without a traceback."""
    key, value = setting
    root = tmp_path_factory.mktemp("config")
    if key == "out" and type(value) is str:
        value = str(root / value)
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"graph": spec, "out": str(root / "out"), key: value}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["solve", "--config", str(cfg)])
    named = code == 1 and err.getvalue().startswith(f"error: config {key} must be ")
    assert code in (0, 1, 2)
    assert named == (not _CONFIG_TYPES[key][1](value))


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
