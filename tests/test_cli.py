import contextlib
import inspect
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
from kernelfield.cli import _SETTINGS, _settings, build_parser, main
from kernelfield.errors import KernelFieldError
from kernelfield.graph import (build_path, build_river_channel, build_trunk_roots,
                              parse_graph_spec, weaken_edge)


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


def test_solve_stops_on_the_field_residual(tmp_path, capsys):
    # Here a step in h falls below tol while max|R - T| is still 2.2e-10.
    code = main(["solve", "--graph", "path:8", "--sigma2", "0.111", "--mu2", "6.86",
                 "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "fixed_point.json") as fh:
        report = json.load(fh)
    assert report["converged"] is True
    assert report["residual_inf"] < 1e-12


@pytest.mark.parametrize("argv", [
    ["solve", "--graph", "path:8"],
    ["graph", "path:8"],
    ["sweep", "--graph", "path", "--eps-values", "1"],
    ["reproduce", "exp1"],
], ids=lambda argv: argv[0])
def test_out_below_a_regular_file_is_one_error_line(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(argv + ["--out", str(blocker / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["file"]


def test_solve_vacuum(tmp_path):
    assert main(["solve", "--graph", "path:8", "--mu2", "0", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fixed_point.json") as fh:
        report = json.load(fh)
    assert np.allclose(report["h_star"], np.exp(-1.0))


def test_solve_nonconvergence_exit_2(tmp_path, capsys):
    """A solve that stops short of a fixed point reports its last iterate in
    fixed_point.json alone: no stability or diagnostics claims about it. At
    eta=50 Picard oscillates (rate 1.49)."""
    for argv in (["--max-iter", "2", "--tol", "1e-14"], ["--eta", "50"]):
        out = tmp_path / argv[1]
        code = main(["solve", "--graph", "path:8", *argv, "--out", str(out)])
        assert code == 2
        assert "converged=False" in capsys.readouterr().out
        assert os.listdir(out) == ["fixed_point.json"]
        with open(out / "fixed_point.json") as fh:
            report = json.load(fh)
        assert report["converged"] is False and report["residual_inf"] > 0
    # A converged run and then a non-converged one into one directory: the
    # second removes the first's stability and diagnostics claims, and only those.
    out = tmp_path / "reused"
    assert main(["solve", "--graph", "path:8", "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept")
    assert main(["solve", "--graph", "path:8", "--eta", "50", "--out", str(out)]) == 2
    assert "converged=False" in capsys.readouterr().out.splitlines()[-1]
    assert sorted(os.listdir(out)) == ["fixed_point.json", "notes.txt"]
    assert (out / "notes.txt").read_text() == "kept"
    with open(out / "fixed_point.json") as fh:
        assert json.load(fh)["converged"] is False


@pytest.mark.parametrize("argv", [
    ["graph", "path:8"],
    ["solve", "--graph", "path:8", "--eta", "0.1"],
], ids=["graph", "solve-coupled"])
def test_an_exhausted_jacobi_sweep_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                              argv):
    """An eigenvector read whose sweep budget runs out is a numerical failure:
    one stderr line, exit 2, and no --out directory, let alone a lone graph.json."""
    monkeypatch.setattr(spectral, "_MAX_SWEEPS", 1)
    out = tmp_path / "d"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: Jacobi sweep did not converge in 1 sweeps\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, code, lo, hi", [
    # h* collapses to 2.3e-16 while the residual first grows to 17.8, so
    # the ratio of the last residuals read 1.38 although the rate is 1.6e-12.
    (["--sigma2", "0.005", "--mu2", "0.35"], 0, 0.0, 1e-11),
    # Picard's slow contraction: a rate of 0.972 leaves it at residual 8.1e-3 after 200
    # steps, above sqrt(tol), so no Newton step finishes it.
    (["--eta", "20"], 2, 0.9, 0.99),
    # 3e-4 below the upper fold Picard's rate is 0.925, and 200 steps leave it at residual
    # 1.9e-9; from sqrt(tol) on, Newton steps finish the solve.
    (["--sigma2", "0.005", "--mu2", "0.28"], 0, 0.92, 0.93),
    # A constant map: no source, so the rate is exactly 0.
    (["--mu2", "0"], 0, 0.0, 0.0),
], ids=["collapsed-h", "slow-contraction", "near-fold", "no-source"])
def test_solve_prints_the_rate_at_h_star(tmp_path, capsys, argv, code, lo, hi):
    assert main(["solve", "--graph", "path:8", *argv, "--out", str(tmp_path)]) == code
    fields = dict(item.split("=") for item in capsys.readouterr().out.split())
    assert lo <= float(fields["ratio"]) <= hi


@pytest.mark.parametrize("argv, calls, coupled", [
    (["solve", "--graph", "path:8"], 1, False),
    (["sweep"], 5, False),
    (["sweep", "--coupled"], 5, True),
    (["reproduce", "exp2"], 1, False),
    (["reproduce", "exp4"], 1, False),
], ids=["solve", "sweep", "sweep-coupled", "exp2", "exp4"])
def test_every_chain_runs_through_solve_graph(tmp_path, monkeypatch, argv, calls, coupled):
    """The basis, source, fixed point and stability chain is written once."""
    solve_graph = experiments.solve_graph
    etas = []

    def counting_solve_graph(*args, **kwargs):
        bound = inspect.signature(solve_graph).bind(*args, **kwargs)
        bound.apply_defaults()
        etas.append(bound.arguments["eta"])
        return solve_graph(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_graph", counting_solve_graph)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert len(etas) == calls
    assert all(eta > 0 for eta in etas) if coupled else all(eta == 0 for eta in etas)


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
    # The pipeline passes max_iter itself, so the wrapper overrides it.
    monkeypatch.setattr(experiments.field, "solve_fixed_point",
                        lambda *args, **kwargs: solve(*args, **{**kwargs, "max_iter": 2}))
    assert main(["sweep", "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5 and all(line.endswith("[not converged]") for line in lines)


def test_sweep_rejects_non_builtin_graph_before_reading_it(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    graph_file.write_text("not json")  # would raise a parse error if it were read
    assert main(["sweep", "--graph", str(graph_file), "--out", str(tmp_path)]) == 1
    assert "builtin graph" in capsys.readouterr().err


# Non-finite or out-of-range input is an input error, not a non-convergence,
# and `solve` creates --out only after its pipeline returns.
@pytest.mark.parametrize("argv", [
    ["sweep", "--eps-values", "inf"],
    ["solve", "--graph", "path:8:weaken=2,3,inf"],
    ["solve", "--graph", "{graph_file}"],
    ["solve", "--graph", "path:8", "--tol", "inf"],
    ["solve", "--graph", "path:8", "--max-iter", "0"],
    ["solve", "--graph", "path:8", "--sigma2", "-1"],
], ids=["sweep-eps-inf", "weaken-inf", "json-weight-infinity", "tol-inf", "max-iter-0",
        "sigma2-negative"])
def test_nonfinite_or_out_of_range_input_exit_1(tmp_path, capsys, argv):
    graph_file = tmp_path / "g.json"
    graph_file.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2, Infinity]]}')
    out = tmp_path / "out"
    argv = [str(graph_file) if a == "{graph_file}" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# A graph file of the wrong JSON types, with a key other than n and edges,
# with a weight above the bound (one whose weighted degree would overflow) or
# a solve on a graph with no edge, whose every Laplacian mode is a zero mode,
# is an input error.
@pytest.mark.parametrize("argv, graph_text, message", [
    (["graph"], '{"n": 3.7, "edges": [[0, 1.9, 1], [1, 2, true]]}', "malformed graph JSON"),
    (["graph"], '{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "extra": 1}',
     "malformed graph JSON: unknown key(s) 'extra'"),
    (["graph"], '{"n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]}', "weight must be in (0, 1e+100]"),
    (["solve", "--graph"], '{"n": 1, "edges": []}', "the graph has no edge"),
    (["solve", "--graph"], '{"n": 2, "edges": []}', "the graph has no edge"),
], ids=["json-types", "unknown-key", "degree-overflow", "one-node", "two-isolated-nodes"])
def test_graph_file_input_error_exit_1(tmp_path, capsys, argv, graph_text, message):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(graph_text)
    out = tmp_path / "out"
    assert main(argv + [str(graph_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def _python(*args, cwd=None):
    """Run a fresh interpreter on this checkout's package."""
    src = os.path.dirname(os.path.dirname(kernelfield.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=120)


def test_degree_overflow_is_one_error_line(tmp_path):
    graph_file = tmp_path / "g.json"
    graph_file.write_text('{"n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]}')
    proc = _python("-m", "kernelfield.cli", "graph", str(graph_file))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: edge (0, 1) weight must be in (0, 1e+100], got 1e+308"]


def test_solve_on_a_tiny_weight_edge_exits_0(tmp_path, capsys):
    """A connected graph has one zero mode, however small its weights: the
    Fiedler mode lambda1 ~ 2e-12 is not one."""
    graph_file = tmp_path / "g.json"
    graph_file.write_text('{"n": 2, "edges": [[0, 1, 1e-12]]}')
    out = tmp_path / "out"
    assert main(["solve", "--graph", str(graph_file), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "stability.json") as fh:
        rep = json.load(fh)
    assert rep["fiedler_gap"] == rep["margins"][1]


def test_sweep_to_a_vanishing_edge_keeps_the_fiedler_mode(tmp_path):
    """At eps = 1e-300 lambda1 is rounding noise, yet the path stays connected:
    the Fiedler mode counts, and with eigenvalue weights its margin tends to e."""
    assert main(["sweep", "--eps-values", "1,1e-300", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep_path_records.json") as fh:
        last = json.load(fh)[-1]
    assert last["eps"] == 1e-300
    assert abs(last["delta_fiedler"] - np.e) <= 1e-9


def test_a_tiny_eta_still_couples_every_row(tmp_path):
    """eta*C is exactly zero only on an empty row of C, so the coupling
    entropy at eta = 1e-15 is C's own, as at 1e-13, and not ln 7."""
    entropies = []
    for eta in ("1e-15", "1e-13"):
        out = tmp_path / eta
        assert main(["solve", "--graph", "path:8", "--eta", eta, "--out", str(out)]) == 0
        with open(out / "stability.json") as fh:
            entropies.append(json.load(fh)["coupling_entropy"])
    assert entropies == [1.018170841299703] * 2


@pytest.mark.parametrize("argv, code, message", [
    (["--sigma2", "1e154"], 1, "error: sigma2 must be in (0, 1e+100], got 1e+154"),
    (["--mu2", "1000"], 2, "numerical failure: Fisher-Rao metric 1/(2 h^2) overflows binary64"),
], ids=["sigma2-above-bound", "fisher-overflow"])
def test_source_parameters_stay_inside_binary64(tmp_path, capsys, argv, code, message):
    """sigma2 is bounded like an edge weight; an h* so small that 1/(2 h^2)
    overflows is a numerical failure, not an Infinity in diagnostics.json."""
    out = tmp_path / "out"
    assert main(["solve", "--graph", "path:3", *argv, "--out", str(out)]) == code
    assert capsys.readouterr().err.splitlines()[0].startswith(message)
    assert not out.exists()


# mu2 is bounded like sigma2, so mu2 * w_l cannot overflow in the source:
# under -W error an overflow warning would be a traceback.
@pytest.mark.parametrize("argv, code, message", [
    (["--mu2", "1.7e308", "--weights", "eigenvalue"], 1, "error: mu2 must be in [0, 1e+100], got 1.7e+308"),
    (["--eta", "1.7e308", "--mu2", "1e308"], 1, "error: mu2 must be in [0, 1e+100], got 1e+308"),
    (["--mu2", "1e100", "--weights", "eigenvalue"], 2,
     "numerical failure: exp argument out of range in fixed-point map"),
], ids=["mu2-above-bound", "mu2-above-bound-coupled", "mu2-at-bound"])
def test_mu2_bound_exits_cleanly_under_warnings_as_errors(tmp_path, argv, code, message):
    out = tmp_path / "out"
    proc = _python("-W", "error", "-m", "kernelfield.cli", "solve", "--graph", "trunk:2,1,1",
                   *argv, "--out", str(out))
    assert (proc.returncode, proc.stderr.splitlines()) == (code, [message])
    assert not out.exists()


_LAZY_IMPORTS = """
import sys
import kernelfield.cli
start = set(sys.modules)
for argv in ([], ["--eta", "0.05"]):
    assert kernelfield.cli.main(["solve", *argv, "--out", "solve"]) == 0
assert kernelfield.cli.main(["sweep", "--graph", "trunk", "--coupled", "--out", "sweep"]) == 0
assert kernelfield.cli.main(["reproduce", "exp2", "--out", "exp2"]) == 0
assert kernelfield.cli.main(["graph", "path:8", "--out", "graph"]) == 0
sys.stderr.write(" ".join(sorted(set(sys.modules) - start)))
"""


def test_cli_commands_import_no_module_after_start_up(tmp_path):
    """A CLI process pays its imports once: no command pulls in a numpy
    submodule (np.median, say, imports numpy.ma on first call). argparse's
    gettext imports locale on its first message."""
    proc = _python("-c", _LAZY_IMPORTS, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stderr.split()) - {"locale", "_locale"} == set()


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


# reproduce all: exp6b's 5 coupled rows, exp7's 10, and exp3's isometry on trunk.
@pytest.mark.parametrize("argv, calls", [
    (["reproduce", "all", "--out", "{out}"], 16),
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


_PATH_FORMS = "expected path:N or path:N:weaken=u,v,eps"


# A spec that misses its grammar form names the form, and a missing edge is
# named without KeyError's quotes.
@pytest.mark.parametrize("command, spec, message", [
    ("solve", "path:8:weaken=2,3", _PATH_FORMS),
    ("solve", "trunk:4,3", "expected trunk:len,rootfan,branchfan"),
    ("solve", "path:x", _PATH_FORMS),
    ("solve", "path:8:weaken=2,3,0.3:x", _PATH_FORMS),
    ("solve", "river:6,x,2", "expected river:stem,attach1,len1[,attach2,len2,...]"),
    ("graph", "path:4:weaken=0,2,0.5", "edge (0,2) not in graph"),
    ("graph", "path:1_0", _PATH_FORMS),
    ("graph", "path:+8", _PATH_FORMS),
    ("graph", "path: 8 ", _PATH_FORMS),
    ("graph", "path:\uff18", _PATH_FORMS),
    ("solve", "path:8:weaken=2,3,1_0e-1", _PATH_FORMS),
    ("graph", "river:6,,1,2", "expected river:stem,attach1,len1[,attach2,len2,...]"),
], ids=["weaken-two-values", "trunk-two-values", "path-not-int", "weaken-trailing-text",
        "river-not-int", "edge-not-in-graph", "path-underscore", "path-sign", "path-spaces",
        "path-full-width-digit", "eps-underscore", "river-empty-part"])
def test_a_bad_graph_spec_names_what_it_expected(tmp_path, capsys, command, spec, message):
    argv = ["solve", "--graph", spec] if command == "solve" else ["graph", spec]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: bad graph spec {spec!r}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["solve", "--sigma2", "abc"], 1),
    (["solve", "--weights", "bogus"], 1),
    (["solve", "--no-such-flag"], 1),
    (["sweep", "--coupled", "yes"], 1),
    (["sweep", "--help"], 0),
    (["reproduce", "exp9"], 1),
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


@pytest.mark.parametrize("command, setting, named", [
    ("solve", {"sigma": 0.3}, "'sigma'"),
    ("sweep", {"mu2": 5, "sigma2": 0.1}, "'mu2', 'sigma2'"),
], ids=["solve-typo", "sweep-fixed-source"])
def test_config_field_the_command_does_not_take_exit_1(tmp_path, capsys, command, setting, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "out"), **setting}))
    assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unknown config field(s) {named} for {command}, ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", [
    {"max_iter": 2.7, "tol": 1e-14},
    {"max_iter": True},
    {"sigma2": "1"},
    {"mu2": True},
    {"eta": "0.1"},
    {"tol": None},
    {"graph": 8},
    {"weights": 1},
    {"weights": "bogus"},
    {"out": 5},
], ids=["max-iter-float", "max-iter-bool", "sigma2-string", "mu2-bool", "eta-string", "tol-null",
        "graph-number", "weights-number", "weights-not-a-rule", "out-number"])
def test_solve_config_type_error_exit_1(tmp_path, capsys, monkeypatch, setting):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "path:8", "out": "out", **setting}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config {next(iter(setting))} must be ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_solve_config_weights_names_its_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weights": "bogus", "out": str(tmp_path / "out")}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "error: config weights must be one of uniform, eigenvalue, got 'bogus'\n")
    assert not (tmp_path / "out").exists()


# For each setting, a config field and a flag value that gives another setting.
_OVERRIDES = {"graph": ("river", ["trunk"]), "sigma2": (2.0, ["0.5"]), "mu2": (2.0, ["0"]),
              "weights": ("uniform", ["eigenvalue"]), "eps_values": ([1, 0.5], ["0.3"]),
              "coupled": (False, []), "eta": (0.1, ["0.2"]), "tol": (1e-10, ["1e-11"]),
              "max_iter": (100, ["50"]), "out": ("a", ["b"])}


@pytest.mark.parametrize("command, key", [(command, key) for key, row in _SETTINGS.items()
                                          for command in row.commands])
def test_a_given_flag_overrides_its_config_field(tmp_path, command, key):
    field, value = _OVERRIDES[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: field}))
    flag = ["--" + key.replace("_", "-"), *value]
    given = _settings(build_parser().parse_args([command, "--config", str(cfg), *flag]))
    assert given == _settings(build_parser().parse_args([command, *flag]))
    assert given[key] != _settings(build_parser().parse_args([command, "--config", str(cfg)]))[key]


@pytest.mark.parametrize("config, named", [
    ({"sigma2": "x"}, "sigma2"),
    ({"out": 5, "sigma2": "x"}, "out"),
    ({"sigma2": "x", "out": 5}, "sigma2"),
], ids=["overridden", "out-first", "sigma2-first"])
def test_the_whole_config_is_checked_before_flags_override_it(tmp_path, capsys, monkeypatch,
                                                              config, named):
    """A bad field fails even when its flag is given; of several, the first in the file is named."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["solve", "--config", str(cfg), "--sigma2", "1", "--out", "out"]) == 1
    assert capsys.readouterr().err.startswith(f"error: config {named} must be ")
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
# Keys that solve does not take: sweep's own keys, and typos of solve's.
_NOT_SOLVE_KEYS = ("eps_values", "coupled", "sigma", "max-iter", "Eta")


def _config_error(err: str, key: str, taken) -> bool:
    """Whether err is the one error line for config key: unknown to the command
    when key is not in taken, and of the wrong JSON type otherwise."""
    if key not in taken:
        return err.startswith(f"error: unknown config field(s) {key!r} for ") and err.count("\n") == 1
    return err.startswith(f"error: config {key} must be ")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(_SOLVE_SPECS), st.sampled_from(_SOLVE_KEYS + _NOT_SOLVE_KEYS).flatmap(
    lambda key: st.tuples(st.just(key), _CONFIG_VALUES.get(key, _NUMBER | st.text(max_size=4) | _NOT_STRING))))
def test_solve_config_grammar(tmp_path_factory, spec, setting):
    """One config key of any JSON kind: exit 1 naming the key exactly when solve
    does not take it or its type test fails, and otherwise exit 0, 1 or 2
    without a traceback."""
    key, value = setting
    root = tmp_path_factory.mktemp("config")
    if key == "out" and type(value) is str:
        value = str(root / value)
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"graph": spec, "out": str(root / "out"), key: value}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["solve", "--config", str(cfg)])
    named = code == 1 and _config_error(err.getvalue(), key, _SOLVE_KEYS)
    assert code in (0, 1, 2)
    assert named == (key not in _SOLVE_KEYS or not _SETTINGS[key].ok(value))
    if key not in _SOLVE_KEYS:
        assert not (root / "out").exists()


# The same for sweep: the base config is a valid sweep of at most 3 rows on
# a 10-node builtin target, plain or coupled, and one key is overridden. An
# eps list holds at most 3 values, and a string out is a directory under the
# test's temporary one.
_SWEEP_KEYS = ("graph", "eps_values", "coupled", "eta", "out")
# Keys that sweep does not take: solve's own keys, since a sweep fixes its
# source, and typos of sweep's.
_NOT_SWEEP_KEYS = ("sigma2", "mu2", "weights", "tol", "max_iter", "eps", "eps-values")
_SWEEP_VALUES = {
    "graph": st.sampled_from(["path", "river", "trunk", "path:8", ""]) | _NUMBER | _NOT_STRING,
    "eps_values": (st.text(max_size=5) | st.lists(_NUMBER | st.booleans() | st.text(max_size=3), max_size=3)
                   | _NUMBER | st.none() | st.booleans() | st.dictionaries(st.text(max_size=3), _JSON, max_size=3)),
    "coupled": st.booleans() | _NUMBER | st.text(max_size=4) | _NOT_STRING,
    "eta": _NUMBER | st.text(max_size=4) | _NOT_STRING,
    "out": st.sampled_from(["out", "a/b"]) | _NUMBER | _NOT_STRING,
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["path", "river", "trunk"]), st.booleans(),
       st.sampled_from(_SWEEP_KEYS + _NOT_SWEEP_KEYS).flatmap(lambda key: st.tuples(
           st.just(key), _SWEEP_VALUES.get(key, _NUMBER | st.text(max_size=4) | _NOT_STRING))))
def test_sweep_config_grammar(tmp_path_factory, target, coupled, setting):
    """One sweep config key of any JSON kind: exit 1 naming the key exactly when
    sweep does not take it or its type test fails, and otherwise exit 0, 1 or 2
    without a traceback."""
    key, value = setting
    root = tmp_path_factory.mktemp("config")
    if key == "out" and type(value) is str:
        value = str(root / value)
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"graph": target, "eps_values": [1.0, 0.109], "coupled": coupled,
                               "out": str(root / "out"), key: value}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["sweep", "--config", str(cfg)])
    named = code == 1 and _config_error(err.getvalue(), key, _SWEEP_KEYS)
    assert code in (0, 1, 2)
    assert named == (key not in _SWEEP_KEYS or not _SETTINGS[key].ok(value))
    if key not in _SWEEP_KEYS:
        assert not (root / "out").exists()


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def test_every_json_artifact_is_strict_json(tmp_path, capsys):
    """reproduce all, the six builtin sweeps and a set of solve and graph runs
    write no NaN or Infinity: every .json artifact parses as strict JSON."""
    disconnected = tmp_path / "disconnected.json"
    disconnected.write_text('{"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]}')
    runs = [["reproduce", "all"]]
    runs += [["sweep", "--graph", t, *c] for t in ("path", "river", "trunk") for c in ([], ["--coupled"])]
    runs += [["solve", "--graph", g, *extra] for g, extra in [
        ("path:8", []), ("path:8", ["--eta", "0.1"]), ("path:8", ["--eta", "1e-15"]),
        ("trunk:4,3,3", ["--eta", "0.05", "--weights", "eigenvalue"]),
        ("river:6,1,2,3,2", ["--weights", "eigenvalue"]),
        ("path:8:weaken=2,3,1e-11", ["--weights", "eigenvalue"]), (str(disconnected), []),
        ("path:3", ["--sigma2", "1e100"]), ("path:3", ["--mu2", "700"]), ("path:3", ["--mu2", "1000"])]]
    runs += [["graph", g] for g in ("path:8", "trunk:4,3,3", str(disconnected))]
    for i, argv in enumerate(runs):
        assert main([*argv, "--out", str(tmp_path / f"run{i}")]) in (0, 2)
    capsys.readouterr()
    artifacts = sorted(tmp_path.glob("run*/*.json"))
    # reproduce: 8 results and exp6's and exp6b's sweep records; 6 sweep
    # records; 3 files from each solve but --mu2 1000; 3 graph.json.
    assert len(artifacts) == 10 + 6 + 3 * 9 + 3
    for path in artifacts:
        json.loads(path.read_text(), parse_constant=_not_json)
    assert not list(tmp_path.glob("run*/*.tmp"))  # every write was renamed into place


@pytest.mark.parametrize("argv, setting, message", [
    (["--eta", "0.3"], {}, "--eta needs --coupled"),
    ([], {"eta": 0.3}, "--eta needs --coupled"),
    (["--coupled", "--eta", "0"], {}, "eta must be positive for a coupled sweep"),
    ([], {"coupled": True, "eta": 0}, "eta must be positive for a coupled sweep"),
    (["--eps-values", "1,,0.5"], {}, "eps_values must be comma-separated numbers, got '1,,0.5'"),
    ([], {"eps_values": "1,x"}, "eps_values must be comma-separated numbers, got '1,x'"),
], ids=["flag-uncoupled", "config-uncoupled", "flag-zero", "config-zero", "flag-eps-empty-entry",
        "config-eps-word-entry"])
def test_sweep_setting_error_names_the_setting(tmp_path, capsys, argv, setting, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "out"), **setting}))
    assert main(["sweep", "--config", str(cfg), *argv]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
