"""The benchmark's tracer patches package functions by name; a rename must fail here."""

import importlib
import importlib.util
import inspect
import pathlib
import random
import typing

import kernelfield
from kernelfield import cli, experiments, graph, spectral

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves_on_its_layer():
    for layer, names in _load_bench("tracer").TRACED.items():
        mod = importlib.import_module(f"kernelfield.{layer}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"kernelfield.{layer}.{name}"


def test_every_basis_constructor_is_traced():
    """A second public way to build an EigenBasis would leave the tracer's eigensolver spans."""
    constructors = [name for name, fn in inspect.getmembers(spectral, inspect.isfunction)
                    if not name.startswith("_") and fn.__module__ == spectral.__name__
                    and typing.get_type_hints(fn).get("return") is spectral.EigenBasis]
    assert "eig_symmetric" in constructors
    untraced = set(constructors) - set(_load_bench("tracer").TRACED["spectral"])
    assert not untraced, f"bench/tracer.py does not trace {sorted(untraced)}"


def test_runners_hold_the_eight_experiments():
    assert list(experiments.RUNNERS) == ["exp1", "exp2", "exp3", "exp4", "exp5",
                                         "exp6", "exp6b", "exp7"]
    for name, runner in experiments.RUNNERS.items():
        assert runner is getattr(experiments, f"run_{name}")


def test_the_benchmark_workloads_entry_points_still_bind():
    """sweep-large calls sweep_graph in this shape, and param-scan uses these
    package-level names; a break here would fail every op of those workloads."""
    base = graph.build_path(8)
    inspect.signature(experiments.sweep_graph).bind(base, 3, 4, [0.5], coupled=True, eta=0.05)
    for name in ("eig_symmetric", "laplacian", "build_path", "SourceSpec", "WeightRule",
                 "solve_fixed_point", "stability_report", "diagnostics_record"):
        assert callable(getattr(kernelfield, name, None)), f"kernelfield.{name}"


def test_the_cli_mix_argv_shapes_still_parse():
    """cli-mix runs `python -m kernelfield.cli` on these argv shapes, each with
    --out .; a flag rename or a new required argument would fail every such op."""
    mix = _load_bench("workloads").CliMix()
    mix.rng = random.Random(1)
    ops = mix.cycle()
    assert {op["kind"] for op in ops} == {
        "reproduce", "solve", "solve-eta", "solve-config", "graph",
        *(f"sweep-{t}{c}" for t in ("path", "river", "trunk") for c in ("", "-coupled"))}
    parser = cli.build_parser()
    for op in ops:
        args = parser.parse_args(op["argv"] + ["--out", "."])
        assert args.out == "."
        assert args.func is getattr(cli, f"cmd_{args.command}")
        if op["kind"] == "solve-config":
            assert args.config == "config.json"
            for key, val in op["files"]["config.json"].items():
                assert "solve" in cli._SETTINGS[key].commands and cli._SETTINGS[key].ok(val)
        elif args.command == "sweep":
            assert args.coupled is (True if op["coupled"] else None)
            assert args.graph == op["target"] and len(args.eps_values.split(",")) == op["n_eps"]
        elif args.command == "solve":
            assert (args.eta is not None) == (op["kind"] == "solve-eta")
            assert None not in (args.graph, args.sigma2, args.mu2, args.weights)
