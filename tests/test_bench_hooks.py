"""The benchmark's tracer patches package functions by name; a rename must fail here."""

import importlib
import importlib.util
import inspect
import pathlib
import typing

from kernelfield import experiments, spectral

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves_on_its_layer():
    for layer, names in _load_tracer().TRACED.items():
        mod = importlib.import_module(f"kernelfield.{layer}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"kernelfield.{layer}.{name}"


def test_every_basis_constructor_is_traced():
    """A second public way to build an EigenBasis would leave the tracer's eigensolver spans."""
    constructors = [name for name, fn in inspect.getmembers(spectral, inspect.isfunction)
                    if not name.startswith("_") and fn.__module__ == spectral.__name__
                    and typing.get_type_hints(fn).get("return") is spectral.EigenBasis]
    assert "eig_symmetric" in constructors
    untraced = set(constructors) - set(_load_tracer().TRACED["spectral"])
    assert not untraced, f"bench/tracer.py does not trace {sorted(untraced)}"


def test_runners_hold_the_eight_experiments():
    assert list(experiments.RUNNERS) == ["exp1", "exp2", "exp3", "exp4", "exp5",
                                         "exp6", "exp6b", "exp7"]
    for name, runner in experiments.RUNNERS.items():
        assert runner is getattr(experiments, f"run_{name}")
