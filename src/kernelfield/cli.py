"""Command-line interface.

Subcommands: solve (experiments.solve_graph on one graph, then the
diagnostics; --out is created only once both succeed, and a solve that does
not converge writes fixed_point.json alone and removes an earlier run's
stability.json and diagnostics.json from --out), reproduce (experiment
runners), sweep (experiments.run_sweep on a builtin target), graph (dump
Laplacian and spectrum; --out is created only once both texts are built).
Exit codes are the machine contract: 0 success, 1 input error
(usage errors included), 2 numerical non-convergence. experiments.write_artifacts
writes every file, atomically (temp file + rename).

Each setting of solve and sweep is one row of _SETTINGS: its flag, the JSON
type of its --config field and its conversion. The whole config is checked
before the given flags override it, and solve and sweep pass on only the
settings that were given, so solve_graph and run_sweep keep their defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

from . import experiments, graph as graphmod
from .diagnostics import diagnostics_record
from .errors import KernelFieldError, NumericalError
from .experiments import RUNNERS, write_artifacts
from .field import WeightRule
from .graph import is_json_number
from .spectral import eig_symmetric, eigenbasis_to_csv


class _Setting(NamedTuple):
    commands: tuple[str, ...]  # the subcommands that take it
    what: str                  # the JSON type its config field must have, and its test
    ok: Callable
    flag: dict                 # the argparse keywords of its flag --<key with - for _>
    convert: Callable          # from the flag's or the field's value to the one passed on


def _eps_list(eps_values) -> list[float]:
    try:
        return [float(x) for x in (eps_values.split(",") if isinstance(eps_values, str)
                                   else eps_values)]
    except ValueError:
        raise KernelFieldError(f"eps_values must be comma-separated numbers, "
                               f"got {eps_values!r}") from None


_NUMBER = ("a number", is_json_number, {"type": float}, float)
_STRING = ("a string", lambda x: type(x) is str, {}, str)
_WEIGHTS = [rule.value for rule in WeightRule]

# Every setting of solve and sweep, in the order of their flags.
_SETTINGS = {
    "graph": _Setting(("solve", "sweep"), *_STRING),
    "sigma2": _Setting(("solve",), *_NUMBER),
    "mu2": _Setting(("solve",), *_NUMBER),
    "weights": _Setting(("solve",), f"one of {', '.join(_WEIGHTS)}", lambda x: x in _WEIGHTS,
                        {"choices": _WEIGHTS}, WeightRule),
    "eps_values": _Setting(
        ("sweep",), "a comma-separated string or a non-empty list of numbers",
        lambda x: type(x) is str or (type(x) is list and x and all(map(is_json_number, x))),
        {}, _eps_list),
    "coupled": _Setting(("sweep",), "true or false", lambda x: type(x) is bool,
                        {"action": "store_true", "default": None}, bool),
    "eta": _Setting(("solve", "sweep"), *_NUMBER),
    "tol": _Setting(("solve",), *_NUMBER),
    "max_iter": _Setting(("solve",), "an integer", lambda x: type(x) is int, {"type": int}, int),
    "out": _Setting(("solve", "sweep"), *_STRING),
}


def _settings(args) -> dict:
    """The settings that --config or a flag gives, converted; a given flag wins.

    The whole config is checked first: each field must be a setting of the
    command, of that setting's JSON type.
    """
    rows = {key: row for key, row in _SETTINGS.items() if args.command in row.commands}
    config = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise KernelFieldError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(config, dict):
            raise KernelFieldError("config must be a JSON object")
        unknown = [key for key in config if key not in rows]
        if unknown:
            raise KernelFieldError(f"unknown config field(s) {', '.join(map(repr, unknown))} for "
                                   f"{args.command}, which takes {', '.join(sorted(rows))}")
        for key, val in config.items():
            if not rows[key].ok(val):
                raise KernelFieldError(f"config {key} must be {rows[key].what}, got {val!r}")
    flags = {key: val for key in rows if (val := getattr(args, key)) is not None}
    return {key: rows[key].convert(val) for key, val in {**config, **flags}.items()}


def cmd_solve(args) -> int:
    # Only the settings that were given; solve_graph holds the other defaults.
    params = {"weight_rule" if key == "weights" else key: val
              for key, val in _settings(args).items()}
    g = graphmod.parse_graph_spec(params.pop("graph", "path:8"))
    out = params.pop("out", ".")
    basis, _, report, srep = experiments.solve_graph(g, **params)
    # Stability and diagnostics describe a fixed point, so only a converged
    # solve writes them; otherwise the last iterate is reported alone, and an
    # earlier run's claims are not left beside it.
    artifacts = {"fixed_point.json": report.to_json()}
    if report.converged:
        artifacts["stability.json"] = srep.to_json()
        artifacts["diagnostics.json"] = diagnostics_record(report.h_star.h,
                                                           report.h_star.h0).to_json()
    stale = () if report.converged else ("stability.json", "diagnostics.json")
    write_artifacts(out, artifacts, stale)
    components = basis.components
    if components > 1:
        print(f"warning: graph has {components} connected components, so its Laplacian's "
              f"zero eigenvalue is {components}-fold", file=sys.stderr)
    print(f"converged={report.converged} iterations={report.iterations} "
          f"residual={report.residual_inf:.6g} ratio={report.contraction_ratio:.6g}")
    return 0 if report.converged else 2


def cmd_reproduce(args) -> int:
    names = list(RUNNERS) if args.experiment == "all" else [args.experiment]
    all_passed = True
    for name in names:
        result = RUNNERS[name](args.out)
        all_passed &= result.passed
        print(f"{name}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if all_passed else 2


def cmd_sweep(args) -> int:
    # Only the settings that were given; run_sweep holds the other defaults.
    params = _settings(args)
    target, out = params.pop("graph", "path"), params.pop("out", ".")
    if "eta" in params and not params.get("coupled"):
        raise KernelFieldError("--eta needs --coupled: eta is the mode-coupling strength")
    if "eta" in params and not params["eta"] > 0:
        raise KernelFieldError(f"eta must be positive for a coupled sweep, got {params['eta']!r}")
    records = experiments.run_sweep(target, **params, out_dir=out, prefix=f"sweep_{target}")
    for r in records:
        flag = "" if r.converged else "  [not converged]"
        print(f"eps={r.eps:.6g} lambda1={r.lambda1:.6g} entropy={r.entropy:.6g} "
              f"delta_fiedler={r.delta_fiedler:.6g} coupling_entropy={r.coupling_entropy:.6g}{flag}")
    return 0 if all(r.converged for r in records) else 2


def cmd_graph(args) -> int:
    g = graphmod.parse_graph_spec(args.graph)
    basis = eig_symmetric(graphmod.laplacian(g))
    if args.out:
        write_artifacts(args.out, {"graph.json": graphmod.to_json(g),
                                   "eigenbasis.csv": eigenbasis_to_csv(basis)})
    print(f"n={g.n} edges={len(g.edges)} connected={basis.components == 1}")
    print("eigenvalues: " + " ".join(f"{x:.6g}" for x in basis.lambdas))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any other input error; 2 means non-convergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # The docstring's last paragraph is for readers of this module, not for --help.
    parser = _Parser(prog="kernelfield", formatter_class=argparse.RawDescriptionHelpFormatter,
                     description=__doc__.rsplit("\n\n", 1)[0] + "\n\n" + graphmod.SPEC_GRAMMAR)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in (("solve", cmd_solve, "solve the field equation on one graph"),
                             ("reproduce", cmd_reproduce, "run experiment reproductions"),
                             ("sweep", cmd_sweep, "edge-weakening diagnostic sweep"),
                             ("graph", cmd_graph, "dump a graph and its spectrum")):
        sub.add_parser(name, help=text).set_defaults(func=func)
    commands = sub.choices
    commands["reproduce"].add_argument("experiment", choices=[*RUNNERS, "all"])
    commands["graph"].add_argument("graph")
    for name in ("solve", "sweep"):
        commands[name].add_argument("--config")
    for key, row in _SETTINGS.items():
        for name in row.commands:
            commands[name].add_argument("--" + key.replace("_", "-"), **row.flag)
    for name in ("reproduce", "graph"):
        commands[name].add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (KernelFieldError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
