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
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments, graph as graphmod
from .diagnostics import diagnostics_record
from .errors import KernelFieldError, NumericalError
from .experiments import EPS_GRID, RUNNERS, SWEEP_ETA, write_artifacts
from .field import WeightRule
from .graph import is_json_number
from .spectral import eig_symmetric, eigenbasis_to_csv


def _load_config(args) -> dict:
    """The --config JSON object, whose fields must be dests of the command's flags."""
    if args.config is None:
        return {}
    try:
        with open(args.config) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise KernelFieldError(f"cannot read config {args.config!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise KernelFieldError("config must be a JSON object")
    taken = sorted(set(vars(args)) - {"config", "command", "func"})
    unknown = [key for key in obj if key not in taken]
    if unknown:
        raise KernelFieldError(f"unknown config field(s) {', '.join(map(repr, unknown))} for "
                               f"{args.command}, which takes {', '.join(taken)}")
    return obj


# The JSON type a config field must have, as (description, test). Flag
# values are typed by argparse instead.
_CONFIG_TYPES = {
    **dict.fromkeys(("sigma2", "mu2", "eta", "tol"), ("a number", is_json_number)),
    "max_iter": ("an integer", lambda x: type(x) is int),
    **dict.fromkeys(("graph", "out", "weights"), ("a string", lambda x: type(x) is str)),
    "coupled": ("true or false", lambda x: type(x) is bool),
    "eps_values": ("a comma-separated string or a non-empty list of numbers",
                   lambda x: type(x) is str or (type(x) is list and x and all(map(is_json_number, x)))),
}


def _setting(args, config: dict, key: str, default):
    """CLI flag wins over config field (of the key's JSON type) wins over default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key not in config:
        return default
    what, ok = _CONFIG_TYPES[key]
    if not ok(config[key]):
        raise KernelFieldError(f"config {key} must be {what}, got {config[key]!r}")
    return config[key]


# solve's settings as (config key, solve_graph parameter, conversion).
_SOLVE_SETTINGS = (("eta", "eta", float), ("sigma2", "sigma2", float), ("mu2", "mu2", float),
                   ("weights", "weight_rule", WeightRule), ("tol", "tol", float),
                   ("max_iter", "max_iter", int))


def cmd_solve(args) -> int:
    config = _load_config(args)
    g = graphmod.parse_graph_spec(_setting(args, config, "graph", "path:8"))
    # Only the settings a flag or the config gives; solve_graph holds the defaults.
    params = {name: kind(val) for key, name, kind in _SOLVE_SETTINGS
              if (val := _setting(args, config, key, None)) is not None}
    out = _setting(args, config, "out", ".")
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
    config = _load_config(args)
    target = _setting(args, config, "graph", "path")
    eps_values = _setting(args, config, "eps_values", EPS_GRID)
    coupled = _setting(args, config, "coupled", False)
    eta = _setting(args, config, "eta", None)
    if eta is not None and not coupled:
        raise KernelFieldError("--eta needs --coupled: eta is the mode-coupling strength")
    if eta is not None and not eta > 0:
        raise KernelFieldError(f"eta must be positive for a coupled sweep, got {eta!r}")
    try:
        eps = [float(x) for x in (eps_values.split(",") if isinstance(eps_values, str)
                                  else eps_values)]
    except ValueError:
        raise KernelFieldError(f"eps_values must be comma-separated numbers, "
                               f"got {eps_values!r}") from None
    records = experiments.run_sweep(
        target, eps, coupled=coupled,
        eta=SWEEP_ETA if eta is None else float(eta),
        out_dir=_setting(args, config, "out", "."), prefix=f"sweep_{target}")
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
    parser = _Parser(prog="kernelfield", description=__doc__ + "\n" + graphmod.SPEC_GRAMMAR,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the field equation on one graph")
    p_solve.add_argument("--config")
    p_solve.add_argument("--graph")
    p_solve.add_argument("--sigma2", type=float)
    p_solve.add_argument("--mu2", type=float)
    p_solve.add_argument("--weights", choices=["uniform", "eigenvalue"])
    p_solve.add_argument("--eta", type=float)
    p_solve.add_argument("--tol", type=float)
    p_solve.add_argument("--max-iter", dest="max_iter", type=int)
    p_solve.add_argument("--out")
    p_solve.set_defaults(func=cmd_solve)

    p_rep = sub.add_parser("reproduce", help="run experiment reproductions")
    p_rep.add_argument("experiment", choices=[*RUNNERS, "all"])
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=cmd_reproduce)

    p_sweep = sub.add_parser("sweep", help="edge-weakening diagnostic sweep")
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--graph")
    p_sweep.add_argument("--eps-values", dest="eps_values")
    p_sweep.add_argument("--coupled", action="store_true", default=None)
    p_sweep.add_argument("--eta", type=float)
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_graph = sub.add_parser("graph", help="dump a graph and its spectrum")
    p_graph.add_argument("graph")
    p_graph.add_argument("--out")
    p_graph.set_defaults(func=cmd_graph)
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
