"""Command-line interface.

Subcommands: solve (single fixed-point run), reproduce (experiment
runners), sweep (experiments.run_sweep on a builtin target), graph (dump
Laplacian and spectrum). Exit codes are the machine contract: 0 success,
1 input error (usage errors included), 2 numerical non-convergence. All
artifact files are written atomically (temp file + rename).

Builtin graph mini-grammar:
    path:N
    path:N:weaken=u,v,eps
    river:stem,attach1,len1[,attach2,len2,...]
    trunk:len,rootfan,branchfan
Anything else is treated as a path to a graph JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import experiments, field, graph as graphmod, stability
from .diagnostics import diagnostics_record
from .errors import KernelFieldError, NumericalError
from .experiments import EPS_GRID, RUNNERS, _write_atomic
from .field import SourceSpec, WeightRule
from .graph import _is_number
from .spectral import eig_symmetric, eigenbasis_to_csv


def parse_graph_spec(spec: str) -> graphmod.Graph:
    """Resolve a builtin graph spec or load a graph JSON file."""
    head, _, rest = spec.partition(":")
    try:
        if head == "path":
            n_str, _, mod = rest.partition(":")
            g = graphmod.build_path(int(n_str))
            if mod:
                if not mod.startswith("weaken="):
                    raise ValueError(f"unknown path modifier {mod!r}")
                u, v, eps = mod[len("weaken="):].split(",")
                g = graphmod.weaken_edge(g, int(u), int(v), float(eps))
            return g
        if head == "river":
            parts = [x for x in rest.split(",") if x]
            if len(parts) % 2 != 1:
                raise ValueError("river spec needs stem,attach1,len1,...")
            stem = int(parts[0])
            tribs = [(int(a), int(b)) for a, b in zip(parts[1::2], parts[2::2])]
            return graphmod.build_river_channel(stem, tribs)
        if head == "trunk":
            tl, rf, bf = (int(x) for x in rest.split(","))
            return graphmod.build_trunk_roots(tl, rf, bf)
    except (ValueError, KernelFieldError) as exc:
        raise KernelFieldError(f"bad graph spec {spec!r}: {exc}") from exc
    try:
        with open(spec) as fh:
            return graphmod.from_json(fh.read())
    except OSError as exc:
        raise KernelFieldError(f"cannot read graph file {spec!r}: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise KernelFieldError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise KernelFieldError("config must be a JSON object")
    return obj


# The JSON type a config field must have, as (description, test). Flag
# values are typed by argparse instead.
_CONFIG_TYPES = {
    **dict.fromkeys(("sigma2", "mu2", "eta", "tol"), ("a number", _is_number)),
    "max_iter": ("an integer", lambda x: type(x) is int),
    **dict.fromkeys(("graph", "out", "weights"), ("a string", lambda x: type(x) is str)),
    "coupled": ("true or false", lambda x: type(x) is bool),
    "eps_values": ("a comma-separated string or a non-empty list of numbers",
                   lambda x: type(x) is str or (type(x) is list and x and all(map(_is_number, x)))),
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


def _make_spec(args, config, basis, g) -> SourceSpec:
    eta = float(_setting(args, config, "eta", 0.0))
    sigma2 = float(_setting(args, config, "sigma2", 1.0))
    mu2 = float(_setting(args, config, "mu2", 2.0))
    weights = _setting(args, config, "weights", "uniform")
    rule = WeightRule(weights)
    coupling = field.build_coupling(basis, g) if eta > 0 else None
    return SourceSpec(sigma2=sigma2, mu2=mu2, weight_rule=rule, eta=eta, coupling=coupling)


def cmd_solve(args) -> int:
    config = _load_config(args.config)
    g = parse_graph_spec(_setting(args, config, "graph", "path:8"))
    basis = eig_symmetric(graphmod.laplacian(g))
    spec = _make_spec(args, config, basis, g)
    tol = float(_setting(args, config, "tol", 1e-12))
    max_iter = _setting(args, config, "max_iter", 200)
    out = _setting(args, config, "out", ".")
    os.makedirs(out, exist_ok=True)

    report = field.solve_fixed_point(spec, basis, np.ones(basis.n), tol=tol, max_iter=max_iter)
    srep = stability.stability_report(spec, basis, report.h_star)
    drec = diagnostics_record(report.h_star.h, report.h_star.h0)
    _write_atomic(os.path.join(out, "fixed_point.json"), report.to_json())
    _write_atomic(os.path.join(out, "stability.json"), srep.to_json())
    _write_atomic(os.path.join(out, "diagnostics.json"), drec.to_json())
    components = graphmod.component_count(g)
    if components > 1:
        print(f"warning: graph has {components} connected components, so its Laplacian's "
              f"zero eigenvalue is {components}-fold", file=sys.stderr)
    print(f"converged={report.converged} iterations={report.iterations} "
          f"residual={report.residual_inf:.6g} ratio={report.contraction_ratio:.6g}")
    return 0 if report.converged else 2


def cmd_reproduce(args) -> int:
    if args.experiment == "all":
        names = list(RUNNERS)
    elif args.experiment in RUNNERS:
        names = [args.experiment]
    else:
        print(f"unknown experiment {args.experiment!r}; "
              f"choose from {', '.join(RUNNERS)} or 'all'", file=sys.stderr)
        return 1
    all_passed = True
    for name in names:
        result = RUNNERS[name](args.out)
        all_passed &= result.passed
        print(f"{name}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if all_passed else 2


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    target = _setting(args, config, "graph", "path")
    eps_values = _setting(args, config, "eps_values", EPS_GRID)
    if isinstance(eps_values, str):
        eps_values = eps_values.split(",")
    coupled = _setting(args, config, "coupled", False)
    eta = _setting(args, config, "eta", None)
    if eta is not None and not coupled:
        raise KernelFieldError("--eta needs --coupled: eta is the mode-coupling strength")
    if eta is not None and not eta > 0:
        raise KernelFieldError(f"eta must be positive for a coupled sweep, got {eta!r}")
    records = experiments.run_sweep(
        target, [float(x) for x in eps_values], coupled=coupled,
        eta=0.05 if eta is None else float(eta),
        out_dir=_setting(args, config, "out", "."), prefix=f"sweep_{target}")
    for r in records:
        flag = "" if r.converged else "  [not converged]"
        print(f"eps={r.eps:.6g} lambda1={r.lambda1:.6g} entropy={r.entropy:.6g} "
              f"delta_fiedler={r.delta_fiedler:.6g} coupling_entropy={r.coupling_entropy:.6g}{flag}")
    return 0 if all(r.converged for r in records) else 2


def cmd_graph(args) -> int:
    g = parse_graph_spec(args.graph)
    basis = eig_symmetric(graphmod.laplacian(g))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_atomic(os.path.join(args.out, "graph.json"), graphmod.to_json(g))
        _write_atomic(os.path.join(args.out, "eigenbasis.csv"), eigenbasis_to_csv(basis))
    print(f"n={g.n} edges={len(g.edges)} connected={graphmod.component_count(g) == 1}")
    print("eigenvalues: " + " ".join(f"{x:.6g}" for x in basis.lambdas))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any other input error; 2 means non-convergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kernelfield", description=__doc__,
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
    p_rep.add_argument("experiment")
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
    except (KernelFieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
