"""The golden table: every number and flag a fixed set of CLI runs reports.

`collect(out)` runs `reproduce all`, the six builtin sweeps, five `solve`
inputs and `graph` on the same graphs through `kernelfield.cli.main`,
writing their artifacts under `out`, and returns what they report as one
JSON-ready dict: the exit codes, every `.json` artifact's content and each
graph's Laplacian eigenvalues. `tests/test_golden.py` compares it with the
committed `tests/golden.json`.

Regenerating the table is opt-in, never automatic:

    PYTHONPATH=src python tests/regen_golden.py

It keeps the committed value of every key that still `matches` it, the
golden test's own comparison, so the diff of `tests/golden.json` shows
exactly the keys the test would flag. A change that regenerates it lists
every moved key, old and new value, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

from kernelfield import eig_symmetric, laplacian
from kernelfield.cli import main
from kernelfield.experiments import RUNNERS, SWEEP_TARGETS
from kernelfield.graph import parse_graph_spec

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"

RTOL = 1e-12
ATOL = 1e-14
TOL = 1e-12  # the default tol of every golden solve

SOLVES = (
    ("path:8",),
    ("path:8", "--eta", "0.1"),
    ("trunk:4,3,3", "--eta", "0.05"),
    ("river:6,1,2,3,2", "--weights", "eigenvalue"),
    ("path:64",),
)

# The graphs of the solves, each once.
GRAPHS = tuple(dict.fromkeys(graph for graph, *_ in SOLVES))


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _read(path: pathlib.Path):
    return json.loads(path.read_text())


def collect(out: pathlib.Path) -> dict:
    """Run the golden set with artifacts under `out`; return what it reports."""
    rep = out / "reproduce"
    table = {"reproduce all": {"exit": _run(["reproduce", "all", "--out", str(rep)]),
                               **{name: _read(rep / f"{name}_results.json") for name in RUNNERS}}}
    for target in SWEEP_TARGETS:
        for flags in ((), ("--coupled",)):
            name = f"sweep_{target}" + ("_coupled" if flags else "")
            table[" ".join(("sweep", "--graph", target, *flags))] = {
                "exit": _run(["sweep", "--graph", target, *flags, "--out", str(out / name)]),
                "records": _read(out / name / f"{name}_records.json"),
            }
    for i, (graph, *flags) in enumerate(SOLVES):
        run = out / "solve" / str(i)
        table[" ".join(("solve", "--graph", graph, *flags))] = {
            "exit": _run(["solve", "--graph", graph, *flags, "--out", str(run)]),
            **{name: _read(run / f"{name}.json")
               for name in ("fixed_point", "stability", "diagnostics")},
        }
    for graph in GRAPHS:
        table[f"graph {graph}"] = {
            "exit": _run(["graph", graph]),
            "eigenvalues": eig_symmetric(laplacian(parse_graph_spec(graph))).lambdas.tolist(),
        }
    return table


def is_number(x) -> bool:
    return type(x) in (int, float)


def matches(key: str, old, new) -> bool:
    """Whether the value `new` at `key` passes for the golden value `old`."""
    if key.endswith("residual_inf"):
        return is_number(new) and new < TOL
    if type(old) is float or type(new) is float:
        return (is_number(old) and is_number(new)
                and abs(new - old) <= max(RTOL * abs(old), ATOL))
    return type(old) is type(new) and old == new


def keep_matching(obj, golden: dict, key: str = ""):
    """`obj` with every leaf that matches its value in the flat `golden` table replaced by that value."""
    if isinstance(obj, dict):
        return {k: keep_matching(v, golden, f"{key}/{k}" if key else k) for k, v in obj.items()}
    if isinstance(obj, list):
        return [keep_matching(v, golden, f"{key}[{i}]") for i, v in enumerate(obj)]
    return golden[key] if key in golden and matches(key, golden[key], obj) else obj


def flatten(obj, key: str = ""):
    """(key, leaf) pairs of a nested JSON value; keys read like `a/b[3]`."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from flatten(v, f"{key}/{k}" if key else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from flatten(v, f"{key}[{i}]")
    else:
        yield key, obj


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = collect(pathlib.Path(tmp))
    if GOLDEN.exists():
        table = keep_matching(table, dict(flatten(json.loads(GOLDEN.read_text()))))
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({sum(1 for _ in flatten(table))} keys)", file=sys.stderr)
