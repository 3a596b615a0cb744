"""Every number the golden runs report matches the committed table.

Booleans, integers and strings match exactly. Floats match to a relative
1e-12, with an absolute floor of 1e-14 for values near 0 (rounding noise,
such as an entry of |Phi^T (D - d_min I) Phi| that is 0 in exact arithmetic). A
`residual_inf` is checked as below the solve's tol instead: the residual
at a converged fixed point is rounding noise too (regen_golden.matches).
See regen_golden.py for the runs and for how to regenerate the table.
"""

import json

from regen_golden import GOLDEN, TOL, collect, flatten, is_number, matches

_MISSING = "(missing)"


def _rel_change(old, new) -> str:
    if not (is_number(old) and is_number(new)):
        return ""
    if old == 0:
        return "inf" if new else "0"
    return f"{(new - old) / abs(old):.3g}"


def test_every_reported_number_matches_the_golden_table(tmp_path):
    golden = dict(flatten(json.loads(GOLDEN.read_text())))
    new = dict(flatten(collect(tmp_path)))
    rows = [(key, golden.get(key, _MISSING), new.get(key, _MISSING))
            for key in [*golden, *(k for k in new if k not in golden)]]
    rows = [(k, old, val) for k, old, val in rows
            if old is _MISSING or val is _MISSING or not matches(k, old, val)]
    table = [("key", "golden", "new", "relative change")]
    table += [(k, repr(old), repr(val), _rel_change(old, val)) for k, old, val in rows]
    widths = [max(len(row[i]) for row in table) for i in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table]
    assert not rows, f"{len(rows)} of {len(golden)} golden keys moved:\n" + "\n".join(lines)


def test_every_golden_solve_converged():
    """The residual check above reads only the new value, so the table's own
    residuals, one per solve and exp2's, are checked here."""
    golden = dict(flatten(json.loads(GOLDEN.read_text())))
    residuals = [v for k, v in golden.items() if k.endswith("residual_inf")]
    assert len(residuals) == 6 and all(r < TOL for r in residuals)
