"""Child process for a traced cli-mix op.

Usage: cli_child.py SPANS_FILE CLI_ARGS...

Times `import kernelfield.cli`, installs the tracer, runs
`kernelfield.cli.main(CLI_ARGS)`, writes the import time and the spans to
SPANS_FILE as JSON, and exits with the CLI's exit code. PYTHONPATH must
point at the checkout's src/.
"""

import os
import sys
import time

t0 = time.perf_counter()
import kernelfield.cli  # noqa: E402

import_s = time.perf_counter() - t0

import json  # noqa: E402

from tracer import Tracer  # noqa: E402

src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.abspath(kernelfield.cli.__file__).startswith(src + os.sep):
    sys.exit(f"kernelfield imported from {kernelfield.cli.__file__}, not from {src}")

tracer = Tracer()
tracer.install()
code = 1
try:
    code = kernelfield.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
sys.exit(code)
