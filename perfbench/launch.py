"""Run one ``dixonian`` CLI command with the per-module tracer installed.

Usage: PERFBENCH_SPANS=FILE python3 launch.py <cli arguments>

The import of ``dixonian.cli`` is timed, the tracer wraps the package's
entry points, ``main`` runs inside a ``cli`` span, and the spans are
written to FILE before the process exits with main's exit code.
"""

import os
import sys
import time

from tracer import Tracer

if __name__ == "__main__":
    t0 = time.perf_counter()
    import dixonian.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = tracer.call("cli", "main", dixonian.cli.main, sys.argv[1:])
    finally:
        sys.stdout.flush()
        tracer.dump(os.environ["PERFBENCH_SPANS"], import_s=import_s)
    sys.exit(code)
