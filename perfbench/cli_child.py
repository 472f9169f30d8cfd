"""One traced `nestdop` invocation in a fresh interpreter.

Usage: python3 perfbench/cli_child.py SPANS_JSON <nestdop arguments...>

Does what the `nestdop` console script does, with the benchmark's span
wrappers installed after the import; the import itself is recorded as one
span so that the spans cover the whole invocation.
"""

import sys
import time

from tracing import Tracer

if __name__ == "__main__":
    t0 = time.perf_counter_ns()
    import nestdop.cli

    tracer = Tracer()
    tracer.record("import", t0, time.perf_counter_ns())
    tracer.install()
    try:
        rc = nestdop.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(rc)
