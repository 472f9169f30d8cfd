"""Set-up time in a fresh interpreter: import nestdop, parse a config, build its pattern.

Usage: python3 perfbench/setup_probe.py CONFIG_JSON [--env]

Prints one JSON object with ``setup_s``; with ``--env`` it also reports the
numpy and scipy versions and the BLAS build numpy was compiled against.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import nestdop  # noqa: F401
    from nestdop.config import ExperimentConfig

    ExperimentConfig.from_file(sys.argv[1]).build_pattern()
    out = {"setup_s": time.perf_counter() - t0}
    if "--env" in sys.argv[2:]:
        import numpy
        import scipy

        out["numpy"] = numpy.__version__
        out["scipy"] = scipy.__version__
        try:
            out["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            out["blas"] = None
    print(json.dumps(out))
