"""Drive one workload in a child process of the benchmark and record every operation.

Usage:
    python3 perfbench/worker.py --workload W --seed N --seconds S --tmp DIR --out RESULT_JSON
        [--ops K] [--spans SPANS_JSON]

Runs whole rounds until ``--seconds`` of the loop have passed, or exactly
``--ops`` operations when given (the traced replay of an untraced run).
With ``--spans`` the layer functions are traced and all spans are written
to that file when the loop ends. The parent reads the peak RSS of this
process and its children from ``wait4``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import tracing
import workloads


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.UNIT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    args.tmp.mkdir(parents=True, exist_ok=True)

    tracer = None
    spans_dir = None
    if args.workload == "cli-p256":
        if args.spans is not None:
            spans_dir = args.tmp / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
        rounds = workloads.cli_rounds(args.seed, args.tmp, spans_dir)
    else:
        import nestdop.config  # noqa: F401  (set-up, outside the timed loop)
        import nestdop.experiments  # noqa: F401

        if args.spans is not None:
            tracer = tracing.Tracer()
            tracer.install()
        make = workloads.spectrogram_rounds if args.workload == "spectrogram-p1024" else workloads.mse_rounds
        rounds = make(args.seed, args.tmp)

    ops = []
    cpu0 = _cpu_s()
    start = time.perf_counter()
    for batch in rounds:
        for op in batch:
            op.prepare()
            t0 = time.perf_counter()
            try:
                out = op.execute()
                error = None
            except Exception as exc:  # an operation that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if error is None:
                try:
                    outcome = op.check(out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    outcome = workloads.Outcome(False, f"unreadable output: {exc!r}")
            else:
                outcome = workloads.Outcome(False, error)
            ops.append(
                {
                    "kind": op.kind,
                    "units": op.units,
                    "wall_s": wall,
                    "ok": outcome.ok,
                    "defect": outcome.defect,
                    "detail": outcome.detail,
                    **outcome.extra,
                }
            )
        if args.ops is not None:
            if len(ops) >= args.ops:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    cpu_util = (_cpu_s() - cpu0) / (time.perf_counter() - start)

    if args.spans is not None:
        if tracer is None:
            merged, written = [], 0
            for path in sorted(spans_dir.glob("*.json")):
                spans, nbytes = tracing.load(path)
                merged += spans
                written += nbytes
            doc = {"spans": merged, "bytes_written": written}
            args.spans.write_text(json.dumps(doc))
        else:
            tracer.dump(args.spans)

    args.out.write_text(json.dumps({"ops": ops, "cpu_util": cpu_util}))


if __name__ == "__main__":
    main()
