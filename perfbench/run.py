"""nestdop benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json for why each was chosen):
  spectrogram-p1024  experiments.run_compare, P=1024, nest + nesprit, 2 frames a call
  mse-p12            experiments.run_mse on the criterion-07 config
  cli-p256           fresh `nestdop` processes: design, simulate, estimate, spectrogram

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
untraced run, replays the same operations with span tracing and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every child process
runs the program from ``src/`` of this checkout with ``NESTDOP_WORKERS``
cleared, so the program's default work pool is measured. Results, with the
environment they were measured in, are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # a run that takes longer is stopped, so every run ends within 3 minutes


class BenchError(RuntimeError):
    pass


def child_env() -> tuple[dict, str | None]:
    env = dict(os.environ)
    prior = env.pop("NESTDOP_WORKERS", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env, prior


def wait_child(cmd, env, deadline) -> tuple[int, object]:
    """Run cmd, returning its exit code and its wait4 rusage (children included)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise BenchError(f"{cmd[1]} passed the {RUN_LIMIT_S:.0f} s limit")
        time.sleep(0.02)


def run_worker(workload, seed, seconds, tmp, env, deadline, ops=None, spans=None) -> dict:
    out = tmp / ("worker_traced.json" if spans else "worker.json")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--tmp", str(tmp), "--out", str(out),
    ]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    rc, usage = wait_child(cmd, env, deadline)
    if rc != 0:
        raise BenchError(f"worker for {workload} exited with {rc}")
    result = json.loads(out.read_text())
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def setup_probes(workload, seed, tmp, env, count) -> tuple[list[float], dict]:
    """Set-up times of ``count`` fresh interpreters, and library versions from the first."""
    cfg = workloads.first_config(workload, seed, tmp)
    times, info = [], {}
    for i in range(count):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(cfg)]
        if i == 0:
            cmd.append("--env")
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        doc = json.loads(proc.stdout)
        times.append(doc.pop("setup_s"))
        info.update(doc)
    return times, info


def import_breakdown(env) -> dict:
    """import.* metrics from `python -X importtime -c "import nestdop"`.

    scipy.signal is counted as the cumulative time of its outermost
    submodule imports, because scipy loads it lazily and importtime then
    prints no line for the package itself.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import nestdop"],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()[-300:]}")
    total = None
    scipy_signal = own = 0
    stack = []  # (depth, inside scipy.signal) of the enclosing imports
    # children are printed before their parent, so walk the lines backwards
    for line in reversed(proc.stderr.splitlines()):
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, field = line[len("import time:"):].split("|")
        name = field.strip()
        depth = len(field) - len(field.lstrip())
        while stack and stack[-1][0] >= depth:
            stack.pop()
        in_signal = name == "scipy.signal" or name.startswith("scipy.signal.")
        if in_signal and not any(flag for _, flag in stack):
            scipy_signal += int(cum_us)
        stack.append((depth, in_signal))
        if name == "nestdop":
            total = int(cum_us)
        if name == "nestdop" or name.startswith("nestdop."):
            own += int(self_us)
    if total is None or not scipy_signal:
        raise BenchError("import probe did not report nestdop and scipy.signal")
    return {
        "import.nestdop.total_s": total / 1e6,
        "import.scipy_signal.cum_s": scipy_signal / 1e6,
        "import.nestdop.self_s": own / 1e6,
    }


def tally(ops) -> tuple[int, int, bool]:
    """attempted, failed, and whether every failure is the recorded known defect."""
    failed = [op for op in ops if not op["ok"]]
    correct = all(op["defect"] == workloads.KNOWN_DEFECT for op in failed)
    return len(ops), len(failed), correct


def end_to_end(workload, result, setup_times) -> tuple[dict, dict]:
    ops = result["ops"]
    attempted, failed, _ = tally(ops)
    # A total, not a median over rounds: runs differ because the machine's
    # speed drifts over minutes, not because of outlying operations, and over
    # ten seeds the total spread less than the median did.
    busy = sum(op["wall_s"] for op in ops)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (sum(op["units"] for op in ops) / busy, "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": (1.0 - failed / attempted, "fraction"),
    }
    # the same figures under the names the workload's users know them by
    named = {"failed_ratio": (failed / attempted, "fraction")}
    if workload == "spectrogram-p1024":
        named["frames_per_s"] = metrics["work_per_s"]
        frames = sum(op["units"] for op in ops if "within" in op)
        hits = min(sum(op["within"][e] for op in ops if "within" in op) for e in ("nest", "nesprit"))
        named["ridge_within_one_bin"] = (hits / frames if frames else 0.0, "fraction")
    elif workload == "mse-p12":
        named["trials_per_s"] = metrics["work_per_s"]
    else:
        for kind in workloads.CLI_SUBCOMMANDS:
            walls = [op["wall_s"] for op in ops if op["kind"] == kind]
            named[f"cli.{kind}_s"] = (statistics.median(walls), "s")
    return metrics, named


def per_layer(untraced, traced, spans_path, imports) -> dict:
    spans, written = tracing.load(spans_path)
    units = sum(op["units"] for op in traced["ops"])
    wall = sum(op["wall_s"] for op in traced["ops"])
    base = sum(op["wall_s"] for op in untraced["ops"])
    selfs = tracing.self_times_s(spans)
    metrics = {}
    for name in tracing.FUNCTION_NAMES:
        times = selfs.get(name, [])
        metrics[f"{name}.calls"] = (len(times) / units, "calls/unit")
        metrics[f"{name}.self_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
        metrics[f"{name}.share"] = (sum(times) / wall, "fraction")
    metrics["serialize.bytes_written"] = (written / units, "bytes/unit")
    for name, value in imports.items():
        metrics[name] = (value, "s")
    metrics["proc.cpu_util"] = (untraced["cpu_util"], "cpu/wall")
    metrics["trace.coverage"] = (tracing.union_s(spans) / wall, "fraction")
    metrics["trace.overhead"] = (wall / base - 1.0, "fraction")
    return metrics


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # not a repository: do not let git look above the checkout
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=False
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    ticks0 = cpu_ticks()
    env, prior_workers = child_env()
    environment = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
        "NESTDOP_WORKERS": f"cleared for child processes (was {prior_workers!r})",
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        if trace:
            environment.update(setup_probes(workload, seed, tmp, env, 1)[1])
            untraced = run_worker(workload, seed, seconds, tmp / "untraced", env, deadline)
            spans = OUT / f"spans-{workload}-seed{seed}.json"
            traced = run_worker(
                workload, seed, seconds, tmp / "traced", env, deadline,
                ops=len(untraced["ops"]), spans=spans,
            )
            metrics = per_layer(untraced, traced, spans, import_breakdown(env))
            named = {}
            ops = traced["ops"] + untraced["ops"]
            environment["spans_file"] = str(spans.relative_to(ROOT))
        else:
            times, info = setup_probes(workload, seed, tmp, env, SETUP_PROBES)
            environment.update(info)
            result = run_worker(workload, seed, seconds, tmp / "untraced", env, deadline)
            metrics, named = end_to_end(workload, result, times)
            environment["setup_probes_s"] = times
            ops = result["ops"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    environment["loadavg_end"] = os.getloadavg()
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # time the hypervisor ran something else on this machine's CPUs
        environment["cpu_steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    attempted, failed, correct = tally(ops)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "unit": workloads.UNIT[workload],
        "environment": environment,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "ops": ops,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(f"# {workload} (unit: {workloads.UNIT[workload]}) environment: {json.dumps(environment)}")
    for k, (v, u) in {**metrics, **named}.items():
        print(f"{workload}  {k} = {v:.6g} {u}")
    for op in ops:
        if not op["ok"]:
            print(f"{workload}  failed {op['kind']}: {op['detail']}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.UNIT))
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if not (SRC / "nestdop" / "__init__.py").is_file():
        print(f"perfbench: no nestdop sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        else:
            results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads.UNIT}
            print(json.dumps(results))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
