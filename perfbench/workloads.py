"""The benchmark's three workloads: operation streams drawn from a seed, and output checks.

A workload is a closed loop with one caller. Its operations come in rounds
(one operation per round, except cli-p256 whose round is the four CLI
subcommands in order). Each operation has three steps: ``prepare`` writes
its inputs (untimed), ``execute`` calls the program (timed) and ``check``
verifies the outputs (untimed).

The in-process workloads import nestdop lazily so that the cli-p256 worker
stays a small stdlib-only process and the peak RSS it reports is that of
the nestdop processes it starts.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Criterion-07 config (tests/test_acceptance.py) and the rows ROADMAP.md records
# for it at 8 digits: nest, nesprit, welch at -20, 25 and 30 dB.
CRITERION_07 = {
    "P": 12,
    "pattern": {"family": "nested", "N1": 3, "N2": 3},
    "tones": [[0.2, 1.0]],
    "Q": 200,
    "trials": 1000,
    "snr_list_db": [-20.0, 25.0, 30.0],
    "seed": 7,
}
CRITERION_07_ROWS = [
    0.10957467, 0.09841311, 0.1003,
    0.00030246, 0.0, 0.00111111,
    0.00030246, 0.0, 0.00111111,
]
MSE_TRIALS = 200  # trials per SNR in the seeded operations after the first

# The README's minimal estimate config, verbatim.
README_CONFIG = {
    "P": 256,
    "pattern": {"family": "nested", "optimal": True},
    "tones": [[0.2, 1.0]],
    "Q": 100,
    "noise_power": 0.1,
    "seed": 7,
}

SPECTROGRAM_FRAMES = 2  # frames per run_compare call: more than one, so the pool is used
# Clutter power relative to the blood tone. At Q=100 the clutter x blood cross
# terms of the sample covariance move the ridge by more than one bin in about
# one frame in eight at +20 dB (and in most frames at +40 dB), a limit of the
# method at finite Q; at +10 dB no frame misses, and the work done is the same.
CLUTTER_DB = 10.0
MIN_RIDGE = 0.9

CLI_ENTRY = "import sys; from nestdop.cli import main; sys.exit(main())"
CLI_SUBCOMMANDS = ("design", "simulate", "estimate", "spectrogram")

# The one known defect counted in ``failed`` without making a run incorrect:
# on the README config the default model-order rule makes nesprit report 163
# lines with noise estimate -0.383 (ROADMAP open item 4).
KNOWN_DEFECT = "nesprit-noise-floor"


class Outcome:
    """Result of checking one operation."""

    def __init__(self, ok: bool, detail: str = "", defect: str | None = None, **extra):
        self.ok = ok
        self.detail = detail
        self.defect = defect
        self.extra = extra


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


# --------------------------------------------------------------------------
# spectrogram-p1024: run_compare on a clutter-filtered pulsatile profile


class CompareOp:
    kind = "compare"

    def __init__(self, doc: dict, profile: dict, path: Path):
        self.doc = doc  # the config without its profile
        self.profile = profile  # sinusoidal_profile arguments
        self.path = path
        self.units = SPECTROGRAM_FRAMES

    def prepare(self):
        from nestdop import experiments

        profile = experiments.sinusoidal_profile(
            SPECTROGRAM_FRAMES, clutter_frequency=0.005, clutter_db=CLUTTER_DB, **self.profile
        )
        _write_json(self.path, dict(self.doc, profile=json.loads(profile.to_json())))

    def execute(self):
        from nestdop import config, experiments

        return experiments.run_compare(config.ExperimentConfig.from_file(self.path))

    def check(self, report) -> Outcome:
        within = {
            name: round(st["ridge_within_one_bin"] * self.units)
            for name, st in report["stats"].items()
        }
        ok = set(within) == {"nest", "nesprit"} and all(
            w >= MIN_RIDGE * self.units for w in within.values()
        )
        return Outcome(ok, f"frames within one bin {within}", within=within)


def spectrogram_rounds(seed: int, tmp: Path):
    rng = random.Random(f"spectrogram-p1024:{seed}")
    for i in range(10**9):
        # the ridge stays in [0.07, 0.33], clear of the 0.03 wall-filter cutoff
        profile = {
            "base_frequency": rng.uniform(0.15, 0.25),
            "swing": rng.uniform(0.04, 0.08),
            "period_frames": rng.uniform(3.0, 8.0),
        }
        doc = {
            "P": 1024,
            "pattern": {"family": "nested", "optimal": True},
            "Q": 100,
            "noise_power": 0.01,
            "filter": {"type": "butterworth_highpass", "order": 4, "cutoff": 0.03},
            "apodization": "hamming",
            "estimators": ["nest", "nesprit"],
            "model_order": 1,
            "nest_lambda": 0.005,
            "seed": rng.randrange(2**31),
        }
        yield [CompareOp(doc, profile, tmp / f"compare_{i}.json")]


# --------------------------------------------------------------------------
# mse-p12: run_mse on the criterion-07 config


class MseOp:
    kind = "mse"

    def __init__(self, doc: dict, path: Path):
        self.doc = doc
        self.path = path
        self.units = doc["trials"] * len(doc["snr_list_db"])

    def prepare(self):
        _write_json(self.path, self.doc)

    def execute(self):
        from nestdop import config, experiments

        return experiments.run_mse(config.ExperimentConfig.from_file(self.path))

    def check(self, rows) -> Outcome:
        got = [r.mse for r in rows]
        if self.doc == CRITERION_07:
            ok = [round(v, 8) for v in got] == CRITERION_07_ROWS
            return Outcome(ok, f"rows {got} against ROADMAP {CRITERION_07_ROWS}")
        mse = {(r.snr_db, r.estimator): r.mse for r in rows}
        half_bin = 0.5 / (2 * self.doc["P"] - 1)
        ok = len(rows) == 9
        for snr in (25.0, 30.0):
            ok = ok and mse[(snr, "nesprit")] < mse[(snr, "welch")]
            ok = ok and mse[(snr, "nest")] <= half_bin**2
        low = [mse[(-20.0, e)] for e in ("nest", "nesprit", "welch")]
        ok = ok and min(low) > 0 and max(low) / min(low) <= 10.0
        return Outcome(ok, f"criterion-07 orderings on rows {got}")


def mse_rounds(seed: int, tmp: Path):
    rng = random.Random(f"mse-p12:{seed}")
    yield [MseOp(dict(CRITERION_07), tmp / "mse_0.json")]
    for i in range(1, 10**9):
        doc = dict(CRITERION_07, trials=MSE_TRIALS, seed=rng.randrange(2**31))
        yield [MseOp(doc, tmp / f"mse_{i}.json")]


# --------------------------------------------------------------------------
# cli-p256: fresh nestdop processes for design, simulate, estimate, spectrogram


def _criterion_09_profile() -> tuple[dict, list[float]]:
    """sinusoidal_profile(24, 0.12, 0.1) as config JSON, plus its ridge."""
    ridge = [0.12 + 0.1 * math.sin(2.0 * math.pi * t / 24) for t in range(24)]
    frames = [
        {"tones": [[nu, 1.0]], "clutter_frequency": None, "clutter_db": None}
        for nu in ridge
    ]
    return {"frame_duration_cpis": 1, "frames": frames}, ridge


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _circular_bins(a: float, b: float, n: int) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d) * n


class CliOp:
    """One `nestdop <subcommand>` invocation in a fresh interpreter."""

    def __init__(self, kind: str, args: list[str], out_dir: Path, spans_path=None, ridge=None):
        self.kind = kind
        self.args = args + ["--out-dir", str(out_dir)]
        self.out_dir = out_dir
        self.spans_path = spans_path
        self.ridge = ridge
        self.units = 1

    def prepare(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def execute(self):
        if self.spans_path is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *self.args]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(self.spans_path), *self.args]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)

    def check(self, proc) -> Outcome:
        if proc.returncode != 0:
            return Outcome(False, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return getattr(self, f"_check_{self.kind}")(proc.stdout)

    def _check_design(self, stdout) -> Outcome:
        first = json.loads((self.out_dir / "design.json").read_text())[0]
        ok = first["transmissions"] == 31 and first["savings_percent"] == 87.9
        return Outcome(ok, stdout.strip().splitlines()[0])

    def _check_simulate(self, stdout) -> Outcome:
        q, n = README_CONFIG["Q"], 31
        size = (self.out_dir / "snapshots.bin").stat().st_size
        rows = _read_rows(self.out_dir / "snapshots.csv")
        ok = size == 28 + 4 * n + 16 * q * n and len(rows) == q * n + 1
        return Outcome(ok, stdout.strip())

    def _check_estimate(self, stdout) -> Outcome:
        rows = _read_rows(self.out_dir / "nest_spectrum.csv")[1:]
        peak = max(rows, key=lambda r: float(r[2]))
        dense = 2 * README_CONFIG["P"] - 1
        nu = README_CONFIG["tones"][0][0]
        if _circular_bins(float(peak[1]), nu, dense) > 1.0 + 1e-9:
            return Outcome(False, f"nest peak at {peak[1]}, more than one bin from {nu}")
        match = re.search(r"nesprit: (\d+) lines, noise ~(\S+)", stdout)
        if match is None:
            return Outcome(False, f"no nesprit line in {stdout!r}")
        lines, noise = int(match.group(1)), float(match.group(2))
        ok = lines == len(README_CONFIG["tones"]) and noise >= 0.0
        detail = f"nesprit: {lines} lines, noise {noise}"
        return Outcome(ok, detail, defect=None if ok else KNOWN_DEFECT)

    def _check_spectrogram(self, stdout) -> Outcome:
        ok = True
        within = {}
        for name in ("nest", "nesprit", "welch"):
            rows = _read_rows(self.out_dir / f"{name}_spectrogram.csv")
            pgm = (self.out_dir / f"{name}_spectrogram.pgm").read_bytes()
            header = f"P5\n{len(self.ridge)} {len(rows) - 1}\n255\n".encode()
            ok = ok and pgm.startswith(header) and len(pgm) == len(header) + len(self.ridge) * (len(rows) - 1)
            if name == "welch":
                continue
            freqs = [float(r[0]) for r in rows[1:]]
            hits = 0
            for col, nu in enumerate(self.ridge, start=1):
                peak = max(range(len(freqs)), key=lambda i: float(rows[i + 1][col]))
                hits += _circular_bins(freqs[peak], nu, len(freqs)) <= 1.0 + 1e-9
            within[name] = hits
            ok = ok and hits >= MIN_RIDGE * len(self.ridge)
        return Outcome(ok, f"frames within one bin {within}", within=within)


def cli_rounds(seed: int, tmp: Path, spans_dir: Path | None):
    rng = random.Random(f"cli-p256:{seed}")
    readme = _write_json(tmp / "readme.json", README_CONFIG)
    profile, ridge = _criterion_09_profile()
    for i in range(10**9):
        doc = {
            "P": 256,
            "pattern": {"family": "nested", "N1": 15, "N2": 16},
            "profile": profile,
            "Q": 40,
            "noise_power": 0.01,
            "estimators": ["nest", "nesprit", "welch"],
            "zero_fill_welch": True,
            "model_order": 1,
            "nest_lambda": 0.005,
            "seed": rng.randrange(2**31),
        }
        gram_cfg = _write_json(tmp / f"spectrogram_{i}.json", doc)
        args = {
            "design": ["design", "256"],
            "simulate": ["simulate", "--config", str(readme)],
            "estimate": ["estimate", "--config", str(readme)],
            "spectrogram": ["spectrogram", "--config", str(gram_cfg), "--format", "pgm"],
        }
        yield [
            CliOp(
                kind,
                args[kind],
                tmp / f"round_{i}" / kind,
                spans_path=None if spans_dir is None else spans_dir / f"{i}_{kind}.json",
                ridge=ridge,
            )
            for kind in CLI_SUBCOMMANDS
        ]


UNIT = {"spectrogram-p1024": "frame", "mse-p12": "trial", "cli-p256": "invocation"}


def first_config(workload: str, seed: int, tmp: Path) -> Path:
    """The config the workload's first operation reads, for set-up probes."""
    if workload == "cli-p256":
        return _write_json(tmp / "setup.json", README_CONFIG)
    if workload == "mse-p12":
        return _write_json(tmp / "setup.json", CRITERION_07)
    # the profile is left out: building it needs nestdop, whose import is timed
    return _write_json(tmp / "setup.json", next(spectrogram_rounds(seed, tmp))[0].doc)
