"""SHA-256 digests of the files a fixed set of CLI runs writes.

Usage: python scripts/cli_digests.py OUT_DIR | --write | --compare OLD_DIR NEW_DIR

Runs fifteen nestdop subcommands with fixed configs and seeds against the
``src/`` tree next to this script, each in its own directory under OUT_DIR,
and prints a listing: ``# field: value`` header lines that fingerprint the
environment the bytes depend on (numpy and scipy versions, numpy's OpenBLAS
configuration, the machine, and the BLAS thread variables as seen after
``import nestdop``), then one ``sha256  relative/path`` line per file written
(the subcommand's stdout included). Running it on two checkouts and diffing
the two listings checks that a change keeps every output byte-identical.

``--write`` runs in a temporary directory and writes the listing to
``tests/data/cli_digests.txt``, which ``tests/test_cli.py`` compares against.

``--compare OLD_DIR NEW_DIR`` reads two such OUT_DIRs and prints one row per
file whose bytes differ: the number of changed values, the largest absolute
and relative deviation, and the largest absolute deviation scaled by the
file's largest finite magnitude on either side (``scaled``), which does not
blow up on values near zero. A change of shape (CSV rows or columns,
JSON keys, PGM size, stdout text, a file present on one side only) is
reported as structural, and named. The report explains a change; it does
not excuse one. Exit code 0 when no file differs, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LISTING = ROOT / "tests" / "data" / "cli_digests.txt"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
sys.path.insert(0, str(ROOT / "src"))

from nestdop.cli import main  # noqa: E402

README = {
    "P": 256,
    "pattern": {"family": "nested", "optimal": True},
    "tones": [[0.2, 1.0]],
    "Q": 100,
    "noise_power": 0.1,
    "seed": 7,
}
P64 = {
    "P": 64,
    "pattern": {"family": "nested", "optimal": True},
    "tones": [[0.13, 1.0], [-0.21, 0.5]],
    "Q": 60,
    "noise_power": 0.05,
    "model_order": 2,
    "estimators": ["nest", "nesprit"],
    "seed": 11,
}
P64_DEFAULT_ORDER = {k: v for k, v in P64.items() if k != "model_order"}
# A filtered coarray.csv; the 3-tap FIR is shorter than the 4P-3 kernel lags.
P64_FIR = {**P64, "filter": {"type": "fir", "taps": [1.0, -2.0, 1.0]}, "apodization": "hann"}
WELCH_STANDARD = {
    "P": 64,
    "pattern": {"family": "standard"},
    "tones": [[0.125, 1.0], [-0.3, 0.25]],
    "Q": 40,
    "noise_power": 0.1,
    "estimators": ["welch"],
    "seed": 13,
}
CRITERION_07 = {
    "P": 12,
    "pattern": {"family": "nested", "N1": 3, "N2": 3},
    "tones": [[0.2, 1.0]],
    "Q": 200,
    "trials": 1000,
    "snr_list_db": [-20.0, 25.0, 30.0],
    "seed": 7,
}
FILTER = {"type": "butterworth_highpass", "order": 4, "cutoff": 0.03}
# The sweep through the conditioning stages: clutter filter, taper, mean removal.
MSE_CONDITIONED = {
    "P": 64,
    "pattern": {"family": "nested", "optimal": True},
    "tones": [[0.2, 1.0]],
    "Q": 40,
    "trials": 50,
    "snr_list_db": [-5.0, 5.0, 15.0],
    "filter": FILTER,
    "apodization": "hamming",
    "remove_mean": True,
    "subtract_noise": False,
    "seed": 21,
}


def profile(num_frames: int, base: float, swing: float, clutter_db=None) -> dict:
    """A one-tone ridge that follows a sinusoid over the frames."""
    frames = [
        {
            "tones": [[base + swing * math.sin(2.0 * math.pi * t / num_frames), 1.0]],
            "clutter_frequency": None if clutter_db is None else 0.005,
            "clutter_db": clutter_db,
        }
        for t in range(num_frames)
    ]
    return {"frame_duration_cpis": 1, "frames": frames}


GRAM_256 = {
    "P": 256,
    "pattern": {"family": "nested", "N1": 15, "N2": 16},
    "profile": profile(6, 0.2, 0.05, clutter_db=10.0),
    "Q": 40,
    "noise_power": 0.01,
    "filter": FILTER,
    "apodization": "hamming",
    "estimators": ["nest", "nesprit", "welch"],
    "zero_fill_welch": True,
    "model_order": 1,
    "nest_lambda": 0.005,
    "seed": 3,
}
GRAM_12 = {
    "P": 12,
    "pattern": {"family": "standard"},
    "profile": profile(8, 0.12, 0.1),
    "Q": 50,
    "noise_power": 0.05,
    "estimators": ["nest", "nesprit", "welch"],
    "model_order": 1,
    "seed": 5,
}
COMPARE_1024 = {
    "P": 1024,
    "pattern": {"family": "nested", "optimal": True},
    "profile": profile(3, 0.2, 0.06, clutter_db=10.0),
    "Q": 100,
    "noise_power": 0.01,
    "filter": FILTER,
    "apodization": "hamming",
    "estimators": ["nest", "nesprit"],
    "model_order": 1,
    "nest_lambda": 0.005,
    "seed": 9,
}

# (run directory, config, CLI arguments before --config/--out-dir)
RUNS = (
    ("estimate_readme_csv", README, ["estimate", "--format", "csv"]),
    ("estimate_readme_json", README, ["estimate", "--format", "json"]),
    ("estimate_p64_csv", P64, ["estimate", "--format", "csv"]),
    ("estimate_p64_json", P64, ["estimate", "--format", "json"]),
    ("estimate_p64_default_order", P64_DEFAULT_ORDER, ["estimate", "--format", "csv"]),
    ("estimate_p64_fir", P64_FIR, ["estimate", "--format", "csv"]),
    ("estimate_welch_standard", WELCH_STANDARD, ["estimate", "--format", "csv"]),
    ("spectrogram_p256", GRAM_256, ["spectrogram", "--format", "pgm"]),
    ("spectrogram_p12", GRAM_12, ["spectrogram", "--format", "pgm"]),
    ("compare_p1024", COMPARE_1024, ["compare"]),
    ("compare_p256", GRAM_256, ["compare"]),
    ("mse_criterion_07", CRITERION_07, ["mse"]),
    ("mse_conditioned_p64", MSE_CONDITIONED, ["mse"]),
    ("simulate_readme", README, ["simulate"]),
    ("design_256", None, ["design", "256"]),
)


def run(name: str, doc, argv: list[str]) -> None:
    """One subcommand, run from OUT_DIR so that its stdout names no absolute path."""
    Path(name).mkdir()
    argv = argv + ["--out-dir", name]
    if doc is not None:
        Path(f"{name}.json").write_text(json.dumps(doc))
        argv += ["--config", f"{name}.json"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{name}: exit {code}")
    (Path(name) / "stdout.txt").write_text(stdout.getvalue())


def fingerprint() -> dict[str, str]:
    """The environment the output bytes depend on."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration")
    except (TypeError, KeyError):
        openblas = None
    fields = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": str(openblas),
        "machine": platform.machine(),
    }
    fields.update((var, str(os.environ.get(var))) for var in THREAD_VARS)
    return fields


def listing(out_dir: Path) -> str:
    """Every run in OUT_DIR (created here), then the header and digest lines."""
    out_dir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        for name, doc, args in RUNS:
            run(name, doc, args)
        lines = [f"# {field}: {value}" for field, value in fingerprint().items()]
        lines += [
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}"
            for path in sorted(p for p in Path().glob("*/*") if p.is_file())
        ]
    finally:
        os.chdir(cwd)
    return "\n".join(lines) + "\n"


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _leaves(doc, path="") -> dict:
    """{key path: value} of every leaf of a JSON document; list items by index."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {path: doc}
    out = {}
    for key, value in items:
        out.update(_leaves(value, f"{path}/{key}"))
    return out


def _parse(path: Path) -> tuple[dict, list]:
    """A file's shape (named parts) and its values, in order."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        header, *rows = list(csv.reader(io.StringIO(data.decode())))
        widths = sorted({len(row) for row in rows})
        return {"header": header, "rows": len(rows), "columns": widths}, [
            cell for row in rows for cell in row
        ]
    if path.suffix == ".json":
        leaves = _leaves(json.loads(data))
        return {"keys": list(leaves)}, [
            v if isinstance(v, (int, float)) and not isinstance(v, bool) else str(v)
            for v in leaves.values()
        ]
    if path.suffix == ".pgm":
        magic, size, maxval, pixels = data.split(b"\n", 3)
        return {"header": [magic, size, maxval]}, list(pixels)
    return {"content": data}, []  # stdout and anything else: any change is structural


def _structural(old_shape: dict, new_shape: dict) -> str:
    parts = []
    for name in old_shape.keys() | new_shape.keys():
        a, b = old_shape.get(name), new_shape.get(name)
        if a == b:
            continue
        if name == "keys":
            gone, added = sorted(set(a) - set(b)), sorted(set(b) - set(a))
            parts.append(f"keys -{gone[:3]} +{added[:3]}" if gone or added else "key order")
        elif name in ("rows", "columns"):
            parts.append(f"{name} {a} -> {b}")
        else:
            parts.append(name)
    return "structural: " + ", ".join(sorted(parts))


def compare_file(old: Path, new: Path) -> str | None:
    """One report row for a pair of files, or None when their bytes are equal."""
    if old.read_bytes() == new.read_bytes():
        return None
    (old_shape, old_values), (new_shape, new_values) = _parse(old), _parse(new)
    if old_shape != new_shape:
        return _structural(old_shape, new_shape)
    changed, max_abs, max_rel, max_mag = 0, 0.0, 0.0, 0.0
    for a, b in zip(old_values, new_values):
        x = a if isinstance(a, (int, float)) else _number(a)
        y = b if isinstance(b, (int, float)) else _number(b)
        max_mag = max([max_mag] + [abs(v) for v in (x, y) if v is not None and math.isfinite(v)])
        if a == b:
            continue
        if x is None or y is None:
            return f"structural: text value {a!r} -> {b!r}"
        if x == y:
            continue  # the same number written another way
        changed += 1
        dev = abs(y - x)
        max_abs = max(max_abs, dev)
        max_rel = max(max_rel, dev / abs(x) if x else math.inf)
    scaled = max_abs / max_mag if max_mag else math.inf
    return (
        f"{changed} changed, max abs {max_abs:.3g}, max rel {max_rel:.3g}, "
        f"scaled {scaled:.3g}"
    )


def compare_dirs(old_dir: Path, new_dir: Path) -> list[tuple[str, str]]:
    """(relative path, report row) for every file that differs between two OUT_DIRs."""
    old = {p.relative_to(old_dir) for p in old_dir.glob("*/*") if p.is_file()}
    new = {p.relative_to(new_dir) for p in new_dir.glob("*/*") if p.is_file()}
    rows = []
    for rel in sorted(old | new):
        if rel not in new:
            rows.append((str(rel), f"structural: only in {old_dir}"))
        elif rel not in old:
            rows.append((str(rel), f"structural: only in {new_dir}"))
        elif (row := compare_file(old_dir / rel, new_dir / rel)) is not None:
            rows.append((str(rel), row))
    return rows


def main_digests(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        rows = compare_dirs(Path(argv[1]), Path(argv[2]))
        for rel, row in rows:
            print(f"{rel}  {row}")
        print(f"{len(rows)} files differ")
        return 1 if rows else 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    if argv[0] == "--write":
        with tempfile.TemporaryDirectory() as tmp:
            LISTING.write_text(listing(Path(tmp) / "out"))
        print(f"wrote {LISTING.relative_to(ROOT)}")
        return 0
    out_dir = Path(argv[0])
    if out_dir.exists():
        print(f"{out_dir} exists; give a directory to create", file=sys.stderr)
        return 2
    sys.stdout.write(listing(out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main_digests(sys.argv[1:]))
