"""Command-line front end.

Subcommands: design, simulate, estimate, spectrogram, mse, compare.
Exit codes: 0 success, 2 config error, 3 numeric/precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .coarray import CoarrayHoleError
from .config import ConfigError, ExperimentConfig, pattern_from_doc
from .estimators import EstimationError, GridSpectrum, LineSpectrum
from .experiments import run_compare, run_estimate, run_mse, run_spectrogram
from .patterns import PatternError, verify_contiguous_coarray
from .serialize import (
    write_coarray_csv,
    write_lines_csv,
    write_lines_json,
    write_snapshots,
    write_snapshots_csv,
    write_spectrum_csv,
    write_spectrum_json,
)
from .signals import generate_snapshots

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# estimate's writers per --format and spectrum type
SPECTRUM_WRITERS = {
    "csv": {LineSpectrum: write_lines_csv, GridSpectrum: write_spectrum_csv},
    "json": {LineSpectrum: write_lines_json, GridSpectrum: write_spectrum_json},
}
# the subcommands that write a choice of formats
FORMATS = {"estimate": tuple(SPECTRUM_WRITERS), "spectrogram": ("csv", "pgm")}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--lambda",
        dest="nest_lambda",
        type=float,
        help="override the grid estimator's soft threshold",
    )
    parser.add_argument("--pattern", help="override the pattern family")
    parser.add_argument(
        "--estimator",
        action="append",
        help="restrict to one estimator (repeatable)",
    )
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")


def _load_config(args) -> ExperimentConfig:
    overrides = {
        "seed": args.seed,
        "nest_lambda": args.nest_lambda,
        "pattern": None if args.pattern is None else {"family": args.pattern},
        "estimators": args.estimator,
    }
    return ExperimentConfig.from_file(
        args.config, {k: v for k, v in overrides.items() if v is not None}
    )


def cmd_design(args) -> int:
    p = args.P
    doc = {"family": args.family}
    for key, value in (("N1", args.n1), ("N2", args.n2), ("levels", args.levels)):
        if value is not None:
            doc[key] = value
    docs = [doc]
    if doc == {"family": "nested"}:
        # both optimal variants; they coincide when P is a perfect square
        prefs = ("fewer_larger_gaps", "more_smaller_gaps")
        docs = [{**doc, "preference": pref} for pref in prefs]
    built = []
    for pat in (pattern_from_doc(d, p) for d in docs):
        if pat not in built:
            built.append(pat)

    reports = []
    for pat in built:
        gaps = pat.gap_structure()
        report = {
            "P": pat.window_size,
            "family": pat.family.value,
            "params": pat.params,
            "slots": list(pat.slots),
            "transmissions": pat.n_transmissions,
            "savings_percent": round(100.0 * (1 - pat.n_transmissions / p), 1),
            "gaps": {"count": len(gaps), "sizes": sorted(set(gaps))},
            "contiguous_coarray": verify_contiguous_coarray(pat),
        }
        reports.append(report)
        print(
            f"{pat.family.value} P={pat.window_size} params={pat.params} "
            f"N={pat.n_transmissions} savings={report['savings_percent']}% "
            f"gaps={report['gaps']['count']}x{report['gaps']['sizes']} "
            f"contiguous={report['contiguous_coarray']}"
        )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "design.json").write_text(json.dumps(reports, indent=2))
    for i, pat in enumerate(built):
        (args.out_dir / f"pattern_{i}.json").write_text(pat.to_json())
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if cfg.tones is None:
        raise EstimationError("simulate needs a 'tones' entry in the config")
    snaps = generate_snapshots(
        cfg.tones, cfg.pattern, cfg.q, noise_power=cfg.noise_power, rng_seed=cfg.seed
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_snapshots(snaps, args.out_dir / "snapshots.bin")
    write_snapshots_csv(snaps, args.out_dir / "snapshots.csv")
    print(
        f"wrote {snaps.n_snapshots} snapshots x {cfg.pattern.n_transmissions} emissions "
        f"to {args.out_dir}"
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    cfg = _load_config(args)
    result = run_estimate(cfg)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if result["coarray"] is not None:
        write_coarray_csv(result["coarray"], args.out_dir / "coarray.csv")
    for name, spec in result["spectra"].items():
        write = SPECTRUM_WRITERS[args.format][type(spec)]
        write(spec, args.out_dir / f"{name}_spectrum.{args.format}")
        if isinstance(spec, GridSpectrum):
            print(f"{name}: peak at nu={spec.peak_frequency():+.4f}")
        else:
            print(f"{name}: {spec.model_order} lines, noise ~{spec.noise_estimate:.3g}")
    return EXIT_OK


def cmd_spectrogram(args) -> int:
    cfg = _load_config(args)
    result = run_spectrogram(cfg)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, gram in result["spectrograms"].items():
        gram.write_csv(args.out_dir / f"{name}_spectrogram.csv")
        if args.format == "pgm":
            gram.write_pgm(args.out_dir / f"{name}_spectrogram.pgm")
        print(f"{name}: {len(gram.frames)} frames x {gram.num_bins} bins")
    return EXIT_OK


def cmd_mse(args) -> int:
    cfg = _load_config(args)
    rows = run_mse(cfg)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.out_dir / "mse.csv", "w") as fh:
        fh.write("snr_db,estimator,mse\n")
        for row in rows:
            fh.write(f"{float(row.snr_db)!r},{row.estimator},{float(row.mse)!r}\n")
    print(f"{'SNR [dB]':>9} {'estimator':>10} {'MSE':>12}")
    for row in rows:
        print(f"{row.snr_db:>9.1f} {row.estimator:>10} {row.mse:>12.4g}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    report = run_compare(cfg)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, gram in report["spectrograms"].items():
        gram.write_csv(args.out_dir / f"{name}_spectrogram.csv")
        gram.write_pgm(args.out_dir / f"{name}_spectrogram.pgm")
    stats = report["stats"]
    (args.out_dir / "report.json").write_text(json.dumps(stats, indent=2))
    for name, st in stats.items():
        print(
            f"{name}: ridge_rms={st['ridge_rms_bins']:.2f} bins, "
            f"within-1-bin={100 * st['ridge_within_one_bin']:.0f}%, "
            f"artifact={st['artifact_energy_db']:.1f} dB"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestdop",
        description="Sparse slow-time Doppler: pattern design and spectrum recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="design an emission pattern")
    p_design.add_argument("P", type=int, help="observation window size")
    p_design.add_argument(
        "--family",
        default="nested",
        choices=("nested", "super_nested", "coprime", "k_level", "standard"),
    )
    p_design.add_argument("--n1", type=int)
    p_design.add_argument("--n2", type=int)
    p_design.add_argument("--levels", type=int, nargs="+")
    p_design.add_argument("--out-dir", type=Path, default=Path("."))
    p_design.set_defaults(func=cmd_design)

    for name, func in (
        ("simulate", cmd_simulate),
        ("estimate", cmd_estimate),
        ("spectrogram", cmd_spectrogram),
        ("mse", cmd_mse),
        ("compare", cmd_compare),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        if name in FORMATS:
            p.add_argument("--format", choices=FORMATS[name], default="csv", help="output format")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CoarrayHoleError, EstimationError, PatternError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
