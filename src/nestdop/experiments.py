"""Experiment harnesses: single-CPI estimation, spectrograms, MSE sweeps.

All runs are deterministic given a config and seed: per-frame and
per-trial RNG streams are spawned from one root seed, and work-pool
results are reassembled in index order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coarray import CoarraySignal, apodize, clutter_filter, estimate_covariance, lag_average
from .config import ExperimentConfig
from .estimators import (
    EstimationError,
    GridSpectrum,
    LineSpectrum,
    nest,
    nesprit,
    welch,
    zero_fill,
)
from .patterns import EmissionPattern, difference_set
from .signals import (
    FrameSpec,
    PulsatileProfile,
    SlowTimeSnapshots,
    ToneSet,
    generate_pulsatile,
    generate_snapshots,
)
from .spectrogram import Spectrogram, out_of_support_ratio, ridge_bin_errors

WORKERS_ENV = "NESTDOP_WORKERS"


def _pool_size() -> int:
    value = os.environ.get(WORKERS_ENV)
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            pass
    return min(8, os.cpu_count() or 1)


def _ordered_map(fn, items):
    """Run fn over items in a work pool; results come back in input order."""
    items = list(items)
    if len(items) <= 1 or _pool_size() == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=_pool_size()) as pool:
        return list(pool.map(fn, items))


def sparse_coarray(
    snapshots: SlowTimeSnapshots, cfg: ExperimentConfig
) -> CoarraySignal:
    """Covariance -> lag averaging -> optional clutter filter and apodization."""
    cov = estimate_covariance(snapshots, remove_mean=cfg.remove_mean)
    z = lag_average(cov, difference_set(snapshots.pattern))
    return condition_coarray(z, cfg)


def condition_coarray(z: CoarraySignal, cfg: ExperimentConfig) -> CoarraySignal:
    if cfg.filter_spec is not None:
        z = clutter_filter(z, cfg.filter_spec.coefficients())
    window = cfg.apodization_window()
    if window is not None:
        z = apodize(z, window)
    return z


def run_single_estimator(
    name: str,
    snapshots: SlowTimeSnapshots,
    cfg: ExperimentConfig,
    z: CoarraySignal | None = None,
):
    """One estimator on one CPI. Returns GridSpectrum or LineSpectrum."""
    if name == "welch":
        pattern = snapshots.pattern
        if pattern.slots == tuple(range(1, pattern.window_size + 1)):
            data = snapshots.data  # every slot filled, whatever the family
        elif cfg.zero_fill_welch:
            data = zero_fill(snapshots.data, pattern.slots, pattern.window_size)
        else:
            raise EstimationError(
                "welch requires uniformly sampled slow-time data; the "
                f"{pattern.family.value} pattern has idle slots. Set "
                "zero_fill_welch to embed the sparse samples in a zero-filled "
                "window (leakage artifacts are expected)."
            )
        return welch(data)
    if z is None:
        z = sparse_coarray(snapshots, cfg)
    if name == "nest":
        return nest(z, cfg.nest_lambda)
    if name == "nesprit":
        return nesprit(
            z,
            cfg.rank_lambda,
            model_order=cfg.model_order,
            subtract_noise=cfg.subtract_noise,
        )
    raise EstimationError(f"unknown estimator {name!r}")


def run_estimate(cfg: ExperimentConfig) -> dict:
    """Single-CPI pipeline for every configured estimator."""
    if cfg.tones is None:
        raise EstimationError("estimate needs a 'tones' entry in the config")
    pattern = cfg.build_pattern()
    snapshots = generate_snapshots(
        cfg.tones, pattern, cfg.q, noise_power=cfg.noise_power, rng_seed=cfg.seed
    )
    z = None
    if any(e in ("nest", "nesprit") for e in cfg.estimators):
        z = sparse_coarray(snapshots, cfg)
    out = {"pattern": pattern, "coarray": z, "spectra": {}}
    for name in cfg.estimators:
        out["spectra"][name] = run_single_estimator(name, snapshots, cfg, z=z)
    return out


def _dense_bins(p: int) -> int:
    return 2 * p - 1


def run_spectrogram_frames(
    frames_data: list[SlowTimeSnapshots], cfg: ExperimentConfig, estimator: str
) -> Spectrogram:
    """One spectrum per CPI frame; frames are processed in a work pool."""

    def one(indexed):
        idx, snapshots = indexed
        spec = run_single_estimator(estimator, snapshots, cfg)
        if isinstance(spec, LineSpectrum):
            spec = spec.rasterize(_dense_bins(cfg.window_size))
        return idx, spec

    results = _ordered_map(one, list(enumerate(frames_data)))
    return Spectrogram(
        frames=tuple(results),
        metadata={
            "estimator": estimator,
            "P": cfg.window_size,
            "pattern": cfg.pattern_doc,
            "filter": None if cfg.filter_spec is None else cfg.filter_spec.kind,
            "apodization": cfg.apodization,
        },
    )


def run_spectrogram(cfg: ExperimentConfig) -> dict:
    if cfg.profile is None:
        raise EstimationError("spectrogram needs a 'profile' entry in the config")
    pattern = cfg.build_pattern()
    frames_data = generate_pulsatile(
        cfg.profile, pattern, cfg.q, noise_power=cfg.noise_power, rng_seed=cfg.seed
    )
    out = {"pattern": pattern, "spectrograms": {}}
    for name in cfg.estimators:
        out["spectrograms"][name] = run_spectrogram_frames(frames_data, cfg, name)
    return out


def sinusoidal_profile(
    num_frames: int,
    base_frequency: float = 0.12,
    swing: float = 0.1,
    period_frames: float | None = None,
    tone_power: float = 1.0,
    clutter_frequency: float | None = None,
    clutter_db: float | None = None,
) -> PulsatileProfile:
    """Single-tone profile whose peak frequency follows a sinusoid in time.

    Stands in for pulsatile flow: the ridge oscillates around
    ``base_frequency`` with the given swing.
    """
    if period_frames is None:
        period_frames = num_frames
    frames = []
    for t in range(num_frames):
        nu = base_frequency + swing * math.sin(2.0 * math.pi * t / period_frames)
        frames.append(
            FrameSpec(
                tones=ToneSet(((nu, tone_power),)),
                clutter_frequency=clutter_frequency,
                clutter_db=clutter_db,
            )
        )
    return PulsatileProfile(frames=tuple(frames))


def profile_ridge(profile: PulsatileProfile) -> np.ndarray:
    """Ground-truth peak frequency per frame (strongest blood tone)."""
    return np.array(
        [max(f.tones.tones, key=lambda t: t[1])[0] for f in profile.frames]
    )


@dataclass(frozen=True)
class MseRow:
    snr_db: float
    estimator: str
    mse: float


def _frequency_error(true_nu: float, est_nu: float) -> float:
    return (true_nu - est_nu) ** 2


def run_mse(cfg: ExperimentConfig) -> list[MseRow]:
    """Monte Carlo MSE of peak-frequency estimates versus SNR.

    The coarray estimators see the sparse pattern; the Welch baseline sees fully
    sampled data over the same window, matching conventional processing.
    """
    if cfg.tones is None or len(cfg.tones.tones) != 1:
        raise EstimationError("the MSE sweep expects a single-tone 'tones' entry")
    if not cfg.snr_list_db:
        raise EstimationError("the MSE sweep needs a nonempty snr_list_db")
    true_nu, tone_power = cfg.tones.tones[0]
    pattern = cfg.build_pattern()
    from .patterns import build_standard

    full = build_standard(cfg.window_size)
    diffs = difference_set(pattern)
    model_order = cfg.model_order if cfg.model_order is not None else 1
    root = np.random.SeedSequence(cfg.seed)
    snr_seeds = root.spawn(len(cfg.snr_list_db))

    rows: list[MseRow] = []
    for snr_db, snr_seed in zip(cfg.snr_list_db, snr_seeds):
        noise_power = tone_power / 10.0 ** (snr_db / 10.0)
        trial_seeds = snr_seed.spawn(cfg.trials)

        def one_trial(seed, _noise=noise_power):
            sparse_seed, full_seed = seed.spawn(2)
            snaps = generate_snapshots(
                cfg.tones,
                pattern,
                cfg.q,
                noise_power=_noise,
                rng_seed=int(sparse_seed.generate_state(1)[0]),
            )
            cov = estimate_covariance(snaps, remove_mean=cfg.remove_mean)
            z = lag_average(cov, diffs)
            nest_nu = nest(z, cfg.nest_lambda).peak_frequency()
            lines = nesprit(
                z, model_order=model_order, subtract_noise=cfg.subtract_noise
            )
            nesprit_nu = lines.dominant_frequency()
            full_snaps = generate_snapshots(
                cfg.tones,
                full,
                cfg.q,
                noise_power=_noise,
                rng_seed=int(full_seed.generate_state(1)[0]),
            )
            welch_nu = welch(full_snaps.data).peak_frequency()
            return (
                _frequency_error(true_nu, nest_nu),
                _frequency_error(true_nu, nesprit_nu),
                _frequency_error(true_nu, welch_nu),
            )

        errors = np.array(_ordered_map(one_trial, trial_seeds))
        for name, col in zip(("nest", "nesprit", "welch"), errors.T):
            rows.append(MseRow(snr_db=snr_db, estimator=name, mse=float(col.mean())))
    return rows


def run_compare(cfg: ExperimentConfig, support_halfwidth: float | None = None) -> dict:
    """All estimators on one pulsatile dataset, with summary statistics.

    Reports per-estimator ridge error (dense-grid bins) and the fraction
    of spectral energy outside the ground-truth support.
    """
    if cfg.profile is None:
        raise EstimationError("compare needs a 'profile' entry in the config")
    pattern = cfg.build_pattern()
    if support_halfwidth is None:
        support_halfwidth = 10.0 / _dense_bins(cfg.window_size)
    frames_data = generate_pulsatile(
        cfg.profile, pattern, cfg.q, noise_power=cfg.noise_power, rng_seed=cfg.seed
    )
    truth = profile_ridge(cfg.profile)
    report: dict = {"pattern": pattern, "spectrograms": {}, "stats": {}}
    for name in cfg.estimators:
        gram = run_spectrogram_frames(frames_data, cfg, name)
        bin_errors = ridge_bin_errors(gram, truth)
        artifact = out_of_support_ratio(gram, truth, support_halfwidth)
        report["spectrograms"][name] = gram
        report["stats"][name] = {
            "ridge_rms_bins": float(np.sqrt(np.mean(bin_errors.astype(float) ** 2))),
            "ridge_within_one_bin": float(np.mean(bin_errors <= 1)),
            "artifact_energy_ratio": artifact,
            "artifact_energy_db": (
                10.0 * math.log10(artifact) if artifact > 0 else -math.inf
            ),
        }
    return report
