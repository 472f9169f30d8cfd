"""Experiment harnesses: single-CPI estimation, spectrograms, MSE sweeps.

Every CPI goes through one path, :func:`estimate_cpis`: sample covariance ->
lag averaging -> optional clutter filter and apodization -> each configured
estimator. The run constants (difference set, filter design, window) are
built once per call, not once per CPI. All runs are deterministic given a
config and seed: per-frame and per-trial RNG streams are spawned from one
root seed.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

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
from .patterns import build_standard, difference_set
from .signals import (
    FrameSpec,
    PulsatileProfile,
    SlowTimeSnapshots,
    ToneSet,
    generate_pulsatile,
    generate_snapshots,
)
from .spectrogram import Spectrogram, out_of_support_ratio, ridge_bin_errors


def _welch_input(snapshots: SlowTimeSnapshots, cfg: ExperimentConfig) -> np.ndarray:
    """Uniformly sampled slow-time data for Welch, or an EstimationError."""
    pattern = snapshots.pattern
    if pattern.slots == tuple(range(1, pattern.window_size + 1)):
        return snapshots.data  # every slot filled, whatever the family
    if cfg.zero_fill_welch:
        return zero_fill(snapshots.data, pattern.slots, pattern.window_size)
    raise EstimationError(
        "welch requires uniformly sampled slow-time data; the "
        f"{pattern.family.value} pattern has idle slots. Set "
        "zero_fill_welch to embed the sparse samples in a zero-filled "
        "window (leakage artifacts are expected)."
    )


def estimate_cpis(
    cpis: Iterable[SlowTimeSnapshots], cfg: ExperimentConfig
) -> Iterator[tuple[CoarraySignal | None, dict[str, GridSpectrum | LineSpectrum]]]:
    """Every estimator in ``cfg.estimators`` on each CPI, in order.

    Every CPI must be sampled on ``cfg.pattern``: its difference set, the
    filter design and the apodization window are built once, before the
    first CPI. Each CPI's coarray is built once and shared by ``nest`` and
    ``nesprit``; it is None when only Welch runs.
    """
    diffs = difference_set(cfg.pattern)
    h = None if cfg.filter_spec is None else cfg.filter_spec.coefficients()
    window = cfg.apodization_window()
    needs_coarray = any(name != "welch" for name in cfg.estimators)
    for snapshots in cpis:
        if snapshots.pattern != cfg.pattern:
            raise EstimationError(
                f"CPI sampled on slots {snapshots.pattern.slots}, "
                f"but the config's pattern has slots {cfg.pattern.slots}"
            )
        z = None
        if needs_coarray:
            z = lag_average(estimate_covariance(snapshots, remove_mean=cfg.remove_mean), diffs)
            if h is not None:
                z = clutter_filter(z, h)
            if window is not None:
                z = apodize(z, window)
        spectra = {}
        for name in cfg.estimators:
            if name == "welch":
                spectra[name] = welch(_welch_input(snapshots, cfg))
            elif name == "nest":
                spectra[name] = nest(z, cfg.nest_lambda)
            elif name == "nesprit":
                spectra[name] = nesprit(
                    z,
                    cfg.rank_lambda,
                    model_order=cfg.model_order,
                    subtract_noise=cfg.subtract_noise,
                )
            else:
                raise EstimationError(f"unknown estimator {name!r}")
        yield z, spectra


def run_estimate(cfg: ExperimentConfig) -> dict:
    """Single-CPI pipeline for every configured estimator."""
    if cfg.tones is None:
        raise EstimationError("estimate needs a 'tones' entry in the config")
    snapshots = generate_snapshots(
        cfg.tones, cfg.pattern, cfg.q, noise_power=cfg.noise_power, rng_seed=cfg.seed
    )
    [(z, spectra)] = estimate_cpis([snapshots], cfg)
    return {"coarray": z, "spectra": spectra}


def run_spectrogram_frames(
    frames_data: Iterable[SlowTimeSnapshots], cfg: ExperimentConfig
) -> dict[str, Spectrogram]:
    """One spectrum per CPI frame for every estimator, in frame order.

    Line spectra are rasterized onto the dense 2P-1 grid.
    """
    frames: dict[str, list] = {name: [] for name in cfg.estimators}
    for idx, (_, spectra) in enumerate(estimate_cpis(frames_data, cfg)):
        for name, spec in spectra.items():
            if isinstance(spec, LineSpectrum):
                spec = spec.rasterize(2 * cfg.window_size - 1)
            frames[name].append((idx, spec))
    return {
        name: Spectrogram(
            frames=tuple(spectra),
            metadata={
                "estimator": name,
                "P": cfg.window_size,
                "pattern": {"family": cfg.pattern.family.value, "params": cfg.pattern.params},
                "filter": None if cfg.filter_spec is None else cfg.filter_spec.kind,
                "apodization": cfg.apodization,
            },
        )
        for name, spectra in frames.items()
    }


def run_spectrogram(cfg: ExperimentConfig) -> dict:
    if cfg.profile is None:
        raise EstimationError("spectrogram needs a 'profile' entry in the config")
    frames_data = generate_pulsatile(
        cfg.profile, cfg.pattern, cfg.q, noise_power=cfg.noise_power, rng_seed=cfg.seed
    )
    return {"spectrograms": run_spectrogram_frames(frames_data, cfg)}


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

    The coarray estimators see the sparse pattern, through the configured
    clutter filter and apodization; the Welch baseline sees fully sampled
    data over the same window, matching conventional processing.
    """
    if cfg.tones is None or len(cfg.tones.tones) != 1:
        raise EstimationError("the MSE sweep expects a single-tone 'tones' entry")
    if not cfg.snr_list_db:
        raise EstimationError("the MSE sweep needs a nonempty snr_list_db")
    true_nu, tone_power = cfg.tones.tones[0]
    full = build_standard(cfg.window_size)
    sparse_cfg = replace(
        cfg, estimators=("nest", "nesprit"), model_order=cfg.model_order or 1
    )

    snr_seeds = np.random.SeedSequence(cfg.seed).spawn(len(cfg.snr_list_db))
    # (SNR index, noise power, sparse seed, full seed) of every trial, in order
    trials = (
        (i, tone_power / 10.0 ** (snr_db / 10.0), *seed.spawn(2))
        for i, (snr_db, snr_seed) in enumerate(zip(cfg.snr_list_db, snr_seeds))
        for seed in snr_seed.spawn(cfg.trials)
    )

    def draw(pattern, noise_power, seed):
        rng_seed = int(seed.generate_state(1)[0])
        return generate_snapshots(cfg.tones, pattern, cfg.q, noise_power, rng_seed)

    # tee holds one trial: each sparse draw is made when estimate_cpis asks for it
    info, draws = itertools.tee(trials)
    sparse = (draw(cfg.pattern, noise, seed) for _, noise, seed, _ in draws)
    errors: list[list] = [[] for _ in cfg.snr_list_db]
    for (i, noise, _, full_seed), (_, spectra) in zip(info, estimate_cpis(sparse, sparse_cfg)):
        full_snaps = draw(full, noise, full_seed)
        errors[i].append(
            (
                _frequency_error(true_nu, spectra["nest"].peak_frequency()),
                _frequency_error(true_nu, spectra["nesprit"].dominant_frequency()),
                _frequency_error(true_nu, welch(full_snaps.data).peak_frequency()),
            )
        )
    return [
        MseRow(snr_db=snr_db, estimator=name, mse=float(col.mean()))
        for snr_db, snr_errors in zip(cfg.snr_list_db, errors)
        for name, col in zip(("nest", "nesprit", "welch"), np.array(snr_errors).T)
    ]


def run_compare(cfg: ExperimentConfig, support_halfwidth: float | None = None) -> dict:
    """All estimators on one pulsatile dataset, with summary statistics.

    Reports per-estimator ridge error (dense-grid bins) and the fraction
    of spectral energy outside the ground-truth support.
    """
    if cfg.profile is None:
        raise EstimationError("compare needs a 'profile' entry in the config")
    if support_halfwidth is None:
        support_halfwidth = 10.0 / (2 * cfg.window_size - 1)
    report = run_spectrogram(cfg)
    truth = profile_ridge(cfg.profile)
    report["stats"] = {}
    for name, gram in report["spectrograms"].items():
        bin_errors = ridge_bin_errors(gram, truth)
        artifact = out_of_support_ratio(gram, truth, support_halfwidth)
        report["stats"][name] = {
            "ridge_rms_bins": float(np.sqrt(np.mean(bin_errors.astype(float) ** 2))),
            "ridge_within_one_bin": float(np.mean(bin_errors <= 1)),
            "artifact_energy_ratio": artifact,
            "artifact_energy_db": (
                10.0 * math.log10(artifact) if artifact > 0 else -math.inf
            ),
        }
    return report
