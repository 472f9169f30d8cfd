"""Experiment harnesses: single-CPI estimation, spectrograms, MSE sweeps.

Every CPI goes through one path, :func:`estimate_cpis`: sample covariance ->
lag averaging -> optional clutter filter and apodization -> each configured
estimator. The run constants (difference set, filter design, the filter's
kernel spectrum, the taper) are built once per process, in bounded memos
(:mod:`nestdop.memo`), and each stage runs once per stack of CPIs:
spectrograms stack their frames and MSE sweeps their trials. All runs are
deterministic given a config and seed: per-frame and per-trial RNG streams
are spawned from one root seed.
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
from .patterns import build_standard, cached_difference_set
from .signals import (
    FrameSpec,
    PulsatileProfile,
    SlowTimeSnapshots,
    ToneSet,
    generate_pulsatile,
    generate_snapshots,
)
from .spectrogram import Spectrogram, out_of_support_ratio, ridge_bin_errors


# Bytes of one stack of CPIs, each counted as max(Q, P) x P complex values: the
# larger of its window fully sampled (the zero-filled Welch input, the MSE
# sweep's full draw) and nesprit's dense P x P eigenproblem. No stage makes a
# larger array per CPI, so this bounds the memory a run adds by stacking: 13
# trials of the criterion-07 sweep (P=12, Q=200) make a stack, and a CPI with
# Q <= P stands alone from P=129 on, where per-call costs no longer dominate.
_STACK_BYTES = 1 << 19


def _stacks(cpis: Iterable[SlowTimeSnapshots]) -> Iterator[SlowTimeSnapshots]:
    """Consecutive CPIs of one shape as T x Q x N stacks of at most _STACK_BYTES."""
    batch: list[SlowTimeSnapshots] = []
    for cpi in cpis:
        if batch and cpi.data.shape != batch[0].data.shape:
            yield _stack(batch)
            batch = []
        batch.append(cpi)
        p = cpi.pattern.window_size
        if (len(batch) + 1) * max(cpi.n_snapshots, p) * p * cpi.data.itemsize > _STACK_BYTES:
            yield _stack(batch)
            batch = []
    if batch:
        yield _stack(batch)


def _stack(batch: list[SlowTimeSnapshots]) -> SlowTimeSnapshots:
    return SlowTimeSnapshots(pattern=batch[0].pattern, data=np.stack([c.data for c in batch]))


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

    An element of ``cpis`` is one CPI (Q x N samples) or a stack of CPIs
    (T x Q x N). Each stage runs once per element, and one ``(z, spectra)``
    is yielded per CPI, bit for bit what that CPI gives alone. Elements are
    taken one at a time, when the previous one's results are used up.

    Every CPI must be sampled on the window and slots of ``cfg.pattern``,
    which are all its lag map depends on: its difference set, the filter
    design and the apodization window are looked up once, before the first
    CPI. The difference set and the filter design, like the kernel spectrum
    and the taper, are built only by the first run in a process that uses
    them. Each CPI's coarray is built once and shared by ``nest`` and
    ``nesprit``; it is None when only Welch runs.
    """
    diffs = cached_difference_set(cfg.pattern)
    h = None if cfg.filter_spec is None else cfg.filter_spec.coefficients()
    window = cfg.apodization_window()
    needs_coarray = any(name != "welch" for name in cfg.estimators)
    expected = (cfg.pattern.window_size, cfg.pattern.slots)
    for snapshots in cpis:
        got = (snapshots.pattern.window_size, snapshots.pattern.slots)
        if got != expected:
            raise EstimationError(
                f"CPI sampled on P={got[0]} slots {got[1]}, "
                f"but the config's pattern has P={expected[0]} slots {expected[1]}"
            )
        if snapshots.data.ndim == 2:
            snapshots = replace(snapshots, data=snapshots.data[None])
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
        for t in range(len(snapshots.data)):
            yield None if z is None else z[t], {name: spec[t] for name, spec in spectra.items()}


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
    """One row of powers per CPI frame for every estimator, in frame order.

    Line spectra are rasterized onto the dense 2P-1 grid.
    """
    rows: dict[str, list] = {name: [] for name in cfg.estimators}
    for _, spectra in estimate_cpis(_stacks(frames_data), cfg):
        for name, spec in spectra.items():
            if isinstance(spec, LineSpectrum):
                spec = spec.rasterize(2 * cfg.window_size - 1)
            rows[name].append(spec.powers)
    return {
        name: Spectrogram(
            powers=np.array(powers),
            metadata={
                "estimator": name,
                "P": cfg.window_size,
                "pattern": {"family": cfg.pattern.family.value, "params": cfg.pattern.params},
                "filter": None if cfg.filter_spec is None else cfg.filter_spec.kind,
                "apodization": cfg.apodization,
            },
        )
        for name, powers in rows.items()
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

    # Both draws are made a stack at a time, when their estimator asks for it;
    # tee holds the trials of at most one stack.
    info, sparse_seeds, full_seeds = itertools.tee(trials, 3)
    sparse = (draw(cfg.pattern, noise, seed) for _, noise, seed, _ in sparse_seeds)
    full_draws = (draw(full, noise, seed) for _, noise, _, seed in full_seeds)

    def welch_spectra():
        for stack in _stacks(full_draws):
            spectra = welch(stack.data)
            yield from (spectra[t] for t in range(len(stack.data)))

    errors: list[list] = [[] for _ in cfg.snr_list_db]
    for (i, *_), (_, spectra), full_spectrum in zip(
        info, estimate_cpis(_stacks(sparse), sparse_cfg), welch_spectra()
    ):
        errors[i].append(
            (
                _frequency_error(true_nu, spectra["nest"].peak_frequency()),
                _frequency_error(true_nu, spectra["nesprit"].dominant_frequency()),
                _frequency_error(true_nu, full_spectrum.peak_frequency()),
            )
        )
    return [
        MseRow(snr_db=snr_db, estimator=name, mse=float(col.mean()))
        for snr_db, snr_errors in zip(cfg.snr_list_db, errors)
        for name, col in zip(("nest", "nesprit", "welch"), np.array(snr_errors).T)
    ]


SUPPORT_BINS = 10.0  # halfwidth of the ground-truth support, in dense-grid bins


def run_compare(cfg: ExperimentConfig) -> dict:
    """All estimators on one pulsatile dataset, with summary statistics.

    Reports per-estimator ridge error (dense-grid bins) and the fraction
    of spectral energy more than ``SUPPORT_BINS`` dense-grid bins from the
    ground-truth ridge.
    """
    if cfg.profile is None:
        raise EstimationError("compare needs a 'profile' entry in the config")
    halfwidth = SUPPORT_BINS / (2 * cfg.window_size - 1)
    report = run_spectrogram(cfg)
    truth = profile_ridge(cfg.profile)
    report["stats"] = {}
    for name, gram in report["spectrograms"].items():
        bin_errors = ridge_bin_errors(gram, truth)
        artifact = out_of_support_ratio(gram, truth, halfwidth)
        report["stats"][name] = {
            "ridge_rms_bins": float(np.sqrt(np.mean(bin_errors.astype(float) ** 2))),
            "ridge_within_one_bin": float(np.mean(bin_errors <= 1)),
            "artifact_energy_ratio": artifact,
            "artifact_energy_db": (
                10.0 * math.log10(artifact) if artifact > 0 else -math.inf
            ),
        }
    return report
