"""Synthetic sparse slow-time data generation.

The slow-time signal within one CPI is a sum of complex exponentials with
random circular-Gaussian amplitudes (one realization per depth snapshot)
plus white complex Gaussian noise. Frequencies are normalized to cycles
per pulse repetition interval, nu in [-1/2, 1/2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .patterns import EmissionPattern


@dataclass(frozen=True)
class ToneSet:
    """Stationary spectral content of one CPI: (frequency, power) pairs."""

    tones: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for nu, power in self.tones:
            if not -0.5 <= nu < 0.5:
                raise ValueError(f"frequency {nu} outside [-1/2, 1/2)")
            if power < 0:
                raise ValueError(f"negative tone power {power}")

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([nu for nu, _ in self.tones], dtype=float)

    @property
    def powers(self) -> np.ndarray:
        return np.array([p for _, p in self.tones], dtype=float)

    @property
    def total_power(self) -> float:
        return float(sum(p for _, p in self.tones))


@dataclass(frozen=True)
class SlowTimeSnapshots:
    """Q depth snapshots of the sparse slow-time vector (Q x N).

    ``data`` may also be a T x Q x N stack of T CPIs on one pattern, which
    the estimation stages process in one call each.
    """

    pattern: EmissionPattern
    data: np.ndarray
    noise_power: float = 0.0

    def __post_init__(self):
        if self.data.ndim not in (2, 3):
            raise ValueError("data must be a Q x N matrix or a T x Q x N stack")
        if self.data.shape[-1] != self.pattern.n_transmissions:
            raise ValueError(
                f"data has {self.data.shape[-1]} columns but pattern has "
                f"{self.pattern.n_transmissions} slots"
            )
        if self.data.shape[-2] < 1:
            raise ValueError("need at least one snapshot")

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[-2]


@dataclass(frozen=True)
class FrameSpec:
    """One spectrogram frame: blood tones plus an optional clutter tone.

    Clutter power is given in dB relative to the summed blood power.
    """

    tones: ToneSet
    clutter_frequency: float | None = None
    clutter_db: float | None = None

    def __post_init__(self):
        if (self.clutter_frequency is None) != (self.clutter_db is None):
            raise ValueError("clutter_frequency and clutter_db go together")

    def effective_tones(self) -> ToneSet:
        if self.clutter_frequency is None:
            return self.tones
        clutter_power = self.tones.total_power * 10.0 ** (self.clutter_db / 10.0)
        return ToneSet(self.tones.tones + ((self.clutter_frequency, clutter_power),))


@dataclass(frozen=True)
class PulsatileProfile:
    """Time-varying spectral content: one FrameSpec per CPI frame."""

    frames: tuple[FrameSpec, ...]

    def __post_init__(self):
        if not self.frames:
            raise ValueError("profile has no frames")

    def to_json(self) -> str:
        return json.dumps(
            {
                "frames": [
                    {
                        "tones": [list(t) for t in f.tones.tones],
                        "clutter_frequency": f.clutter_frequency,
                        "clutter_db": f.clutter_db,
                    }
                    for f in self.frames
                ],
            }
        )


def steering_matrix(tones: ToneSet, pattern: EmissionPattern) -> np.ndarray:
    """N x M matrix of exp(2*pi*j*nu_m*(p_n - 1)) over the pattern slots."""
    slots = np.asarray(pattern.slots, dtype=float) - 1.0
    return np.exp(2j * np.pi * np.outer(slots, tones.frequencies))


def _complex_gaussian(rng: np.random.Generator, shape, variance) -> np.ndarray:
    # circularly symmetric: half the variance in each of re/im
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def generate_snapshots(
    tones: ToneSet,
    pattern: EmissionPattern,
    q: int,
    noise_power: float = 0.0,
    rng_seed: int = 0,
) -> SlowTimeSnapshots:
    """Draw Q i.i.d. snapshots of the sparse slow-time vector.

    Tone amplitudes are redrawn per snapshot as zero-mean complex Gaussians
    with the tone's power as variance; noise is white complex Gaussian.
    Deterministic for a fixed seed.
    """
    if q < 1:
        raise ValueError("Q must be >= 1")
    if noise_power < 0:
        raise ValueError("noise power must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    n = pattern.n_transmissions
    m = len(tones.tones)
    data = np.zeros((q, n), dtype=complex)
    if m:
        amps = _complex_gaussian(rng, (q, m), tones.powers)
        data += amps @ steering_matrix(tones, pattern).T
    if noise_power > 0:
        data += _complex_gaussian(rng, (q, n), noise_power)
    return SlowTimeSnapshots(pattern=pattern, data=data, noise_power=noise_power)


def analytic_covariance(
    tones: ToneSet, pattern: EmissionPattern, noise_power: float = 0.0
) -> np.ndarray:
    """Exact infinite-snapshot covariance A diag(powers) A^H + sigma^2 I."""
    n = pattern.n_transmissions
    cov = noise_power * np.eye(n, dtype=complex)
    if tones.tones:
        a = steering_matrix(tones, pattern)
        cov += (a * tones.powers) @ a.conj().T
    return cov


def generate_pulsatile(
    profile: PulsatileProfile,
    pattern: EmissionPattern,
    q: int,
    noise_power: float = 0.0,
    rng_seed: int = 0,
) -> list[SlowTimeSnapshots]:
    """One SlowTimeSnapshots per profile frame; stationary within a frame."""
    seeds = np.random.SeedSequence(rng_seed).spawn(len(profile.frames))
    out = []
    for frame, seed in zip(profile.frames, seeds):
        rng_seed_frame = seed.generate_state(1)[0]
        out.append(
            generate_snapshots(
                frame.effective_tones(),
                pattern,
                q,
                noise_power=noise_power,
                rng_seed=int(rng_seed_frame),
            )
        )
    return out
