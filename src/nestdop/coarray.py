"""Covariance estimation, lag averaging and correlation-domain conditioning.

The central object is the coarray signal z: one autocorrelation value per
integer lag in [-(P-1), P-1], obtained by averaging all covariance entries
that share the same lag. Clutter filtering and apodization both act
directly on z, which is what makes sparse sampling compatible with
conventional wall filters and windowing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import signal

from .memo import array_key, memo
from .patterns import DifferenceSet
from .signals import SlowTimeSnapshots

log = logging.getLogger(__name__)


class CoarrayHoleError(ValueError):
    """The pattern's difference set does not cover every required lag."""

    def __init__(self, missing_lags):
        self.missing_lags = list(missing_lags)
        super().__init__(
            f"coarray has holes: missing lags {self.missing_lags} -- "
            "lag averaging requires a contiguous difference set"
        )


@dataclass(frozen=True)
class CovarianceEstimate:
    """Hermitian N x N sample covariance of the sparse slow-time vector.

    ``matrix`` is T x N x N for a stack of T CPIs.
    """

    matrix: np.ndarray
    q_used: int
    mean_removed: bool


@dataclass(frozen=True)
class CoarraySignal:
    """Autocorrelation estimate over lags -(P-1)..(P-1).

    ``values[i]`` holds the lag ``i - (P - 1)``; lag 0 sits in the middle.
    Conjugate symmetry holds up to estimation noise because the covariance
    is Hermitian and the index sets of opposite lags mirror each other.
    A stack of T CPIs has T x (2P-1) values; ``z[t]`` is the coarray of CPI t.
    """

    window_size: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != 2 * self.window_size - 1:
            raise ValueError(
                f"expected {2 * self.window_size - 1} lags, got {self.values.shape}"
            )

    def __getitem__(self, t: int) -> "CoarraySignal":
        return self.with_values(self.values[t])

    @property
    def lags(self) -> np.ndarray:
        return np.arange(-(self.window_size - 1), self.window_size)

    def value(self, lag: int) -> complex:
        if abs(lag) > self.window_size - 1:
            raise IndexError(f"lag {lag} outside [-(P-1), P-1]")
        return self.values[..., lag + self.window_size - 1]

    def with_values(self, values: np.ndarray) -> "CoarraySignal":
        return CoarraySignal(window_size=self.window_size, values=values)


def estimate_covariance(
    snapshots: SlowTimeSnapshots, remove_mean: bool = False
) -> CovarianceEstimate:
    """Sample covariance (1/Q) sum_k y_k y_k^H, optionally mean-subtracted.

    With the mean removed it is (Q-1)/Q times the unbiased ``np.cov(y, rowvar=False)``.
    A T x Q x N stack gives T x N x N matrices, each bit for bit the one
    its CPI gives alone.
    """
    y = snapshots.data
    q = y.shape[-2]
    if remove_mean:
        if q < 2:
            raise ValueError("mean removal requires at least 2 snapshots")
        y = y - y.mean(axis=-2, keepdims=True)
    r = y.conj().swapaxes(-1, -2) @ y / q
    r = r.swapaxes(-1, -2)  # (1/Q) sum y y^H with y as rows
    r = 0.5 * (r + r.conj().swapaxes(-1, -2))  # kill floating-point asymmetry
    return CovarianceEstimate(matrix=r, q_used=q, mean_removed=remove_mean)


def lag_average(cov: CovarianceEstimate, diffs: DifferenceSet) -> CoarraySignal:
    """Average redundant covariance entries into one value per lag.

    Lags beyond the observation window (possible for co-prime patterns)
    are discarded. Raises CoarrayHoleError when a lag inside the window is
    not realized by any slot pair. A stack of T matrices is averaged by one
    ``bincount``, CPI t's lags offset by t(2P-1), so each lag sums its
    entries in the same order as for that CPI alone.
    """
    missing = diffs.missing_lags()
    if missing:
        raise CoarrayHoleError(missing)
    p = diffs.window_size
    lead = cov.matrix.shape[:-2]
    t = math.prod(lead)
    bins = diffs.position_lags + (p - 1)
    r_vec = cov.matrix.swapaxes(-1, -2).reshape(t, -1)  # column-stacking
    inside = (bins >= 0) & (bins < 2 * p - 1)
    if not inside.all():
        bins, r_vec = bins[inside], r_vec[:, inside]
    stacked = (bins + (2 * p - 1) * np.arange(t)[:, None]).ravel()
    re = np.bincount(stacked, weights=r_vec.real.ravel(), minlength=t * (2 * p - 1))
    im = np.bincount(stacked, weights=r_vec.imag.ravel(), minlength=t * (2 * p - 1))
    values = (re + 1j * im).reshape(lead + (2 * p - 1,)) / diffs.lag_counts
    return CoarraySignal(window_size=p, values=values)


def build_toeplitz(z: CoarraySignal) -> np.ndarray:
    """P x P Hermitian Toeplitz matrix with entry (i, j) = z(i - j); T x P x P for a stack."""
    p = z.window_size
    return z.values[..., np.subtract.outer(np.arange(p), np.arange(p)) + (p - 1)]


def filter_autocorrelation(h, length: int | None = None) -> np.ndarray:
    """Deterministic autocorrelation of a filter, h conv conj(h[-n]).

    ``h`` is either a FIR coefficient array or an IIR (b, a) pair. IIR
    responses are evaluated to ``length`` taps (required for IIR) before
    correlating; the truncation error bound is logged based on the largest
    pole radius.
    """
    if isinstance(h, tuple):
        b, a = h
        poles = np.roots(a)
        radius = float(np.max(np.abs(poles))) if len(poles) else 0.0
        if radius >= 1.0:
            raise ValueError(f"unstable IIR filter: pole radius {radius:.4f} >= 1")
        if length is None:
            raise ValueError("IIR filters need an explicit impulse-response length")
        impulse = np.zeros(length)
        impulse[0] = 1.0
        hh = signal.lfilter(b, a, impulse)
        if radius > 0:
            # tail after truncation decays like radius^n
            bound = radius**length / (1.0 - radius)
            log.debug(
                "IIR impulse response truncated at %d taps; tail bound ~%.3g",
                length,
                bound,
            )
    else:
        hh = np.asarray(h)
    # same as np.correlate(hh, hh, mode="full"), via FFT
    return signal.fftconvolve(hh, np.conj(hh[::-1]))


def clutter_filter(z: CoarraySignal, h) -> CoarraySignal:
    """Apply a filter in the correlation domain: z conv h conv conj(h[-n]).

    Equivalent to filtering the (unobservable) uniform slow-time signal
    with ``h`` and re-estimating its autocorrelation. An IIR (b, a) pair is
    evaluated to 4P impulse-response taps. The output lags |k| <= P-1 read
    the filter's autocorrelation g only at |lag| <= 2P-2, so g is cut to
    those lags (or zero-padded to them) and the convolution is circular, of
    a length L >= 4P-3 at which nothing wraps around. The spectrum of the
    cut g is built once per (filter, P) in a process; each call, for one
    coarray or a stack, takes one forward and one inverse FFT of length L.
    """
    p = z.window_size
    g_hat = _kernel_spectrum(h, p)
    out = np.fft.ifft(np.fft.fft(z.values, len(g_hat)) * g_hat)
    return z.with_values(out[..., : 2 * p - 1])


@memo(key=lambda h, p: (array_key(h), p))
def _kernel_spectrum(h, p: int) -> np.ndarray:
    """FFT of g at lags -(2P-2)..2P-2, lag k at index k mod L, L a power of two >= 4P-3."""
    g = filter_autocorrelation(h, length=4 * p)
    center = (len(g) - 1) // 2  # lag 0
    reach = min(center, 2 * p - 2)
    lags = np.arange(-reach, reach + 1)
    n_fft = 1 << (4 * p - 4).bit_length()
    kernel = np.zeros(n_fft, dtype=g.dtype)
    kernel[lags % n_fft] = g[center + lags]
    return np.fft.fft(kernel)


def butterworth_highpass(order: int, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Butterworth high-pass (b, a) with cutoff in cycles per sample."""
    if not 0 < cutoff < 0.5:
        raise ValueError("cutoff must be in (0, 0.5) cycles/sample")
    return signal.butter(order, cutoff / 0.5, btype="highpass")


def apodize(z: CoarraySignal, window: np.ndarray) -> CoarraySignal:
    """Taper the coarray signal (or each of a stack) by the window's autocorrelation."""
    window = np.asarray(window, dtype=float)
    if window.shape != (z.window_size,):
        raise ValueError(
            f"window length {window.shape} does not match P={z.window_size}"
        )
    return z.with_values(z.values * _taper(window))


@memo(key=array_key)
def _taper(window: np.ndarray) -> np.ndarray:
    """The window's autocorrelation, length 2P-1, built once per window in a process."""
    return np.correlate(window, window, mode="full")
