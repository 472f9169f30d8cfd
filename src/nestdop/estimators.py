"""Power spectrum recovery from the coarray signal.

Three estimators: a dense-grid one (FFT over the coarray lags with soft
thresholding), a gridless one (subspace recovery via ESPRIT on the
Toeplitz lag matrix), and a Welch baseline for uniformly sampled data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .coarray import CoarraySignal, build_toeplitz


class EstimationError(ValueError):
    """Estimator precondition violated."""


def soft_threshold(x: np.ndarray, lam: float) -> np.ndarray:
    return np.maximum(x - lam, 0.0)


@dataclass(frozen=True)
class GridSpectrum:
    """Nonnegative power per frequency bin.

    Bin i maps to the normalized frequency ``frequencies[i]`` in
    [-1/2, 1/2); bins are stored in FFT order (DC first).
    """

    powers: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self):
        if self.powers.shape != self.frequencies.shape:
            raise ValueError("powers and frequencies must align")

    @property
    def num_bins(self) -> int:
        return len(self.powers)

    def peak_bin(self) -> int:
        return int(np.argmax(self.powers))

    def peak_frequency(self) -> float:
        return float(self.frequencies[self.peak_bin()])

    def centered(self) -> "GridSpectrum":
        """Bins reordered by ascending frequency (negative first)."""
        order = np.argsort(self.frequencies, kind="stable")
        return GridSpectrum(self.powers[order], self.frequencies[order])

    def nearest_bin(self, nu: float) -> int:
        dist = np.abs((self.frequencies - nu + 0.5) % 1.0 - 0.5)
        return int(np.argmin(dist))

    def to_db(self, floor_db: float = -60.0) -> np.ndarray:
        """Relative power in dB, max bin at 0 dB, clipped at the floor."""
        top = float(np.max(self.powers))
        if top <= 0:
            return np.full_like(self.powers, floor_db)
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(self.powers / top)
        return np.clip(db, floor_db, 0.0)


@dataclass(frozen=True)
class LineSpectrum:
    """Off-grid spectral lines: (frequency, power) pairs plus a noise level."""

    lines: tuple[tuple[float, float], ...]
    noise_estimate: float = 0.0

    @property
    def model_order(self) -> int:
        return len(self.lines)

    def dominant_frequency(self) -> float:
        if not self.lines:
            raise EstimationError("empty line spectrum has no dominant frequency")
        return max(self.lines, key=lambda t: t[1])[0]

    def rasterize(self, num_bins: int) -> GridSpectrum:
        """Deposit each line's power in the nearest bin of a dense grid."""
        freqs = np.fft.fftfreq(num_bins)
        powers = np.zeros(num_bins)
        for nu, p in self.lines:
            dist = np.abs((freqs - nu + 0.5) % 1.0 - 0.5)
            powers[int(np.argmin(dist))] += max(p, 0.0)
        return GridSpectrum(powers, freqs)


def nest(z: CoarraySignal, lam: float = 0.0) -> GridSpectrum:
    """Grid-based recovery: scaled DFT of the coarray signal, soft-thresholded.

    The 2P-1 lags form a complete residue system, so the DFT grid is twice
    as dense as standard processing. The DFT of a conjugate-symmetric z is
    real; the imaginary residue is floating-point noise and is dropped
    before thresholding.
    """
    p = z.window_size
    pt = 2 * p - 1
    x = np.empty(pt, dtype=complex)
    x[z.lags % pt] = z.values
    powers = soft_threshold(np.real(np.fft.fft(x)) / pt, lam)
    return GridSpectrum(powers, np.fft.fftfreq(pt))


def estimate_noise_floor(eigenvalues: np.ndarray, m: int) -> float:
    """Mean of the trailing P-M eigenvalues (all of them when M=0)."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if m >= len(eigenvalues):
        raise EstimationError("model order must leave at least one noise eigenvalue")
    return float(np.mean(eigenvalues[m:]))


def vandermonde_on_lags(frequencies: np.ndarray, p: int) -> np.ndarray:
    """(2P-1) x M matrix exp(2*pi*j*nu_m*lag) over lags -(P-1)..P-1."""
    lags = np.arange(-(p - 1), p)
    return np.exp(2j * np.pi * np.outer(lags, frequencies))


_SV_CUTOFF = 1e-10  # relative singular-value cutoff for pseudo-inverses

# Smallest P at which an explicit model order goes to the Lanczos solver.
# Measured on a 2-vCPU x86 machine, dense eigh vs Lanczos with m=1 and m=3:
# P=64 0.9 ms vs 1.5/3.1 ms, P=96 1.9 vs 1.2/3.4 ms, P=128 4.3 vs 1.3/4.3 ms.
_LANCZOS_MIN_P = 128


def _dense_eigenpairs(z: CoarraySignal) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of the Hermitian part of the Toeplitz lag matrix, descending."""
    r = build_toeplitz(z)
    r = 0.5 * (r + r.conj().T)
    evals, evecs = np.linalg.eigh(r)
    return evals[::-1], evecs[:, ::-1]


def _lanczos_eigenpairs(
    z: CoarraySignal, m: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Top-m eigenpairs of the same matrix by implicitly restarted Lanczos.

    The matrix is never formed: its matvec is an FFT product on the
    circulant embedding of the Hermitian part of z. The pairs come in no
    particular order, which ESPRIT and the trace identity do not need.
    Returns None when ARPACK does not converge.
    """
    p = z.window_size
    h = 0.5 * (z.values + np.conj(z.values[::-1]))  # lags -(P-1)..P-1
    n_fft = 1 << (2 * p - 2).bit_length()  # power of two >= 2P-1
    c = np.zeros(n_fft, dtype=complex)
    c[:p] = h[p - 1 :]  # lags 0..P-1
    c[n_fft - (p - 1) :] = h[: p - 1]  # lags -(P-1)..-1, wrapped
    c_hat = np.fft.fft(c)

    def matvec(x):
        return np.fft.ifft(c_hat * np.fft.fft(np.ravel(x), n_fft))[:p]

    op = LinearOperator((p, p), matvec=matvec, dtype=complex)
    v0 = np.random.default_rng(0).standard_normal(p).astype(complex)
    try:
        return eigsh(op, k=m, which="LA", v0=v0)
    except ArpackNoConvergence:
        return None


def nesprit(
    z: CoarraySignal,
    lam: float = 0.0,
    model_order: int | None = None,
    subtract_noise: bool = True,
) -> LineSpectrum:
    """Gridless recovery via ESPRIT on the Toeplitz lag matrix.

    Model order is the number of eigenvalues above ``lam`` unless given
    explicitly. Frequencies come from the eigenvalues of E1^+ E2 (shifted
    signal-subspace blocks); powers from least squares against z, after
    optionally subtracting the estimated noise floor from lag 0.

    The noise floor is the mean of the trailing P-M eigenvalues. With an
    explicit order 1 <= M < P-1 and P >= 128, only the top M eigenpairs are
    computed, by Lanczos (ARPACK) with an O(P log P) FFT matvec, and the
    noise floor follows exactly from the trace identity
    (P*Re z(0) - sum of the top M eigenvalues) / (P - M). Otherwise, or if
    ARPACK does not converge, a dense eigendecomposition of the P x P matrix
    is used: the rank-count rule behind ``model_order=None`` needs every
    eigenvalue.
    """
    p = z.window_size
    top = None
    if model_order is not None and p >= _LANCZOS_MIN_P and 0 < model_order < p - 1:
        top = _lanczos_eigenpairs(z, model_order)
    if top is not None:
        m = model_order
        evals, evecs = top
        noise = float((p * z.values[p - 1].real - evals.sum()) / (p - m))
    else:
        evals, evecs = _dense_eigenpairs(z)
        if model_order is None:
            m = int(np.count_nonzero(soft_threshold(evals, lam)))
        else:
            m = model_order
        noise = estimate_noise_floor(evals, m) if m < p else 0.0
    if m == 0:
        return LineSpectrum(lines=(), noise_estimate=noise)
    if m > p - 1:
        raise EstimationError(
            f"model order {m} exceeds P-1={p - 1}; subspace shift is rank-deficient"
        )
    em = evecs[:, :m]
    e1 = em[:-1, :]
    e2 = em[1:, :]
    beta = np.linalg.eigvals(np.linalg.pinv(e1, rcond=_SV_CUTOFF) @ e2)
    nu = np.angle(beta) / (2.0 * np.pi)
    nu = (nu + 0.5) % 1.0 - 0.5  # fold the branch point onto [-1/2, 1/2)
    zz = z.values.copy()
    if subtract_noise:
        zz[p - 1] -= noise
    abar = vandermonde_on_lags(nu, p)
    powers, *_ = np.linalg.lstsq(abar, zz, rcond=_SV_CUTOFF)
    lines = tuple(sorted(zip(nu.tolist(), np.real(powers).tolist())))
    return LineSpectrum(lines=lines, noise_estimate=noise)


def welch(
    uniform_snapshots: np.ndarray,
    segment_length: int | None = None,
    overlap: float = 0.0,
    window: str | np.ndarray = "boxcar",
) -> GridSpectrum:
    """Averaged periodogram over depth snapshots and time segments.

    Expects uniformly sampled slow-time data (Q x P). Defaults to a single
    full-length segment per snapshot, averaged over Q.
    """
    y = np.asarray(uniform_snapshots)
    if y.ndim != 2:
        raise EstimationError("expected a Q x P matrix of uniform slow-time samples")
    p = y.shape[1]
    if segment_length is None:
        segment_length = p
    if segment_length > p:
        raise EstimationError(
            f"segment length {segment_length} exceeds window size {p}"
        )
    if not 0.0 <= overlap < 1.0:
        raise EstimationError("overlap must be a fraction in [0, 1)")
    freqs, pxx = sp_signal.welch(
        y,
        fs=1.0,
        window=window,
        nperseg=segment_length,
        noverlap=int(overlap * segment_length),
        detrend=False,
        return_onesided=False,
        scaling="density",
        axis=1,
    )
    return GridSpectrum(pxx.mean(axis=0), freqs)


def zero_fill(snapshots_data: np.ndarray, slots, p: int) -> np.ndarray:
    """Embed sparse slow-time samples into a Q x P matrix, zeros elsewhere.

    This is an interpretation layer for running Welch on sparse data; the
    pattern's spectral window leaks into every bin, which is exactly the
    artifact the comparison experiments quantify.
    """
    q = snapshots_data.shape[0]
    full = np.zeros((q, p), dtype=complex)
    cols = np.asarray(slots, dtype=int) - 1
    if np.any(cols >= p):
        keep = cols < p  # co-prime slots beyond the window are dropped
        full[:, cols[keep]] = snapshots_data[:, keep]
    else:
        full[:, cols] = snapshots_data
    return full
