"""Power spectrum recovery from the coarray signal.

Three estimators: a dense-grid one (FFT over the coarray lags with soft
thresholding), a gridless one (subspace recovery via ESPRIT on the
Toeplitz lag matrix), and a Welch baseline for uniformly sampled data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .coarray import CoarraySignal, build_toeplitz
from .memo import memo


class EstimationError(ValueError):
    """Estimator precondition violated."""


def soft_threshold(x: np.ndarray, lam: float) -> np.ndarray:
    return np.maximum(x - lam, 0.0)


def circular_distance(frequencies: np.ndarray, nu: float) -> np.ndarray:
    """Distance from each normalized frequency to ``nu`` on the unit circle."""
    return np.abs((frequencies - nu + 0.5) % 1.0 - 0.5)


def nearest_bins(nus, num_bins: int) -> np.ndarray:
    """Index of the ``fftfreq(num_bins)`` bin nearest each of ``nus``, the lower index on a tie."""
    freqs = np.fft.fftfreq(num_bins)
    return np.argmin(circular_distance(freqs, np.asarray(nus, float)[..., None]), axis=-1)


@dataclass(frozen=True)
class GridSpectrum:
    """Nonnegative power per bin of an FFT grid.

    Bin i maps to the normalized frequency ``np.fft.fftfreq(num_bins)[i]``
    in [-1/2, 1/2); bins are stored in FFT order (DC first). A stack of T
    spectra has T x num_bins powers; ``spec[t]`` is the spectrum of CPI t.
    """

    powers: np.ndarray

    def __getitem__(self, t: int) -> "GridSpectrum":
        return GridSpectrum(self.powers[t])

    @property
    def num_bins(self) -> int:
        return self.powers.shape[-1]

    @property
    def frequencies(self) -> np.ndarray:
        return np.fft.fftfreq(self.num_bins)

    def peak_bin(self) -> int:
        if self.powers.ndim != 1:
            raise EstimationError(f"peak of a {self.powers.shape} stack of spectra: index one")
        return int(np.argmax(self.powers))

    def peak_frequency(self) -> float:
        """``frequencies[peak_bin()]`` bit for bit, by fftfreq's own arithmetic on that bin."""
        n, i = self.num_bins, self.peak_bin()
        return (i if i < (n + 1) // 2 else i - n) * (1.0 / n)

    def nearest_bin(self, nu: float) -> int:
        return int(nearest_bins(nu, self.num_bins))


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
        powers = np.zeros(num_bins)
        bins = nearest_bins([nu for nu, _ in self.lines], num_bins)
        for b, (_, p) in zip(bins, self.lines):
            powers[b] += max(p, 0.0)
        return GridSpectrum(powers)


def nest(z: CoarraySignal, lam: float = 0.0) -> GridSpectrum:
    """Grid-based recovery: scaled DFT of the coarray signal, soft-thresholded.

    The 2P-1 lags form a complete residue system, so the DFT grid is twice
    as dense as standard processing. The DFT of a conjugate-symmetric z is
    real; the imaginary residue is floating-point noise and is dropped
    before thresholding. A stack of coarrays gives a stack of spectra, by
    one FFT over the rows.
    """
    p = z.window_size
    pt = 2 * p - 1
    x = np.empty(z.values.shape, dtype=complex)
    x[..., z.lags % pt] = z.values
    powers = soft_threshold(np.real(np.fft.fft(x)) / pt, lam)
    return GridSpectrum(powers)


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


def _dense_eigenpairs(h: CoarraySignal) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of the Toeplitz matrix of a Hermitian h, descending; stacked for a stack."""
    evals, evecs = np.linalg.eigh(build_toeplitz(h))
    return evals[..., ::-1], evecs[..., ::-1]


def _lanczos_eigenpairs(
    h: CoarraySignal, m: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Top-m eigenpairs of the same matrix by implicitly restarted Lanczos.

    The matrix is never formed: its matvec is an FFT product on the
    circulant embedding of h. The pairs come in no particular order, which
    ESPRIT and the trace identity do not need. Returns None when ARPACK
    does not converge.
    """
    p = h.window_size
    n_fft = 1 << (2 * p - 2).bit_length()  # power of two >= 2P-1
    c = np.zeros(n_fft, dtype=complex)
    c[:p] = h.values[p - 1 :]  # lags 0..P-1
    c[n_fft - (p - 1) :] = h.values[: p - 1]  # lags -(P-1)..-1, wrapped
    c_hat = np.fft.fft(c)

    def matvec(x):
        return np.fft.ifft(c_hat * np.fft.fft(np.ravel(x), n_fft))[:p]

    op = LinearOperator((p, p), matvec=matvec, dtype=complex)
    try:
        return eigsh(op, k=m, which="LA", v0=_start_vector(p))
    except ArpackNoConvergence:
        return None


@memo(key=lambda p: p)
def _start_vector(p: int) -> np.ndarray:
    """ARPACK's fixed start vector for a P x P problem, built once per P in a process."""
    return np.random.default_rng(0).standard_normal(p).astype(complex)


def _signal_subspaces(h: CoarraySignal, lam: float, model_order: int | None) -> tuple[list, list]:
    """Noise floor per row of h, and (rows, signal-subspace bases) groups of one order each.

    The one place that picks the solver and the order. ARPACK cannot start
    on an all-zero row, so such a row takes the dense path.
    """
    p = h.window_size
    rows = h.values.reshape(-1, 2 * p - 1)
    noise = [0.0] * len(rows)
    groups = []
    dense = list(range(len(rows)))
    if model_order is not None and p >= _LANCZOS_MIN_P and 0 < model_order < p - 1:
        dense = []
        for t, row in enumerate(rows):
            top = _lanczos_eigenpairs(h.with_values(row), model_order) if row.any() else None
            if top is None:
                dense.append(t)
                continue
            evals, evecs = top
            # Re h(0) is Re z(0) bit for bit: 0.5 * (a + a) == a for finite a
            noise[t] = float((p * row[p - 1].real - evals.sum()) / (p - model_order))
            groups.append(([t], evecs[None]))
    if dense:
        evals, evecs = _dense_eigenpairs(
            h if len(dense) == len(rows) else h.with_values(rows[dense])
        )
        evals, evecs = evals.reshape(-1, p), evecs.reshape(-1, p, p)
        if model_order is None:
            orders = np.count_nonzero(soft_threshold(evals, lam), axis=-1)
        else:
            orders = np.full(len(dense), model_order)
        if orders.max() > p - 1:
            raise EstimationError(
                f"model order {orders.max()} exceeds P-1={p - 1}; "
                "subspace shift is rank-deficient"
            )
        for t, ev, m in zip(dense, evals, orders):
            noise[t] = estimate_noise_floor(ev, m)
        for m in np.unique(orders):
            sel = np.flatnonzero(orders == m)
            # a fancy-indexed copy, then the column slice: evecs[sel, :, :m] gives other bits
            groups.append(([dense[i] for i in sel], evecs[sel][..., :m]))
    return noise, groups


def nesprit(
    z: CoarraySignal,
    lam: float = 0.0,
    model_order: int | None = None,
    subtract_noise: bool = True,
) -> LineSpectrum | tuple[LineSpectrum, ...]:
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
    ARPACK does not converge, or if the coarray's Hermitian part is all
    zeros, a dense eigendecomposition of the P x P matrix is used: the
    rank-count rule behind ``model_order=None`` needs every eigenvalue.

    A stack of T coarrays gives a tuple of T line spectra, each bit for bit
    the one its coarray gives alone. The dense eigendecompositions run once
    per stack, and the ESPRIT step once per group of rows of one order;
    Lanczos and the least squares run per coarray.
    """
    p = z.window_size
    # Hermitian part of z, lags -(P-1)..P-1: its Toeplitz matrix is the eigenproblem
    h = z.with_values(0.5 * (z.values + np.conj(z.values[..., ::-1])))
    noise, groups = _signal_subspaces(h, lam, model_order)
    values = z.values.reshape(-1, 2 * p - 1)
    spectra = [LineSpectrum(lines=(), noise_estimate=n) for n in noise]
    for group, em in groups:
        if em.shape[-1] == 0:
            continue
        beta = np.linalg.eigvals(np.linalg.pinv(em[:, :-1], rcond=_SV_CUTOFF) @ em[:, 1:])
        nus = np.angle(beta) / (2.0 * np.pi)
        nus = (nus + 0.5) % 1.0 - 0.5  # fold the branch point onto [-1/2, 1/2)
        for t, nu in zip(group, nus):
            zz = values[t].copy()
            if subtract_noise:
                zz[p - 1] -= noise[t]
            powers, *_ = np.linalg.lstsq(vandermonde_on_lags(nu, p), zz, rcond=_SV_CUTOFF)
            lines = tuple(sorted(zip(nu.tolist(), np.real(powers).tolist())))
            spectra[t] = LineSpectrum(lines=lines, noise_estimate=noise[t])
    return tuple(spectra) if z.values.ndim > 1 else spectra[0]


def welch(uniform_snapshots: np.ndarray) -> GridSpectrum:
    """Full-window periodogram of each depth snapshot, averaged over them.

    Expects uniformly sampled slow-time data (Q x P); each snapshot is one
    boxcar segment of P samples, so the grid is the P-point FFT grid. The
    powers are ``x = fft(y * (1.0 / sqrt(P)))``, then ``x.real**2 +
    x.imag**2`` averaged over the snapshots (``sqrt(1.0 / P)`` gives other
    bits). That is the two-sided density of ``scipy.signal.welch(y,
    window="boxcar", nperseg=P, noverlap=0, detrend=False, axis=1)`` bit for
    bit, as checked against scipy 1.17.1 (``pyproject.toml`` allows
    scipy>=1.10). A T x Q x P stack gives a stack of T spectra, by one FFT.
    """
    y = np.asarray(uniform_snapshots)
    if y.ndim not in (2, 3):
        raise EstimationError("expected a Q x P matrix of uniform slow-time samples")
    q, p = y.shape[-2:]
    if q == 0 or p == 0:
        raise EstimationError(f"Welch needs a nonempty Q x P matrix, got {q} x {p}")
    x = np.fft.fft(y * (1.0 / np.sqrt(p)), axis=-1)
    return GridSpectrum((x.real**2 + x.imag**2).mean(axis=-2))


def zero_fill(snapshots_data: np.ndarray, slots, p: int) -> np.ndarray:
    """Embed sparse slow-time samples into a Q x P matrix, zeros elsewhere.

    This is an interpretation layer for running Welch on sparse data; the
    pattern's spectral window leaks into every bin, which is exactly the
    artifact the comparison experiments quantify. A T x Q x N stack gives
    T x Q x P.
    """
    full = np.zeros(snapshots_data.shape[:-1] + (p,), dtype=complex)
    cols = np.asarray(slots, dtype=int) - 1
    keep = cols < p  # co-prime slots beyond the window are dropped
    full[..., cols[keep]] = snapshots_data[..., keep]
    return full
