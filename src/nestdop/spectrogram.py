"""Spectrogram assembly, ridge extraction and grayscale rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import GridSpectrum, circular_distance, nearest_bins
from .serialize import write_pgm

FLOOR_DB = -60.0  # image black level, in dB below the global maximum


@dataclass(frozen=True)
class Spectrogram(GridSpectrum):
    """A frames x bins stack of grid spectra with run metadata.

    Row t, ``gram[t]``, is the ``GridSpectrum`` of CPI t.
    """

    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.powers.ndim != 2 or len(self.powers) == 0:
            raise ValueError("spectrogram needs a frames x bins array with at least one frame")

    def ridge(self) -> np.ndarray:
        """Peak normalized frequency per frame."""
        return self.frequencies[np.argmax(self.powers, axis=1)]

    def power_matrix(self) -> np.ndarray:
        """Bins x frames matrix, rows ordered by ascending center frequency."""
        return np.fft.fftshift(self.powers, axes=1).T

    def to_image(self) -> np.ndarray:
        """Grayscale dB image: rows = frequency (negative at top), cols = CPI.

        The global max maps to 0 dB (white); ``FLOOR_DB`` maps to black.
        """
        mat = self.power_matrix()
        top = float(mat.max())
        if top <= 0:
            return np.zeros(mat.shape, dtype=np.uint8)
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(np.maximum(mat, 0.0) / top)
        db = np.clip(db, FLOOR_DB, 0.0)
        return np.round((db - FLOOR_DB) / (-FLOOR_DB) * 255.0).astype(np.uint8)

    def write_pgm(self, path) -> None:
        write_pgm(self.to_image(), path)

    def write_csv(self, path) -> None:
        freqs = np.fft.fftshift(self.frequencies)
        with open(path, "w") as fh:
            fh.write("frequency," + ",".join(f"cpi{t}" for t in range(len(self.powers))) + "\n")
            for nu, row in zip(freqs, self.power_matrix()):
                fh.write(
                    f"{float(nu)!r},"
                    + ",".join(repr(float(v)) for v in row)
                    + "\n"
                )


def ridge_bin_errors(spectrogram: Spectrogram, true_freqs) -> np.ndarray:
    """Distance in grid bins between each frame's peak and the truth."""
    n = spectrogram.num_bins
    diff = np.abs(np.argmax(spectrogram.powers, axis=1) - nearest_bins(true_freqs, n))
    return np.minimum(diff, n - diff)  # circular grid


def out_of_support_ratio(
    spectrogram: Spectrogram, true_freqs, halfwidth: float
) -> float:
    """Fraction of total energy outside +-halfwidth of the true ridge.

    Frequency halfwidth is in normalized-frequency units so estimators
    with different grid densities can be compared.
    """
    freqs = spectrogram.frequencies
    total = 0.0
    outside = 0.0
    for row, nu in zip(spectrogram.powers, true_freqs):
        total += float(row.sum())
        outside += float(row[circular_distance(freqs, nu) > halfwidth].sum())
    if total <= 0:
        return 0.0
    return outside / total
