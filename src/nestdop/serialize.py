"""File formats: snapshot container, CSV/JSON spectra, PGM images.

CSV output is written with repr-exact floats so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .coarray import CoarraySignal
from .estimators import GridSpectrum, LineSpectrum
from .patterns import EmissionPattern, Family
from .signals import SlowTimeSnapshots

_SNAPSHOT_MAGIC = b"NDSS"
_SNAPSHOT_VERSION = 1
_HEADER_BYTES = 28  # magic + "<IIIId" (version, P, N, Q, noise power)


def write_snapshots(snapshots: SlowTimeSnapshots, path) -> None:
    """Binary container: header (P, N, Q, slots) + row-major re/im float64."""
    pat = snapshots.pattern
    q, n = snapshots.data.shape
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_MAGIC)
        fh.write(
            struct.pack(
                "<IIIId",
                _SNAPSHOT_VERSION,
                pat.window_size,
                n,
                q,
                snapshots.noise_power,
            )
        )
        fh.write(struct.pack(f"<{n}I", *pat.slots))
        fh.write(np.ascontiguousarray(snapshots.data, dtype=np.complex128).tobytes())


def read_snapshots(path) -> SlowTimeSnapshots:
    raw = Path(path).read_bytes()
    if raw[:4] != _SNAPSHOT_MAGIC:
        raise ValueError(f"{path} is not a snapshot container")
    if len(raw) < _HEADER_BYTES:
        raise ValueError(
            f"{path}: truncated header: expected at least {_HEADER_BYTES} bytes, "
            f"got {len(raw)}"
        )
    version, p, n, q, noise_power = struct.unpack_from("<IIIId", raw, 4)
    if version != _SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    size = _HEADER_BYTES + 4 * n + 16 * q * n
    if len(raw) != size:
        raise ValueError(f"{path}: expected {size} bytes for N={n}, Q={q}, got {len(raw)}")
    slots = struct.unpack_from(f"<{n}I", raw, _HEADER_BYTES)
    data = np.frombuffer(raw, dtype=np.complex128, offset=_HEADER_BYTES + 4 * n).reshape(q, n)
    pattern = EmissionPattern(
        window_size=p, slots=slots, family=_guess_family(slots, p)
    )
    return SlowTimeSnapshots(pattern=pattern, data=data.copy(), noise_power=noise_power)


def _guess_family(slots, p) -> Family:
    # the container does not carry family metadata; only the slot set matters
    if slots == tuple(range(1, p + 1)):
        return Family.STANDARD
    return Family.NESTED if slots[-1] <= p else Family.COPRIME


def write_snapshots_csv(snapshots: SlowTimeSnapshots, path) -> None:
    with open(path, "w") as fh:
        fh.write("snapshot,slot,re,im\n")
        for k, row in enumerate(snapshots.data):
            for slot, v in zip(snapshots.pattern.slots, row):
                fh.write(f"{k},{slot},{float(v.real)!r},{float(v.imag)!r}\n")


def write_coarray_csv(z: CoarraySignal, path) -> None:
    with open(path, "w") as fh:
        fh.write("lag,re,im\n")
        for lag, v in zip(z.lags, z.values):
            fh.write(f"{lag},{float(v.real)!r},{float(v.imag)!r}\n")


def write_spectrum_csv(spectrum: GridSpectrum, path) -> None:
    with open(path, "w") as fh:
        fh.write("bin,frequency,power\n")
        for i, (nu, p) in enumerate(zip(spectrum.frequencies, spectrum.powers)):
            fh.write(f"{i},{float(nu)!r},{float(p)!r}\n")


def write_spectrum_json(spectrum: GridSpectrum, path) -> None:
    doc = {
        "frequencies": [float(f) for f in spectrum.frequencies],
        "powers": [float(p) for p in spectrum.powers],
    }
    Path(path).write_text(json.dumps(doc))


def write_lines_csv(lines: LineSpectrum, path) -> None:
    with open(path, "w") as fh:
        fh.write("frequency,power\n")
        for nu, p in lines.lines:
            fh.write(f"{float(nu)!r},{float(p)!r}\n")


def write_lines_json(lines: LineSpectrum, path) -> None:
    doc = {
        "lines": [[float(nu), float(p)] for nu, p in lines.lines],
        "model_order": lines.model_order,
        "noise_estimate": float(lines.noise_estimate),
    }
    Path(path).write_text(json.dumps(doc))


def write_pgm(image: np.ndarray, path) -> None:
    """Binary PGM (P5), expects a 2-D uint8 array."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("PGM writer expects a 2-D uint8 array")
    rows, cols = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
