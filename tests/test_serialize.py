import json

import numpy as np
import pytest

from nestdop.coarray import CoarraySignal
from nestdop.estimators import GridSpectrum, LineSpectrum
from nestdop.patterns import build_coprime, build_nested, build_standard
from nestdop.serialize import (
    read_snapshots,
    write_coarray_csv,
    write_lines_csv,
    write_lines_json,
    write_pgm,
    write_snapshots,
    write_snapshots_csv,
    write_spectrum_csv,
    write_spectrum_json,
)
from nestdop.signals import ToneSet, generate_snapshots


class TestSnapshotContainer:
    def test_round_trip(self, tmp_path):
        pat = build_nested(3, 2)
        snaps = generate_snapshots(ToneSet(((0.2, 1.0),)), pat, 7, 0.3, rng_seed=1)
        path = tmp_path / "s.bin"
        write_snapshots(snaps, path)
        again = read_snapshots(path)
        np.testing.assert_array_equal(again.data, snaps.data)
        assert again.pattern.slots == pat.slots
        assert again.pattern.window_size == pat.window_size
        assert again.noise_power == snaps.noise_power

    def test_round_trip_coprime(self, tmp_path):
        pat = build_coprime(2, 5)
        snaps = generate_snapshots(ToneSet(((0.1, 1.0),)), pat, 3, 0.0, rng_seed=2)
        path = tmp_path / "s.bin"
        write_snapshots(snaps, path)
        again = read_snapshots(path)
        assert again.pattern.slots == pat.slots
        assert again.pattern.max_slot == 16

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"nope" + bytes(64))
        with pytest.raises(ValueError):
            read_snapshots(path)

    @staticmethod
    def _damaged(tmp_path, edit):
        # nested (3, 2): N=5 slots, Q=7 snapshots, so 28 + 4*5 + 16*7*5 = 608 bytes
        pat = build_nested(3, 2)
        snaps = generate_snapshots(ToneSet(((0.2, 1.0),)), pat, 7, 0.3, rng_seed=1)
        path = tmp_path / "s.bin"
        write_snapshots(snaps, path)
        path.write_bytes(edit(path.read_bytes()))
        return path

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw[:20], "expected at least 28 bytes, got 20"),
            (lambda raw: raw[:600], "expected 608 bytes for N=5, Q=7, got 600"),
            (lambda raw: raw + b"\0", "expected 608 bytes for N=5, Q=7, got 609"),
        ],
        ids=["cut_in_header", "cut_in_data", "trailing_bytes"],
    )
    def test_rejects_damaged_container(self, tmp_path, edit, message):
        path = self._damaged(tmp_path, edit)
        with pytest.raises(ValueError) as err:
            read_snapshots(path)
        assert str(err.value).startswith(f"{path}: ")
        assert str(err.value).endswith(message)

    def test_deterministic_bytes(self, tmp_path):
        pat = build_nested(3, 2)
        snaps = generate_snapshots(ToneSet(((0.2, 1.0),)), pat, 5, 0.1, rng_seed=9)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_snapshots(snaps, a)
        write_snapshots(snaps, b)
        assert a.read_bytes() == b.read_bytes()


class TestCsvWriters:
    def test_snapshots_csv(self, tmp_path):
        pat = build_standard(3)
        snaps = generate_snapshots(ToneSet(((0.1, 1.0),)), pat, 2, 0.0, rng_seed=0)
        path = tmp_path / "s.csv"
        write_snapshots_csv(snaps, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "snapshot,slot,re,im"
        assert len(lines) == 1 + 2 * 3

    def test_coarray_csv_exact_floats(self, tmp_path):
        z = CoarraySignal(2, np.array([1 - 1j, 0.1 + 0j, 1 + 1j]))
        path = tmp_path / "z.csv"
        write_coarray_csv(z, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "-1,1.0,-1.0"
        assert lines[2] == "0,0.1,0.0"  # repr keeps 0.1 exact

    def test_spectrum_csv(self, tmp_path):
        spec = GridSpectrum(np.array([1.0, 0.5, 0.25]))
        path = tmp_path / "p.csv"
        write_spectrum_csv(spec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin,frequency,power"
        assert len(lines) == 4

    def test_lines_csv(self, tmp_path):
        spec = LineSpectrum(lines=((0.1, 1.0), (-0.2, 0.5)), noise_estimate=0.01)
        path = tmp_path / "l.csv"
        write_lines_csv(spec, path)
        assert path.read_text().splitlines()[1] == "0.1,1.0"


class TestJsonWriters:
    def test_spectrum_json(self, tmp_path):
        spec = GridSpectrum(np.array([1.0, 0.5]))
        path = tmp_path / "p.json"
        write_spectrum_json(spec, path)
        doc = json.loads(path.read_text())
        assert doc["powers"] == [1.0, 0.5]

    def test_lines_json(self, tmp_path):
        spec = LineSpectrum(lines=((0.1, 1.0),), noise_estimate=0.2)
        path = tmp_path / "l.json"
        write_lines_json(spec, path)
        doc = json.loads(path.read_text())
        assert doc["model_order"] == 1
        assert doc["noise_estimate"] == 0.2


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "i.pgm"
        write_pgm(img, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert raw[len(b"P5\n4 3\n255\n"):] == img.tobytes()

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(np.zeros((2, 2)), tmp_path / "x.pgm")
        with pytest.raises(ValueError):
            write_pgm(np.zeros(4, dtype=np.uint8), tmp_path / "x.pgm")
