import numpy as np
import pytest

from nestdop.estimators import GridSpectrum
from nestdop.experiments import profile_ridge, sinusoidal_profile
from nestdop.spectrogram import (
    Spectrogram,
    out_of_support_ratio,
    ridge_bin_errors,
)
from nestdop.units import PhysicalParams


def spectrum_with_peak(n_bins, k, power=1.0, floor=0.0):
    powers = np.full(n_bins, floor)
    powers[k] += power
    return powers


def make_gram(peaks, n_bins=9, **kw):
    return Spectrogram(np.array([spectrum_with_peak(n_bins, k, **kw) for k in peaks]))


class TestSpectrogram:
    def test_ridge(self):
        gram = make_gram([0, 2, 4])
        freqs = np.fft.fftfreq(9)
        np.testing.assert_allclose(gram.ridge(), freqs[[0, 2, 4]])

    def test_ridge_tie_takes_lower_fft_order_bin(self):
        # bins 1 (+1/9) and 8 (-1/9) tie; in the centered order -1/9 comes first
        powers = np.zeros((1, 9))
        powers[0, [1, 8]] = 1.0
        gram = Spectrogram(powers)
        assert gram.ridge()[0] == np.fft.fftfreq(9)[1]
        np.testing.assert_array_equal(ridge_bin_errors(gram, [1 / 9]), [0])

    def test_frame_is_its_grid_spectrum(self):
        gram = make_gram([0, 2, 7], floor=0.5)
        assert isinstance(gram, GridSpectrum)
        for t, row in enumerate(gram.powers):
            frame = gram[t]
            assert type(frame) is GridSpectrum
            np.testing.assert_array_equal(frame.powers, row)
            assert frame.peak_frequency() == gram.ridge()[t]

    def test_power_matrix_shape_and_order(self):
        gram = make_gram([1, 3])
        mat = gram.power_matrix()
        assert mat.shape == (9, 2)
        # row 4 of the centered grid is DC for 9 bins
        assert mat[4 + 1, 0] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Spectrogram(np.empty((0, 9)))

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            Spectrogram(np.ones(9))

    def test_to_image_range(self):
        gram = make_gram([0, 4], power=1.0, floor=1e-9)
        img = gram.to_image()
        assert img.dtype == np.uint8
        assert img.max() == 255
        assert img.min() == 0

    def test_write_csv_deterministic(self, tmp_path):
        gram = make_gram([0, 4])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        gram.write_csv(a)
        gram.write_csv(b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "frequency,cpi0,cpi1"


class TestRidgeErrors:
    def test_exact_match(self):
        freqs = np.fft.fftfreq(9)
        gram = make_gram([2, 5])
        errors = ridge_bin_errors(gram, freqs[[2, 5]])
        np.testing.assert_array_equal(errors, [0, 0])

    def test_circular_distance(self):
        freqs = np.fft.fftfreq(9)
        gram = make_gram([0])
        # last bin is one step from bin 0 on the circle
        assert ridge_bin_errors(gram, [freqs[8]])[0] == 1


class TestOutOfSupport:
    def test_all_inside(self):
        freqs = np.fft.fftfreq(9)
        gram = make_gram([3])
        assert out_of_support_ratio(gram, freqs[[3]], halfwidth=0.01) == 0.0

    def test_split_energy(self):
        n = 9
        powers = np.zeros(n)
        powers[0] = 3.0
        powers[4] = 1.0
        gram = Spectrogram(powers[np.newaxis])
        ratio = out_of_support_ratio(gram, [0.0], halfwidth=0.05)
        assert ratio == pytest.approx(0.25)


class TestSinusoidalProfile:
    def test_ridge_follows_sine(self):
        prof = sinusoidal_profile(8, base_frequency=0.1, swing=0.05)
        ridge = profile_ridge(prof)
        assert len(ridge) == 8
        assert ridge.max() <= 0.15 + 1e-12
        assert ridge.min() >= 0.05 - 1e-12
        assert ridge[0] == pytest.approx(0.1)

    def test_clutter_attached(self):
        prof = sinusoidal_profile(3, clutter_frequency=0.01, clutter_db=40.0)
        eff = prof.frames[0].effective_tones()
        assert eff.tones[-1][0] == 0.01


class TestPhysicalParams:
    def test_round_trip(self):
        ph = PhysicalParams(f0_hz=5e6, fprf_hz=2000.0)
        v = 0.25
        assert ph.velocity(ph.normalized_frequency(v)) == pytest.approx(v)

    def test_sign_convention(self):
        ph = PhysicalParams(f0_hz=5e6, fprf_hz=2000.0)
        # motion away from the transducer gives a negative Doppler shift
        assert ph.normalized_frequency(0.1) < 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhysicalParams(f0_hz=0.0, fprf_hz=1.0)
