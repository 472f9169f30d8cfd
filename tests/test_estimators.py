import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal
from scipy.linalg import toeplitz
from scipy.sparse.linalg import ArpackNoConvergence

from nestdop import estimators
from nestdop.coarray import (
    CoarraySignal,
    CovarianceEstimate,
    build_toeplitz,
    estimate_covariance,
    lag_average,
)
from nestdop.estimators import (
    EstimationError,
    GridSpectrum,
    LineSpectrum,
    circular_distance,
    estimate_noise_floor,
    nearest_bins,
    nesprit,
    nest,
    soft_threshold,
    vandermonde_on_lags,
    welch,
    zero_fill,
)
from nestdop.patterns import (
    build_coprime,
    build_nested,
    build_standard,
    difference_set,
    optimal_nested,
)
from nestdop.signals import ToneSet, analytic_covariance, generate_snapshots


def exact_coarray(pattern, tones, noise_power=0.0):
    cov = analytic_covariance(tones, pattern, noise_power)
    est = CovarianceEstimate(matrix=cov, q_used=0, mean_removed=False)
    return lag_average(est, difference_set(pattern))


def grid_frequency(p, k):
    """Frequency of dense-grid bin k for window size p."""
    return np.fft.fftfreq(2 * p - 1)[k]


def scipy_welch(y):
    """The scipy call ``welch`` replaced, averaged over the snapshots."""
    _, pxx = signal.welch(
        y,
        fs=1.0,
        window="boxcar",
        nperseg=y.shape[1],
        noverlap=0,
        detrend=False,
        return_onesided=False,
        scaling="density",
        axis=1,
    )
    return pxx.mean(axis=0)


def complex_normal(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestSoftThreshold:
    def test_values(self):
        x = np.array([-1.0, 0.0, 0.3, 2.0])
        np.testing.assert_allclose(soft_threshold(x, 0.5), [0.0, 0.0, 0.0, 1.5])

    def test_zero_lambda_keeps_positive_part(self):
        x = np.array([-2.0, 1.0])
        np.testing.assert_allclose(soft_threshold(x, 0.0), [0.0, 1.0])


class TestGridSpectrum:
    def test_nearest_bin_is_circular(self):
        spec = GridSpectrum(np.zeros(10))
        # -0.5 and +0.5 are the same point on the circle
        assert spec.nearest_bin(0.499) == spec.nearest_bin(-0.499)

    def test_nearest_bins_matches_per_frequency_argmin(self):
        for n in [*range(1, 65), 2047]:
            grid = np.fft.fftfreq(n)
            points = np.concatenate([grid, grid + 0.5 / n])
            nus = np.concatenate(
                [points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)]
            )
            want = [np.argmin(circular_distance(grid, nu)) for nu in nus]
            np.testing.assert_array_equal(nearest_bins(nus, n), want, err_msg=str(n))
            assert [nearest_bins(float(nu), n) for nu in nus] == want, n

    def test_peak_of_a_stack_raises(self):
        powers = np.zeros((2, 9))
        powers[1, 4] = 1.0
        with pytest.raises(EstimationError, match=r"\(2, 9\)"):
            GridSpectrum(powers).peak_bin()
        with pytest.raises(EstimationError):
            GridSpectrum(powers).peak_frequency()
        assert GridSpectrum(powers)[1].peak_bin() == 4

    def test_peak_frequency_is_the_fftfreq_bin_bit_for_bit(self):
        for n in [*range(1, 65), 2047]:
            grid = np.fft.fftfreq(n)
            for i in range(n):
                powers = np.zeros(n)
                powers[i] = 1.0
                got = GridSpectrum(powers).peak_frequency()
                assert type(got) is float
                assert got.hex() == float(grid[i]).hex(), (n, i)


class TestLineSpectrum:
    def test_dominant_frequency(self):
        spec = LineSpectrum(lines=((0.1, 1.0), (0.3, 2.0)))
        assert spec.dominant_frequency() == 0.3

    def test_empty_dominant_raises(self):
        with pytest.raises(EstimationError):
            LineSpectrum(lines=()).dominant_frequency()

    def test_rasterize_places_power(self):
        spec = LineSpectrum(lines=((0.25, 2.0),))
        grid = spec.rasterize(8)
        assert grid.powers.sum() == 2.0
        assert grid.frequencies[grid.peak_bin()] == pytest.approx(0.25)

    def test_rasterize_ignores_negative_power(self):
        grid = LineSpectrum(lines=((0.1, -0.5),)).rasterize(16)
        assert grid.powers.sum() == 0.0


class TestNest:
    def test_on_grid_tone_single_bin(self):
        pat = build_nested(3, 4)
        p = pat.window_size
        k = 5
        nu = grid_frequency(p, k)
        z = exact_coarray(pat, ToneSet(((nu, 2.5),)))
        spec = nest(z)
        assert spec.peak_bin() == k
        assert spec.powers[k] == pytest.approx(2.5, abs=1e-10)
        others = np.delete(spec.powers, k)
        np.testing.assert_allclose(others, 0.0, atol=1e-10)

    def test_grid_is_twice_as_dense(self):
        pat = build_nested(4, 4)
        z = exact_coarray(pat, ToneSet(((0.1, 1.0),)))
        assert nest(z).num_bins == 2 * pat.window_size - 1

    def test_noise_spreads_evenly(self):
        pat = build_nested(3, 4)
        p = pat.window_size
        sigma2 = 0.8
        z = exact_coarray(pat, ToneSet(()), sigma2)
        spec = nest(z)
        np.testing.assert_allclose(spec.powers, sigma2 / (2 * p - 1), atol=1e-12)

    def test_threshold_removes_noise_floor(self):
        pat = build_nested(3, 4)
        p = pat.window_size
        sigma2 = 0.8
        k = 3
        z = exact_coarray(pat, ToneSet(((grid_frequency(p, k), 1.0),)), sigma2)
        lam = sigma2 / (2 * p - 1) + 1e-9
        spec = nest(z, lam)
        assert np.count_nonzero(spec.powers) == 1
        assert spec.peak_bin() == k

    def test_multi_tone_powers(self):
        pat = build_nested(4, 3)
        p = pat.window_size
        bins = [2, 9, 17]
        powers = [1.0, 0.4, 2.2]
        tones = ToneSet(
            tuple((grid_frequency(p, k), pw) for k, pw in zip(bins, powers))
        )
        spec = nest(exact_coarray(pat, tones))
        for k, pw in zip(bins, powers):
            assert spec.powers[k] == pytest.approx(pw, abs=1e-10)

    def test_pattern_invariance_same_window(self):
        # two optimal patterns for the same window recover the same spectrum
        # from analytic input
        tones = ToneSet(((0.2, 1.0), (-0.31, 0.5)))
        a = nest(exact_coarray(build_nested(15, 8), tones, 0.1))
        b = nest(exact_coarray(build_nested(7, 16), tones, 0.1))
        np.testing.assert_allclose(a.powers, b.powers, atol=1e-10)


class TestNoiseFloor:
    def test_mean_of_trailing(self):
        assert estimate_noise_floor(np.array([5.0, 1.0, 1.0, 1.0]), 1) == 1.0

    def test_m_zero_uses_all(self):
        assert estimate_noise_floor(np.array([2.0, 4.0]), 0) == 3.0

    def test_m_too_large(self):
        with pytest.raises(EstimationError):
            estimate_noise_floor(np.array([1.0, 2.0]), 2)


class TestNesprit:
    def test_noiseless_precision(self):
        pat = build_nested(3, 4)
        nu = 0.2
        spec = nesprit(exact_coarray(pat, ToneSet(((nu, 1.0),))), lam=1e-6)
        assert spec.model_order == 1
        freq, power = spec.lines[0]
        assert abs(freq - nu) < 1e-12
        assert power == pytest.approx(1.0, abs=1e-9)

    def test_off_grid_frequency(self):
        # a frequency between dense-grid bins is still recovered exactly
        pat = build_nested(4, 4)
        p = pat.window_size
        nu = grid_frequency(p, 4) + 0.37 / (2 * p - 1)
        spec = nesprit(exact_coarray(pat, ToneSet(((nu, 1.3),))), lam=1e-6)
        assert abs(spec.dominant_frequency() - nu) < 1e-10

    def test_two_tones_with_noise_floor(self):
        pat = build_nested(4, 4)
        sigma2 = 0.25
        tones = ToneSet(((0.11, 1.0), (-0.27, 0.6)))
        spec = nesprit(exact_coarray(pat, tones, sigma2), lam=0.5)
        assert spec.model_order == 2
        assert spec.noise_estimate == pytest.approx(sigma2, abs=1e-9)
        got = dict(spec.lines)
        assert min(abs(f - 0.11) for f in got) < 1e-9
        assert min(abs(f + 0.27) for f in got) < 1e-9
        np.testing.assert_allclose(sorted(got.values()), [0.6, 1.0], atol=1e-8)

    def test_resolves_half_bin_separation(self):
        # separation below the standard-resolution limit 1/P but above the
        # dense-grid limit: subspace recovery still separates the pair
        pat = build_nested(4, 4)
        p = pat.window_size
        delta = 1.0 / (2 * p - 1)
        tones = ToneSet(((0.1, 1.0), (0.1 + delta, 1.0)))
        spec = nesprit(exact_coarray(pat, tones), model_order=2)
        freqs = sorted(f for f, _ in spec.lines)
        assert abs(freqs[0] - 0.1) < 1e-8
        assert abs(freqs[1] - (0.1 + delta)) < 1e-8

    def test_explicit_model_order_zero(self):
        pat = build_nested(3, 2)
        spec = nesprit(exact_coarray(pat, ToneSet(()), 1.0), model_order=0)
        assert spec.lines == ()
        assert spec.noise_estimate == pytest.approx(1.0)

    def test_model_order_too_large(self):
        pat = build_nested(3, 2)
        z = exact_coarray(pat, ToneSet(((0.1, 1.0),)))
        with pytest.raises(EstimationError):
            nesprit(z, model_order=pat.window_size)

    def test_lambda_selects_order(self):
        pat = build_nested(4, 4)
        sigma2 = 0.1
        tones = ToneSet(((0.15, 1.0), (-0.2, 0.8), (0.4, 0.9)))
        spec = nesprit(exact_coarray(pat, tones, sigma2), lam=0.5)
        assert spec.model_order == 3

    def test_sampled_data_close(self):
        pat = build_nested(4, 4)
        nu = 0.23
        snaps = generate_snapshots(ToneSet(((nu, 1.0),)), pat, 4000, 0.1, rng_seed=3)
        z = lag_average(estimate_covariance(snaps), difference_set(pat))
        spec = nesprit(z, model_order=1)
        assert abs(spec.dominant_frequency() - nu) < 5e-3


def dense_nesprit_reference(z, orders):
    """nesprit before the Lanczos path (full eigh, ESPRIT, least squares),
    as {model order: (sorted lines, noise floor)}."""
    p = z.window_size
    r = toeplitz(z.values[p - 1 :], z.values[p - 1 :: -1])  # entry (i, j) = z(i - j)
    evals, evecs = np.linalg.eigh(0.5 * (r + r.conj().T))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    out = {}
    for m in orders:
        noise = float(np.mean(evals[m:]))
        em = evecs[:, :m]
        beta = np.linalg.eigvals(np.linalg.pinv(em[:-1], rcond=1e-10) @ em[1:])
        nu = (np.angle(beta) / (2.0 * np.pi) + 0.5) % 1.0 - 0.5
        zz = z.values.copy()
        zz[p - 1] -= noise
        powers, *_ = np.linalg.lstsq(vandermonde_on_lags(nu, p), zz, rcond=1e-10)
        out[m] = (sorted(zip(nu.tolist(), np.real(powers).tolist())), noise)
    return out


def sampled_coarray(p, seed=0):
    pat = build_nested(*optimal_nested(p))
    tones = ToneSet(((0.21, 1.0), (-0.13, 0.7), (0.37, 0.4)))
    snaps = generate_snapshots(tones, pat, 100, 0.1, rng_seed=seed)
    return lag_average(estimate_covariance(snaps), difference_set(pat))


def _no_call(*args, **kwargs):
    raise AssertionError("solver must not run on this path")


class TestNespritLanczos:
    @pytest.mark.parametrize("p", [128, 256, 1024])
    def test_matches_dense_reference(self, p, monkeypatch):
        z = sampled_coarray(p)
        refs = dense_nesprit_reference(z, (1, 2, 3))
        monkeypatch.setattr(estimators, "_dense_eigenpairs", _no_call)
        for m, (ref_lines, ref_noise) in refs.items():
            spec = nesprit(z, model_order=m)
            assert spec.model_order == m
            got, want = np.array(spec.lines), np.array(ref_lines)
            np.testing.assert_allclose(got[:, 0], want[:, 0], rtol=0, atol=1e-10)
            np.testing.assert_allclose(got[:, 1], want[:, 1], rtol=0, atol=1e-9)
            assert spec.noise_estimate == pytest.approx(ref_noise, rel=1e-9)

    def test_deterministic(self):
        z = sampled_coarray(1024, seed=4)
        first = nesprit(z, model_order=2)
        assert nesprit(z, model_order=2).lines == first.lines

    def test_thread_pool_matches_serial(self):
        # nesprit is safe to call from several threads at once
        zs = [sampled_coarray(256, seed=s) for s in range(6)]
        serial = [nesprit(z, model_order=2).lines for z in zs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(nesprit, z, model_order=2) for z in zs]
                pooled = [f.result(timeout=60).lines for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial

    def test_small_p_stays_dense(self, monkeypatch):
        monkeypatch.setattr(estimators, "_lanczos_eigenpairs", _no_call)
        z = sampled_coarray(12)
        assert nesprit(z, model_order=1).model_order == 1

    def test_rank_count_rule_stays_dense(self, monkeypatch):
        monkeypatch.setattr(estimators, "_lanczos_eigenpairs", _no_call)
        pat = build_nested(15, 16)
        z = exact_coarray(pat, ToneSet(((0.11, 1.0), (-0.27, 0.6))), 0.2)
        assert nesprit(z, lam=0.5).model_order == 2

    def test_no_convergence_falls_back_to_dense(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        z = sampled_coarray(256)
        ref_lines, ref_noise = dense_nesprit_reference(z, (2,))[2]
        monkeypatch.setattr(estimators, "eigsh", no_convergence)
        spec = nesprit(z, model_order=2)
        np.testing.assert_allclose(
            [f for f, _ in spec.lines], [f for f, _ in ref_lines], rtol=0, atol=1e-12
        )
        assert spec.noise_estimate == pytest.approx(ref_noise, rel=1e-12)


class TestHermitianPart:
    @pytest.mark.parametrize("p", [12, 64, 256, 1024])
    def test_solver_sees_the_symmetrized_toeplitz_matrix(self, p, monkeypatch):
        rng = np.random.default_rng(p)
        z = CoarraySignal(p, rng.standard_normal(2 * p - 1) + 1j * rng.standard_normal(2 * p - 1))
        seen = []
        for name in ("_dense_eigenpairs", "_lanczos_eigenpairs"):

            def spy(h, *args, _solver=getattr(estimators, name)):
                seen.append(h)
                return _solver(h, *args)

            monkeypatch.setattr(estimators, name, spy)
        nesprit(z, model_order=1)
        r = build_toeplitz(z)
        assert np.array_equal(build_toeplitz(seen[0]), 0.5 * (r + r.conj().T))


class TestVandermonde:
    def test_reconstruction_residual(self):
        pat = build_nested(4, 4)
        p = pat.window_size
        tones = ToneSet(((0.11, 1.0), (-0.27, 0.6), (0.35, 0.3)))
        z = exact_coarray(pat, tones)
        abar = vandermonde_on_lags(np.array(tones.frequencies), p)
        coef, *_ = np.linalg.lstsq(abar, z.values, rcond=None)
        np.testing.assert_allclose(np.real(coef), tones.powers, atol=1e-8)
        assert np.linalg.norm(abar @ coef - z.values) < 1e-8

    def test_shape(self):
        assert vandermonde_on_lags(np.array([0.1, 0.2]), 5).shape == (9, 2)


class TestWelch:
    def test_single_exponential_peak(self):
        p = 64
        q = 8
        nu = 10 / p  # on the Welch grid
        t = np.arange(p)
        y = np.tile(np.exp(2j * np.pi * nu * t), (q, 1))
        spec = welch(y)
        assert spec.peak_frequency() == pytest.approx(nu)

    def test_density_integrates_to_power(self):
        p = 32
        rng = np.random.default_rng(0)
        y = rng.standard_normal((20, p)) + 1j * rng.standard_normal((20, p))
        spec = welch(y)
        total = spec.powers.sum() / p  # df = 1/P
        assert total == pytest.approx(np.mean(np.abs(y) ** 2), rel=1e-10)

    @pytest.mark.parametrize("p", [12, 23, 256, 511, 1024, 2047])
    def test_grid_is_scipys(self, p):
        y = np.random.default_rng(p).standard_normal((2, p)).astype(complex)
        freqs, _ = signal.welch(y, nperseg=p, return_onesided=False, axis=1)
        spec = welch(y)
        assert spec.num_bins == p
        assert np.array_equal(spec.frequencies, freqs)

    def test_rejects_bad_input(self):
        with pytest.raises(EstimationError):
            welch(np.ones(8, dtype=complex))

    @pytest.mark.parametrize("shape", [(0, 12), (3, 0), (0, 0)])
    def test_rejects_empty_input(self, shape):
        q, p = shape
        with pytest.raises(EstimationError, match=f"{q} x {p}"):
            welch(np.zeros(shape, dtype=complex))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        q=st.integers(1, 64),
        p=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-100, 1e-3, 1.0, 1e3, 1e100]),
    )
    def test_powers_are_scipys_bit_for_bit(self, q, p, seed, scale):
        y = complex_normal(np.random.default_rng(seed), (q, p), scale)
        assert np.array_equal(welch(y).powers, scipy_welch(y))

    @pytest.mark.parametrize("shape", [(200, 12), (100, 1024)])
    def test_powers_are_scipys_at_workload_sizes(self, shape):
        y = complex_normal(np.random.default_rng(shape[1]), shape)
        assert np.array_equal(welch(y).powers, scipy_welch(y))


class TestZeroFill:
    def test_placement(self):
        pat = build_nested(3, 2)
        data = np.arange(10, dtype=complex).reshape(2, 5)
        full = zero_fill(data, pat.slots, pat.window_size)
        assert full.shape == (2, 8)
        for j, s in enumerate(pat.slots):
            np.testing.assert_array_equal(full[:, s - 1], data[:, j])
        empty = set(range(8)) - {s - 1 for s in pat.slots}
        for c in empty:
            np.testing.assert_array_equal(full[:, c], 0.0)

    def test_coprime_slots_beyond_window_dropped(self):
        pat = build_coprime(2, 5)  # max slot 16 > window 11
        data = np.ones((3, pat.n_transmissions), dtype=complex)
        full = zero_fill(data, pat.slots, pat.window_size)
        assert full.shape == (3, 11)
        kept = [s for s in pat.slots if s <= 11]
        assert full.sum() == pytest.approx(3 * len(kept))

    def test_standard_pattern_roundtrip(self):
        pat = build_standard(6)
        data = np.random.default_rng(1).standard_normal((2, 6)) + 0j
        np.testing.assert_array_equal(
            zero_fill(data, pat.slots, 6), data
        )
