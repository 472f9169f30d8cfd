import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal
from scipy.linalg import toeplitz

from nestdop.coarray import (
    CoarrayHoleError,
    CoarraySignal,
    CovarianceEstimate,
    apodize,
    build_toeplitz,
    butterworth_highpass,
    clutter_filter,
    estimate_covariance,
    filter_autocorrelation,
    lag_average,
)
from nestdop.patterns import (
    KLevelParams,
    build_coprime,
    build_klevel,
    build_nested,
    build_standard,
    build_super_nested,
    difference_set,
)
from nestdop.signals import (
    SlowTimeSnapshots,
    ToneSet,
    analytic_covariance,
    generate_snapshots,
)


def exact_coarray(pattern, tones, noise_power=0.0):
    cov = analytic_covariance(tones, pattern, noise_power)
    est = CovarianceEstimate(matrix=cov, q_used=0, mean_removed=False)
    return lag_average(est, difference_set(pattern))


def brute_force_lag_average(matrix, slots):
    """Independent oracle: group covariance entries by slot difference."""
    n = len(slots)
    sums = {}
    counts = {}
    for a in range(n):
        for b in range(n):
            lag = slots[a] - slots[b]
            sums[lag] = sums.get(lag, 0.0) + matrix[a, b]
            counts[lag] = counts.get(lag, 0) + 1
    return {lag: sums[lag] / counts[lag] for lag in sums}


class TestEstimateCovariance:
    def test_single_snapshot_outer_product(self):
        pat = build_standard(2)
        y = np.array([[1.0, 1j]])
        est = estimate_covariance(SlowTimeSnapshots(pattern=pat, data=y))
        np.testing.assert_allclose(est.matrix, np.array([[1, -1j], [1j, 1]]))

    def test_mean_removal_kills_constant(self):
        pat = build_standard(3)
        y = np.tile(np.array([[1.0 + 1j, 2.0, -1j]]), (5, 1))
        est = estimate_covariance(
            SlowTimeSnapshots(pattern=pat, data=y), remove_mean=True
        )
        np.testing.assert_allclose(est.matrix, 0.0, atol=1e-14)

    def test_mean_removal_needs_two_snapshots(self):
        pat = build_standard(2)
        y = np.ones((1, 2), dtype=complex)
        with pytest.raises(ValueError):
            estimate_covariance(SlowTimeSnapshots(pattern=pat, data=y), remove_mean=True)

    @pytest.mark.parametrize("q", [2, 8, 33])
    def test_mean_removal_divides_by_q(self, q):
        # biased low by 1/Q: (Q-1)/Q times the unbiased sample covariance
        pat = build_nested(3, 2)
        snaps = generate_snapshots(ToneSet(((0.2, 1.0),)), pat, q, 0.3, rng_seed=q)
        got = estimate_covariance(snaps, remove_mean=True).matrix
        want = (q - 1) / q * np.cov(snaps.data, rowvar=False)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    def test_hermitian(self):
        pat = build_nested(3, 2)
        snaps = generate_snapshots(ToneSet(((0.2, 1.0),)), pat, 64, 0.3, rng_seed=0)
        est = estimate_covariance(snaps)
        np.testing.assert_allclose(est.matrix, est.matrix.conj().T, atol=1e-12)

    def test_converges_to_analytic(self):
        pat = build_nested(3, 2)
        tones = ToneSet(((0.2, 1.0), (-0.3, 0.4)))
        exact = analytic_covariance(tones, pat, 0.2)
        snaps = generate_snapshots(tones, pat, 100_000, 0.2, rng_seed=4)
        est = estimate_covariance(snaps)
        rel = np.linalg.norm(est.matrix - exact) / np.linalg.norm(exact)
        assert rel < 0.05


class TestLagAverage:
    def test_single_tone_exact(self):
        pat = build_nested(3, 2)
        nu, power = 0.2, 1.7
        z = exact_coarray(pat, ToneSet(((nu, power),)))
        np.testing.assert_allclose(
            z.values, power * np.exp(2j * np.pi * nu * z.lags), atol=1e-12
        )

    def test_noise_hits_only_lag_zero(self):
        pat = build_nested(3, 2)
        tones = ToneSet(((0.2, 1.0), (-0.1, 0.5)))
        clean = exact_coarray(pat, tones, 0.0)
        noisy = exact_coarray(pat, tones, 0.9)
        diff = noisy.values - clean.values
        assert diff[pat.window_size - 1] == pytest.approx(0.9)
        mask = np.ones(len(diff), dtype=bool)
        mask[pat.window_size - 1] = False
        np.testing.assert_allclose(diff[mask], 0.0, atol=1e-12)

    @pytest.mark.parametrize("n1,n2", [(3, 2), (4, 4), (7, 2), (9, 2), (2, 6)])
    def test_matches_brute_force_on_random_hermitian(self, n1, n2):
        pat = build_nested(n1, n2)
        n = pat.n_transmissions
        rng = np.random.default_rng(n1 * 100 + n2)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = 0.5 * (m + m.conj().T)
        est = CovarianceEstimate(matrix=m, q_used=1, mean_removed=False)
        z = lag_average(est, difference_set(pat))
        oracle = brute_force_lag_average(m, pat.slots)
        for lag in z.lags:
            assert abs(z.value(lag) - oracle[lag]) < 1e-12

    def test_conjugate_symmetry(self):
        pat = build_nested(4, 3)
        snaps = generate_snapshots(ToneSet(((0.11, 1.0),)), pat, 32, 0.5, rng_seed=6)
        z = lag_average(estimate_covariance(snaps), difference_set(pat))
        for lag in range(1, pat.window_size):
            assert abs(z.value(-lag) - np.conj(z.value(lag))) < 1e-9 * max(
                1.0, abs(z.value(lag))
            )
        assert abs(z.value(0).imag) < 1e-12

    def test_rejects_coarray_with_holes(self):
        pat = build_klevel(KLevelParams((1, 1, 3)))
        cov = analytic_covariance(ToneSet(((0.1, 1.0),)), pat, 0.0)
        est = CovarianceEstimate(matrix=cov, q_used=0, mean_removed=False)
        with pytest.raises(CoarrayHoleError) as err:
            lag_average(est, difference_set(pat))
        assert 5 in err.value.missing_lags or -5 in err.value.missing_lags

    @pytest.mark.parametrize(
        "pat",
        [build_nested(5, 6), build_super_nested(6, 4), build_coprime(3, 5)],
        ids=["nested", "super_nested", "coprime"],
    )
    def test_bincount_matches_loop_reference(self, pat):
        # the per-lag loop over the positions of each lag that lag_average replaced
        n = pat.n_transmissions
        p = pat.window_size
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = 0.5 * (m + m.conj().T)
        ds = difference_set(pat)
        r_vec = m.flatten(order="F")
        ref = np.array(
            [r_vec[ds.position_lags == lag].mean() for lag in range(-(p - 1), p)]
        )
        z = lag_average(CovarianceEstimate(matrix=m, q_used=1, mean_removed=False), ds)
        np.testing.assert_allclose(z.values, ref, rtol=0, atol=1e-12)


class TestBuildToeplitz:
    def test_exact_tone_rank_one(self):
        pat = build_nested(3, 2)
        z = exact_coarray(pat, ToneSet(((0.2, 1.0),)))
        r = build_toeplitz(z)
        evals = np.linalg.eigvalsh(r)
        assert np.sum(evals > 1e-9) == 1
        assert evals[-1] == pytest.approx(pat.window_size)

    def test_orientation(self):
        p = 3
        values = np.array([-2 - 2j, -1 - 1j, 0.0, 1 + 1j, 2 + 2j])
        r = build_toeplitz(CoarraySignal(window_size=p, values=values))
        assert r[0, 0] == 0.0
        assert r[1, 0] == 1 + 1j  # lag +1
        assert r[0, 1] == -1 - 1j  # lag -1
        assert r[2, 0] == 2 + 2j

    def test_identity_from_lag_zero_impulse(self):
        p = 6
        values = np.zeros(2 * p - 1, dtype=complex)
        values[p - 1] = 1.0
        np.testing.assert_allclose(
            build_toeplitz(CoarraySignal(p, values)), np.eye(p)
        )

    def test_noise_shifts_eigenvalues(self):
        pat = build_nested(3, 2)
        sigma2 = 0.3
        z = exact_coarray(pat, ToneSet(((0.2, 1.0),)), sigma2)
        evals = np.linalg.eigvalsh(build_toeplitz(z))
        np.testing.assert_allclose(evals[:-1], sigma2, atol=1e-10)
        assert evals[-1] == pytest.approx(pat.window_size + sigma2)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(p=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_is_scipys_bit_for_bit(self, p, seed):
        # Random lags, so the lag-0 value is complex and z is not Hermitian.
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(2 * p - 1) + 1j * rng.standard_normal(2 * p - 1)
        r = build_toeplitz(CoarraySignal(p, values))
        assert np.array_equal(r, toeplitz(values[p - 1 :], values[p - 1 :: -1]))


class TestFullWindowReconstruction:
    @pytest.mark.parametrize("seed", range(5))
    def test_reproduces_full_window_covariance(self, seed):
        rng = np.random.default_rng(seed)
        p = 16
        pat = build_nested(3, 4)
        m = rng.integers(1, 6)
        tones = ToneSet(
            tuple(
                (float(nu), float(pw))
                for nu, pw in zip(
                    rng.uniform(-0.5, 0.5, m), rng.uniform(0.1, 2.0, m)
                )
            )
        )
        sigma2 = float(rng.uniform(0, 1))
        z = exact_coarray(pat, tones, sigma2)
        r = build_toeplitz(z)
        full = analytic_covariance(tones, build_standard(p), sigma2)
        np.testing.assert_allclose(r, full, atol=1e-10)


class TestClutterFilter:
    def test_unit_impulse_identity(self):
        pat = build_nested(3, 2)
        z = exact_coarray(pat, ToneSet(((0.2, 1.0),)))
        out = clutter_filter(z, np.array([1.0]))
        np.testing.assert_allclose(out.values, z.values, atol=1e-12)

    def test_fir_attenuation_matches_magnitude_response(self):
        # single tone at nu=0 through a FIR high-pass: every interior lag is
        # scaled by |H(0)|^2
        p = 64
        lags = np.arange(-(p - 1), p)
        z = CoarraySignal(p, np.ones(2 * p - 1, dtype=complex))
        taps = sp_signal.firwin(31, 0.2 / 0.5, pass_zero=False)
        out = clutter_filter(z, taps)
        h0 = abs(np.sum(taps)) ** 2  # |H(0)|^2
        interior = np.abs(lags) <= p - 32
        np.testing.assert_allclose(out.values[interior], h0, atol=1e-10)

    def test_iir_requires_stability(self):
        z = CoarraySignal(4, np.zeros(7, dtype=complex))
        with pytest.raises(ValueError):
            clutter_filter(z, (np.array([1.0]), np.array([1.0, -1.5])))

    def test_iir_autocorrelation_matches_fir_of_long_response(self):
        b, a = butterworth_highpass(2, 0.05)
        g = filter_autocorrelation((b, a), length=4096)
        imp = np.zeros(4096)
        imp[0] = 1.0
        h = sp_signal.lfilter(b, a, imp)
        np.testing.assert_allclose(g, np.correlate(h, h, "full"), atol=1e-12)

    def test_complex_fir_scales_tone_by_magnitude_response(self):
        # the filter's autocorrelation is h conv conj(h[-n]), so a unit tone
        # at nu comes out scaled by |H(nu)|^2 at every lag, lag 0 included
        p, nu = 64, 0.2
        lags = np.arange(-(p - 1), p)
        z = CoarraySignal(p, np.exp(2j * np.pi * nu * lags))
        h = np.array([1.0, 0.5j, -0.25])
        out = clutter_filter(z, h)
        gain = abs(np.sum(h * np.exp(-2j * np.pi * nu * np.arange(3)))) ** 2
        assert gain == pytest.approx(2.9058, abs=1e-4)
        assert out.value(0) == pytest.approx(gain, abs=1e-12)
        interior = np.abs(lags) <= p - 3
        np.testing.assert_allclose(
            out.values[interior], gain * z.values[interior], atol=1e-12
        )

    def test_conjugate_symmetry_preserved(self):
        pat = build_nested(4, 4)
        z = exact_coarray(pat, ToneSet(((0.21, 1.0), (-0.07, 2.0))), 0.1)
        out = clutter_filter(z, butterworth_highpass(4, 0.03))
        np.testing.assert_allclose(
            out.values, np.conj(out.values[::-1]), atol=1e-9
        )

    def test_highpass_suppresses_dc_tone(self):
        p = 64
        lags = np.arange(-(p - 1), p)
        z = CoarraySignal(
            p,
            100.0 * np.ones(2 * p - 1, dtype=complex)
            + np.exp(2j * np.pi * 0.2 * lags),
        )
        out = clutter_filter(z, butterworth_highpass(4, 0.03))
        # interior lags: DC term crushed, 0.2 tone survives
        mid = p - 1
        assert abs(out.values[mid]) < 5.0
        assert abs(out.values[mid]) > 0.5

    @pytest.mark.parametrize(
        "h",
        [
            sp_signal.firwin(31, 0.2 / 0.5, pass_zero=False),
            butterworth_highpass(4, 0.03),
        ],
        ids=["fir", "butterworth"],
    )
    def test_fft_matches_direct_convolution(self, h):
        # the direct correlate/convolve that the FFT path replaced
        pat = build_nested(15, 16)
        p = pat.window_size
        z = exact_coarray(pat, ToneSet(((0.21, 1.0), (0.004, 30.0))), 0.1)
        if isinstance(h, tuple):
            imp = np.zeros(4 * p)
            imp[0] = 1.0
            hh = sp_signal.lfilter(*h, imp)
        else:
            hh = h
        g = np.correlate(hh, np.conj(hh), mode="full")
        full = np.convolve(z.values, g)
        center = (len(full) - 1) // 2
        ref = full[center - (p - 1) : center + p]
        out = clutter_filter(z, h).values
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def fftconvolve_clutter_filter(z, h):
    """The linear-convolution clutter filter the kernel spectrum replaced: the reference."""
    p = z.window_size
    g = filter_autocorrelation(h, length=4 * p)
    g = g.reshape((1,) * (z.values.ndim - 1) + g.shape)
    full = sp_signal.fftconvolve(z.values, g, axes=-1)
    center = (full.shape[-1] - 1) // 2
    return full[..., center - (p - 1) : center + p]


def kernel_filters(p):
    """FIR taps of length 1, 2, 15 and more than 4P, and a Butterworth (b, a) pair."""
    rng = np.random.default_rng(p)
    return {
        "fir1": np.array([0.7]),
        "fir2": np.array([1.0, -1.0]),
        "fir15": sp_signal.firwin(15, 0.1 / 0.5, pass_zero=False),
        "fir_long": rng.standard_normal(4 * p + 5),
        "butterworth": butterworth_highpass(4, 0.03),
    }


class TestKernelSpectrum:
    @pytest.mark.parametrize("p", [2, 12, 64, 256, 1024])
    def test_matches_the_fftconvolve_reference_on_a_stack(self, p):
        rng = np.random.default_rng(p + 1)
        values = rng.standard_normal((3, 2 * p - 1)) + 1j * rng.standard_normal((3, 2 * p - 1))
        z = CoarraySignal(p, values)
        for name, h in kernel_filters(p).items():
            ref = fftconvolve_clutter_filter(z, h)
            out = clutter_filter(z, h).values
            assert out.shape == ref.shape == (3, 2 * p - 1)
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max(), (p, name)


class TestApodize:
    def test_rectangular_window_triangle(self):
        p = 8
        z = CoarraySignal(p, np.ones(2 * p - 1, dtype=complex))
        out = apodize(z, np.ones(p))
        expected = p - np.abs(np.arange(-(p - 1), p))
        np.testing.assert_allclose(out.values, expected)

    def test_zero_window(self):
        p = 5
        z = CoarraySignal(p, np.ones(2 * p - 1, dtype=complex))
        np.testing.assert_allclose(apodize(z, np.zeros(p)).values, 0.0)

    def test_length_mismatch(self):
        z = CoarraySignal(5, np.ones(9, dtype=complex))
        with pytest.raises(ValueError):
            apodize(z, np.ones(6))

    def test_order_against_impulse_filter(self):
        # a unit-impulse "filter" is the identity, so taper-then-filter and
        # filter-then-taper must agree exactly in that case
        pat = build_nested(4, 4)
        p = pat.window_size
        z = exact_coarray(pat, ToneSet(((0.2, 1.0), (0.01, 50.0))), 0.05)
        w = np.hamming(p)
        imp = np.array([1.0])
        a_then_f = clutter_filter(apodize(z, w), imp)
        f_then_a = apodize(clutter_filter(z, imp), w)
        np.testing.assert_allclose(a_then_f.values, f_then_a.values, atol=1e-12)

    def test_order_matters_for_real_filter(self):
        # pointwise taper and lag-domain convolution do not commute for a
        # nontrivial filter; the pipeline always filters first, tapers second
        pat = build_nested(4, 4)
        p = pat.window_size
        z = exact_coarray(pat, ToneSet(((0.2, 1.0), (0.01, 50.0))), 0.05)
        w = np.hamming(p)
        h = butterworth_highpass(3, 0.04)
        a_then_f = clutter_filter(apodize(z, w), h)
        f_then_a = apodize(clutter_filter(z, h), w)
        assert np.abs(a_then_f.values - f_then_a.values).max() > 1e-3
