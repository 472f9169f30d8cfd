"""Each estimation stage on a stack of CPIs equals the per-CPI call, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from nestdop import estimators
from nestdop.coarray import (
    CovarianceEstimate,
    apodize,
    butterworth_highpass,
    clutter_filter,
    estimate_covariance,
    lag_average,
)
from nestdop.estimators import EstimationError, nest, nesprit, welch, zero_fill
from nestdop.patterns import (
    KLevelParams,
    build_coprime,
    build_klevel,
    build_nested,
    build_standard,
    build_super_nested,
    difference_set,
    optimal_nested,
)
from nestdop.signals import SlowTimeSnapshots, ToneSet, analytic_covariance, generate_snapshots

PATTERNS = {
    "nested": build_nested(3, 3),
    "super_nested": build_super_nested(6, 4),
    "coprime": build_coprime(3, 5),  # slots beyond the window
    # patterns of three or more levels have coarray holes, which lag averaging rejects
    "k_level": build_klevel(KLevelParams((2, 5))),
    "standard": build_standard(9),
}
TONES = ToneSet(((0.21, 1.0), (-0.13, 0.5), (0.004, 4.0)))
FILTERS = {
    "none": None,
    "fir": sp_signal.firwin(15, 0.1 / 0.5, pass_zero=False),
    "butterworth": butterworth_highpass(4, 0.03),
}


def draw_stack(pattern, t, q, seed, noise_power=0.1):
    """T CPIs drawn one by one, and the same CPIs as one T x Q x N stack."""
    cpis = [
        generate_snapshots(TONES, pattern, q, noise_power, rng_seed=seed + k) for k in range(t)
    ]
    return cpis, SlowTimeSnapshots(pattern=pattern, data=np.stack([c.data for c in cpis]))


def stacked_coarray(pattern, stack, remove_mean=False, filt="none", hamming=False):
    z = lag_average(estimate_covariance(stack, remove_mean=remove_mean), difference_set(pattern))
    if FILTERS[filt] is not None:
        z = clutter_filter(z, FILTERS[filt])
    if hamming:
        z = apodize(z, np.hamming(pattern.window_size))
    return z


def same_lines(stacked, single):
    return stacked.lines == single.lines and stacked.noise_estimate == single.noise_estimate


settings_ = settings(derandomize=True, max_examples=40, deadline=None)


class TestCoarrayStages:
    @settings_
    @given(
        name=st.sampled_from(sorted(PATTERNS)),
        t=st.sampled_from([1, 3]),
        q=st.integers(2, 40),
        seed=st.integers(0, 2**31),
        remove_mean=st.booleans(),
        filt=st.sampled_from(sorted(FILTERS)),
        hamming=st.booleans(),
    )
    def test_each_stage_equals_the_per_cpi_call(
        self, name, t, q, seed, remove_mean, filt, hamming
    ):
        pattern = PATTERNS[name]
        diffs = difference_set(pattern)
        cpis, stack = draw_stack(pattern, t, q, seed)
        cov = estimate_covariance(stack, remove_mean=remove_mean)
        z = lag_average(cov, diffs)
        filtered = z if FILTERS[filt] is None else clutter_filter(z, FILTERS[filt])
        tapered = apodize(filtered, np.hamming(pattern.window_size)) if hamming else filtered
        assert cov.matrix.shape[0] == z.values.shape[0] == t
        for k, cpi in enumerate(cpis):
            single_cov = estimate_covariance(cpi, remove_mean=remove_mean)
            assert np.array_equal(cov.matrix[k], single_cov.matrix)
            single = lag_average(single_cov, diffs)
            assert np.array_equal(z.values[k], single.values)
            if FILTERS[filt] is not None:
                single = clutter_filter(single, FILTERS[filt])
                assert np.array_equal(filtered.values[k], single.values)
            if hamming:
                single = apodize(single, np.hamming(pattern.window_size))
            assert np.array_equal(tapered.values[k], single.values)
            assert np.array_equal(tapered[k].values, single.values)

    @settings_
    @given(
        name=st.sampled_from(sorted(PATTERNS)),
        t=st.sampled_from([1, 3]),
        q=st.integers(1, 40),
        seed=st.integers(0, 2**31),
    )
    def test_stacked_coarray_is_hermitian_to_the_bit(self, name, t, q, seed):
        pattern = PATTERNS[name]
        _, stack = draw_stack(pattern, t, q, seed)
        cov = estimate_covariance(stack)
        assert np.array_equal(cov.matrix, np.conj(cov.matrix.swapaxes(-1, -2)))
        z = lag_average(cov, difference_set(pattern))
        assert np.array_equal(z.values, np.conj(z.values[:, ::-1]))


class TestEstimatorStages:
    @settings_
    @given(
        name=st.sampled_from(sorted(PATTERNS)),
        t=st.sampled_from([1, 3]),
        q=st.integers(2, 40),
        seed=st.integers(0, 2**31),
        filt=st.sampled_from(sorted(FILTERS)),
        hamming=st.booleans(),
        lam=st.sampled_from([0.0, 0.01]),
        model_order=st.sampled_from([None, 0, 1, 2, 3]),
        subtract_noise=st.booleans(),
    )
    def test_nest_and_dense_nesprit_equal_the_per_cpi_call(
        self, name, t, q, seed, filt, hamming, lam, model_order, subtract_noise
    ):
        pattern = PATTERNS[name]
        _, stack = draw_stack(pattern, t, q, seed)
        z = stacked_coarray(pattern, stack, filt=filt, hamming=hamming)
        grid = nest(z, lam)
        for k in range(t):
            assert np.array_equal(grid.powers[k], nest(z[k], lam).powers)
            assert np.array_equal(grid[k].powers, nest(z[k], lam).powers)
        kwargs = {"lam": lam, "model_order": model_order, "subtract_noise": subtract_noise}
        try:
            singles = [nesprit(z[k], **kwargs) for k in range(t)]
        except EstimationError:
            with pytest.raises(EstimationError):
                nesprit(z, **kwargs)
            return
        stacked = nesprit(z, **kwargs)
        assert len(stacked) == t
        for got, want in zip(stacked, singles):
            assert same_lines(got, want)

    @pytest.mark.parametrize("model_order", [1, 3])
    def test_lanczos_nesprit_equals_the_per_cpi_call(self, model_order):
        pattern = build_nested(*optimal_nested(256))
        _, stack = draw_stack(pattern, 3, 40, seed=5)
        z = stacked_coarray(pattern, stack, filt="butterworth", hamming=True)
        stacked = nesprit(z, model_order=model_order)
        for k in range(3):
            assert same_lines(stacked[k], nesprit(z[k], model_order=model_order))

    def test_rows_of_different_counted_orders(self):
        # exact coarrays of 1, 3 and 2 tones: the rank-count rule gives each row its own order
        pattern = PATTERNS["nested"]
        tone_sets = [TONES.tones[:1], TONES.tones, TONES.tones[:2]]
        matrices = np.stack(
            [analytic_covariance(ToneSet(tones), pattern, 0.05) for tones in tone_sets]
        )
        cov = CovarianceEstimate(matrix=matrices, q_used=0, mean_removed=False)
        z = lag_average(cov, difference_set(pattern))
        stacked = nesprit(z, lam=0.5)
        assert [s.model_order for s in stacked] == [1, 3, 2]
        for k in range(3):
            assert same_lines(stacked[k], nesprit(z[k], lam=0.5))

    def test_lanczos_failure_on_one_row_falls_back_for_that_row(self, monkeypatch):
        pattern = build_nested(*optimal_nested(256))
        _, stack = draw_stack(pattern, 3, 40, seed=8)
        z = stacked_coarray(pattern, stack)
        lanczos = [nesprit(z[k], model_order=2) for k in (0, 2)]
        eigsh = estimators.eigsh
        calls = []

        def fail_on(failing):
            def solver(*args, **kwargs):
                calls.append(1)
                if len(calls) in failing:
                    raise estimators.ArpackNoConvergence("", np.empty(0), np.empty((0, 0)))
                return eigsh(*args, **kwargs)

            return solver

        monkeypatch.setattr(estimators, "eigsh", fail_on({2}))
        stacked = nesprit(z, model_order=2)
        assert len(calls) == 3
        monkeypatch.setattr(estimators, "eigsh", fail_on({4}))
        dense = nesprit(z[1], model_order=2)
        assert len(calls) == 4
        assert same_lines(stacked[0], lanczos[0])
        assert same_lines(stacked[1], dense)
        assert same_lines(stacked[2], lanczos[1])

    @settings_
    @given(
        name=st.sampled_from(sorted(PATTERNS)),
        t=st.sampled_from([1, 3]),
        q=st.integers(1, 40),
        seed=st.integers(0, 2**31),
    )
    def test_zero_fill_and_welch_equal_the_per_cpi_call(self, name, t, q, seed):
        pattern = PATTERNS[name]
        p = pattern.window_size
        cpis, stack = draw_stack(pattern, t, q, seed)
        filled = zero_fill(stack.data, pattern.slots, p)
        spectra = welch(filled)
        for k, cpi in enumerate(cpis):
            single = zero_fill(cpi.data, pattern.slots, p)
            assert np.array_equal(filled[k], single)
            assert np.array_equal(spectra[k].powers, welch(single).powers)
