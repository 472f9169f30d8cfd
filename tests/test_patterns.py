import itertools
import math

import numpy as np
import pytest

from nestdop import patterns
from nestdop.patterns import (
    EmissionPattern,
    Family,
    KLevelParams,
    PatternError,
    build_coprime,
    build_klevel,
    build_nested,
    build_standard,
    build_super_nested,
    difference_set,
    optimal_klevel,
    optimal_nested,
    verify_contiguous_coarray,
)


def brute_force_lags(slots):
    return sorted({a - b for a in slots for b in slots})


class TestBuildNested:
    def test_known_small_patterns(self):
        assert build_nested(3, 3).slots == (1, 2, 3, 4, 8, 12)
        assert build_nested(3, 3).window_size == 12
        assert build_nested(2, 4).slots == (1, 2, 3, 6, 9, 12)

    def test_degenerate_is_standard(self):
        p = 9
        pat = build_nested(p - 1, 1)
        assert pat.slots == tuple(range(1, p + 1))

    def test_slot_count_is_n1_plus_n2(self):
        for n1, n2 in itertools.product(range(1, 12), range(1, 12)):
            assert build_nested(n1, n2).n_transmissions == n1 + n2

    def test_rejects_bad_params(self):
        with pytest.raises(PatternError):
            build_nested(0, 3)


class TestOptimalNested:
    def test_square_window(self):
        assert optimal_nested(256) == (15, 16)
        n1, n2 = optimal_nested(256)
        assert n1 + n2 == 31

    def test_two_optima_for_128(self):
        assert optimal_nested(128, "fewer_larger_gaps") == (15, 8)
        assert optimal_nested(128, "more_smaller_gaps") == (7, 16)

    def test_prime_window(self):
        assert optimal_nested(7) == (6, 1)
        assert optimal_nested(7, "more_smaller_gaps") == (6, 1)

    def test_p12_both_optima(self):
        assert optimal_nested(12, "fewer_larger_gaps") == (3, 3)
        assert optimal_nested(12, "more_smaller_gaps") == (2, 4)

    def test_matches_exhaustive_search_small(self):
        for p in range(2, 400):
            best = min(
                d - 1 + p // d for d in range(2, p + 1) if p % d == 0
            )
            for pref in ("fewer_larger_gaps", "more_smaller_gaps"):
                n1, n2 = optimal_nested(p, pref)
                assert n2 * (n1 + 1) == p
                assert n1 + n2 == best

    def test_rejects_unknown_preference(self):
        with pytest.raises(PatternError):
            optimal_nested(12, "whatever")


def enumerate_min_klevel(p):
    # minimal sum(Z_i - 1) over all factorizations of p into factors >= 2
    if p == 1:
        return 0
    best = p - 1  # single level
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            best = min(best, d - 1 + enumerate_min_klevel(p // d))
    return best


class TestOptimalKLevel:
    def test_p12(self):
        params = optimal_klevel(12)
        assert params.levels == (1, 1, 3)
        assert build_klevel(params).slots == (1, 2, 4, 8, 12)
        assert build_klevel(params).n_transmissions == 5

    def test_power_of_two(self):
        for n in (3, 5, 8):
            pat = build_klevel(optimal_klevel(2**n))
            assert pat.slots == tuple(2**k for k in range(n + 1))
            assert pat.n_transmissions == n + 1

    def test_p30(self):
        params = optimal_klevel(30)
        assert len(params.levels) == 3
        assert build_klevel(params).n_transmissions == 8

    def test_matches_exhaustive_search(self):
        for p in range(2, 300):
            pat = build_klevel(optimal_klevel(p))
            assert pat.window_size == p
            assert pat.n_transmissions == enumerate_min_klevel(p) + 1

    def test_transmission_count_formula(self):
        for p in (12, 30, 64, 360, 1001):
            params = optimal_klevel(p)
            factors = patterns._factorize(p)
            expected = 1 + sum((prime - 1) * q for prime, q in factors)
            assert build_klevel(params).n_transmissions == expected


class TestBuildKLevel:
    def test_single_level_is_ula(self):
        pat = build_klevel(KLevelParams((7,)))
        assert pat.slots == tuple(range(1, 8))
        assert pat.window_size == 7

    def test_two_level_matches_nested(self):
        nested = build_nested(3, 4)
        klevel = build_klevel(KLevelParams((3, 4)))
        assert klevel.slots == nested.slots
        assert klevel.window_size == nested.window_size

    def test_rejects_trailing_one(self):
        with pytest.raises(PatternError):
            KLevelParams((3, 1))


class TestSuperNested:
    def test_large_pair(self):
        pat = build_super_nested(15, 16)
        assert pat.n_transmissions == 31
        assert pat.window_size == 256
        lags = brute_force_lags(pat.slots)
        assert lags == list(range(-255, 256))

    def test_small_case_full_lags(self):
        pat = build_super_nested(4, 3)
        assert pat.n_transmissions == 7
        assert brute_force_lags(pat.slots) == list(range(-14, 15))

    def test_rejects_out_of_range(self):
        with pytest.raises(PatternError):
            build_super_nested(3, 3)
        with pytest.raises(PatternError):
            build_super_nested(5, 2)

    @pytest.mark.parametrize("n1", [4, 5, 6, 7, 8, 9, 10, 11])
    @pytest.mark.parametrize("n2", [3, 5, 8])
    def test_same_lag_set_as_nested(self, n1, n2):
        sn = build_super_nested(n1, n2)
        nested = build_nested(n1, n2)
        assert sn.n_transmissions == nested.n_transmissions
        assert brute_force_lags(sn.slots) == brute_force_lags(nested.slots)


class TestCoprime:
    def test_known_values(self):
        pat = build_coprime(2, 5)
        assert pat.window_size == 11
        assert pat.max_slot == 16

    def test_trivial_ula(self):
        assert build_coprime(1, 2).slots == (1, 2, 3)

    def test_contiguous_through_window(self):
        pat = build_coprime(3, 4)
        lags = set(brute_force_lags(pat.slots))
        assert set(range(-12, 13)) <= lags

    def test_rejects_non_coprime(self):
        with pytest.raises(PatternError):
            build_coprime(2, 4)
        with pytest.raises(PatternError):
            build_coprime(5, 3)


class TestDifferenceSet:
    def test_nested_3_2(self):
        pat = build_nested(3, 2)
        ds = difference_set(pat)
        assert pat.slots == (1, 2, 3, 4, 8)
        assert ds.unique_lags == tuple(range(-7, 8))
        assert len(ds.unique_lags) == 2 * 2 * (3 + 1) - 1

    def test_full_ula_multiplicity(self):
        p = 9
        ds = difference_set(build_standard(p))
        for lag in range(-(p - 1), p):
            assert ds.multiplicity[lag] == p - abs(lag)

    def test_lag_zero_multiplicity(self):
        for pat in (build_nested(4, 5), build_coprime(3, 5), build_super_nested(5, 4)):
            assert difference_set(pat).multiplicity[0] == pat.n_transmissions

    def test_matches_brute_force(self):
        for n1, n2 in [(1, 1), (3, 2), (5, 7), (2, 9)]:
            pat = build_nested(n1, n2)
            ds = difference_set(pat)
            assert list(ds.unique_lags) == brute_force_lags(pat.slots)

    def test_symmetry(self):
        ds = difference_set(build_coprime(3, 7))
        for lag in ds.unique_lags:
            assert -lag in ds.multiplicity
            assert ds.multiplicity[lag] == ds.multiplicity[-lag]

    def test_index_sets_partition(self):
        # the index set of a lag: the column-stacked positions that hold it
        pat = build_nested(4, 3)
        ds = difference_set(pat)
        n = pat.n_transmissions
        index_sets = {l: np.flatnonzero(ds.position_lags == l) for l in ds.unique_lags}
        all_indices = sorted(i for idx in index_sets.values() for i in idx.tolist())
        assert all_indices == list(range(n * n))
        assert {l: len(idx) for l, idx in index_sets.items()} == ds.multiplicity

    def test_index_sets_point_at_right_lags(self):
        pat = build_nested(3, 2)
        ds = difference_set(pat)
        n = pat.n_transmissions
        for i, lag in enumerate(ds.position_lags.tolist()):
            a, b = i % n, i // n
            assert pat.slots[a] - pat.slots[b] == lag

    @pytest.mark.parametrize(
        "pat",
        [build_nested(4, 3), build_super_nested(5, 4), build_coprime(3, 5)],
        ids=["nested", "super_nested", "coprime"],
    )
    def test_matches_loop_reference(self, pat):
        # the pair loop that built the per-lag positions before they were vectorized
        slots, n = pat.slots, pat.n_transmissions
        ref: dict[int, list[int]] = {}
        for b in range(n):
            for a in range(n):
                ref.setdefault(slots[a] - slots[b], []).append(a + b * n)
        ds = difference_set(pat)
        assert ds.unique_lags == tuple(sorted(ref))
        assert {
            l: np.flatnonzero(ds.position_lags == l).tolist() for l in ds.unique_lags
        } == ref
        assert ds.multiplicity == {l: len(v) for l, v in ref.items()}

    def test_position_lags_invert_index_sets(self):
        pat = build_coprime(3, 7)
        ds = difference_set(pat)
        n = pat.n_transmissions
        assert ds.position_lags.shape == (n * n,)
        for lag, count in ds.multiplicity.items():
            assert np.count_nonzero(ds.position_lags == lag) == count
        assert sum(ds.multiplicity.values()) == n * n
        assert not ds.position_lags.flags.writeable


class TestContiguousCoarray:
    def test_nested_always_true(self):
        for n1, n2 in itertools.product(range(1, 10), range(1, 10)):
            assert verify_contiguous_coarray(build_nested(n1, n2))

    def test_klevel_with_holes(self):
        assert not verify_contiguous_coarray(build_klevel(KLevelParams((1, 1, 3))))

    def test_standard_true(self):
        assert verify_contiguous_coarray(build_standard(16))

    @pytest.mark.parametrize(
        "pat",
        [build_nested(4, 3), build_klevel(KLevelParams((1, 1, 3))), build_coprime(3, 7)],
        ids=["nested", "k_level_holes", "coprime"],
    )
    def test_missing_lags_matches_loop_reference(self, pat):
        # co-prime slots reach past the window; lags outside it do not count
        p = pat.window_size
        present = [a - b for a in pat.slots for b in pat.slots]
        ref = [l for l in range(-(p - 1), p) if l not in present]
        diffs = difference_set(pat)
        assert diffs.missing_lags() == ref
        assert bool(ref) == (pat.family is Family.K_LEVEL)
        counts = [present.count(l) for l in range(-(p - 1), p)]
        assert diffs.lag_counts.tolist() == counts
        assert not diffs.lag_counts.flags.writeable

    def test_cardinality_and_range(self):
        for n1, n2 in itertools.product(range(1, 12), range(1, 12)):
            pat = build_nested(n1, n2)
            lags = brute_force_lags(pat.slots)
            assert len(lags) == 2 * n2 * (n1 + 1) - 1
            assert lags == list(range(-(pat.window_size - 1), pat.window_size))


class TestSerialization:
    def test_round_trip(self):
        pat = build_nested(3, 3)
        again = EmissionPattern.from_json(pat.to_json())
        assert again == pat

    def test_json_fields(self):
        import json

        doc = json.loads(build_coprime(2, 5).to_json())
        assert doc["P"] == 11
        assert doc["family"] == "coprime"
        assert doc["slots"] == [1, 3, 5, 6, 7, 9, 11, 16]


class TestPatternValidation:
    def test_rejects_unsorted_slots(self):
        with pytest.raises(PatternError):
            EmissionPattern(window_size=5, slots=(1, 3, 2), family=Family.NESTED)

    def test_rejects_zero_slot(self):
        with pytest.raises(PatternError):
            EmissionPattern(window_size=5, slots=(0, 1, 5), family=Family.NESTED)

    def test_gap_structure(self):
        pat = build_nested(15, 16)
        gaps = pat.gap_structure()
        assert len(gaps) == 15
        assert set(gaps) == {15}
