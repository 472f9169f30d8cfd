import json

import numpy as np
import pytest

from nestdop.config import ConfigError, ExperimentConfig
from nestdop.patterns import build_nested, build_standard
from nestdop.signals import (
    FrameSpec,
    PulsatileProfile,
    SlowTimeSnapshots,
    ToneSet,
    analytic_covariance,
    generate_pulsatile,
    generate_snapshots,
)


@pytest.fixture
def nested32():
    return build_nested(3, 2)


class TestToneSet:
    def test_rejects_out_of_band(self):
        with pytest.raises(ValueError):
            ToneSet(((0.6, 1.0),))
        with pytest.raises(ValueError):
            ToneSet(((0.5, 1.0),))  # right edge excluded

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            ToneSet(((0.1, -1.0),))

    def test_total_power(self):
        assert ToneSet(((0.1, 1.0), (-0.2, 0.5))).total_power == 1.5


class TestGenerateSnapshots:
    def test_reproducible(self, nested32):
        tones = ToneSet(((0.2, 1.0),))
        a = generate_snapshots(tones, nested32, 50, 0.1, rng_seed=7)
        b = generate_snapshots(tones, nested32, 50, 0.1, rng_seed=7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_seed_changes_data(self, nested32):
        tones = ToneSet(((0.2, 1.0),))
        a = generate_snapshots(tones, nested32, 50, 0.1, rng_seed=7)
        b = generate_snapshots(tones, nested32, 50, 0.1, rng_seed=8)
        assert not np.allclose(a.data, b.data)

    def test_zero_frequency_constant_rows(self, nested32):
        snaps = generate_snapshots(ToneSet(((0.0, 1.0),)), nested32, 20, 0.0, 3)
        # single tone at nu=0: each row is a constant complex amplitude
        mags = np.abs(snaps.data)
        np.testing.assert_allclose(mags - mags[:, :1], 0.0, atol=1e-12)
        row_amps = snaps.data[:, 0]
        assert np.std(np.abs(row_amps)) > 0  # amplitudes vary across snapshots

    def test_pure_noise_covariance(self, nested32):
        snaps = generate_snapshots(ToneSet(()), nested32, 100_000, 1.0, rng_seed=5)
        cov = snaps.data.conj().T @ snaps.data / snaps.n_snapshots
        np.testing.assert_allclose(cov, np.eye(5), atol=0.02)

    def test_shape_and_validation(self, nested32):
        snaps = generate_snapshots(ToneSet(((0.1, 1.0),)), nested32, 9, 0.0, 0)
        assert snaps.data.shape == (9, 5)
        with pytest.raises(ValueError):
            generate_snapshots(ToneSet(()), nested32, 0, 1.0, 0)
        with pytest.raises(ValueError):
            SlowTimeSnapshots(pattern=nested32, data=np.zeros((4, 3), dtype=complex))


class TestAnalyticCovariance:
    def test_single_tone_rank_one(self, nested32):
        cov = analytic_covariance(ToneSet(((0.13, 1.0),)), nested32, 0.0)
        np.testing.assert_allclose(np.abs(cov), 1.0, atol=1e-12)
        evals = np.linalg.eigvalsh(cov)
        assert np.sum(evals > 1e-10) == 1

    def test_entries_are_lag_exponentials(self, nested32):
        nu = 0.2
        cov = analytic_covariance(ToneSet(((nu, 2.0),)), nested32, 0.0)
        slots = np.array(nested32.slots)
        expected = 2.0 * np.exp(2j * np.pi * nu * (slots[:, None] - slots[None, :]))
        np.testing.assert_allclose(cov, expected, atol=1e-12)

    def test_noise_only(self, nested32):
        cov = analytic_covariance(ToneSet(()), nested32, 0.7)
        np.testing.assert_allclose(cov, 0.7 * np.eye(5))

    def test_two_tones_rank_two(self, nested32):
        cov = analytic_covariance(ToneSet(((-0.1, 1.0), (0.3, 0.5))), nested32, 0.0)
        evals = np.linalg.eigvalsh(cov)
        assert np.sum(evals > 1e-10) == 2

    def test_sample_covariance_converges(self, nested32):
        tones = ToneSet(((0.05, 1.0), (-0.22, 0.7), (0.31, 0.2), (0.4, 1.5)))
        exact = analytic_covariance(tones, nested32, 0.5)
        snaps = generate_snapshots(tones, nested32, 100_000, 0.5, rng_seed=11)
        sample = snaps.data.conj().T @ snaps.data / snaps.n_snapshots
        sample = sample.T
        rel = np.linalg.norm(sample - exact) / np.linalg.norm(exact)
        assert rel < 0.05

    def test_split_halves_agree(self, nested32):
        tones = ToneSet(((0.2, 1.0),))
        snaps = generate_snapshots(tones, nested32, 40_000, 0.2, rng_seed=2)
        half = snaps.n_snapshots // 2
        c1 = snaps.data[:half].conj().T @ snaps.data[:half] / half
        c2 = snaps.data[half:].conj().T @ snaps.data[half:] / half
        assert np.linalg.norm(c1 - c2) / np.linalg.norm(c1) < 0.1


class TestPulsatile:
    def test_single_frame_matches_generate(self, nested32):
        tones = ToneSet(((0.15, 1.0),))
        profile = PulsatileProfile(frames=(FrameSpec(tones=tones),))
        frames = generate_pulsatile(profile, nested32, 30, 0.1, rng_seed=9)
        assert len(frames) == 1
        assert frames[0].data.shape == (30, 5)

    def test_reproducible(self, nested32):
        profile = PulsatileProfile(
            frames=tuple(FrameSpec(tones=ToneSet(((0.1 * k % 0.4, 1.0),))) for k in range(4))
        )
        a = generate_pulsatile(profile, nested32, 10, 0.0, rng_seed=1)
        b = generate_pulsatile(profile, nested32, 10, 0.0, rng_seed=1)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.data, fb.data)

    def test_clutter_power_relative_to_blood(self):
        frame = FrameSpec(
            tones=ToneSet(((0.2, 2.0),)), clutter_frequency=0.005, clutter_db=40.0
        )
        eff = frame.effective_tones()
        assert eff.tones[-1] == (0.005, pytest.approx(2.0 * 1e4))

    def test_profile_json_round_trip(self):
        profile = PulsatileProfile(
            frames=(
                FrameSpec(tones=ToneSet(((0.2, 1.0),)), clutter_frequency=0.01, clutter_db=30.0),
                FrameSpec(tones=ToneSet(((0.25, 1.0), (-0.1, 0.2)))),
            ),
        )
        doc = {"P": 12, "profile": json.loads(profile.to_json())}
        assert ExperimentConfig.from_doc(doc).profile == profile

    def test_profile_frame_duration_must_be_one(self):
        profile = PulsatileProfile(frames=(FrameSpec(tones=ToneSet(((0.2, 1.0),))),))
        doc = json.loads(profile.to_json())
        again = ExperimentConfig.from_doc(
            {"P": 12, "profile": {**doc, "frame_duration_cpis": 1}}
        ).profile
        assert again == profile
        with pytest.raises(ConfigError, match="frame_duration_cpis"):
            ExperimentConfig.from_doc({"P": 12, "profile": {**doc, "frame_duration_cpis": 2}})

    def test_clutter_frequency_needs_clutter_db(self):
        with pytest.raises(ValueError, match="clutter_db"):
            FrameSpec(tones=ToneSet(((0.2, 1.0),)), clutter_frequency=0.01)
        with pytest.raises(ValueError, match="clutter_frequency"):
            FrameSpec(tones=ToneSet(((0.2, 1.0),)), clutter_db=10.0)
