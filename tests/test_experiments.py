"""The shared per-CPI path in nestdop.experiments, against inline references."""

import importlib
import importlib.util
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nestdop import coarray, experiments, patterns
from nestdop.coarray import apodize, clutter_filter, estimate_covariance, lag_average
from nestdop.config import ExperimentConfig
from nestdop.estimators import EstimationError, LineSpectrum, nest, nesprit, welch, zero_fill
from nestdop.patterns import difference_set
from nestdop.signals import ToneSet, generate_pulsatile, generate_snapshots

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

TONES = ToneSet(((0.2, 1.0), (0.005, 10.0)))
FILTER = {"type": "butterworth_highpass", "order": 4, "cutoff": 0.03}


def compare_config() -> ExperimentConfig:
    profile = experiments.sinusoidal_profile(
        3, base_frequency=0.2, swing=0.05, clutter_frequency=0.005, clutter_db=10.0
    )
    return ExperimentConfig.from_doc(
        {
            "P": 256,
            "pattern": {"family": "nested", "N1": 15, "N2": 16},
            "profile": json.loads(profile.to_json()),
            "Q": 40,
            "noise_power": 0.01,
            "filter": FILTER,
            "apodization": "hamming",
            "estimators": ["nest", "nesprit", "welch"],
            "zero_fill_welch": True,
            "model_order": 1,
            "nest_lambda": 0.005,
            "seed": 3,
        }
    )


def reference_spectrum(name, snapshots, cfg):
    """One estimator on one CPI, every stage called by hand."""
    pattern = snapshots.pattern
    if name == "welch":
        return welch(zero_fill(snapshots.data, pattern.slots, pattern.window_size))
    cov = estimate_covariance(snapshots, remove_mean=cfg.remove_mean)
    z = lag_average(cov, difference_set(pattern))
    z = clutter_filter(z, cfg.filter_spec.coefficients())
    z = apodize(z, np.hamming(pattern.window_size))
    if name == "nest":
        return nest(z, cfg.nest_lambda)
    lines = nesprit(z, model_order=cfg.model_order, subtract_noise=cfg.subtract_noise)
    return lines.rasterize(2 * pattern.window_size - 1)


class TestSharedPipeline:
    def test_compare_matches_inline_reference(self):
        cfg = compare_config()
        report = experiments.run_compare(cfg)
        frames = generate_pulsatile(
            cfg.profile, cfg.build_pattern(), cfg.q, noise_power=cfg.noise_power,
            rng_seed=cfg.seed,
        )
        assert list(report["spectrograms"]) == ["nest", "nesprit", "welch"]
        assert list(report["stats"]) == ["nest", "nesprit", "welch"]
        for name, gram in report["spectrograms"].items():
            assert gram.metadata["estimator"] == name
            assert [t for t, _ in gram.frames] == [0, 1, 2]
            for (_, got), snapshots in zip(gram.frames, frames):
                ref = reference_spectrum(name, snapshots, cfg)
                assert np.array_equal(got.powers, ref.powers), name
                assert np.array_equal(got.frequencies, ref.frequencies), name

    def test_one_covariance_per_frame(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return estimate_covariance(*args, **kwargs)

        monkeypatch.setattr(experiments, "estimate_covariance", counting)
        cfg = compare_config()
        experiments.run_compare(cfg)
        assert len(calls) == len(cfg.profile.frames)

    def test_estimate_matches_inline_reference(self):
        cfg = replace(compare_config(), profile=None, tones=TONES)
        result = experiments.run_estimate(cfg)
        snapshots = generate_snapshots(
            cfg.tones, cfg.build_pattern(), cfg.q, noise_power=cfg.noise_power,
            rng_seed=cfg.seed,
        )
        for name, spec in result["spectra"].items():
            if isinstance(spec, LineSpectrum):
                spec = spec.rasterize(2 * cfg.window_size - 1)
            assert np.array_equal(
                spec.powers, reference_spectrum(name, snapshots, cfg).powers
            ), name

    def test_welch_alone_builds_no_coarray(self, monkeypatch):
        monkeypatch.setattr(experiments, "estimate_covariance", None)
        cfg = replace(compare_config(), profile=None, tones=TONES, estimators=("welch",))
        result = experiments.run_estimate(cfg)
        assert result["coarray"] is None
        assert list(result["spectra"]) == ["welch"]


def counted(monkeypatch, owners, name):
    """Count the calls of ``name`` at every module in ``owners`` that binds it."""
    calls = []
    original = getattr(owners[0], name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)
    return calls


def readme_config() -> dict:
    [block] = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return json.loads(block)


class TestRunConstants:
    """The pattern, its difference set and the filter are built once per run."""

    def test_optimal_nested_once_per_estimate(self, monkeypatch):
        calls = counted(monkeypatch, [patterns], "optimal_nested")
        cfg = ExperimentConfig.from_doc(readme_config())
        experiments.run_estimate(cfg)
        assert len(calls) == 1

    def test_butterworth_once_per_compare(self, monkeypatch):
        calls = counted(monkeypatch, [coarray], "butterworth_highpass")
        cfg = compare_config()
        experiments.run_compare(cfg)
        assert len(cfg.profile.frames) > 1
        assert len(calls) == 1

    @pytest.mark.parametrize("run", ["compare", "estimate"])
    def test_difference_set_once_per_run(self, monkeypatch, run):
        calls = counted(monkeypatch, [patterns, experiments], "difference_set")
        cfg = compare_config()
        if run == "compare":
            experiments.run_compare(cfg)
        else:
            experiments.run_estimate(replace(cfg, profile=None, tones=TONES))
        assert len(calls) == 1

    def test_cpis_are_estimated_lazily(self):
        cfg = replace(compare_config(), profile=None, tones=TONES)
        drawn = []

        def cpis():
            for seed in range(3):
                drawn.append(seed)
                yield generate_snapshots(cfg.tones, cfg.pattern, cfg.q, rng_seed=seed)

        results = experiments.estimate_cpis(cpis(), cfg)
        assert drawn == []
        next(results)
        assert drawn == [0]
        assert len(list(results)) == 2

    def test_cpi_on_another_pattern_is_rejected(self):
        # same N and P, other slots: the lag map would silently be wrong
        cfg = replace(compare_config(), profile=None, tones=TONES)
        other = patterns.build_super_nested(15, 16)
        assert other.n_transmissions == cfg.pattern.n_transmissions
        assert other.slots != cfg.pattern.slots
        snapshots = generate_snapshots(cfg.tones, other, cfg.q, rng_seed=0)
        with pytest.raises(EstimationError, match="slots"):
            next(experiments.estimate_cpis([snapshots], cfg))


class TestMseConditioning:
    BASE = {
        "P": 12,
        "pattern": {"family": "nested", "N1": 3, "N2": 3},
        "tones": [[0.2, 1.0]],
        "Q": 50,
        "trials": 20,
        "snr_list_db": [0.0, 20.0],
        "seed": 4,
    }

    def rows(self, **extra):
        cfg = ExperimentConfig.from_doc({**self.BASE, **extra})
        return {(r.snr_db, r.estimator): r.mse for r in experiments.run_mse(cfg)}

    @pytest.mark.parametrize(
        "extra", [{"filter": FILTER}, {"apodization": "hamming"}], ids=["filter", "hamming"]
    )
    def test_conditioning_reaches_the_coarray_estimators(self, extra):
        plain, conditioned = self.rows(), self.rows(**extra)
        assert plain.keys() == conditioned.keys()
        for snr in self.BASE["snr_list_db"]:
            assert conditioned[(snr, "nesprit")] != plain[(snr, "nesprit")]
            # the Welch baseline sees the raw fully sampled draw
            assert conditioned[(snr, "welch")] == plain[(snr, "welch")]


class TestTracerTargets:
    def test_every_traced_name_resolves(self, monkeypatch):
        # the benchmark tracer wraps these by name; a rename would break it
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.TRACED
        for mod_name, qual in tracing.TRACED:
            obj = importlib.import_module(f"nestdop.{mod_name}")
            for part in qual.split("."):
                assert hasattr(obj, part), f"nestdop.{mod_name}.{qual}"
                obj = getattr(obj, part)
            assert callable(obj), f"nestdop.{mod_name}.{qual}"
