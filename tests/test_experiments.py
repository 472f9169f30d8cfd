"""The shared per-CPI path in nestdop.experiments, against inline references."""

import importlib
import importlib.util
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nestdop import coarray, estimators, experiments, memo, patterns
from nestdop.coarray import apodize, clutter_filter, estimate_covariance, lag_average
from nestdop.cli import main
from nestdop.config import ExperimentConfig
from nestdop.estimators import EstimationError, LineSpectrum, nest, nesprit, welch, zero_fill
from nestdop.patterns import difference_set
from nestdop.serialize import read_snapshots
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
            assert gram.powers.shape[0] == 3
            for got, snapshots in zip(gram.powers, frames):
                ref = reference_spectrum(name, snapshots, cfg)
                assert np.array_equal(got, ref.powers), name
                assert gram.num_bins == ref.num_bins, name

    def test_one_covariance_per_frame(self, monkeypatch):
        # each call covers a stack of frames: count the matrices it returns
        matrices = []

        def counting(*args, **kwargs):
            cov = estimate_covariance(*args, **kwargs)
            matrices.append(math.prod(cov.matrix.shape[:-2]))
            return cov

        monkeypatch.setattr(experiments, "estimate_covariance", counting)
        cfg = compare_config()
        experiments.run_compare(cfg)
        assert sum(matrices) == len(cfg.profile.frames)

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


def count_builders(monkeypatch):
    """Count the calls of the functions that build the run constants, by name."""
    return {
        name: counted(monkeypatch, owners, name)
        for name, owners in [
            ("butterworth_highpass", [coarray]),
            ("filter_autocorrelation", [coarray]),
            ("difference_set", [patterns]),
        ]
    }


def readme_config() -> dict:
    [block] = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return json.loads(block)


class TestRunConstants:
    """The pattern is built once per run; the difference set, the filter and its
    kernel spectrum, the taper and the Lanczos start vector once per process."""

    @pytest.fixture(autouse=True)
    def _fresh_memos(self):
        memo.clear()
        yield
        memo.clear()

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
        calls = counted(monkeypatch, [patterns], "difference_set")
        cfg = compare_config()
        if run == "compare":
            experiments.run_compare(cfg)
        else:
            experiments.run_estimate(replace(cfg, profile=None, tones=TONES))
        assert len(calls) == 1

    def test_a_second_run_on_the_same_constants_builds_none(self, monkeypatch):
        experiments.run_compare(compare_config())
        calls = count_builders(monkeypatch)
        # a new config document with equal constants, as each benchmark operation parses
        cfg = compare_config()
        report = experiments.run_compare(replace(cfg, seed=cfg.seed + 1))
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 0)
        assert report["stats"]["nest"]["ridge_within_one_bin"] == 1.0

    @pytest.mark.parametrize(
        "change, rebuilt",
        [
            ({"filter": {**FILTER, "cutoff": 0.04}}, {"butterworth_highpass", "filter_autocorrelation"}),
            (
                {"P": 240, "pattern": {"family": "nested", "N1": 15, "N2": 15}},
                {"filter_autocorrelation", "difference_set"},
            ),
            ({"apodization": "hann"}, set()),
        ],
        ids=["cutoff", "P", "window"],
    )
    def test_a_new_constant_is_built_anew(self, monkeypatch, change, rebuilt):
        doc = {
            "P": 256,
            "pattern": {"family": "nested", "N1": 15, "N2": 16},
            "tones": [[0.2, 1.0]],
            "Q": 40,
            "filter": FILTER,
            "apodization": "hamming",
            "model_order": 1,
            "seed": 3,
        }
        experiments.run_estimate(ExperimentConfig.from_doc(doc))
        calls = count_builders(monkeypatch)
        cfg = ExperimentConfig.from_doc({**doc, **change})
        z = experiments.run_estimate(cfg)["coarray"]
        assert {name for name, c in calls.items() if c} == rebuilt
        # and the run uses them: its coarray is the one built by hand
        snapshots = generate_snapshots(cfg.tones, cfg.pattern, cfg.q, rng_seed=cfg.seed)
        ref = lag_average(estimate_covariance(snapshots), difference_set(cfg.pattern))
        ref = apodize(clutter_filter(ref, cfg.filter_spec.coefficients()), cfg.apodization_window())
        assert np.array_equal(z.values, ref.values)
        window = cfg.apodization_window()
        assert np.array_equal(coarray._taper(window), np.correlate(window, window, "full"))

    def test_the_memo_is_keyed_by_value(self):
        hann, hamming = np.hanning(64), np.hamming(64)
        assert coarray._taper(hann) is coarray._taper(hann.copy())
        assert coarray._taper(hann) is not coarray._taper(hamming)
        b, a = coarray.butterworth_highpass(4, 0.03)
        assert coarray._kernel_spectrum((b, a), 64) is coarray._kernel_spectrum((b.copy(), a), 64)
        assert coarray._kernel_spectrum((b, a), 64) is not coarray._kernel_spectrum((b, a), 65)

    def test_cached_arrays_are_read_only(self):
        cfg = compare_config()
        experiments.run_compare(cfg)
        p = cfg.window_size
        b, a = cfg.filter_spec.coefficients()
        fir = replace(cfg.filter_spec, kind="fir", taps=(1.0, -1.0)).coefficients()
        arrays = {
            "b": b,
            "a": a,
            "fir": fir,
            "position_lags": patterns.cached_difference_set(cfg.pattern).position_lags,
            "kernel": coarray._kernel_spectrum((b, a), p),
            "taper": coarray._taper(cfg.apodization_window()),
            "start": estimators._start_vector(p),
        }
        for name, x in arrays.items():
            assert not x.flags.writeable, name
            with pytest.raises(ValueError):
                x[0] = 0
        # the run built them: they are the memos' entries, not fresh copies
        assert coarray._kernel_spectrum((b.copy(), a.copy()), p) is arrays["kernel"]
        assert estimators._start_vector(p) is arrays["start"]

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

    def test_cpi_read_back_from_the_container_is_accepted(self, tmp_path):
        # the container keeps the slots but not the family's params
        config = tmp_path / "readme.json"
        config.write_text(json.dumps(readme_config()))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        snapshots = read_snapshots(tmp_path / "snapshots.bin")
        cfg = ExperimentConfig.from_file(config)
        assert snapshots.pattern.params != cfg.pattern.params
        [(z, spectra)] = experiments.estimate_cpis([snapshots], cfg)
        ref = experiments.run_estimate(cfg)
        assert np.array_equal(z.values, ref["coarray"].values)
        assert list(spectra) == list(ref["spectra"]) == ["nest", "nesprit"]
        assert np.array_equal(spectra["nest"].powers, ref["spectra"]["nest"].powers)
        assert spectra["nesprit"] == ref["spectra"]["nesprit"]

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


class TestStacks:
    """Stacking CPIs changes how many calls each stage makes, never a bit of the result."""

    @pytest.mark.parametrize("stack_bytes", [1, 1 << 30], ids=["one_cpi", "one_stack"])
    def test_mse_rows_do_not_depend_on_the_stack_size(self, monkeypatch, stack_bytes):
        cfg = ExperimentConfig.from_doc(
            {**TestMseConditioning.BASE, "filter": FILTER, "apodization": "hamming",
             "remove_mean": True, "subtract_noise": False}
        )
        default = experiments.run_mse(cfg)
        monkeypatch.setattr(experiments, "_STACK_BYTES", stack_bytes)
        assert repr(experiments.run_mse(cfg)) == repr(default)

    @pytest.mark.parametrize("stack_bytes", [1, 1 << 30], ids=["one_cpi", "one_stack"])
    def test_compare_does_not_depend_on_the_stack_size(self, monkeypatch, stack_bytes):
        cfg = compare_config()
        default = experiments.run_compare(cfg)
        monkeypatch.setattr(experiments, "_STACK_BYTES", stack_bytes)
        report = experiments.run_compare(cfg)
        assert report["stats"] == default["stats"]
        for name, gram in default["spectrograms"].items():
            assert np.array_equal(report["spectrograms"][name].powers, gram.powers)

    def test_stacks_are_bounded_and_of_one_shape(self, monkeypatch):
        pattern = compare_config().pattern
        cpis = [
            generate_snapshots(TONES, pattern, q, rng_seed=k)
            for k, q in enumerate([4, 4, 4, 4, 4, 6, 4])
        ]
        # each CPI counts as max(Q, P) x P complex values: three fit
        p = pattern.window_size
        monkeypatch.setattr(experiments, "_STACK_BYTES", 3 * p * p * 16)
        stacks = list(experiments._stacks(iter(cpis)))
        assert [s.data.shape[:2] for s in stacks] == [(3, 4), (2, 4), (1, 6), (1, 4)]
        rows = [row for s in stacks for row in s.data]
        assert all(np.array_equal(row, cpi.data) for row, cpi in zip(rows, cpis))


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
