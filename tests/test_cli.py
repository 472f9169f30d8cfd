import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nestdop import config
from nestdop.cli import main
from nestdop.config import CONFIG_KEYS, ConfigError, ExperimentConfig, pattern_from_doc
from nestdop.patterns import Family

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASIC = {
    "P": 12,
    "pattern": {"family": "nested", "N1": 3, "N2": 3},
    "tones": [[0.2, 1.0]],
    "Q": 16,
    "noise_power": 0.1,
    "seed": 42,
}

PHYSICAL = {"f0_hz": 5e6, "fprf_hz": 2000.0}

# a valid non-default value for every top-level config key, with the other
# keys that value needs: (context, value)
KNOBS = {
    "P": ({}, 24),
    "pattern": ({}, {"family": "standard"}),
    "tones": ({}, [[0.2, 1.0]]),
    "velocities": ({"physical": PHYSICAL}, [[0.1, 1.0]]),
    "profile": ({}, {"frames": [{"tones": [[0.1, 1.0]]}]}),
    "Q": ({}, 16),
    "noise_power": ({}, 0.5),
    "snr_db": ({"tones": [[0.2, 1.0]]}, 10.0),
    "snr_list_db": ({}, [0.0, 10.0]),
    "trials": ({}, 5),
    "nest_lambda": ({}, 0.5),
    "rank_lambda": ({}, 0.5),
    "model_order": ({}, 2),
    "remove_mean": ({}, True),
    "subtract_noise": ({}, False),
    "filter": ({}, {"type": "fir", "taps": [1.0, -1.0]}),
    "apodization": ({}, "hann"),
    "zero_fill_welch": ({}, True),
    "estimators": ({}, ["welch"]),
    "seed": ({}, 7),
    "physical": ({}, PHYSICAL),
}


def _pattern(p, **pattern):
    return {"P": p, "pattern": pattern}


def _frame(**frame):
    return {"P": 12, "profile": {"frames": [{"tones": [[0.1, 1.0]], **frame}]}}


BUTTERWORTH = {"type": "butterworth_highpass", "cutoff": 0.1}
CLUTTER = {"clutter_frequency": 0.01, "clutter_db": 10.0}

# two valid configs that differ in one key of a nested table, as
# "<document>[.<family or type>].<key>": (base, variant). At a fixed window
# N1 and N2 can only change together, and "type" changes the filter's table.
NESTED_KNOBS = {
    "pattern.family": (_pattern(12, family="standard"), _pattern(12, family="k_level")),
    "pattern.nested.N1": (
        _pattern(12, family="nested", N1=3, N2=3),
        _pattern(12, family="nested", N1=5, N2=2),
    ),
    "pattern.nested.N2": (
        _pattern(12, family="nested", N1=3, N2=3),
        _pattern(12, family="nested", N1=2, N2=4),
    ),
    "pattern.nested.preference": (
        _pattern(128, family="nested", preference="fewer_larger_gaps"),
        _pattern(128, family="nested", preference="more_smaller_gaps"),
    ),
    "pattern.super_nested.N1": (
        _pattern(30, family="super_nested", N1=5, N2=5),
        _pattern(30, family="super_nested", N1=9, N2=3),
    ),
    "pattern.super_nested.N2": (
        _pattern(30, family="super_nested", N1=5, N2=5),
        _pattern(30, family="super_nested", N1=4, N2=6),
    ),
    "pattern.coprime.N1": (
        _pattern(31, family="coprime", N1=3, N2=10),
        _pattern(31, family="coprime", N1=5, N2=6),
    ),
    "pattern.coprime.N2": (
        _pattern(31, family="coprime", N1=3, N2=10),
        _pattern(31, family="coprime", N1=2, N2=15),
    ),
    "pattern.k_level.levels": (
        _pattern(12, family="k_level", levels=[1, 1, 3]),
        _pattern(12, family="k_level", levels=[2, 4]),
    ),
    "filter.type": (
        {"P": 12, "filter": {"type": "fir", "taps": [1.0, -1.0]}},
        {"P": 12, "filter": BUTTERWORTH},
    ),
    "filter.butterworth_highpass.cutoff": (
        {"P": 12, "filter": BUTTERWORTH},
        {"P": 12, "filter": {**BUTTERWORTH, "cutoff": 0.2}},
    ),
    "filter.butterworth_highpass.order": (
        {"P": 12, "filter": BUTTERWORTH},
        {"P": 12, "filter": {**BUTTERWORTH, "order": 2}},
    ),
    "filter.fir.taps": (
        {"P": 12, "filter": {"type": "fir", "taps": [1.0, -1.0]}},
        {"P": 12, "filter": {"type": "fir", "taps": [1.0, -0.5]}},
    ),
    "physical.f0_hz": (
        {"P": 12, "physical": PHYSICAL},
        {"P": 12, "physical": {**PHYSICAL, "f0_hz": 3e6}},
    ),
    "physical.fprf_hz": (
        {"P": 12, "physical": PHYSICAL},
        {"P": 12, "physical": {**PHYSICAL, "fprf_hz": 4000.0}},
    ),
    "physical.c_m_s": (
        {"P": 12, "physical": PHYSICAL},
        {"P": 12, "physical": {**PHYSICAL, "c_m_s": 1500.0}},
    ),
    "profile.frames": (_frame(), {"P": 12, "profile": {"frames": [{"tones": [[0.2, 1.0]]}] * 2}}),
    "frame.tones": (_frame(), _frame(tones=[[0.2, 1.0]])),
    "frame.clutter_frequency": (
        _frame(**CLUTTER),
        _frame(**{**CLUTTER, "clutter_frequency": 0.02}),
    ),
    "frame.clutter_db": (_frame(**CLUTTER), _frame(**{**CLUTTER, "clutter_db": 20.0})),
}
# keys that assert a value and select nothing; MALFORMED covers their other values
UNSELECTIVE = {"pattern.nested.optimal", "profile.frame_duration_cpis"}


def _nested_keys():
    """Every key of every nested table, named like the NESTED_KNOBS ids."""
    tables = {
        **{f"pattern.{name}": t for name, t in config.PATTERN_SCHEMA.items()},
        **{f"filter.{name}": t for name, t in config.FILTER_SCHEMA.items()},
        "physical": config.PHYSICAL_SCHEMA,
        "profile": config.PROFILE_SCHEMA,
        "frame": config.FRAME_SCHEMA,
    }
    keys = {f"{doc}.{key}" for doc, table in tables.items() for key in table}
    return keys | {"pattern.family", "filter.type"}


def _resolved(doc):
    # the config holds the built pattern, not the document that described it
    return ExperimentConfig.from_doc(doc)


class TestConfig:
    def test_knob_table_covers_every_key(self):
        assert set(KNOBS) == set(CONFIG_KEYS)
        assert set(NESTED_KNOBS) | UNSELECTIVE == _nested_keys()
        assert set(config.PATTERN_SCHEMA) == {f.value for f in Family}

    @pytest.mark.parametrize("key", sorted(KNOBS) + sorted(NESTED_KNOBS))
    def test_every_key_changes_the_config(self, key):
        # a key that is parsed and then dropped leaves the config unchanged
        if key in KNOBS:
            context, value = KNOBS[key]
            base, variant = {"P": 12, **context}, {"P": 12, **context, key: value}
        else:
            base, variant = NESTED_KNOBS[key]
        assert _resolved(variant) != _resolved(base)

    def test_basic_round(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_config(tmp_path, BASIC))
        assert cfg.window_size == 12
        assert cfg.build_pattern().slots == (1, 2, 3, 4, 8, 12)
        assert cfg.tones.tones == ((0.2, 1.0),)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_doc({**BASIC, "typo_key": 1})

    def test_snr_and_noise_exclusive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_doc({**BASIC, "snr_db": 10})

    def test_snr_sets_noise_power(self):
        doc = {k: v for k, v in BASIC.items() if k != "noise_power"}
        cfg = ExperimentConfig.from_doc({**doc, "snr_db": 10})
        assert cfg.noise_power == pytest.approx(0.1)

    def test_velocities_need_physical(self):
        doc = {k: v for k, v in BASIC.items() if k != "tones"}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_doc({**doc, "velocities": [[0.1, 1.0]]})

    def test_velocities_converted(self):
        doc = {k: v for k, v in BASIC.items() if k != "tones"}
        cfg = ExperimentConfig.from_doc(
            {
                **doc,
                "velocities": [[0.154, 1.0]],
                "physical": {"f0_hz": 5e6, "fprf_hz": 2000.0},
            }
        )
        # nu = -2 v f0 / (c fprf) = -2*0.154*5e6/(1540*2000)
        nu = cfg.tones.tones[0][0]
        assert nu == pytest.approx(-2 * 0.154 * 5e6 / (1540.0 * 2000.0))

    def test_pattern_window_mismatch(self):
        with pytest.raises(ConfigError):
            pattern_from_doc({"family": "nested", "N1": 3, "N2": 3}, 13)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            pattern_from_doc({"family": "mystery"}, 12)

    def test_filter_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_doc(
                {**BASIC, "filter": {"type": "butterworth_highpass", "cutoff": 0.7}}
            )
        cfg = ExperimentConfig.from_doc(
            {**BASIC, "filter": {"type": "fir", "taps": [1.0, -1.0]}}
        )
        np.testing.assert_array_equal(cfg.filter_spec.coefficients(), [1.0, -1.0])


class TestDesign:
    def test_nested_256(self, tmp_path, capsys):
        assert main(["design", "256", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "N=31" in out
        assert "savings=87.9%" in out
        doc = json.loads((tmp_path / "design.json").read_text())
        assert doc[0]["transmissions"] == 31
        assert doc[0]["gaps"] == {"count": 15, "sizes": [15]}
        assert doc[0]["contiguous_coarray"] is True

    def test_two_variants_for_128(self, tmp_path):
        assert main(["design", "128", "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "design.json").read_text())
        assert len(doc) == 2
        params = {tuple(d["params"].values()) for d in doc}
        assert params == {(15, 8), (7, 16)}
        assert (tmp_path / "pattern_1.json").exists()

    def test_k_level(self, tmp_path, capsys):
        assert main(["design", "12", "--family", "k_level", "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "design.json").read_text())
        assert doc[0]["slots"] == [1, 2, 4, 8, 12]
        assert doc[0]["contiguous_coarray"] is False

    def test_super_nested_needs_params(self, tmp_path):
        assert main(["design", "256", "--family", "super_nested", "--out-dir", str(tmp_path)]) == 2

    def test_nested_n1_needs_n2(self, tmp_path, capsys):
        assert main(["design", "256", "--n1", "15", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "N2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["256", "--family", "k_level", "--levels", "2", "3"],
            ["256", "--family", "coprime", "--n1", "3", "--n2", "7"],
            ["255", "--family", "super_nested", "--n1", "15", "--n2", "16"],
        ],
        ids=["k_level", "coprime", "super_nested"],
    )
    def test_explicit_params_must_match_window(self, tmp_path, capsys, argv):
        assert main(["design", *argv, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"config says P={argv[0]}" in err
        assert not (tmp_path / "design.json").exists()

    def test_k_level_levels_savings(self, tmp_path, capsys):
        argv = ["design", "9", "--family", "k_level", "--levels", "2", "3"]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        assert "savings=44.4%" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["256", "--n2", "5"],
            ["12", "--family", "k_level", "--n1", "3"],
            ["16", "--family", "standard", "--levels", "2"],
        ],
        ids=["nested_n2_alone", "k_level_n1", "standard_levels"],
    )
    def test_params_the_family_does_not_read(self, tmp_path, capsys, argv):
        assert main(["design", *argv, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
        assert "N1: required" in err or "unknown keys" in err
        assert not (tmp_path / "design.json").exists()

    def test_preference_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["design", "256", "--preference", "more_smaller_gaps"])
        assert exc.value.code == 2

    def test_super_nested(self, tmp_path):
        rc = main(
            ["design", "256", "--family", "super_nested", "--n1", "15", "--n2", "16",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "design.json").read_text())
        assert doc[0]["transmissions"] == 31
        assert doc[0]["contiguous_coarray"] is True


class TestEstimateCommand:
    def test_runs_and_writes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASIC)
        out_dir = tmp_path / "out"
        rc = main(["estimate", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "coarray.csv").exists()
        assert (out_dir / "nest_spectrum.csv").exists()
        assert (out_dir / "nesprit_spectrum.csv").exists()
        assert "peak at nu=" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "doc",
        [
            {"P": 128, "tones": [[0.2, 0.0]], "Q": 10, "model_order": 1, "seed": 1},
            {
                "P": 128,
                "tones": [[0.2, 1.0]],
                "Q": 10,
                "model_order": 2,
                "filter": {"type": "fir", "taps": [0.0]},
                "seed": 1,
            },
        ],
        ids=["zero_tone", "zero_filter"],
    )
    def test_zero_coarray_on_the_lanczos_path(self, tmp_path, capsys, doc):
        # ARPACK cannot start on an all-zero coarray; nesprit takes the dense path instead
        cfg = write_config(tmp_path, doc)
        rc = main(["estimate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        assert f"nesprit: {doc['model_order']} lines, noise ~0\n" in capsys.readouterr().out

    def test_welch_on_sparse_pattern_fails(self, tmp_path):
        cfg = write_config(tmp_path, {**BASIC, "estimators": ["welch"]})
        rc = main(["estimate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 3

    def test_welch_on_prime_optimal_nested(self, tmp_path):
        # optimal nested at prime P fills every slot (N1=P-1, N2=1), so
        # Welch runs without zero filling
        doc = {**BASIC, "P": 13, "pattern": {"family": "nested", "optimal": True}}
        cfg = write_config(tmp_path, {**doc, "estimators": ["welch"]})
        assert ExperimentConfig.from_file(cfg).build_pattern().slots == tuple(
            range(1, 14)
        )
        out_dir = tmp_path / "o"
        assert main(["estimate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "welch_spectrum.csv").exists()

    def test_welch_with_zero_fill(self, tmp_path):
        cfg = write_config(
            tmp_path, {**BASIC, "estimators": ["welch"], "zero_fill_welch": True}
        )
        out_dir = tmp_path / "o"
        assert main(["estimate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "welch_spectrum.csv").exists()

    def test_coarray_hole_is_numeric_error(self, tmp_path):
        doc = {**BASIC, "pattern": {"family": "k_level", "levels": [1, 1, 3]}}
        cfg = write_config(tmp_path, doc)
        rc = main(["estimate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 3

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {**BASIC, "bogus": 1})
        assert main(["estimate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2

    def test_invalid_json_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["estimate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"\xff\xfe{")
        rc = main(["estimate", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: ") and "Traceback" not in err

    def test_unknown_estimator_override(self, tmp_path):
        cfg = write_config(tmp_path, BASIC)
        rc = main(
            ["estimate", "--config", str(cfg), "--estimator", "music",
             "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_negative_lambda_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASIC)
        rc = main(
            ["estimate", "--config", str(cfg), "--lambda", "-1",
             "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "nest_lambda" in capsys.readouterr().err

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASIC)
        rc = main(
            ["estimate", "--config", str(cfg), "--seed", "-1",
             "--out-dir", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: seed: ")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASIC)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["estimate", "--config", str(cfg), "--out-dir", str(a)]) == 0
        assert main(["estimate", "--config", str(cfg), "--out-dir", str(b)]) == 0
        for name in ("coarray.csv", "nest_spectrum.csv", "nesprit_spectrum.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, BASIC)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["estimate", "--config", str(cfg), "--out-dir", str(a)])
        main(["estimate", "--config", str(cfg), "--seed", "99", "--out-dir", str(b)])
        assert (a / "coarray.csv").read_bytes() != (b / "coarray.csv").read_bytes()


class TestSimulateCommand:
    def test_writes_container(self, tmp_path):
        cfg = write_config(tmp_path, BASIC)
        out_dir = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        from nestdop.serialize import read_snapshots

        snaps = read_snapshots(out_dir / "snapshots.bin")
        assert snaps.data.shape == (16, 6)
        assert (out_dir / "snapshots.csv").exists()


PROFILE_DOC = {
    "frames": [
        {"tones": [[0.1, 1.0]]},
        {"tones": [[0.15, 1.0]]},
        {"tones": [[0.2, 1.0]]},
    ],
    "frame_duration_cpis": 1,
}


def _without(doc, *keys):
    return {k: v for k, v in doc.items() if k not in keys}


FRAME = {"tones": [[0.1, 1.0]]}

# malformed configs, each with the start of its error line after "config error: "
MALFORMED = {
    "fir_taps_null": ({**BASIC, "filter": {"type": "fir", "taps": [None]}}, "filter.taps[0]:"),
    "fir_taps_str": ({**BASIC, "filter": {"type": "fir", "taps": ["a"]}}, "filter.taps[0]:"),
    "estimators_int": ({**BASIC, "estimators": 5}, "estimators:"),
    "estimators_duplicate": ({**BASIC, "estimators": ["nest", "nest"]}, "estimators:"),
    "snr_list_int": ({**BASIC, "snr_list_db": 5}, "snr_list_db:"),
    "snr_list_str": ({**BASIC, "snr_list_db": ["a"]}, "snr_list_db[0]:"),
    "snr_db_str": ({**_without(BASIC, "noise_power"), "snr_db": "x"}, "snr_db:"),
    "nested_n1_str": (
        {**BASIC, "pattern": {"family": "nested", "N1": "a", "N2": 3}},
        "pattern.N1:",
    ),
    "nested_n1_bool": (
        {**BASIC, "pattern": {"family": "nested", "N1": True, "N2": 6}},
        "pattern.N1:",
    ),
    "optimal_with_params": (
        {**BASIC, "pattern": {"family": "nested", "optimal": True, "N1": 3, "N2": 3}},
        "pattern.optimal:",
    ),
    "not_optimal_without_params": (
        {**BASIC, "pattern": {"family": "nested", "optimal": False}},
        "pattern.N1:",
    ),
    "preference_with_params": (
        {
            **BASIC,
            "pattern": {"family": "nested", "N1": 3, "N2": 3, "preference": "more_smaller_gaps"},
        },
        "pattern.preference:",
    ),
    "pattern_unknown_key": (
        {**BASIC, "pattern": {"family": "standard", "N1": 99, "bogus": 1}},
        "pattern: unknown keys ['N1', 'bogus']",
    ),
    "k_level_levels_int": (
        {**BASIC, "pattern": {"family": "k_level", "levels": 3}},
        "pattern.levels:",
    ),
    "P_bool": ({**BASIC, "P": True}, "P:"),
    "Q_bool": ({**BASIC, "Q": True}, "Q:"),
    "trials_bool": ({**BASIC, "trials": True}, "trials:"),
    "model_order_bool": ({**BASIC, "model_order": True}, "model_order:"),
    "seed_bool": ({**BASIC, "seed": True}, "seed:"),
    "seed_negative": ({**BASIC, "seed": -1}, "seed: expected an integer >= 0"),
    "subtract_noise_str": (
        {**BASIC, "subtract_noise": "false"},
        "subtract_noise: expected true or false",
    ),
    "remove_mean_str": ({**BASIC, "remove_mean": "no"}, "remove_mean:"),
    "filter_order_bool": (
        {**BASIC, "filter": {"type": "butterworth_highpass", "cutoff": 0.1, "order": True}},
        "filter.order:",
    ),
    "filter_unknown_key": (
        {**BASIC, "filter": {"type": "butterworth_highpass", "cutoff": 0.1, "ordr": 2}},
        "filter: unknown keys ['ordr']",
    ),
    "physical_unknown_key": (
        {**BASIC, "physical": {**PHYSICAL, "c": 1500}},
        "physical: unknown keys ['c']",
    ),
    "profile_unknown_key": (
        {**_without(BASIC, "tones"), "profile": {**PROFILE_DOC, "frame_count": 3}},
        "profile: unknown keys ['frame_count']",
    ),
    "frame_duration_2": (
        {**_without(BASIC, "tones"), "profile": {**PROFILE_DOC, "frame_duration_cpis": 2}},
        "profile.frame_duration_cpis:",
    ),
    "frame_duration_true": (
        {**_without(BASIC, "tones"), "profile": {**PROFILE_DOC, "frame_duration_cpis": True}},
        "profile.frame_duration_cpis:",
    ),
    "frame_unknown_key": (
        {
            **_without(BASIC, "tones"),
            "profile": {"frames": [{**FRAME, "clutter_freq": 0.01, "clutter_db": 10}]},
        },
        "profile.frames[0]: unknown keys ['clutter_freq']",
    ),
    "clutter_without_db": (
        {
            **_without(BASIC, "tones"),
            "profile": {"frames": [{**FRAME, "clutter_frequency": 0.01}]},
        },
        "profile.frames[0]:",
    ),
    "clutter_frequency_out_of_range": (
        {
            **_without(BASIC, "tones"),
            "profile": {"frames": [{**FRAME, "clutter_frequency": 0.7, "clutter_db": 10}]},
        },
        "profile.frames[0].clutter_frequency:",
    ),
    "clutter_db_without_frequency": (
        {**_without(BASIC, "tones"), "profile": {"frames": [FRAME, {**FRAME, "clutter_db": 10}]}},
        "profile.frames[1]:",
    ),
}


@pytest.mark.parametrize("doc,where", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_value_is_config_error(tmp_path, capsys, doc, where):
    cfg = write_config(tmp_path, doc)
    rc = main(["spectrogram", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"config error: {where}") and "Traceback" not in err


# each subcommand with the config input that it needs left out
MISSING_INPUT = {
    "simulate": _without(BASIC, "tones"),
    "estimate": _without(BASIC, "tones"),
    "spectrogram": BASIC,
    "compare": BASIC,
    "mse": BASIC,
}


@pytest.mark.parametrize("command", MISSING_INPUT)
def test_missing_input_is_precondition_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, MISSING_INPUT[command])
    rc = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error [EstimationError]: ") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--format", "pgm"],
        ["spectrogram", "--format", "json"],
        ["simulate", "--format", "json"],
        ["mse", "--format", "json"],
        ["compare", "--format", "pgm"],
    ],
    ids=lambda argv: f"{argv[0]}_{argv[2]}",
)
def test_format_only_where_read(tmp_path, argv):
    cfg = write_config(tmp_path, BASIC)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def _load_workloads():
    # load the benchmark's workloads read-only, without importing perfbench as a package
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_configs_parse(tmp_path, seed):
    workloads = _load_workloads()
    paths = []
    streams = (
        workloads.spectrogram_rounds(seed, tmp_path),
        workloads.mse_rounds(seed, tmp_path),
        workloads.cli_rounds(seed, tmp_path, None),
    )
    for ops in (next(stream) for stream in streams for _ in range(2)):
        for op in ops:
            op.prepare()
            if isinstance(op, workloads.CliOp):
                paths += [Path(a) for a, flag in zip(op.args[1:], op.args) if flag == "--config"]
            else:
                paths.append(op.path)
    assert len(paths) == 2 * (1 + 1 + 3)  # compare; mse; simulate, estimate, spectrogram
    for path in paths:
        ExperimentConfig.from_file(path).build_pattern()


def test_readme_configs_parse():
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        ExperimentConfig.from_doc(json.loads(block)).build_pattern()


def test_setup_probe_runs_on_readme_config(tmp_path):
    # the benchmark's setup_s comes from this script; it calls build_pattern()
    [block] = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    cfg = tmp_path / "config.json"
    cfg.write_text(block)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(cfg)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["setup_s"] > 0


# pytest has loaded numpy already, so the BLAS default is checked in fresh interpreters
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _default_env(**preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    return {**env, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1", **preset}


def test_tracer_installs_on_every_traced_name():
    # the benchmark looks each traced name up as a module attribute or as the
    # class's own __dict__ entry; a method moved to a base class breaks it
    env = _default_env(PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from tracing import Tracer; Tracer().install()"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _thread_vars_after_import(**preset):
    code = (
        "import json, os, nestdop; "
        f"print(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARS}}}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_default_env(**preset), timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def test_import_sets_one_blas_thread():
    assert _thread_vars_after_import() == dict.fromkeys(THREAD_VARS, "1")


def test_user_blas_thread_setting_wins():
    assert _thread_vars_after_import(OPENBLAS_NUM_THREADS="2")["OPENBLAS_NUM_THREADS"] == "2"


def _listing(text):
    """Header fields and {path: sha256} of a scripts/cli_digests.py listing."""
    fields, digests = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            field, _, value = line[2:].partition(": ")
            fields[field] = value
        else:
            digest, path = line.split("  ", 1)
            digests[path] = digest
    return fields, digests


def test_cli_outputs_match_committed_digests(tmp_path):
    # regenerate tests/data/cli_digests.txt with `python scripts/cli_digests.py --write`
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_digests.py"), str(tmp_path / "out")],
        capture_output=True, text=True, env=_default_env(), timeout=300, check=True,
    )
    want_env, want = _listing((ROOT / "tests" / "data" / "cli_digests.txt").read_text())
    got_env, got = _listing(proc.stdout)
    fields = [f"{f} ({got_env.get(f)!r}, listing {v!r})" for f, v in want_env.items()
              if got_env.get(f) != v]
    changed = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
    # a changed digest always fails; the fingerprint only explains it
    assert not changed, f"outputs differ from the listing: {changed}; environment: {fields}"
    if fields:
        pytest.skip(f"listing was written in another environment: {', '.join(fields)}")


class TestSpectrogramCommand:
    def test_writes_csv_and_pgm(self, tmp_path):
        doc = {k: v for k, v in BASIC.items() if k != "tones"}
        cfg = write_config(tmp_path, {**doc, "profile": PROFILE_DOC})
        out_dir = tmp_path / "o"
        rc = main(
            ["spectrogram", "--config", str(cfg), "--out-dir", str(out_dir),
             "--format", "pgm"]
        )
        assert rc == 0
        assert (out_dir / "nest_spectrogram.csv").exists()
        pgm = (out_dir / "nest_spectrogram.pgm").read_bytes()
        assert pgm.startswith(b"P5\n")

    def test_needs_profile(self, tmp_path):
        cfg = write_config(tmp_path, BASIC)
        rc = main(["spectrogram", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 3


class TestMseCommand:
    def test_small_sweep(self, tmp_path, capsys):
        doc = {**BASIC, "snr_list_db": [0.0, 10.0], "trials": 3}
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "o"
        assert main(["mse", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "mse.csv").read_text().splitlines()
        assert lines[0] == "snr_db,estimator,mse"
        assert len(lines) == 1 + 2 * 3  # two SNRs x three estimators

    def test_requires_snr_list(self, tmp_path):
        cfg = write_config(tmp_path, BASIC)
        assert main(["mse", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3


class TestCompareCommand:
    def test_report(self, tmp_path):
        doc = {k: v for k, v in BASIC.items() if k != "tones"}
        cfg = write_config(
            tmp_path,
            {**doc, "profile": PROFILE_DOC, "estimators": ["nest", "welch"],
             "zero_fill_welch": True},
        )
        out_dir = tmp_path / "o"
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        stats = json.loads((out_dir / "report.json").read_text())
        assert set(stats) == {"nest", "welch"}
        for st in stats.values():
            assert 0.0 <= st["ridge_within_one_bin"] <= 1.0
