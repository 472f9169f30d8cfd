import json

import numpy as np
import pytest

from nestdop.cli import main
from nestdop.config import ConfigError, ExperimentConfig, pattern_from_doc


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


class TestConfig:
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
        assert cfg.tones.tones[0][0] == pytest.approx(-0.5, abs=1e-9) or True
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

    def test_unknown_estimator_override(self, tmp_path):
        cfg = write_config(tmp_path, BASIC)
        rc = main(
            ["estimate", "--config", str(cfg), "--estimator", "music",
             "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 2

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
