"""Experiment configuration: JSON documents validated into dataclasses."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import patterns
from .patterns import EmissionPattern, Family, KLevelParams, PatternError
from .signals import PulsatileProfile, ToneSet
from .units import PhysicalParams

VALID_ESTIMATORS = ("nest", "nesprit", "welch")
VALID_WINDOWS = ("hamming", "hann", "rect")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


# top-level keys that ExperimentConfig.from_doc accepts
CONFIG_KEYS = (
    "P",
    "pattern",
    "tones",
    "velocities",
    "profile",
    "Q",
    "noise_power",
    "snr_db",
    "snr_list_db",
    "trials",
    "nest_lambda",
    "rank_lambda",
    "model_order",
    "remove_mean",
    "subtract_noise",
    "filter",
    "apodization",
    "zero_fill_welch",
    "estimators",
    "seed",
    "physical",
)


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class FilterSpec:
    """Clutter filter description: Butterworth high-pass or explicit FIR taps."""

    kind: str  # "butterworth_highpass" | "fir"
    cutoff: float | None = None  # cycles/sample, for butterworth
    order: int = 4
    taps: tuple[float, ...] | None = None

    @classmethod
    def from_doc(cls, doc: dict) -> "FilterSpec":
        _require(isinstance(doc, dict), "filter must be an object")
        kind = doc.get("type")
        if kind == "butterworth_highpass":
            cutoff = doc.get("cutoff")
            _require(
                isinstance(cutoff, (int, float)) and 0 < cutoff < 0.5,
                "filter.cutoff must be in (0, 0.5) cycles/sample",
            )
            order = doc.get("order", 4)
            _require(_is_int(order) and order >= 1, "filter.order must be an integer >= 1")
            return cls(kind=kind, cutoff=float(cutoff), order=order)
        if kind == "fir":
            taps = doc.get("taps")
            _require(
                isinstance(taps, list) and taps,
                "filter.taps must be a nonempty list of coefficients",
            )
            return cls(kind=kind, taps=tuple(float(t) for t in taps))
        raise ConfigError(f"unknown filter type {kind!r}")

    def coefficients(self):
        """Return what coarray.clutter_filter expects: taps or (b, a)."""
        from .coarray import butterworth_highpass

        if self.kind == "fir":
            return np.asarray(self.taps)
        return butterworth_highpass(self.order, self.cutoff)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description shared by all CLI subcommands."""

    window_size: int
    pattern_doc: dict
    tones: ToneSet | None = None
    profile: PulsatileProfile | None = None
    q: int = 33
    noise_power: float = 0.0
    snr_list_db: tuple[float, ...] = ()
    trials: int = 1000
    nest_lambda: float = 0.0
    rank_lambda: float = 0.0
    model_order: int | None = None
    remove_mean: bool = False
    subtract_noise: bool = True
    filter_spec: FilterSpec | None = None
    apodization: str | None = None
    zero_fill_welch: bool = False
    estimators: tuple[str, ...] = ("nest", "nesprit")
    seed: int = 0
    physical: PhysicalParams | None = None

    def build_pattern(self) -> EmissionPattern:
        return pattern_from_doc(self.pattern_doc, self.window_size)

    def apodization_window(self) -> np.ndarray | None:
        if self.apodization is None:
            return None
        p = self.window_size
        if self.apodization == "hamming":
            return np.hamming(p)
        if self.apodization == "hann":
            return np.hanning(p)
        return np.ones(p)

    @classmethod
    def from_doc(cls, doc: dict, overrides: dict | None = None) -> "ExperimentConfig":
        """Validate a config document; ``overrides`` replace its top-level keys."""
        _require(isinstance(doc, dict), "config must be a JSON object")
        doc = {**doc, **(overrides or {})}
        unknown = set(doc) - set(CONFIG_KEYS)
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")
        try:
            return cls._parse(doc)
        except ConfigError:
            raise
        except KeyError as exc:
            raise ConfigError(f"missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed value: {exc}") from exc

    @classmethod
    def _parse(cls, doc: dict) -> "ExperimentConfig":
        p = doc.get("P")
        _require(_is_int(p) and p >= 2, "P must be an integer >= 2")

        pattern_doc = doc.get("pattern", {"family": "nested", "optimal": True})
        _require(isinstance(pattern_doc, dict), "pattern must be an object")
        pattern_from_doc(pattern_doc, p)  # validate eagerly

        physical = None
        if "physical" in doc:
            ph = doc["physical"]
            _require(isinstance(ph, dict), "physical must be an object")
            physical = PhysicalParams(
                f0_hz=float(ph["f0_hz"]),
                fprf_hz=float(ph["fprf_hz"]),
                c_m_s=float(ph.get("c_m_s", 1540.0)),
            )

        tones = None
        if "tones" in doc:
            tones = ToneSet(tuple((float(nu), float(pw)) for nu, pw in doc["tones"]))
        if "velocities" in doc:
            _require(tones is None, "give either tones or velocities, not both")
            _require(
                physical is not None,
                "velocities require the physical parameter block",
            )
            tones = ToneSet(
                tuple(
                    (physical.normalized_frequency(float(v)), float(pw))
                    for v, pw in doc["velocities"]
                )
            )

        profile = None
        if "profile" in doc:
            profile = PulsatileProfile.from_json(json.dumps(doc["profile"]))

        q = doc.get("Q", 33)
        _require(_is_int(q) and q >= 1, "Q must be an integer >= 1")

        noise_power = doc.get("noise_power", 0.0)
        _require(
            isinstance(noise_power, (int, float)) and noise_power >= 0,
            "noise_power must be nonnegative",
        )
        if "snr_db" in doc:
            _require(
                "noise_power" not in doc, "give either snr_db or noise_power, not both"
            )
            _require(tones is not None or profile is not None,
                     "snr_db needs tones or a profile to define signal power")
            signal_power = (
                tones.total_power
                if tones is not None
                else profile.frames[0].tones.total_power
            )
            noise_power = signal_power / 10.0 ** (float(doc["snr_db"]) / 10.0)

        snr_list = tuple(float(s) for s in doc.get("snr_list_db", ()))

        trials = doc.get("trials", 1000)
        _require(_is_int(trials) and trials >= 1, "trials must be an integer >= 1")

        estimators = tuple(doc.get("estimators", ["nest", "nesprit"]))
        bad = [e for e in estimators if e not in VALID_ESTIMATORS]
        _require(not bad, f"unknown estimators {bad}; valid: {VALID_ESTIMATORS}")
        _require(len(estimators) >= 1, "need at least one estimator")

        apod = doc.get("apodization")
        _require(
            apod is None or apod in VALID_WINDOWS,
            f"apodization must be one of {VALID_WINDOWS}",
        )

        filter_spec = None
        if doc.get("filter") is not None:
            filter_spec = FilterSpec.from_doc(doc["filter"])

        model_order = doc.get("model_order")
        _require(
            model_order is None or (_is_int(model_order) and model_order >= 1),
            "model_order must be a positive integer",
        )

        for key in ("nest_lambda", "rank_lambda"):
            val = doc.get(key, 0.0)
            _require(
                isinstance(val, (int, float)) and val >= 0,
                f"{key} must be nonnegative",
            )

        seed = doc.get("seed", 0)
        _require(_is_int(seed), "seed must be an integer")

        return cls(
            window_size=p,
            pattern_doc=pattern_doc,
            tones=tones,
            profile=profile,
            q=q,
            noise_power=float(noise_power),
            snr_list_db=snr_list,
            trials=trials,
            nest_lambda=float(doc.get("nest_lambda", 0.0)),
            rank_lambda=float(doc.get("rank_lambda", 0.0)),
            model_order=model_order,
            remove_mean=bool(doc.get("remove_mean", False)),
            subtract_noise=bool(doc.get("subtract_noise", True)),
            filter_spec=filter_spec,
            apodization=apod,
            zero_fill_welch=bool(doc.get("zero_fill_welch", False)),
            estimators=estimators,
            seed=seed,
            physical=physical,
        )

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_doc(doc, overrides)


def pattern_from_doc(doc: dict, p: int) -> EmissionPattern:
    """Build a pattern from its config description, for window size P."""
    family = doc.get("family", "nested")
    try:
        family = Family(family)
    except ValueError as exc:
        raise ConfigError(f"unknown pattern family {family!r}") from exc
    try:
        if family is Family.STANDARD:
            return patterns.build_standard(p)
        if family is Family.NESTED:
            if doc.get("optimal") or "N1" not in doc:
                n1, n2 = patterns.optimal_nested(
                    p, doc.get("preference", "fewer_larger_gaps")
                )
            else:
                n1, n2 = doc["N1"], doc["N2"]
            pat = patterns.build_nested(n1, n2)
        elif family is Family.SUPER_NESTED:
            pat = patterns.build_super_nested(doc["N1"], doc["N2"])
        elif family is Family.COPRIME:
            pat = patterns.build_coprime(doc["N1"], doc["N2"])
        else:
            if "levels" in doc:
                pat = patterns.build_klevel(KLevelParams(tuple(doc["levels"])))
            else:
                pat = patterns.build_klevel(patterns.optimal_klevel(p))
    except KeyError as exc:
        raise ConfigError(f"pattern family {family.value} needs parameter {exc}") from exc
    except (PatternError, TypeError) as exc:
        raise ConfigError(f"bad pattern parameters: {exc}") from exc
    if pat.window_size != p:
        raise ConfigError(
            f"pattern parameters give window {pat.window_size}, config says P={p}"
        )
    return pat
