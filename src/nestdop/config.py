"""Experiment configuration: JSON documents validated into dataclasses.

Every document and nested block is declared once, as a table of
``key -> (default, parser)`` that ``_fields`` checks it against.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import patterns
from .memo import memo
from .patterns import EmissionPattern, KLevelParams, PatternError
from .signals import FrameSpec, PulsatileProfile, ToneSet
from .units import PhysicalParams


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration.

    ``path`` holds the keys and list indices from the document root to the
    offending value; the message starts with it.
    """

    def __init__(self, reason: str, path: tuple = ()):
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        super().__init__(f"{where[1:]}: {reason}" if path else reason)
        self.reason = reason
        self.path = path


_REQUIRED = object()  # the table default of a key that must be given


def _at(key, parse, value):
    """``parse(value)``, with a ValueError re-raised as a ConfigError at ``key``."""
    try:
        return parse(value)
    except ConfigError as exc:
        raise ConfigError(exc.reason, (key, *exc.path)) from exc
    except (ValueError, OverflowError) as exc:  # float() of a huge JSON integer overflows
        raise ConfigError(str(exc), (key,)) from exc


def _object(doc) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"expected an object, got {reprlib.repr(doc)}")
    return doc


def _fields(doc, table: dict) -> dict:
    """Check ``doc`` against ``table``; return the parsed value of every key.

    An absent key, or a null one whose default is None, takes its default.
    """
    unknown = sorted(set(_object(doc)) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys {unknown}")
    out = {}
    for key, (default, parse) in table.items():
        if key in doc and not (doc[key] is None and default is None):
            out[key] = _at(key, parse, doc[key])
        elif default is _REQUIRED:
            raise ConfigError("required", (key,))
        else:
            out[key] = default
    return out


def _variant(doc, key: str, tables: dict, default=None) -> tuple[str, dict]:
    """``_fields`` of ``doc`` against the table that its ``key`` names."""
    name = _at(key, _choice(*tables), _object(doc).get(key, default))
    return name, _fields({k: v for k, v in doc.items() if k != key}, tables[name])


def _num(kind=float, ok=lambda x: True, want: str = "a number"):
    def parse(value):
        if isinstance(value, bool) or not isinstance(value, (int, kind)) or not ok(value):
            raise ValueError(f"expected {want}, got {reprlib.repr(value)}")
        return kind(value)

    return parse


def _choice(*options):
    def parse(value):
        # type-checked, so that true is not taken for 1
        if not any(type(value) is type(o) and value == o for o in options):
            want = " or ".join(json.dumps(o) for o in options)
            raise ValueError(f"expected {want}, got {reprlib.repr(value)}")
        return value

    return parse


def _list(item, lo: int = 0, hi: int | None = None):
    def parse(value) -> tuple:
        if not isinstance(value, list) or not lo <= len(value) <= (hi or len(value)):
            want = f"a list of {lo}{'' if lo == hi else ' or more'} items" if lo else "a list"
            raise ValueError(f"expected {want}, got {reprlib.repr(value)}")
        return tuple(_at(i, item, v) for i, v in enumerate(value))

    return parse


_NUMBER = _num()
_NONNEGATIVE = _num(float, lambda x: x >= 0, "a number >= 0")
_POSITIVE = _num(float, lambda x: x > 0, "a number > 0")
_COUNT = _num(int, lambda x: x >= 1, "an integer >= 1")
_BOOL = _choice(True, False)
_PAIRS = _list(_list(_NUMBER, 2, 2))  # [[frequency or velocity, power], ...]


def _tones(value) -> ToneSet:
    return ToneSet(_PAIRS(value))


def _estimators(value) -> tuple[str, ...]:
    names = _list(_choice("nest", "nesprit", "welch"), 1)(value)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate estimator in {list(names)}")
    return names


@dataclass(frozen=True)
class FilterSpec:
    """Clutter filter description: Butterworth high-pass or explicit FIR taps."""

    kind: str  # "butterworth_highpass" | "fir"
    cutoff: float | None = None  # cycles/sample, for butterworth
    order: int = 4
    taps: tuple[float, ...] | None = None

    @memo(key=lambda self: self)
    def coefficients(self):
        """Return what coarray.clutter_filter expects: taps or (b, a), built once per spec."""
        from .coarray import butterworth_highpass

        if self.kind == "fir":
            return np.asarray(self.taps)
        return butterworth_highpass(self.order, self.cutoff)


# keys of a pattern, per family ("family" selects the table, default nested)
PATTERN_SCHEMA = {
    "standard": {},
    "nested": {
        # absent: optimal unless N1/N2 are given
        "optimal": (None, _BOOL),
        "N1": (None, _COUNT),
        "N2": (None, _COUNT),
        # default fewer_larger_gaps; only for optimal patterns
        "preference": (None, _choice("fewer_larger_gaps", "more_smaller_gaps")),
    },
    "super_nested": {"N1": (_REQUIRED, _COUNT), "N2": (_REQUIRED, _COUNT)},
    "coprime": {"N1": (_REQUIRED, _COUNT), "N2": (_REQUIRED, _COUNT)},
    # absent levels: the optimal K-level pattern for P
    "k_level": {"levels": (None, _list(_COUNT, 1))},
}

# keys of a clutter filter, per type ("type" selects the table)
FILTER_SCHEMA = {
    "butterworth_highpass": {
        "cutoff": (_REQUIRED, _num(float, lambda x: 0 < x < 0.5, "a number in (0, 0.5)")),
        "order": (FilterSpec.order, _COUNT),
    },
    "fir": {"taps": (_REQUIRED, _list(_NUMBER, 1))},
}

PHYSICAL_SCHEMA = {
    "f0_hz": (_REQUIRED, _POSITIVE),
    "fprf_hz": (_REQUIRED, _POSITIVE),
    "c_m_s": (PhysicalParams.c_m_s, _POSITIVE),
}

FRAME_SCHEMA = {
    "tones": (_REQUIRED, _tones),
    "clutter_frequency": (None, _num(float, lambda x: -0.5 <= x < 0.5, "a number in [-0.5, 0.5)")),
    "clutter_db": (None, _NUMBER),
}

PROFILE_SCHEMA = {
    "frames": (_REQUIRED, _list(lambda d: FrameSpec(**_fields(d, FRAME_SCHEMA)), 1)),
    # older documents carry "frame_duration_cpis": 1; each frame is one CPI
    "frame_duration_cpis": (1, _choice(1)),
}


def _filter(doc) -> FilterSpec:
    kind, fields = _variant(doc, "type", FILTER_SCHEMA)
    return FilterSpec(kind=kind, **fields)


# apodization windows by name, as functions of P
WINDOWS = {"hamming": np.hamming, "hann": np.hanning, "rect": np.ones}

# the top-level keys of a config document
SCHEMA = {
    "P": (_REQUIRED, _num(int, lambda x: x >= 2, "an integer >= 2")),
    "pattern": ({"family": "nested", "optimal": True}, _object),
    "tones": (None, _tones),
    "velocities": (None, _PAIRS),
    "profile": (None, lambda d: PulsatileProfile(_fields(d, PROFILE_SCHEMA)["frames"])),
    "Q": (33, _COUNT),
    "noise_power": (0.0, _NONNEGATIVE),
    "snr_db": (None, _NUMBER),
    "snr_list_db": ((), _list(_NUMBER)),
    "trials": (1000, _COUNT),
    "nest_lambda": (0.0, _NONNEGATIVE),
    "rank_lambda": (0.0, _NONNEGATIVE),
    "model_order": (None, _COUNT),
    "remove_mean": (False, _BOOL),
    "subtract_noise": (True, _BOOL),
    "filter": (None, _filter),
    "apodization": (None, _choice(*WINDOWS)),
    "zero_fill_welch": (False, _BOOL),
    "estimators": (("nest", "nesprit"), _estimators),
    "seed": (0, _num(int, lambda x: x >= 0, "an integer >= 0")),
    "physical": (None, lambda d: PhysicalParams(**_fields(d, PHYSICAL_SCHEMA))),
}
CONFIG_KEYS = tuple(SCHEMA)

# ExperimentConfig fields named differently from their keys
_FIELD_NAMES = {"P": "window_size", "Q": "q", "filter": "filter_spec"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, built by ``from_doc`` with ``SCHEMA``'s defaults."""

    window_size: int
    pattern: EmissionPattern
    tones: ToneSet | None
    profile: PulsatileProfile | None
    q: int
    noise_power: float
    snr_list_db: tuple[float, ...]
    trials: int
    nest_lambda: float
    rank_lambda: float
    model_order: int | None
    remove_mean: bool
    subtract_noise: bool
    filter_spec: FilterSpec | None
    apodization: str | None
    zero_fill_welch: bool
    estimators: tuple[str, ...]
    seed: int
    physical: PhysicalParams | None

    def build_pattern(self) -> EmissionPattern:
        """The pattern ``from_doc`` built; kept for ``perfbench/setup_probe.py``."""
        return self.pattern

    def apodization_window(self) -> np.ndarray | None:
        if self.apodization is None:
            return None
        return WINDOWS[self.apodization](self.window_size)

    @classmethod
    def from_doc(cls, doc: dict, overrides: dict | None = None) -> "ExperimentConfig":
        """Validate a config document; ``overrides`` replace its top-level keys."""
        doc = {**_object(doc), **(overrides or {})}
        f = _fields(doc, SCHEMA)
        f["pattern"] = _at("pattern", lambda d: pattern_from_doc(d, f["P"]), f["pattern"])

        velocities, snr_db = f.pop("velocities"), f.pop("snr_db")
        if velocities is not None:
            if f["tones"] is not None:
                raise ConfigError("give either tones or velocities, not both", ("velocities",))
            if f["physical"] is None:
                raise ConfigError("need the physical parameter block", ("velocities",))
            to_nu = f["physical"].normalized_frequency
            f["tones"] = _at("velocities", ToneSet, tuple((to_nu(v), pw) for v, pw in velocities))

        if snr_db is not None:
            if "noise_power" in doc:
                raise ConfigError("give either snr_db or noise_power, not both", ("snr_db",))
            if f["tones"] is not None:
                signal_power = f["tones"].total_power
            elif f["profile"] is not None:
                signal_power = f["profile"].frames[0].tones.total_power
            else:
                raise ConfigError("need tones or a profile to define signal power", ("snr_db",))
            f["noise_power"] = signal_power / 10.0 ** (snr_db / 10.0)

        return cls(**{_FIELD_NAMES.get(k, k): v for k, v in f.items()})

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_doc(doc, overrides)


def _nested_params(f: dict, p: int) -> tuple[int, int]:
    given = f["N1"] is not None or f["N2"] is not None
    optimal = not given if f["optimal"] is None else f["optimal"]
    if optimal:
        if given:
            raise ConfigError("true excludes N1 and N2", ("optimal",))
        return patterns.optimal_nested(p, f["preference"] or "fewer_larger_gaps")
    if f["preference"] is not None:
        raise ConfigError("applies only to optimal patterns", ("preference",))
    for key in ("N1", "N2"):
        if f[key] is None:
            raise ConfigError("required unless the pattern is optimal", (key,))
    return f["N1"], f["N2"]


def pattern_from_doc(doc: dict, p: int) -> EmissionPattern:
    """Build a pattern from its config description, for window size P."""
    family, f = _variant(doc, "family", PATTERN_SCHEMA, default="nested")
    try:
        if family == "standard":
            pat = patterns.build_standard(p)
        elif family == "nested":
            pat = patterns.build_nested(*_nested_params(f, p))
        elif family == "k_level":
            levels = f["levels"]
            params = patterns.optimal_klevel(p) if levels is None else KLevelParams(levels)
            pat = patterns.build_klevel(params)
        elif family == "super_nested":
            pat = patterns.build_super_nested(f["N1"], f["N2"])
        else:
            pat = patterns.build_coprime(f["N1"], f["N2"])
    except PatternError as exc:
        raise ConfigError(f"bad pattern parameters: {exc}") from exc
    if pat.window_size != p:
        raise ConfigError(
            f"pattern parameters give window {pat.window_size}, config says P={p}"
        )
    return pat
