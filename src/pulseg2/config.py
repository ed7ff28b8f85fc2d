"""Declarative experiment configuration.

One INI-style file with flat key=value sections drives simulation and
analysis; CLI flags override file values, and ``;`` after whitespace
starts a comment.  Each `ExperimentConfig` field declares its key once.
Parsing either succeeds with a fully validated `ExperimentConfig` or fails
with a field-precise `ConfigError` naming the section and key.  A ``%`` is
literal.  Emit/parse round-trips are identity (floats are written with repr
precision); a string value that could not make the trip (a newline, a ``;``
after whitespace, whitespace at either end) fails validation.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field, fields

from . import modes as _modes
from . import states as _states
from .errors import ConfigError
from .simulate import DetectorModel, PulseTrainConfig, StationaryThermalConfig

__all__ = ["ExperimentConfig"]


def _opt(parse):
    return lambda text: None if text.strip().lower() == "none" else parse(text)


def _whole(text):
    value = float(text)
    if not value.is_integer():      # false for inf and nan too
        raise ValueError(f"must be a finite whole number, got {text.strip()!r}")
    return int(value)


def _key(section, key, parse, default):
    """A field that INI ``[section] key`` sets, read by ``parse``."""
    return field(default=default, metadata={"ini": (section, key, parse)})


def _read_settings(path) -> dict:
    """Parsed values of the keys an INI file sets, by attribute name.

    Keys the file leaves out are absent, unlike in `ExperimentConfig.from_file`.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            entry = _SCHEMA.get((section, key))
            if entry is None:
                raise ConfigError(f"[{section}] {key}: unknown key")
            attr, parse = entry
            try:
                values[attr] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
    return values


@dataclass
class ExperimentConfig:
    kind: str = _key("run", "kind", str.strip, "pulsed")
    seed: int = _key("run", "seed", int, 1)
    state_spec: str = _key("state", "spec", str.strip, "coherent:1")
    mode_spec: str = _key("mode", "spec", str.strip, "gauss:1e-9")
    efficiency: float = _key("detector", "efficiency", float, DetectorModel.efficiency)
    timing_jitter_sigma: float = _key("detector", "timing_jitter_sigma", float,
                                      DetectorModel.timing_jitter_sigma)
    dead_time: float = _key("detector", "dead_time", float, DetectorModel.dead_time)
    num_pulses: int = _key("pulsed", "num_pulses", _whole, 100000)
    repetition_period: float = _key("pulsed", "repetition_period", float, 12.5e-9)
    mean_rate: float = _key("stationary", "mean_rate", float, 1e5)
    spectral_bandwidth: float = _key("stationary", "spectral_bandwidth", float, 1e6)
    duration: float = _key("stationary", "duration", float, 1.0)
    field_timestep: float | None = _key("stationary", "field_timestep", _opt(float),
                                        StationaryThermalConfig.field_timestep)
    spectral_shape: str = _key("stationary", "spectral_shape", str.strip,
                               StationaryThermalConfig.spectral_shape)
    bin_width: float | None = _key("estimator", "bin_width", _opt(float), None)
    max_tau: float | None = _key("estimator", "max_tau", _opt(float), None)
    out_stream: str = _key("output", "stream", str.strip, "stream.csv")
    out_sidecar: str | None = _key("output", "sidecar", _opt(str.strip), None)
    out_report: str = _key("output", "report", str.strip, "report.json")
    out_histogram: str | None = _key("output", "histogram", _opt(str.strip),
                                     "histogram.csv")
    stream_format: str = _key("output", "format", str.strip, "csv")
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls(**_read_settings(path)).validate()

    def to_file(self, path) -> None:
        parser = configparser.ConfigParser(interpolation=None)
        for (section, key), (attr, _) in _SCHEMA.items():
            if not parser.has_section(section):
                parser.add_section(section)
            value = getattr(self, attr)
            parser.set(section, key, "none" if value is None else repr(value)
                       if isinstance(value, float) else str(value))
        with open(path, "w") as fh:
            parser.write(fh)

    def validate(self) -> "ExperimentConfig":
        """This config, once every value is checked and every object builds."""
        if self.kind not in ("pulsed", "stationary"):
            raise ConfigError("[run] kind: must be 'pulsed' or 'stationary'")
        if self.seed < 0:
            raise ConfigError(f"[run] seed: must be an integer >= 0, got {self.seed!r}")
        if self.stream_format not in ("csv", "binary"):
            raise ConfigError("[output] format: must be 'csv' or 'binary'")
        # a value that `to_file` would write and `from_file` read back changed
        for (section, key), (attr, _) in _SCHEMA.items():
            value = getattr(self, attr)
            if isinstance(value, str) and (value != value.strip()
                                           or re.search(r"[\r\n]|\s;", value)):
                raise ConfigError(f"[{section}] {key}: must not hold a newline, a ';' "
                                  "after whitespace or whitespace at either end, "
                                  f"got {value!r}")
        for attr in ("bin_width", "max_tau"):
            value = getattr(self, attr)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"[estimator] {attr}: must be a finite number > 0, "
                                  f"got {value!r}")
        # build every module-level object so bad values fail at load time;
        # one INI drives both commands, so both lights' whatever the kind
        self.state()
        self.mode()
        self.detector()
        self.train()
        self.stationary()
        return self

    def state(self) -> _states.QuantumState:
        return self._build("[state] spec", _states.parse_state_spec, self.state_spec)

    def mode(self) -> _modes.TemporalMode:
        return self._build("[mode] spec", _modes.parse_mode_spec, self.mode_spec)

    def detector(self) -> DetectorModel:
        return self._build("[detector]", DetectorModel, self.efficiency,
                           self.timing_jitter_sigma, self.dead_time)

    def train(self) -> PulseTrainConfig:
        return self._build("[pulsed]", PulseTrainConfig, self.num_pulses,
                           self.repetition_period, self.mode())

    def stationary(self) -> StationaryThermalConfig:
        return self._build("[stationary]", StationaryThermalConfig, self.mean_rate,
                           self.spectral_bandwidth, self.duration, self.field_timestep,
                           self.spectral_shape)

    def _build(self, where, make, *args):
        """``make(*args)``, once per argument tuple; a ValueError or OSError
        raised as a ConfigError naming the section ``where``."""
        key = (where, *args)
        if key not in self._built:
            try:
                self._built[key] = make(*args)
            except (ValueError, OSError) as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        return self._built[key]


# (section, key) -> (attribute, parser), in field order
_SCHEMA = {f.metadata["ini"][:2]: (f.name, f.metadata["ini"][2])
           for f in fields(ExperimentConfig) if f.metadata}
