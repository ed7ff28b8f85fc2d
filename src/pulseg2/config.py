"""Declarative experiment configuration.

One INI-style file with flat key=value sections drives simulation and
analysis; CLI flags override file values.  Parsing either succeeds with a
fully validated `ExperimentConfig` or fails with a field-precise
`ConfigError` naming the section and key.  Emit/parse round-trips are
identity (floats are written with repr precision).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

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


# (section, key) -> (attribute, parser)
_SCHEMA = {
    ("run", "kind"): ("kind", str.strip),
    ("run", "seed"): ("seed", int),
    ("state", "spec"): ("state_spec", str.strip),
    ("mode", "spec"): ("mode_spec", str.strip),
    ("detector", "efficiency"): ("efficiency", float),
    ("detector", "timing_jitter_sigma"): ("timing_jitter_sigma", float),
    ("detector", "dead_time"): ("dead_time", float),
    ("pulsed", "num_pulses"): ("num_pulses", _whole),
    ("pulsed", "repetition_period"): ("repetition_period", float),
    ("stationary", "mean_rate"): ("mean_rate", float),
    ("stationary", "spectral_bandwidth"): ("spectral_bandwidth", float),
    ("stationary", "duration"): ("duration", float),
    ("stationary", "field_timestep"): ("field_timestep", _opt(float)),
    ("stationary", "spectral_shape"): ("spectral_shape", str.strip),
    ("estimator", "bin_width"): ("bin_width", _opt(float)),
    ("estimator", "max_tau"): ("max_tau", _opt(float)),
    ("output", "stream"): ("out_stream", str.strip),
    ("output", "sidecar"): ("out_sidecar", _opt(str.strip)),
    ("output", "report"): ("out_report", str.strip),
    ("output", "histogram"): ("out_histogram", _opt(str.strip)),
    ("output", "format"): ("stream_format", str.strip),
}


def _read_settings(path) -> dict:
    """Parsed values of the keys an INI file sets, by attribute name.

    Keys the file leaves out are absent, unlike in `ExperimentConfig.from_file`.
    """
    parser = configparser.ConfigParser()
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
    kind: str = "pulsed"
    seed: int = 1
    state_spec: str = "coherent:1"
    mode_spec: str = "gauss:1e-9"
    efficiency: float = 1.0
    timing_jitter_sigma: float = 0.0
    dead_time: float = 0.0
    num_pulses: int = 100000
    repetition_period: float = 12.5e-9
    mean_rate: float = 1e5
    spectral_bandwidth: float = 1e6
    duration: float = 1.0
    field_timestep: float | None = None
    spectral_shape: str = "gaussian"
    bin_width: float | None = None
    max_tau: float | None = None
    out_stream: str = "stream.csv"
    out_sidecar: str | None = None
    out_report: str = "report.json"
    out_histogram: str | None = "histogram.csv"
    stream_format: str = "csv"
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls(**_read_settings(path)).validate()

    def to_file(self, path) -> None:
        parser = configparser.ConfigParser()
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
        for attr in ("bin_width", "max_tau"):
            value = getattr(self, attr)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"[estimator] {attr}: must be a finite number > 0, "
                                  f"got {value!r}")
        # build every module-level object so bad values fail at load time
        self.state()
        self.mode()
        self.detector()
        if self.kind == "pulsed":
            self.train()
        else:
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
