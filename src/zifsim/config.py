"""Run configuration: a flat key-value text format with dotted keys.

One `key = value` assignment per line, `#` comments, unknown keys are
rejected. Durations are integer nanoseconds and frequencies integer hertz
so timing arithmetic stays exact. Example:

    clocks.spi_clock_hz = 50000000
    rf.lo_on_delta_db.2g4 = 30.0
    schedule.0 = lo-on @ 0

The built-in defaults reproduce the reference timing and noise numbers
with no file at all; a file only overrides what it names.
"""

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .mac import BUILTIN_DEADLINES, ProtocolDeadline
from .params import ClockConfig, TimingProfile
from .rf import Band, RfModelParams
from .sim import TIME_LIMIT_NS, Command, CommandKind

OUTPUT_FORMATS = ("csv", "json", "table")


@dataclass
class TraceSettings:
    band: Band = Band.B2G4
    start_ns: int = -2500
    end_ns: int = 2500
    interval_ns: int = 50
    settling_tau_ns: float = 0.0


@dataclass
class NoiseSettings:
    n_samples: int = 100_000
    seed: int = 1
    filter_threshold_db: float = 10.0
    filter_guard_samples: int = 16


@dataclass
class RunConfig:
    clocks: ClockConfig = field(default_factory=ClockConfig)
    profile: TimingProfile = field(default_factory=TimingProfile)
    rf: RfModelParams = field(default_factory=RfModelParams)
    schedule: list = field(default_factory=lambda: [Command(0, CommandKind.LO_ON)])
    trace: TraceSettings = field(default_factory=TraceSettings)
    noise: NoiseSettings = field(default_factory=NoiseSettings)
    deadlines_builtin: bool = True
    extra_deadlines: list = field(default_factory=list)
    output_format: str = "table"
    output_path: str = "-"

    @property
    def deadlines(self) -> list:
        resolved = list(BUILTIN_DEADLINES) if self.deadlines_builtin else []
        return resolved + list(self.extra_deadlines)


def default_config() -> RunConfig:
    return RunConfig()


def _parse_bool(key, value):
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


def _parse_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_band(key, value):
    try:
        return Band(value)
    except ValueError:
        names = ", ".join(b.value for b in Band)
        raise ConfigError(f"{key}: unknown band {value!r} (use {names})") from None


def _parse_command(key, value):
    kind_text, sep, time_text = value.partition("@")
    if not sep:
        raise ConfigError(f"{key}: expected '<kind> @ <time_ns>', got {value!r}")
    try:
        kind = CommandKind(kind_text.strip())
    except ValueError:
        names = ", ".join(k.value for k in CommandKind)
        raise ConfigError(
            f"{key}: unknown command kind {kind_text.strip()!r} (use {names})"
        ) from None
    time_ns = _parse_int(key, time_text.strip())
    try:
        return Command(time_ns, kind)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


_CLOCK_KEYS = {
    "ref_clock_hz": _parse_int,
    "adc_clock_hz": _parse_int,
    "spi_clock_hz": _parse_int,
    "allow_spi_overclock": _parse_bool,
}
_PROFILE_KEYS = {
    "vco_cal_ns": _parse_int,
    "pll_lock_ns": _parse_int,
    "dac_powerup_ns": _parse_int,
    "flush_cycles": _parse_int,
    "lo_div_powerup_ns": _parse_int,
    "lo_div_powerdown_ns": _parse_int,
}
_RF_BAND_KEYS = ("lo_on_delta_db", "base_rx_floor_db", "fdd_rx_floor_db",
                 "locontrol_rx_floor_db")
_RF_SCALAR_KEYS = {"packet_delta_db": _parse_float, "agc_gain_db": _parse_float}
_TRACE_KEYS = {
    "band": _parse_band,
    "start_ns": _parse_int,
    "end_ns": _parse_int,
    "interval_ns": _parse_int,
    "settling_tau_ns": _parse_float,
}
_NOISE_KEYS = {
    "n_samples": _parse_int,
    "seed": _parse_int,
    "filter_threshold_db": _parse_float,
    "filter_guard_samples": _parse_int,
}


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig, on top of the defaults."""
    clocks = {}
    profile = {}
    rf_band = {name: {} for name in _RF_BAND_KEYS}
    rf_scalar = {}
    trace = {}
    noise = {}
    schedule_entries = {}
    schedule_empty = False
    deadlines_builtin = None
    extra_deadlines = []
    output = {}

    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)

        section, _, rest = key.partition(".")
        if section == "clocks" and rest in _CLOCK_KEYS:
            clocks[rest] = _CLOCK_KEYS[rest](key, value)
        elif section == "profile" and rest in _PROFILE_KEYS:
            profile[rest] = _PROFILE_KEYS[rest](key, value)
        elif section == "rf":
            name, _, band_text = rest.partition(".")
            if name in _RF_BAND_KEYS and band_text:
                band = _parse_band(key, band_text)
                rf_band[name][band] = _parse_float(key, value)
            elif name in _RF_SCALAR_KEYS and not band_text:
                rf_scalar[name] = _RF_SCALAR_KEYS[name](key, value)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        elif section == "trace" and rest in _TRACE_KEYS:
            trace[rest] = _TRACE_KEYS[rest](key, value)
        elif section == "noise" and rest in _NOISE_KEYS:
            noise[rest] = _NOISE_KEYS[rest](key, value)
        elif section == "schedule":
            if rest == "empty":
                schedule_empty = _parse_bool(key, value)
            else:
                try:
                    index = int(rest)
                except ValueError:
                    raise ConfigError(f"line {lineno}: unknown key {key!r}") from None
                schedule_entries[index] = _parse_command(key, value)
        elif section == "deadlines":
            if rest == "builtin":
                deadlines_builtin = _parse_bool(key, value)
            elif rest.startswith("extra.") and rest[len("extra."):]:
                name = rest[len("extra."):]
                try:
                    deadline = ProtocolDeadline(name, _parse_int(key, value), source="config")
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from None
                extra_deadlines.append(deadline)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        elif section == "output" and rest in ("format", "path"):
            output[rest] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    if schedule_empty and schedule_entries:
        raise ConfigError("schedule.empty = true conflicts with schedule entries")

    config = default_config()
    try:
        if clocks:
            config.clocks = replace(config.clocks, **clocks)
        if profile:
            config.profile = replace(config.profile, **profile)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    rf_kwargs = dict(rf_scalar)
    for name in _RF_BAND_KEYS:
        if rf_band[name]:
            merged = dict(getattr(config.rf, name))
            merged.update(rf_band[name])
            rf_kwargs[name] = merged
    if rf_kwargs:
        try:
            config.rf = replace(config.rf, **rf_kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    if trace:
        config.trace = replace(config.trace, **trace)
    if not 0 < config.trace.interval_ns < TIME_LIMIT_NS:
        raise ConfigError("trace.interval_ns must be positive and below 2**53")
    if config.trace.end_ns < config.trace.start_ns:
        raise ConfigError("trace.end_ns must not precede trace.start_ns")
    if not (-TIME_LIMIT_NS < config.trace.start_ns and config.trace.end_ns < TIME_LIMIT_NS):
        raise ConfigError("trace.start_ns and trace.end_ns must lie within +/-2**53 ns")
    tau = config.trace.settling_tau_ns
    if not (tau >= 0 and math.isfinite(tau)):
        raise ConfigError("trace.settling_tau_ns must be non-negative and finite")
    if noise:
        config.noise = replace(config.noise, **noise)
    if config.noise.n_samples < 1:
        raise ConfigError("noise.n_samples must be at least 1")
    threshold = config.noise.filter_threshold_db
    if not (threshold > 0 and math.isfinite(threshold)):
        raise ConfigError("noise.filter_threshold_db must be positive and finite")
    if config.noise.filter_guard_samples < 0:
        raise ConfigError("noise.filter_guard_samples must be non-negative")

    if schedule_empty:
        config.schedule = []
    elif schedule_entries:
        config.schedule = [schedule_entries[i] for i in sorted(schedule_entries)]
    if deadlines_builtin is not None:
        config.deadlines_builtin = deadlines_builtin
    if extra_deadlines:
        config.extra_deadlines = extra_deadlines
    if "format" in output:
        if output["format"] not in OUTPUT_FORMATS:
            raise ConfigError(
                f"output.format must be one of {', '.join(OUTPUT_FORMATS)}"
            )
        config.output_format = output["format"]
    if "path" in output:
        config.output_path = output["path"]
    return config


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def dump_config(config: RunConfig) -> str:
    """Render a RunConfig as config text; parse_config inverts it."""
    lines = ["# zifsim run configuration"]
    lines.append(f"clocks.ref_clock_hz = {config.clocks.ref_clock_hz}")
    lines.append(f"clocks.adc_clock_hz = {config.clocks.adc_clock_hz}")
    lines.append(f"clocks.spi_clock_hz = {config.clocks.spi_clock_hz}")
    lines.append(
        f"clocks.allow_spi_overclock = {_bool_text(config.clocks.allow_spi_overclock)}"
    )
    for name in _PROFILE_KEYS:
        lines.append(f"profile.{name} = {getattr(config.profile, name)}")
    for name in _RF_BAND_KEYS:
        mapping = getattr(config.rf, name)
        for band in Band:
            lines.append(f"rf.{name}.{band.value} = {mapping[band]}")
    lines.append(f"rf.packet_delta_db = {config.rf.packet_delta_db}")
    lines.append(f"rf.agc_gain_db = {config.rf.agc_gain_db}")
    lines.append(f"trace.band = {config.trace.band.value}")
    lines.append(f"trace.start_ns = {config.trace.start_ns}")
    lines.append(f"trace.end_ns = {config.trace.end_ns}")
    lines.append(f"trace.interval_ns = {config.trace.interval_ns}")
    lines.append(f"trace.settling_tau_ns = {config.trace.settling_tau_ns}")
    lines.append(f"noise.n_samples = {config.noise.n_samples}")
    lines.append(f"noise.seed = {config.noise.seed}")
    lines.append(f"noise.filter_threshold_db = {config.noise.filter_threshold_db}")
    lines.append(f"noise.filter_guard_samples = {config.noise.filter_guard_samples}")
    if config.schedule:
        for index, cmd in enumerate(config.schedule):
            lines.append(f"schedule.{index} = {cmd.kind.value} @ {cmd.time_ns}")
    else:
        lines.append("schedule.empty = true")
    lines.append(f"deadlines.builtin = {_bool_text(config.deadlines_builtin)}")
    for deadline in config.extra_deadlines:
        lines.append(f"deadlines.extra.{deadline.name} = {deadline.deadline_ns}")
    lines.append(f"output.format = {config.output_format}")
    lines.append(f"output.path = {config.output_path}")
    return "\n".join(lines) + "\n"
