"""Run configuration: a flat key-value text format with dotted keys.

One `key = value` assignment per line, `#` comments, unknown keys are
rejected. Durations are integer nanoseconds and frequencies integer hertz
so timing arithmetic stays exact. Example:

    clocks.spi_clock_hz = 50000000
    rf.lo_on_delta_db.2g4 = 30.0
    schedule.0 = lo-on @ 0

Settings keys are `section.field`, or `section.field.<band>` for a per-band
field, read off the dataclass fields of RunConfig's sections (clocks,
profile, rf, trace, noise); each dataclass checks its own values.

The built-in defaults reproduce the reference timing and noise numbers
with no file at all; a file only overrides what it names.
"""

import functools
import math
import typing
from dataclasses import dataclass, field, is_dataclass, replace
from enum import Enum

from .errors import ConfigError
from .mac import BUILTIN_DEADLINES, ProtocolDeadline
from .params import (
    Band,
    ClockConfig,
    Command,
    CommandKind,
    RfModelParams,
    TimingProfile,
    check_sampling,
    field_types,
)

OUTPUT_FORMATS = ("csv", "json", "table")


@dataclass
class TraceSettings:
    band: Band = Band.B2G4
    start_ns: int = -2500
    end_ns: int = 2500
    interval_ns: int = 50
    settling_tau_ns: float = 0.0

    def __post_init__(self):
        check_sampling(self.start_ns, self.end_ns, self.interval_ns, self.settling_tau_ns)


@dataclass
class NoiseSettings:
    n_samples: int = 100_000
    seed: int = 1
    filter_threshold_db: float = 10.0
    filter_guard_samples: int = 16

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        threshold = self.filter_threshold_db
        if not (threshold > 0 and math.isfinite(threshold)):
            raise ValueError("filter_threshold_db must be positive and finite")
        if self.filter_guard_samples < 0:
            raise ValueError("filter_guard_samples must be non-negative")


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


def _parse_enum(kind, key, value):
    try:
        return kind(value)
    except ValueError:
        names = ", ".join(member.value for member in kind)
        raise ConfigError(f"{key}: expected one of {names}, got {value!r}") from None


_COMMAND_KINDS = {kind.value: kind for kind in CommandKind}


def _parse_command(key, value):
    kind_text, sep, time_text = value.partition("@")
    if not sep:
        raise ConfigError(f"{key}: expected '<kind> @ <time_ns>', got {value!r}")
    kind_text = kind_text.strip()
    kind = _COMMAND_KINDS.get(kind_text)
    if kind is None:  # the enum lookup words the error
        kind = _parse_enum(CommandKind, key, kind_text)
    time_ns = _parse_int(key, time_text.strip())
    try:
        return Command(time_ns, kind)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _value_parser(kind):
    """Text parser for a settings field annotated as `kind`."""
    if isinstance(kind, type) and issubclass(kind, Enum):
        return functools.partial(_parse_enum, kind)
    return {bool: _parse_bool, int: _parse_int, float: _parse_float}[kind]


def _settings_keys() -> dict:
    """Key -> (section, field, band or None, value parser), in dump order."""
    keys = {}
    for section, cls in field_types(RunConfig):
        if not is_dataclass(cls):
            continue
        for name, kind in field_types(cls):
            if typing.get_origin(kind) is dict:
                member_type, value_type = typing.get_args(kind)
                parse = _value_parser(value_type)
                for member in member_type:
                    keys[f"{section}.{name}.{member.value}"] = (section, name, member, parse)
            else:
                keys[f"{section}.{name}"] = (section, name, None, _value_parser(kind))
    return keys


_SETTINGS = _settings_keys()


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig, on top of the defaults."""
    config = default_config()
    settings = {}  # section -> field -> value, a dict by band if per-band
    schedule_entries = {}
    schedule_empty = False
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
        section, _, rest = key.partition(".")
        # schedule lines dominate long files, so they take the first branch;
        # duplicates are found by index, so schedule.0 and schedule.00 collide
        if section == "schedule" and rest.isdecimal():
            index = int(rest)
            if index in schedule_entries:
                raise ConfigError(f"line {lineno}: duplicate schedule index {key!r}")
            schedule_entries[index] = _parse_command(key, value)
            continue
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)

        if key in _SETTINGS:
            section, name, band, parse = _SETTINGS[key]
            fields = settings.setdefault(section, {})
            if band is None:
                fields[name] = parse(key, value)
            else:  # a per-band key overrides that band only
                default = getattr(getattr(config, section), name)
                fields.setdefault(name, dict(default))[band] = parse(key, value)
        elif key == "schedule.empty":
            schedule_empty = _parse_bool(key, value)
        elif key == "deadlines.builtin":
            config.deadlines_builtin = _parse_bool(key, value)
        elif section == "deadlines" and rest.startswith("extra.") and rest[len("extra."):]:
            name = rest[len("extra."):]
            try:
                deadline = ProtocolDeadline(name, _parse_int(key, value), source="config")
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
            config.extra_deadlines.append(deadline)
        elif key == "output.format":
            if value not in OUTPUT_FORMATS:
                raise ConfigError(
                    f"output.format must be one of {', '.join(OUTPUT_FORMATS)}"
                )
            config.output_format = value
        elif key == "output.path":
            config.output_path = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    if schedule_empty and schedule_entries:
        raise ConfigError("schedule.empty = true conflicts with schedule entries")
    if schedule_empty:
        config.schedule = []
    elif schedule_entries:
        config.schedule = [schedule_entries[i] for i in sorted(schedule_entries)]

    for section, fields in settings.items():
        try:
            setattr(config, section, replace(getattr(config, section), **fields))
        except ValueError as exc:
            # every settings check message starts with its field name
            raise ConfigError(f"{section}.{exc}") from None
    return config


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


def _value_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    return str(value)


def dump_config(config: RunConfig) -> str:
    """Render a RunConfig as config text; parse_config inverts it."""
    lines = ["# zifsim run configuration"]
    for key, (section, name, band, _) in _SETTINGS.items():
        value = getattr(getattr(config, section), name)
        lines.append(f"{key} = {_value_text(value if band is None else value[band])}")
    if config.schedule:
        for index, cmd in enumerate(config.schedule):
            lines.append(f"schedule.{index} = {cmd.kind.value} @ {cmd.time_ns}")
    else:
        lines.append("schedule.empty = true")
    lines.append(f"deadlines.builtin = {_value_text(config.deadlines_builtin)}")
    for deadline in config.extra_deadlines:
        lines.append(f"deadlines.extra.{deadline.name} = {deadline.deadline_ns}")
    lines.append(f"output.format = {config.output_format}")
    lines.append(f"output.path = {config.output_path}")
    return "\n".join(lines) + "\n"
