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
import re
import typing
from array import array
from dataclasses import dataclass, field, is_dataclass, replace
from enum import Enum

from .errors import ConfigError
from .mac import BUILTIN_DEADLINES, ProtocolDeadline
from .params import (
    COMMAND_KINDS,
    Band,
    ClockConfig,
    Command,
    CommandKind,
    RfModelParams,
    Schedule,
    TimingProfile,
    check_command_time,
    check_fields,
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
        check_fields(self)
        check_sampling(self.start_ns, self.end_ns, self.interval_ns, self.settling_tau_ns)


@dataclass
class NoiseSettings:
    n_samples: int = 100_000
    seed: int = 1
    filter_threshold_db: float = 10.0
    filter_guard_samples: int = 16

    def __post_init__(self):
        check_fields(self)
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.filter_threshold_db <= 0:
            raise ValueError("filter_threshold_db must be positive and finite")
        if self.filter_guard_samples < 0:
            raise ValueError("filter_guard_samples must be non-negative")


@dataclass
class RunConfig:
    clocks: ClockConfig = field(default_factory=ClockConfig)
    profile: TimingProfile = field(default_factory=TimingProfile)
    rf: RfModelParams = field(default_factory=RfModelParams)
    schedule: Schedule = field(
        default_factory=lambda: Schedule.from_commands([Command(0, CommandKind.LO_ON)])
    )
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


_KIND_CODES = {kind.value: code for code, kind in enumerate(COMMAND_KINDS)}


def _parse_command(key, value):
    """(kind code, time in ns) of a schedule entry's value."""
    kind_text, sep, time_text = value.partition("@")
    if not sep:
        raise ConfigError(f"{key}: expected '<kind> @ <time_ns>', got {value!r}")
    kind_text = kind_text.strip()
    code = _KIND_CODES.get(kind_text)
    if code is None:
        _parse_enum(CommandKind, key, kind_text)  # raises; the enum lookup words it
    time_ns = _parse_int(key, time_text.strip())
    try:
        check_command_time(time_ns)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    return code, time_ns


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


# Schedule lines in the form dump_config writes them: single spaces, no
# leading zeros, a known kind and a time of at most 16 digits. Compiled
# on first use (re caches it), so a call that reads no config skips it.
_REGULAR_LINE = r"(?m)^schedule\.(0|[1-9][0-9]{0,17}) = (%s) @ (0|[1-9][0-9]{0,15})$" % (
    "|".join(map(re.escape, _KIND_CODES)))
_BLOCK_CHARS = 1 << 16

# Line boundaries of str.splitlines other than "\n".
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class _Irregular(Exception):
    """A schedule line that the fast path left to the per-line parser."""


def _fast_schedule(text):
    """Take the regular schedule lines out of `text` with one regex split
    per block of lines.

    Returns the other non-empty lines with their line numbers and the
    Schedule the regular lines make, or None when the text has no
    schedule line, breaks lines other than at "\n", or the regular lines
    repeat an index or hold a time of 2**53 or more: the per-line parser
    then reads it, and reports those errors where they are.
    """
    if "schedule." not in text or any(mark in text for mark in _OTHER_BREAKS):
        return None
    split = re.compile(_REGULAR_LINE).split
    indexes, kinds, times, rest = [], array("b"), array("q"), []
    start = 0
    while start < len(text):  # whole lines, a block at a time: few temporaries
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        parts = split(text[start:end])  # text, index, kind, time, text, ...
        indexes += map(int, parts[1::4])
        kinds.extend(map(_KIND_CODES.__getitem__, parts[2::4]))
        times.extend(map(int, parts[3::4]))
        rest.append("".join(parts[0::4]))
        start = end
    if indexes != list(range(len(indexes))):
        if len(set(indexes)) < len(indexes):
            return None
        order = sorted(range(len(indexes)), key=indexes.__getitem__)
        kinds = array("b", [kinds[i] for i in order])
        times = array("q", [times[i] for i in order])
    try:
        schedule = Schedule(times, kinds)
    except ValueError:
        return None
    # the regular lines leave empty lines behind, so the line numbers hold
    rest = "".join(rest)
    lines = []
    lineno, offset = 1, 0
    for match in re.finditer(r"[^\n]+", rest):
        lineno += rest.count("\n", offset, match.start())
        offset = match.start()
        lines.append((lineno, match.group()))
    return lines, schedule


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig, on top of the defaults.

    Schedule lines as dump_config writes them take a fast path; a text
    with any other schedule line is parsed line by line throughout, so
    both give the same config and the same first error.
    """
    fast = _fast_schedule(text)
    if fast is not None:
        try:
            return _parse_lines(*fast)
        except _Irregular:
            pass
    return _parse_per_line(text)


def _parse_per_line(text: str) -> RunConfig:
    """parse_config without the fast path."""
    return _parse_lines(enumerate(text.splitlines(), start=1), None)


def _parse_lines(lines, schedule) -> RunConfig:
    """Parse numbered lines on top of the defaults. With `schedule` given,
    the lines hold no schedule entry (else raise _Irregular) and it holds
    them all."""
    config = default_config()
    settings = {}  # section -> field -> value, a dict by band if per-band
    entries = {}  # schedule index -> (kind code, time in ns)
    schedule_empty = False
    seen = set()
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        section, _, rest = key.partition(".")
        # duplicates are found by index, so schedule.0 and schedule.00 collide
        if section == "schedule" and rest.isdecimal():
            if schedule is not None:
                raise _Irregular
            try:
                index = int(rest)
            except ValueError:  # more digits than int() converts
                raise ConfigError(f"line {lineno}: schedule index too long in {key!r}") from None
            if index in entries:
                raise ConfigError(f"line {lineno}: duplicate schedule index {key!r}")
            entries[index] = _parse_command(key, value)
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
            if not value:
                raise ConfigError("output.path must not be empty")
            config.output_path = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    # checked last, since deadlines.builtin may follow the extras
    builtin = {d.name for d in BUILTIN_DEADLINES} if config.deadlines_builtin else set()
    for name in (d.name for d in config.extra_deadlines if d.name in builtin):
        raise ConfigError(f"deadlines.extra.{name}: {name} is a built-in deadline; "
                          "set deadlines.builtin = false to redefine it")

    if schedule is None:
        ordered = [entries[i] for i in sorted(entries)]
        schedule = Schedule([t for _, t in ordered], [code for code, _ in ordered])
    if schedule_empty and schedule:
        raise ConfigError("schedule.empty = true conflicts with schedule entries")
    if schedule_empty:
        config.schedule = Schedule()
    elif schedule:
        config.schedule = schedule

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
    schedule = config.schedule
    if schedule:
        kind_text = [kind.value for kind in COMMAND_KINDS]
        for index, (code, time_ns) in enumerate(zip(schedule.kinds, schedule.times_ns)):
            lines.append(f"schedule.{index} = {kind_text[code]} @ {time_ns}")
    else:
        lines.append("schedule.empty = true")
    lines.append(f"deadlines.builtin = {_value_text(config.deadlines_builtin)}")
    for deadline in config.extra_deadlines:
        lines.append(f"deadlines.extra.{deadline.name} = {deadline.deadline_ns}")
    lines.append(f"output.format = {config.output_format}")
    lines.append(f"output.path = {config.output_path}")
    return "\n".join(lines) + "\n"
