"""Config text: the parser and writer of the `key = value` format that
`config` describes.

`config.parse_config`, `load_config` and `dump_config` import this module
on first call. Schedule lines as `dump_text` writes them take a regex
fast path (`configfast`), which `parse_text` imports only for a text
that holds `schedule.`: a file of settings alone loads no `re`. A
schedule that the caller runs numpy for is read as numpy columns before
that (`configcols`), and only then is numpy loaded here.
"""

import functools
from enum import Enum

from .config import OUTPUT_FORMATS, RunConfig, default_config
from .errors import ConfigError
from .params import COMMAND_KINDS, CommandKind, Record, Schedule, check_command_time


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


@functools.cache
def _settings_keys() -> dict:
    """Key -> (section, field, band or None, value parser), in dump order."""
    keys = {}
    for section, cls, _ in RunConfig.fields:
        if not (isinstance(cls, type) and issubclass(cls, Record)):
            continue
        for name, kind, _ in cls.fields:
            if getattr(kind, "__origin__", None) is dict:  # dict[Band, float]
                member_type, value_type = kind.__args__
                parse = _value_parser(value_type)
                for member in member_type:
                    keys[f"{section}.{name}.{member.value}"] = (section, name, member, parse)
            else:
                keys[f"{section}.{name}"] = (section, name, None, _value_parser(kind))
    return keys


class _Irregular(Exception):
    """A schedule line that the fast path left to the per-line parser."""


def parse_text(text: str, numpy_above=None) -> RunConfig:
    """Parse config text into a RunConfig, on top of the defaults.

    Schedule lines as dump_config writes them take a fast path; a text
    with any other schedule line is parsed line by line throughout, so
    both give the same config and the same first error. A caller that
    runs numpy for a schedule of more than `numpy_above` commands says
    so, and such a schedule is read as numpy columns first (`configcols`).
    """
    if "schedule." in text:
        for read in _schedule_readers(text, numpy_above):
            found = read(text)
            if found is not None:
                try:
                    return _parse_lines(*found)
                except _Irregular:
                    pass
    return _parse_per_line(text)


def _schedule_readers(text, numpy_above):
    """The fast paths to try on `text`, each imported when its turn comes."""
    if numpy_above is not None and (
            text.count("\nschedule.") + text.startswith("schedule.") > numpy_above):
        from .configcols import column_schedule

        yield column_schedule
    from .configfast import fast_schedule

    yield fast_schedule


def _parse_per_line(text: str) -> RunConfig:
    """parse_text without the fast path."""
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
    settings_keys = _settings_keys()
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

        if key in settings_keys:
            section, name, band, parse = settings_keys[key]
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
            from .mac import ProtocolDeadline

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
    if config.extra_deadlines and config.deadlines_builtin:
        from .mac import BUILTIN_DEADLINES

        builtin = {d.name for d in BUILTIN_DEADLINES}
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
            setattr(config, section, getattr(config, section).replace(**fields))
        except ValueError as exc:
            # every settings check message starts with its field name
            raise ConfigError(f"{section}.{exc}") from None
    return config


def _value_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    return str(value)


def dump_text(config: RunConfig) -> str:
    """Render a RunConfig as config text; parse_text inverts it."""
    lines = ["# zifsim run configuration"]
    for key, (section, name, band, _) in _settings_keys().items():
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
