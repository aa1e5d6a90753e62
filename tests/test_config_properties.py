"""Hypothesis properties of the config format.

Configs are drawn from the section dataclasses' own fields and annotated
types, so a new settings field is covered without an edit here.
"""

import typing
from dataclasses import fields, is_dataclass, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from zifsim import (
    Command,
    CommandKind,
    ProtocolDeadline,
    RunConfig,
    ZifsimError,
    default_config,
    dump_config,
    parse_config,
)
from zifsim.config import OUTPUT_FORMATS

# Deterministic and bounded so the tier-1 run stays fast and stable.
PROFILE = settings(derandomize=True, deadline=None, max_examples=100, database=None)

EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 1e300, 0.1, 53.3, 2.0**53 + 2)


def values_of(kind):
    """Values of an annotated settings field type, valid or not."""
    if typing.get_origin(kind) is dict:
        member_type, value_type = typing.get_args(kind)
        return st.fixed_dictionaries({m: values_of(value_type) for m in member_type})
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers(-10**4, 10**12) | st.sampled_from((0, 1, 2**53 - 1, 10**30))
    if kind is float:
        return (st.floats(-1e6, 1e6) | st.sampled_from(EDGE_FLOATS)
                | st.floats(allow_nan=False, allow_infinity=False))
    return st.sampled_from(list(kind))  # an Enum


@st.composite
def sections(draw, default):
    """A section with some fields drawn by type; the default if invalid."""
    hints = typing.get_type_hints(type(default))
    changes = {f.name: draw(values_of(hints[f.name]))
               for f in fields(default) if draw(st.booleans())}
    try:
        return replace(default, **changes)
    except ValueError:
        return default


deadline_names = st.lists(st.from_regex(r"[a-z0-9][a-z0-9_.-]{0,11}", fullmatch=True),
                          unique=True, max_size=3)


@st.composite
def run_configs(draw):
    base = default_config()
    config = RunConfig(**{
        f.name: draw(sections(getattr(base, f.name)))
        for f in fields(RunConfig) if is_dataclass(getattr(base, f.name))
    })
    config.schedule = draw(st.lists(
        st.builds(Command, st.integers(0, 10**15), st.sampled_from(list(CommandKind))),
        max_size=5,
    ))
    config.deadlines_builtin = draw(st.booleans())
    config.extra_deadlines = [
        ProtocolDeadline(name, draw(st.integers(1, 10**12)), source="config")
        for name in draw(deadline_names)
    ]
    config.output_format = draw(st.sampled_from(OUTPUT_FORMATS))
    config.output_path = draw(st.sampled_from(("-", "out.csv", "runs/a b=c.json")))
    return config


@PROFILE
@given(run_configs())
def test_dump_parses_back_to_the_same_config(config):
    text = dump_config(config)
    parsed = parse_config(text)
    assert parsed == config
    assert dump_config(parsed) == text


DEFAULT_LINES = dump_config(default_config()).splitlines()[1:]
KEYS = sorted(
    {line.partition(" = ")[0] for line in DEFAULT_LINES}
    | {"schedule.00", "schedule.-1", "schedule.+1", "schedule.1_0", "schedule.empty",
       "deadlines.extra.", "deadlines.extra.x", "rf.lo_on_delta_db", "rf.lo_on_delta_db.7g",
       "clocks", "output.format"}
)
VALUES = ("", "0", "-1", "1_0", "1e400", "nan", "inf", "-inf", "true", "FALSE", "2g4",
          "lo-on @ 5", "warp @ 0", "lo-on @", "trigger @ -1", "10000000000000000000000",
          "9007199254740992", "-0.0", "0x10", "table", "yaml")


@PROFILE
@given(st.lists(
    st.sampled_from(DEFAULT_LINES)
    | st.tuples(st.sampled_from(KEYS) | st.text(max_size=20),
                st.sampled_from(VALUES) | st.text(max_size=20)).map(" = ".join)
    | st.text(max_size=30),
    max_size=8,
))
def test_parser_raises_only_package_errors(lines):
    try:
        config = parse_config("\n".join(lines))
    except ZifsimError:
        return
    # whatever the parser accepts survives a dump round trip
    assert parse_config(dump_config(config)) == config
