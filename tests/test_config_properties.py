"""Hypothesis properties of the config format.

Configs are drawn from the section records' own field tables and annotated
types, so a new settings field is covered without an edit here.
"""

import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from zifsim import (
    CommandKind,
    ConfigError,
    ProtocolDeadline,
    Record,
    RunConfig,
    Schedule,
    ZifsimError,
    default_config,
    dump_config,
    parse_config,
)
from zifsim.config import OUTPUT_FORMATS
from zifsim.configfast import fast_schedule
from zifsim.configtext import _Irregular, _parse_lines, _parse_per_line

from conftest import Command, from_commands

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
    changes = {name: draw(values_of(kind))
               for name, kind, _ in default.fields if draw(st.booleans())}
    try:
        return default.replace(**changes)
    except ValueError:
        return default


deadline_names = st.lists(st.from_regex(r"[a-z0-9][a-z0-9_.-]{0,11}", fullmatch=True),
                          unique=True, max_size=3)


@st.composite
def run_configs(draw):
    base = default_config()
    config = RunConfig(**{
        name: draw(sections(getattr(base, name)))
        for name, _, _ in RunConfig.fields if isinstance(getattr(base, name), Record)
    })
    config.schedule = from_commands(draw(st.lists(
        st.builds(Command, st.integers(0, 10**15), st.sampled_from(list(CommandKind))),
        max_size=5,
    )))
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


# Schedule lines as dump_config writes them, mostly, and the variants the
# per-line parser reads differently or rejects: the fast path has to leave
# each of those to it.
KIND_TEXTS = [kind.value for kind in CommandKind]
TIME_BOUNDS = (2**53 - 1, 2**53, 10**16 - 1, 10**16, 10**19)


def often(regular, *variants):
    """`regular` three times in four, else one of the variants."""
    return st.sampled_from((regular,) * (3 * len(variants)) + variants)


@st.composite
def schedule_line(draw, index):
    """A schedule line, regular three times in four, else with one part
    drawn from that part's variants."""
    time = draw(often(draw(st.integers(0, 10**6)), *TIME_BOUNDS))
    regular = {"lead": "", "index": str(index), "equals": " = ",
               "kind": draw(st.sampled_from(KIND_TEXTS)), "at": " @ ", "time": str(time),
               "trail": "", "inside": ""}
    variants = {
        "lead": (" ", "\t"),
        "index": (f"0{index}", "\u0663", f"+{index}", f"{index}_0"),
        "equals": ("=", "\t=\t", " =  "),
        "kind": ("warp", "LO-ON", "lo_on"),
        "at": ("@", "\t@ ", " @"),
        "time": (f"+{time}", f"{time:_}", f"0{time}", "\u0663", "-1"),
        "trail": (" ", "\t"),
        "inside": ("\x0c", "\x85", "\u2028", "\r", "\v"),
    }
    part = draw(often(None, *variants))
    if part is not None:
        regular[part] = draw(st.sampled_from(variants[part]))
    line = "{lead}schedule.{index}{equals}{kind}{at}{time}{trail}".format(**regular)
    cut = draw(st.integers(0, len(line)))
    return line[:cut] + regular["inside"] + line[cut:]


OTHER_LINES = [line for line in DEFAULT_LINES if not line.startswith("schedule.")] + [
    "", "# schedule.0 = lo-on @ 0", "  # comment", "schedule.empty = true",
    "schedule.empty = false", "schedule.empty.0 = true", "clocks.spi_clock_hz = abc",
    "bogus = 1", "trace.start_ns = 10", "trace.end_ns = 0",
]


@st.composite
def schedule_texts(draw):
    """Schedule lines in any index order, now and then a repeated index,
    among settings lines and comments, ended by "\n" or, in one text in
    four, by any line break."""
    count = draw(st.integers(0, 10))
    lines = []
    for index in draw(st.permutations(range(count))):
        index = draw(often(index, draw(st.integers(0, 3))))
        other = draw(often(False, True))
        lines.append(draw(st.sampled_from(OTHER_LINES) if other else schedule_line(index)))
    any_break = draw(often(False, True))
    ends = [draw(often("\n", "\r\n", "\r", "\x1e")) if any_break else "\n" for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def parsed(parse, *args):
    try:
        return parse(*args)
    except ConfigError as exc:
        return str(exc)


@settings(PROFILE, max_examples=400)
@given(schedule_texts())
def test_fast_path_equals_the_per_line_parser(text):
    # equal configs, or the same first error
    expected = parsed(_parse_per_line, text)
    assert parsed(parse_config, text) == expected
    fast = fast_schedule(text)
    if fast is None:
        return
    try:
        got = parsed(_parse_lines, *fast)
    except _Irregular:
        return
    assert got == expected


def test_regular_schedules_take_the_fast_path():
    config = default_config()
    config.schedule = Schedule([2**53 - 1, 0, 10], [4, 0, 1])
    text = dump_config(config)
    shuffled = "\n".join(reversed(text.splitlines())) + "\n"
    for text in (text, shuffled):
        lines, schedule = fast_schedule(text)
        assert schedule == config.schedule
        assert not any(line.startswith("schedule.") for _, line in lines)
        assert _parse_lines(lines, schedule) == config


def test_long_texts_parse_alike_on_both_paths():
    # the fast path splits a long text into blocks of whole lines
    lines = [f"schedule.{i} = lo-on @ {i * 10}" for i in range(30_000)]
    lines[12_345] = "trace.band = 5g"
    text = "\n".join(lines) + "\n"
    config = parse_config(text)
    assert config == _parse_per_line(text)
    assert len(config.schedule) == 29_999 and config.trace.band.value == "5g"
    assert parsed(parse_config, text + "bogus = 1\n") == "line 30001: unknown key 'bogus'"
