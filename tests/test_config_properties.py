"""Hypothesis properties of the config format.

Configs are drawn from the section records' own field tables and annotated
types, so a new settings field is covered without an edit here.
"""

import typing

import pytest
from hypothesis import example, given, settings
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
from zifsim.configcols import column_schedule
from zifsim.configfast import fast_schedule
from zifsim.configtext import _Irregular, _parse_lines, _parse_per_line, parse_text

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


# The numpy column reader (`configcols`): a block of schedule lines as
# dump_text writes them, drawn and then edited, among settings lines.
EDITS = ("0", "00", " ", "  ", "\t", "\r", "\r\n", "\x1e", "\x85", "\u2028", "\xe9", "#", "=",
         "@", "-", "_", "9", "\n", "schedule.", "lo-on", "trigger")
EXTRA_LINES = OTHER_LINES + ["# \xe9", "# schedule.3 = lo-on @ 3", " schedule.0 = lo-on @ 0"]


@st.composite
def edited_dumps(draw):
    """dump_text of a drawn config with up to 40 commands, edited up to
    three times: a text put in or cut out, a line repeated, moved or put
    in, or the last newline dropped."""
    config = draw(run_configs())
    count = draw(st.integers(0, 40))
    config.schedule = Schedule(
        draw(st.lists(st.integers(0, 10**6) | st.sampled_from(TIME_BOUNDS[:1] + (0, 1, 999, 1000)),
                      min_size=count, max_size=count)),
        draw(st.lists(st.integers(0, len(KIND_TEXTS) - 1), min_size=count, max_size=count)))
    text = dump_config(config)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        lines = text.split("\n")
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        edit = draw(st.sampled_from(("put", "cut", "repeat", "move", "line", "end")))
        if edit == "put":
            text = text[:at] + draw(st.sampled_from(EDITS)) + text[at:]
        elif edit == "cut":
            text = text[:at] + text[at + draw(st.integers(1, 3)):]
        elif edit == "end":
            text = text.rstrip("\n")
        else:
            line = draw(st.sampled_from(EXTRA_LINES)) if edit == "line" else lines[i]
            if edit == "move":
                del lines[i]
            lines.insert(j, line)
            text = "\n".join(lines)
    return text


def with_block(*lines, before="trace.band = 5g\n", after="output.format = csv\n"):
    return before + "".join(line + "\n" for line in lines) + after


BLOCK = ("schedule.0 = lo-on @ 0", "schedule.1 = tx-packet-start @ 700",
         "schedule.2 = tx-packet-end @ 900", "schedule.3 = lo-off @ 1000")
# each a text the reader declines, or leaves lines of to the other paths
DECLINED = {
    "index with a leading zero": with_block("schedule.00 = lo-on @ 0", *BLOCK[1:]),
    "time with a leading zero": with_block(BLOCK[0], "schedule.1 = tx-packet-start @ 0700",
                                           *BLOCK[2:]),
    "index gap": with_block(*BLOCK[:3], "schedule.4 = lo-off @ 1000"),
    "index swap": with_block(BLOCK[1], BLOCK[0], *BLOCK[2:]),
    "index repeat": with_block(*BLOCK[:3], BLOCK[3].replace(".3", ".2")),
    "comment inside": with_block(*BLOCK[:2], "# between", *BLOCK[2:]),
    "blank line inside": with_block(*BLOCK[:2], "", *BLOCK[2:]),
    "double space inside": with_block(BLOCK[0].replace(" @", "  @"), *BLOCK[1:]),
    "CRLF": with_block(*BLOCK).replace("\n", "\r\n"),
    "another line break": with_block(BLOCK[0] + "\x1e" + BLOCK[1], *BLOCK[2:]),
    "17-digit time": with_block(*BLOCK[:3], "schedule.3 = lo-off @ 12345678901234567"),
    "time of 2**53": with_block(*BLOCK[:3], f"schedule.3 = lo-off @ {2**53}"),
    "schedule.empty": with_block(*BLOCK, "schedule.empty = true"),
    "no last newline": "trace.band = 5g\n" + "\n".join(BLOCK),
    "a kind of a kind's length": with_block(*BLOCK[:3], "schedule.3 = lo_off @ 1000"),
    "a last line of no command": with_block(*BLOCK, "schedule.x"),
}


@pytest.mark.parametrize("text", DECLINED.values(), ids=DECLINED)
def test_the_column_reader_declines_what_dump_text_does_not_write(text):
    found = column_schedule(text)
    assert found is None or any(line.strip().startswith("schedule.") for _, line in found[0])


@settings(PROFILE, max_examples=150)
@given(edited_dumps())
@example(DECLINED["index with a leading zero"])
@example(DECLINED["time with a leading zero"])
@example(DECLINED["index gap"])
@example(DECLINED["index swap"])
@example(DECLINED["index repeat"])
@example(DECLINED["comment inside"])
@example(DECLINED["blank line inside"])
@example(DECLINED["double space inside"])
@example(DECLINED["CRLF"])
@example(DECLINED["another line break"])
@example(with_block(*BLOCK, before="# caf\xe9\n"))  # a non-ASCII comment outside the block
@example(DECLINED["17-digit time"])
@example(DECLINED["time of 2**53"])
@example(DECLINED["schedule.empty"])
@example(DECLINED["no last newline"])
@example(with_block(*BLOCK, before="# schedule.0 = lo-on @ 5\n"))  # `schedule.` ahead of it
@example(with_block(*BLOCK, before=" schedule.0 = trigger @ 5\n"))  # an entry outside it
@example(DECLINED["a last line of no command"])
def test_the_column_reader_equals_the_per_line_parser(text):
    # with the reader's bound at 0, as a trace of any schedule above the
    # loop bound reads it: equal configs, or the same first error
    expected = parsed(_parse_per_line, text)
    assert parsed(parse_text, text, 0) == expected
    found = column_schedule(text)
    if found is not None:
        try:
            assert parsed(_parse_lines, *found) == expected
        except _Irregular:
            pass


@settings(PROFILE, max_examples=40)
@given(run_configs(), st.lists(st.tuples(st.integers(0, 2**53 - 1), st.sampled_from(range(5))),
                               min_size=1, max_size=40))
def test_the_column_reader_takes_every_dumped_schedule(config, commands):
    config.schedule = Schedule([t for t, _ in commands], [kind for _, kind in commands])
    lines, schedule = column_schedule(dump_config(config))
    assert schedule == config.schedule
    assert _parse_lines(lines, schedule) == config
