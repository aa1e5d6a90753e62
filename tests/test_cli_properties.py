"""Properties of `main()`.

Whatever the argv and the config file, it returns a documented exit code
and never raises. Each example runs in a fresh directory holding the
drawn config file, a small capture with its sidecar, an empty file and a
torn one, so drawn paths and `--out` targets stay inside it. Drawn
numbers are at most 64 in size or 2**53 - 1: any sample count they make
is under a few thousand or needs more than the 128 TiB address space, so
each example runs in milliseconds and no allocation for it can succeed.

And `trace` writes the same bytes, status lines and errors, with the same
exit code, whichever pipeline its size bounds choose: the per-row loops
(`looptrace`) or the numpy arrays (`sim`). The bounds are set around each
drawn config's own size, so the check also sees which pipeline ran.

And the table parser, `parse_argv`, reads an argv only as argparse does:
it declines it, or gives the namespace `build_parser` gives.
"""

import contextlib
import io
import math
import os
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zifsim import (
    BUILTIN_DEADLINES,
    Band,
    ConfigError,
    EnsmMode,
    IqCapture,
    default_config,
    dump_config,
    parse_config,
    save_capture,
)
from zifsim import cli_trace, looptrace, sim
from zifsim.cli import EXCLUSIVE, GLOBAL_OPTION, SUBCOMMANDS, main, parse_argv
from zifsim.cli_help import build_parser

from conftest import assert_same_text

PROFILE = settings(derandomize=True, deadline=None, max_examples=200, database=None)

NUMBERS = ("0", "1", "-1", "3", "64", "-64", "9007199254740991", "nan", "1e400")
MODES = tuple(m.value for m in EnsmMode)
BANDS = tuple(b.value for b in Band)
DEADLINES = (*(d.name for d in BUILTIN_DEADLINES), "nope")
FILES = ("run.cfg", "cap.bin", "empty.bin", "torn.bin", "missing.bin", ".", "out.txt")
OUTPUT = {"--format": ("csv", "json", "table", "yaml"), "--out": ("-", "out.txt", ".", "x/y", "")}
# each subcommand's options, with the values each is meant to take;
# None marks a switch
COMMANDS = {
    "turnaround": {"--mode": MODES, "--dir": ("rx-tx", "tx-rx"), "--all": None, **OUTPUT},
    "trace": {"--band": BANDS, **OUTPUT},
    "noise": {"--mode": MODES, "--band": BANDS, "--n": NUMBERS, "--seed": NUMBERS,
              "--capture": FILES, **OUTPUT},
    "comply": {"--require": MODES, "--deadline": DEADLINES, **OUTPUT},
    "config": {"--dump": None},
}
# no digits, so free text is never a large number
FREE_TEXT = st.text(alphabet="abz-=. @_/", max_size=8)
TOKEN = st.sampled_from([*COMMANDS, "-h", "--all", "--n", *NUMBERS, *FILES, *MODES]) | FREE_TEXT


def option(options):
    """One option of a subcommand as argv tokens: a flag and its value."""
    def tokens(flag):
        if options[flag] is None:
            return st.just((flag,))
        return st.sampled_from(options[flag]).map(lambda value: (flag, value))
    return st.sampled_from(sorted(options)).flatmap(tokens)


def joined(head, options, roll, token):
    """The argv: head, options, and the stray token when roll is 3."""
    argv = [*head, *(t for group in options for t in group)]
    return [*argv, token] if roll == 3 else argv


# a subcommand (noise often with a mode and a band), some of its options,
# and one time in four a token from anywhere
heads = st.sampled_from(sorted(COMMANDS)).map(lambda command: [command]) | st.tuples(
    st.sampled_from(MODES), st.sampled_from(BANDS)
).map(lambda mode_band: ["noise", "--mode", mode_band[0], "--band", mode_band[1]])
argvs = heads.flatmap(lambda head: st.builds(
    joined, st.just(head), st.lists(option(COMMANDS[head[0]]), max_size=3),
    st.integers(0, 3), TOKEN,
))

DEFAULT_LINES = dump_config(default_config()).splitlines()
KEYS = (
    *(line.partition(" = ")[0] for line in DEFAULT_LINES if " = " in line),
    "schedule.0", "schedule.1", "schedule.2", "schedule.empty", "deadlines.extra.tight",
)
VALUES = (
    *NUMBERS, "true", "false", "2g4", "5g", "csv", "json", "table", "-", "out.txt",
    "lo-on @ 0", "lo-off @ 500", "lo-on @ 3000", "tx-packet-start @ 100",
    "tx-packet-end @ 200", "trigger @ 64", "warp @ 0",
)
# mostly settings lines, then at most one line of any text
config_texts = st.tuples(
    st.lists(
        st.sampled_from(DEFAULT_LINES)
        | st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES)).map(" = ".join),
        max_size=6,
        unique_by=lambda line: line.partition(" = ")[0],
    ),
    st.none() | FREE_TEXT,
).map(lambda c: "\n".join([*c[0], *filter(None, [c[1]])]) + "\n")


def write_inputs(config_text):
    """The files a drawn argv may name, in the current directory."""
    with open("run.cfg", "w") as fh:
        fh.write(config_text)
    samples = np.tile(np.array([[100, -100], [2000, 2000]], dtype=np.int16), (32, 1))
    save_capture(IqCapture(samples, band=Band.B5G, mode=EnsmMode.FDD), "cap.bin")
    open("empty.bin", "wb").close()
    with open("torn.bin", "wb") as fh:
        fh.write(b"\x01\x02\x03")


@PROFILE
@given(st.booleans(), argvs, config_texts)
# sizes no allocation can serve: a data error, exit 1
@example(False, ["noise", "--mode", "fdd", "--band", "2g4", "--n", "9007199254740991"], "")
@example(True, ["trace"], "trace.end_ns = 9007199254740991\n")
# a floor beyond int16 full scale: a data error, not an OverflowError
@example(True, ["noise", "--mode", "fdd", "--band", "2g4"], "rf.fdd_rx_floor_db.2g4 = 1e308\n")
def test_main_returns_a_documented_exit_code(use_config, argv, config_text):
    argv = (["-c", "run.cfg"] if use_config else []) + argv
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_inputs(config_text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3), (argv, config_text, code)


PARSER = build_parser(GLOBAL_OPTION, SUBCOMMANDS, EXCLUSIVE)
FLAGS = ("-c", "--config", *sorted({flag for options in COMMANDS.values() for flag in options}))
# forms the table parser declines: help, abbreviations, `=` and attached
# values, the end of options and negative numbers as values
DECLINED = ("-h", "--help", "--form", "--dea", "--al", "--conf", "--format=csv",
            "--mode=fdd", "--config=run.cfg", "-crun.cfg", "--", "-1", "-64")
# values, '-' (an --out value) among them: argparse reads a lone '-' as a
# value, and so does the table parser
ARG_VALUES = (*sorted({v for options in COMMANDS.values() for values in options.values()
                   for v in values or ()}), "", "1_0", " 7", "nope")
VOCABULARY = (*COMMANDS, *FLAGS, *DECLINED, *ARG_VALUES)


def argparse_vars(argv):
    """vars() of argparse's namespace for ARGV, or None for a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


# global options, a subcommand, its options (or any flag with any value)
# and now and then one more token; that with a declined form put in
# anywhere; or any tokens at all
any_flag = st.tuples(st.sampled_from(FLAGS), st.sampled_from(ARG_VALUES)) | st.tuples(
    st.sampled_from(FLAGS + DECLINED))
global_options = st.lists(st.sampled_from((("-c", "run.cfg"), ("--config", ""), ("-c", "-"))),
                          max_size=2).map(lambda pairs: sum(pairs, ()))
tails = st.just(()) | st.just(()) | st.just(()) | st.sampled_from(VOCABULARY).map(
    lambda token: (token,))


def command_argvs(command):
    options = option(COMMANDS[command])
    # or three of its options, none twice, each with a value it is meant to take
    distinct = st.permutations(sorted(COMMANDS[command])).flatmap(lambda flags: st.tuples(
        *(option({flag: COMMANDS[command][flag]}) for flag in flags[:3])))
    return st.builds(lambda head, pairs, tail: [*head, command, *sum(pairs, ()), *tail],
                     global_options,
                     st.lists(options | options | options | any_flag, max_size=5) | distinct,
                     tails)


structured = st.sampled_from(sorted(COMMANDS)).flatmap(command_argvs)
cli_argvs = structured | st.builds(
    lambda argv, token, at: [*argv[:at], token, *argv[at:]],
    structured, st.sampled_from(DECLINED), st.integers(0, 12),
) | st.lists(st.sampled_from(VOCABULARY), max_size=6)


@settings(PROFILE, max_examples=1000)
@given(cli_argvs)
@example([])
@example(["config", "--dump"])
@example(["config", "-"])
# a lone '-' is a value, a missing value or one that starts with '-' is not
@example(["trace", "--out", "-"])
@example(["trace", "--out"])
@example(["trace", "--out", "-h"])
@example(["-c", "-crun.cfg", "config"])
@example(["noise", "--n", "-1"])
@example(["trace", "--format", "json", "--format", "csv"])
@example(["comply", "--deadline", "sifs-2g4", "--deadline", "nope"])
@example(["turnaround", "--mode", "nope"])
@example(["turnaround", "--mode", "fdd", "--all"])
@example(["noise", "--n", " 7", "--seed", "1_0", "--capture", ""])
def test_the_table_parser_reads_argv_as_argparse_does(argv):
    args = parse_argv(argv)
    assert args is None or vars(args) == argparse_vars(argv), argv


@pytest.mark.parametrize("argv", [
    ["turnaround", "--all"],
    ["-c", "run.cfg", "turnaround", "--mode", "lo-control", "--dir", "rx-tx", "--format", "csv"],
    ["trace", "--band", "5g", "--format", "json", "--out", "trace.json"],
    ["trace", "--out", "-"],
    ["-c", "-", "turnaround", "--all", "--format", "json", "--out", "-"],
    ["comply", "--deadline", "-", "--format", "csv", "--out", "-"],
    ["noise", "--mode", "fdd", "--band", "2g4", "--n", "1000", "--seed", "7"],
    ["noise", "--capture", "cap.bin", "--format", "table"],
    ["comply", "--require", "lo-control", "--deadline", "sifs-2g4", "--deadline", "sifs-5g"],
    ["--config", "run.cfg", "config", "--dump"],
])
def test_well_formed_argv_is_read_from_the_table(argv):
    assert vars(parse_argv(argv)) == argparse_vars(argv)


SPI_CLOCKS = (50_000_000, 48_000_000, 25_000_000, 9_000_000, 7_000_000)
LO_KINDS = ("lo-on", "lo-off")
# levels that round to -0.00 or sit near a two-decimal tie, and the model's
LO_LEVELS = ("30.0", "-0.0", "0.005", "2.675")
KINDS = (*LO_KINDS, "tx-packet-start", "tx-packet-end", "trigger")


@st.composite
def trace_configs(draw):
    """Config text of a small trace. A tidy schedule is valid: sorted, its
    packets paired and its LO writes a frame apart. Any other may also
    break the nesting, overlap two frames, leave a packet open or swap
    two commands. Either may write the LO into the state it is in, and
    the window may cut events, put the trigger outside or be empty."""
    spi_hz = draw(st.sampled_from(SPI_CLOCKS))
    frame = Fraction(24 * 10**9, spi_hz)
    lines = [f"clocks.spi_clock_hz = {spi_hz}",
             f"profile.lo_div_powerup_ns = {draw(st.sampled_from((160, 0, 3, 700, 2000)))}",
             f"profile.lo_div_powerdown_ns = {draw(st.sampled_from((20, 0, 160, 2000)))}",
             f"rf.lo_on_delta_db.2g4 = {draw(st.sampled_from(LO_LEVELS))}",
             f"rf.lo_on_delta_db.5g = {draw(st.sampled_from(('22.0', '12.345')))}",
             f"rf.packet_delta_db = {draw(st.sampled_from(('15.0', '2.5', '7.125')))}"]
    tidy = draw(st.booleans())
    commands, t, last_lo, packet_open = [], draw(st.integers(0, 800)), None, False
    for kind in draw(st.lists(st.sampled_from(KINDS), max_size=10)):
        t += draw(st.sampled_from((0, 1)) | st.integers(0, 3000))
        if kind in LO_KINDS:
            if last_lo is not None:  # 0: any gap
                gaps = (math.ceil(frame),) if tidy else (math.floor(frame), math.ceil(frame), 0)
                t = max(t, last_lo + draw(st.sampled_from(gaps)))
            last_lo = t
        elif kind != "trigger" and (tidy or draw(st.sampled_from((True, True, False)))):
            kind = "tx-packet-end" if packet_open else "tx-packet-start"
        if kind.startswith("tx-packet"):
            packet_open = kind == "tx-packet-start"
        commands.append((t, kind))
    if tidy and packet_open:
        commands.append((t + draw(st.integers(0, 500)), "tx-packet-end"))
    if not tidy and len(commands) > 1:
        i, j = draw(st.permutations(range(len(commands))))[:2]
        commands[i], commands[j] = commands[j], commands[i]
    if not commands and draw(st.booleans()):
        lines.append("schedule.empty = true")
    lines += [f"schedule.{i} = {kind} @ {t}" for i, (t, kind) in enumerate(commands)]
    # the window opens and ends near the trigger (the trigger command,
    # else the first LO write) most often, else near any command
    triggers = [t for t, kind in commands if kind == "trigger"] or [
        t for t, kind in commands if kind in LO_KINDS]
    anchor = draw(st.sampled_from(triggers[:1] * 4 + [0] + [t for t, _ in commands]))
    interval = draw(st.sampled_from((5, 7, 25, 50, 250, 490, 700)) | st.integers(3, 1000))
    start = anchor - draw(st.sampled_from((0, 50, 700, 2500)) | st.integers(-500, 3000))
    end = max(start, anchor + draw(st.sampled_from((1000, 2500, 6000)) | st.integers(-500, 6000)))
    tau = draw(st.sampled_from(("0.0", "0.0", "10.0", "40.0", "200.5")))
    lines += [f"trace.start_ns = {start}", f"trace.end_ns = {end}",
              f"trace.interval_ns = {interval}", f"trace.settling_tau_ns = {tau}"]
    return "\n".join(lines) + "\n"


def traced_call(argv, rows_bound, commands_bound):
    """(exit code, stdout, stderr, --out bytes or None, the pipelines that
    ran) of `main(argv)` under the given bounds, in the current directory."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(cli_trace, "LOOP_ROWS", rows_bound))
        stack.enter_context(mock.patch.object(cli_trace, "LOOP_COMMANDS", commands_bound))
        spies = {module: stack.enter_context(mock.patch.object(
            module, "expand_schedule", wraps=module.expand_schedule))
            for module in (looptrace, sim)}
        out = stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        code = main(argv)
    written = None
    if os.path.exists("out.txt"):
        with open("out.txt", "rb") as fh:
            written = fh.read()
        os.remove("out.txt")
    ran = [module.__name__ for module, spy in spies.items() if spy.called]
    return code, out.getvalue(), err.getvalue(), written, ran


@settings(PROFILE, max_examples=150)
@given(trace_configs(), st.sampled_from(("csv", "table", "json")),
       st.sampled_from(((), ("--band", "2g4"), ("--band", "5g"))), st.booleans(),
       st.sampled_from(("rows", "commands")))
# the golden Fraction-clock config: a warning, a mid-schedule trigger
@example("clocks.spi_clock_hz = 7000000\ntrace.start_ns = -500\ntrace.end_ns = 14000\n"
         "trace.interval_ns = 25\nschedule.0 = tx-packet-start @ 0\nschedule.1 = lo-on @ 100\n"
         "schedule.2 = tx-packet-end @ 2000\nschedule.3 = lo-off @ 4000\n"
         "schedule.4 = trigger @ 8000\nschedule.5 = lo-on @ 8000\n"
         "schedule.6 = tx-packet-start @ 12000\nschedule.7 = tx-packet-end @ 13000\n",
         "table", (), True, "rows")
# the crossing on the window's last sample and on the sample after the
# trigger's; the sample past the step's end (the lo-off divider event at
# 980 ns) and the last one before it
@example("trace.start_ns = 0\ntrace.end_ns = 650\n", "csv", (), False, "commands")
@example("trace.start_ns = 0\ntrace.end_ns = 2100\ntrace.interval_ns = 700\n", "csv", (),
         False, "rows")
@example("trace.start_ns = 0\ntrace.end_ns = 1500\ntrace.interval_ns = 490\n"
         "trace.settling_tau_ns = 200.5\nschedule.0 = lo-on @ 0\nschedule.1 = lo-off @ 480\n",
         "json", (), False, "rows")
@example("trace.start_ns = 0\ntrace.end_ns = 2000\ntrace.interval_ns = 400\n"
         "schedule.0 = lo-on @ 0\nschedule.1 = lo-off @ 480\n", "table", (), True, "commands")
def test_both_trace_pipelines_write_the_same(config_text, fmt, band, to_file, bound):
    argv = ["-c", "run.cfg", "trace", *band, "--format", fmt, *(["--out", "out.txt"] * to_file)]
    try:
        config = parse_config(config_text)
        window = config.trace
        rows = (window.end_ns - window.start_ns) // window.interval_ns + 1
        commands = len(config.schedule)
    except ConfigError:  # main fails before it chooses
        config, rows, commands = None, 0, 0
    # the loop pipeline at the smallest bounds that admit this trace; the
    # array one with one bound a step lower
    array_bounds = (rows, commands) if bound == "rows" else (rows + 1, commands - 1)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with open("run.cfg", "w") as fh:
                fh.write(config_text)
            *loop, loop_ran = traced_call(argv, rows + 1, commands)
            *array, array_ran = traced_call(argv, *array_bounds)
        finally:
            os.chdir(cwd)
    assert loop[0] == array[0]  # the exit code
    for got, expected in zip(loop[1:], array[1:]):  # stdout, stderr, the --out bytes
        assert_same_text(got, expected)
    if config is not None:
        assert (loop_ran, array_ran) == (["zifsim.looptrace"], ["zifsim.sim"])
