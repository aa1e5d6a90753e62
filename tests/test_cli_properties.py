"""Property: whatever the argv and the config file, `main()` returns a
documented exit code and never raises.

Each example runs in a fresh directory holding the drawn config file, a
small capture with its sidecar, an empty file and a torn one, so drawn
paths and `--out` targets stay inside it. Drawn numbers are at most 64 in
size or 2**53 - 1: any sample count they make is under a few thousand or
needs more than the 128 TiB address space, so each example runs in
milliseconds and no allocation for it can succeed.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zifsim import (
    BUILTIN_DEADLINES,
    Band,
    EnsmMode,
    IqCapture,
    default_config,
    dump_config,
    save_capture,
)
from zifsim.cli import main

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
