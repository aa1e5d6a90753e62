"""Command-line interface.

Subcommands: turnaround (budget sweeps), trace (simulated Tx power over
time), noise (receiver floor analysis, synthetic or from a capture file),
comply (deadline matrix), config (dump settings).

Exit codes: 0 success, 1 runtime or data error, 2 usage or configuration
error, 3 compliance requirement not met. Error lines always go to stderr.

`main` reads a well-formed argv from one table of the options
(`GLOBAL_OPTION`, `SUBCOMMANDS`, `EXCLUSIVE`) through `parse_argv`, which
gives the namespace argparse would give. Only for an argv that it
declines, help and usage errors among them, does `main` import
`cli_help`, whose `build_parser` makes argparse's parser of the same
table, so help and error text are argparse's own. A well-formed call so
compiles no parser code and loads neither argparse nor `gettext`, nor
the `shutil` its help formatter imports.

Each subcommand's handler lives in a module of its own, which `main`
imports when it dispatches to it (`cli_turnaround`, `cli_trace`,
`cli_noise`, `cli_comply`; `config` is handled here), so a call compiles
no handler it does not run. The handlers import the layers they run when
they run: `turnaround` the budgets (`ensm`), `comply` the deadline checks
(`mac`) and `noise` the capture layer (`rf`) with numpy. `trace` runs
one of two pipelines that write the same bytes, chosen from the config's
sizes before either loads: a small trace the per-row loops
(`looptrace`), which need no numpy, and any other the array layer
(`sim`) with numpy (`cli_trace.LOOP_ROWS`, `cli_trace.LOOP_COMMANDS`);
both read the shared trace rules in `steps`, which no other call loads.
The row renderer (`cli_rows`) loads with the handlers that print rows
and writes json and csv itself, without the stdlib `json` and `csv`.
Neither `cli_help` nor any handler module imports this one: run as
`python -m zifsim.cli`, it is `__main__`, and an import of `zifsim.cli`
would run it a second time.

The process entry point, `run`, disables the garbage collector before
`main` and freezes it once `main` returns: a call is short and makes
little cyclic garbage, so the collections it would run find next to
nothing, and the interpreter's exit-time collections then skip every
object alive instead of walking each loaded module. `main` itself
neither disables nor freezes, since tests and benchmarks call it many
times in one process and need the collector as usual.
"""

import gc
import importlib
import sys
import types

from .config import (
    OUTPUT_FORMATS,
    RunConfig,
    default_config,
    dump_config,
    load_config,
)
from .errors import ConfigError, DataError
from .params import Band, Direction, EnsmMode

MODE_NAMES = tuple(m.value for m in EnsmMode)
BAND_NAMES = tuple(b.value for b in Band)
DIR_NAMES = tuple(d.value for d in Direction)

# The command line, described once. Each option is (flags, dest, action,
# choices, metavar, help), in `add_argument` order; the action "int" is a
# store of an int.
GLOBAL_OPTION = ("-c --config", "config", "store", None, "FILE", "run configuration file")
OUTPUT_OPTIONS = (
    ("--format", "format", "store", OUTPUT_FORMATS, None, None),
    ("--out", "out", "store", None, "PATH", "output file ('-' = stdout)"),
)
# each subcommand's help and options
SUBCOMMANDS = {
    "turnaround": ("itemized switching budgets", (
        ("--mode", "mode", "store", MODE_NAMES, None, "single mode, itemized"),
        ("--all", "all", "store_true", None, None, "sweep all modes"),
        ("--dir", "direction", "store", DIR_NAMES, None, "one direction of --mode"),
        *OUTPUT_OPTIONS)),
    "trace": ("simulate a Tx power trace", (
        ("--band", "band", "store", BAND_NAMES, None, None),
        *OUTPUT_OPTIONS)),
    "noise": ("receiver noise-floor analysis", (
        ("--mode", "mode", "store", MODE_NAMES, None, None),
        ("--band", "band", "store", BAND_NAMES, None, None),
        ("--n", "n", "int", None, None, "synthetic sample count"),
        ("--seed", "seed", "int", None, None, "synthetic noise seed"),
        ("--capture", "capture", "store", None, "FILE", "capture file to analyze"),
        *OUTPUT_OPTIONS)),
    "comply": ("deadline compliance matrix", (
        ("--require", "require", "store", MODE_NAMES, "MODE",
         "exit 3 unless MODE passes every deadline"),
        ("--deadline", "deadline", "append", None, "NAME",
         "restrict to named deadlines (repeatable)"),
        *OUTPUT_OPTIONS)),
    "config": ("show configuration", (
        ("--dump", "dump", "store_true", None, None, "print the effective configuration"),)),
}
# the options of a subcommand of which a call may give only one
EXCLUSIVE = {"turnaround": ("--mode", "--all")}


def parse_argv(argv):
    """The namespace argparse makes of a well-formed ARGV, or None.

    It reads only exact option strings, each followed by a separate value
    that is a lone '-' or does not start with '-', and declines everything
    else: help, abbreviations, `--format=csv` and `-cFILE`, `--`, negative
    numbers as values, unknown or extra tokens, a missing subcommand or
    value, a bad choice or int, and both options of an exclusive pair.
    """
    args = {}
    options = _options(args, [GLOBAL_OPTION])
    seen = set()
    tokens = iter(argv)
    for token in tokens:
        if token not in options:
            if "command" in args or token not in SUBCOMMANDS:
                return None
            args["command"] = token
            options = _options(args, SUBCOMMANDS[token][1])
            continue
        seen.add(token)
        _, dest, action, choices, *_ = options[token]
        if action == "store_true":
            args[dest] = True
            continue
        value = next(tokens, "--")  # a missing value declines as an option does
        if value[:1] == "-" and value != "-":  # a lone '-' is a value to argparse
            return None
        if action == "int":
            try:
                value = int(value)
            except ValueError:
                return None
        if choices and value not in choices:
            return None
        args[dest] = [*(args[dest] or ()), value] if action == "append" else value
    group = EXCLUSIVE.get(args.get("command"), ())
    if "command" not in args or group and seen.issuperset(group):
        return None
    return types.SimpleNamespace(**args)


def _options(args, options):
    """OPTIONS by each of their flags, with their defaults set in ARGS."""
    for _, dest, action, *_ in options:
        args[dest] = False if action == "store_true" else None
    return {flag: option for option in options for flag in option[0].split()}


class _Emitter:
    """Routes report data and status lines per the --out destination."""

    def __init__(self, out_path: str):
        self.out_path = out_path

    def data(self, text: str):
        if self.out_path == "-":
            sys.stdout.write(text)
        else:
            with open(self.out_path, "w", newline="") as fh:
                fh.write(text)

    def blocks(self, blocks):
        """Write ASCII byte blocks as they are made."""
        if self.out_path == "-":
            for block in blocks:
                sys.stdout.write(block.decode("ascii"))
        else:
            with open(self.out_path, "wb") as fh:
                fh.writelines(blocks)

    def status(self, line: str):
        stream = sys.stderr if self.out_path == "-" else sys.stdout
        stream.write(line + "\n")

    @staticmethod
    def usage_error(message: str) -> int:
        """Report a usage error on stderr, whatever --out says; exit code 2."""
        sys.stderr.write(f"error: {message}\n")
        return 2


def cmd_config(args, config: RunConfig, emitter: _Emitter, fmt: str) -> int:
    if not args.dump:
        return emitter.usage_error("nothing to do (use --dump)")
    sys.stdout.write(dump_config(config))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_argv(argv)
    if args is None:
        try:
            from .cli_help import build_parser

            args = build_parser(GLOBAL_OPTION, SUBCOMMANDS, EXCLUSIVE).parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            if isinstance(code, int):
                return code
            return 0 if code is None else 2

    out_path = getattr(args, "out", None)
    if out_path == "":
        return _Emitter.usage_error("--out needs a path ('-' = stdout)")
    try:
        numpy_above = None
        if args.command == "trace":  # which runs numpy for more commands than its loops take
            from .cli_trace import LOOP_COMMANDS as numpy_above
        config = load_config(args.config, numpy_above) if args.config else default_config()
        fmt = getattr(args, "format", None) or config.output_format
        emitter = _Emitter(config.output_path if out_path is None else out_path)
        if args.command == "config":
            return cmd_config(args, config, emitter, fmt)
        handlers = importlib.import_module(f".cli_{args.command}", __package__)
        return getattr(handlers, f"cmd_{args.command}")(args, config, emitter, fmt)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (DataError, ValueError, OSError, MemoryError) as exc:
        # MemoryError: a sample count or trace window too large to allocate
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run():
    """Process entry point: exit with `main`'s code, without collections
    during the call or at exit. Flushing, atexit handlers and module
    teardown still run."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
