"""Command-line interface.

Subcommands: turnaround (budget sweeps), trace (simulated Tx power over
time), noise (receiver floor analysis, synthetic or from a capture file),
comply (deadline matrix), config (dump settings).

Exit codes: 0 success, 1 runtime or data error, 2 usage or configuration
error, 3 compliance requirement not met. Error lines always go to stderr.

Each subcommand's handler lives in a module of its own, which `main`
imports when it dispatches to it (`cli_turnaround`, `cli_trace`,
`cli_noise`, `cli_comply`; `config` is handled here), so a call compiles
no handler it does not run. The handlers import the layers they run when
they run: `turnaround` the budgets (`ensm`), `comply` the deadline checks
(`mac`) and `noise` the capture layer (`rf`) with numpy. `trace` runs
one of two pipelines that write the same bytes, chosen from the config's
sizes before either loads: a small trace the per-row loops
(`looptrace`), which need no numpy, and any other the array layer
(`sim`) with numpy (`cli_trace.LOOP_ROWS`, `cli_trace.LOOP_COMMANDS`).
The row renderer (`cli_rows`) loads with the handlers that print rows,
and `json` and `csv` with the output formats that use them. No handler
module imports this one: run as `python -m zifsim.cli`, it is
`__main__`, and an import of `zifsim.cli` would run it a second time.

The process entry point, `run`, disables the garbage collector before
`main` and freezes it once `main` returns: a call is short and makes
little cyclic garbage, so the collections it would run find next to
nothing, and the interpreter's exit-time collections then skip every
object alive instead of walking each loaded module. `main` itself
neither disables nor freezes, since tests and benchmarks call it many
times in one process and need the collector as usual.
"""

import argparse
import gc
import importlib
import sys

from .config import (
    OUTPUT_FORMATS,
    RunConfig,
    default_config,
    dump_config,
    load_config,
)
from .errors import ConfigError, DataError
from .params import Band, Direction, EnsmMode

MODE_NAMES = [m.value for m in EnsmMode]
BAND_NAMES = [b.value for b in Band]
DIR_NAMES = [d.value for d in Direction]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zifsim",
        description="Turnaround-time and self-interference model for a "
        "zero-IF SDR front-end.",
    )
    parser.add_argument("-c", "--config", metavar="FILE", help="run configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_turn = sub.add_parser("turnaround", help="itemized switching budgets")
    which = p_turn.add_mutually_exclusive_group()
    which.add_argument("--mode", choices=MODE_NAMES, help="single mode, itemized")
    which.add_argument("--all", action="store_true", help="sweep all modes")
    p_turn.add_argument("--dir", dest="direction", choices=DIR_NAMES,
                        help="one direction of --mode")
    _output_flags(p_turn)

    p_trace = sub.add_parser("trace", help="simulate a Tx power trace")
    p_trace.add_argument("--band", choices=BAND_NAMES)
    _output_flags(p_trace)

    p_noise = sub.add_parser("noise", help="receiver noise-floor analysis")
    p_noise.add_argument("--mode", choices=MODE_NAMES)
    p_noise.add_argument("--band", choices=BAND_NAMES)
    p_noise.add_argument("--n", type=int, help="synthetic sample count")
    p_noise.add_argument("--seed", type=int, help="synthetic noise seed")
    p_noise.add_argument("--capture", metavar="FILE", help="capture file to analyze")
    _output_flags(p_noise)

    p_comply = sub.add_parser("comply", help="deadline compliance matrix")
    p_comply.add_argument("--require", choices=MODE_NAMES, metavar="MODE",
                          help="exit 3 unless MODE passes every deadline")
    p_comply.add_argument("--deadline", action="append", metavar="NAME",
                          help="restrict to named deadlines (repeatable)")
    _output_flags(p_comply)

    p_config = sub.add_parser("config", help="show configuration")
    p_config.add_argument("--dump", action="store_true",
                          help="print the effective configuration")
    return parser


def _output_flags(sub_parser):
    sub_parser.add_argument("--format", choices=OUTPUT_FORMATS)
    sub_parser.add_argument("--out", metavar="PATH", help="output file ('-' = stdout)")


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if isinstance(code, int):
            return code
        return 0 if code is None else 2

    out_path = getattr(args, "out", None)
    if out_path == "":
        return _Emitter.usage_error("--out needs a path ('-' = stdout)")
    try:
        config = load_config(args.config) if args.config else default_config()
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
