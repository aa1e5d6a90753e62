"""Command-line interface.

Subcommands: turnaround (budget sweeps), trace (simulated Tx power over
time), noise (receiver floor analysis, synthetic or from a capture file),
comply (deadline matrix), config (dump settings).

Exit codes: 0 success, 1 runtime or data error, 2 usage or configuration
error, 3 compliance requirement not met. Error lines always go to stderr.

Each subcommand imports the layers it runs when it runs: `turnaround`
the budgets (`ensm`), `comply` the deadline checks (`mac`) and `noise`
the capture layer (`rf`) with numpy. `trace` runs one of two pipelines
that write the same bytes, chosen from the config's sizes before either
loads: a trace of fewer than LOOP_ROWS rows from at most LOOP_COMMANDS
commands the per-row loops (`looptrace`), which need no numpy, and any
other the array layer (`sim`) with numpy. `json` and `csv` are imported
by the output formats that use them.

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
import io
import sys

from .config import (
    OUTPUT_FORMATS,
    RunConfig,
    default_config,
    dump_config,
    load_config,
)
from .errors import ConfigError, DataError, MeasurementError
from .params import PACKET_WARNING, Band, Direction, EnsmMode, ns_value

MODE_NAMES = [m.value for m in EnsmMode]
BAND_NAMES = [b.value for b in Band]
DIR_NAMES = [d.value for d in Direction]

# A trace of fewer rows than LOOP_ROWS from at most LOOP_COMMANDS commands
# runs the per-row loop pipeline (`looptrace`), which loads no numpy; a
# larger one the array pipeline (`sim`). Each bound is the largest power of
# two below the measured fresh-call crossover of the two, in every output
# format (README, "Power trace simulation"; BENCH_25.json and
# BENCH_26.json).
LOOP_ROWS = 2**16
LOOP_COMMANDS = 2**15


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


def _cell_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_rows(fieldnames, rows, fmt) -> str:
    if fmt == "json":
        import json

        return json.dumps(rows, indent=2) + "\n"
    texts = [[_cell_text(row[name]) for name in fieldnames] for row in rows]
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(texts)
        return buf.getvalue()
    # table
    widths = [
        max(len(name), *(len(t[i]) for t in texts)) if texts else len(name)
        for i, name in enumerate(fieldnames)
    ]
    numeric = [
        all(isinstance(row[name], (int, float)) and not isinstance(row[name], bool)
            for row in rows)
        if rows
        else False
        for name in fieldnames
    ]

    def line(cells):
        parts = []
        for i, cell in enumerate(cells):
            parts.append(cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    out = [line(list(fieldnames))]
    out.extend(line(t) for t in texts)
    return "\n".join(out) + "\n"


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


def _usage_error(message: str) -> int:
    """Report a usage error on stderr, whatever --out says; exit code 2."""
    sys.stderr.write(f"error: {message}\n")
    return 2


def _budget_rows(budgets):
    rows = []
    for budget in budgets:
        for comp in budget.components:
            rows.append(
                {
                    "mode": budget.mode.value,
                    "direction": budget.direction.value,
                    "stage": comp.stage,
                    "component": comp.name,
                    "duration_ns": ns_value(comp.duration_ns),
                    "total_ns": ns_value(budget.total_ns),
                }
            )
    return rows


def cmd_turnaround(args, config: RunConfig, emitter: _Emitter, fmt: str) -> int:
    if args.direction and not args.mode:
        return _usage_error("--dir needs --mode")
    from .ensm import sweep_budgets

    if args.mode:
        budgets = sweep_budgets([EnsmMode(args.mode)], config.clocks, config.profile)
        if args.direction:
            budgets = [b for b in budgets if b.direction.value == args.direction]
        fields = ["mode", "direction", "stage", "component", "duration_ns", "total_ns"]
        emitter.data(_render_rows(fields, _budget_rows(budgets), fmt))
        for budget in budgets:
            emitter.status(
                f"{budget.mode.value} {budget.direction.value}: "
                f"total {ns_value(budget.total_ns)} ns"
            )
        return 0

    budgets = sweep_budgets(list(EnsmMode), config.clocks, config.profile)
    rows = [
        {
            "mode": b.mode.value,
            "direction": b.direction.value,
            "total_ns": ns_value(b.total_ns),
        }
        for b in budgets
    ]
    emitter.data(_render_rows(["mode", "direction", "total_ns"], rows, fmt))
    return 0


def cmd_trace(args, config: RunConfig, emitter: _Emitter, fmt: str) -> int:
    settings = config.trace
    rows = (settings.end_ns - settings.start_ns) // settings.interval_ns + 1
    if rows < LOOP_ROWS and len(config.schedule) <= LOOP_COMMANDS:
        from . import looptrace as pipeline
    else:
        from . import sim as pipeline

    band = Band(args.band) if args.band else settings.band
    timeline = pipeline.expand_schedule(
        config.schedule, config.clocks, config.profile, band=band, rf=config.rf
    )
    for time_ns in timeline.warning_times():
        emitter.status(f"warning: {PACKET_WARNING} (t={ns_value(time_ns)} ns)")
    trace = pipeline.sample_trace(
        timeline,
        (settings.start_ns, settings.end_ns),
        interval_ns=settings.interval_ns,
        settling_tau_ns=settings.settling_tau_ns,
    )
    emitter.blocks(pipeline.render_blocks(trace, fmt))

    try:
        step = pipeline.find_step(timeline)
        measured = pipeline.measure_turnaround(trace, step)
    except MeasurementError as exc:
        emitter.status(f"measured turnaround: n/a ({exc})")
    else:
        emitter.status(
            f"measured turnaround: {measured / 1000.0:.2f} us ({step.direction.value})"
        )
    return 0


def cmd_noise(args, config: RunConfig, emitter: _Emitter, fmt: str) -> int:
    if args.capture:
        given = [flag for flag in ("mode", "band", "n", "seed")
                 if getattr(args, flag) is not None]
        if given:
            flags = ", ".join(f"--{flag}" for flag in given)
            return _usage_error(f"--capture cannot be combined with {flags}")
    flags = {"n_samples": ("--n", args.n), "seed": ("--seed", args.seed)}
    try:  # the settings' own checks, whose messages name the field first
        noise = config.noise.replace(**{name: v for name, (_, v) in flags.items() if v is not None})
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        return _usage_error(f"{flags[name][0]} {rest}")
    if not args.capture and not (args.mode and args.band):
        return _usage_error("noise needs either --capture or --mode and --band")

    from .rf import load_capture, noise_floor_report, synthesize_capture

    if args.capture:
        capture = load_capture(args.capture)
    else:
        capture = synthesize_capture(EnsmMode(args.mode), Band(args.band), config.rf,
                                     noise.n_samples, noise.seed)
    report = noise_floor_report(capture, noise.filter_threshold_db, noise.filter_guard_samples)
    row = {
        "mode": capture.mode.value if capture.mode else "-",
        "band": capture.band.value if capture.band else "-",
        "samples_total": len(capture),
        "samples_used": report.sample_count_used,
        "samples_filtered": report.samples_filtered,
        "average_power_db": round(report.average_power_db, 2),
    }
    fields = list(row)
    emitter.data(_render_rows(fields, [row], fmt))
    return 0


def cmd_comply(args, config: RunConfig, emitter: _Emitter, fmt: str) -> int:
    deadlines = config.deadlines
    if args.deadline:
        by_name = {d.name: d for d in deadlines}
        selected = {}
        for name in args.deadline:
            if name not in by_name:
                known = ", ".join(by_name) or "(none)"
                return _usage_error(f"unknown deadline {name!r} (known: {known})")
            if name in selected:
                return _usage_error(f"deadline {name!r} given more than once")
            selected[name] = by_name[name]
        deadlines = list(selected.values())
    if not deadlines:
        return _usage_error("no deadlines configured")

    from .mac import compliance_matrix

    results = compliance_matrix(config.clocks, config.profile, deadlines)
    rows = [
        {
            "mode": res.mode.value,
            "deadline": res.deadline.name,
            "tt_ns": ns_value(res.tt_ns),
            "pass": res.passed,
            "margin_ns": ns_value(res.margin_ns),
        }
        for res in results
    ]
    fields = ["mode", "deadline", "tt_ns", "pass", "margin_ns"]
    emitter.data(_render_rows(fields, rows, fmt))

    if args.require:
        mode = EnsmMode(args.require)
        failed = [r for r in results if r.mode is mode and not r.passed]
        if failed:
            names = ", ".join(r.deadline.name for r in failed)
            emitter.status(f"requirement {mode.value}: NOT met ({names})")
            return 3
        emitter.status(f"requirement {mode.value}: met")
    return 0


def cmd_config(args, config: RunConfig, emitter: _Emitter, fmt: str) -> int:
    if not args.dump:
        return _usage_error("nothing to do (use --dump)")
    sys.stdout.write(dump_config(config))
    return 0


_COMMANDS = {
    "turnaround": cmd_turnaround,
    "trace": cmd_trace,
    "noise": cmd_noise,
    "comply": cmd_comply,
    "config": cmd_config,
}


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
        return _usage_error("--out needs a path ('-' = stdout)")
    try:
        config = load_config(args.config) if args.config else default_config()
        fmt = getattr(args, "format", None) or config.output_format
        emitter = _Emitter(config.output_path if out_path is None else out_path)
        return _COMMANDS[args.command](args, config, emitter, fmt)
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
