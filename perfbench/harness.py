"""Benchmark harness: generate, invoke, check, measure.

The untraced run spawns one `zifsim` invocation at a time in a fresh
interpreter and times it from spawn to exit. The traced run calls
`cli.main` in-process, once plain and once with layer spans. See run.py
for how to run it.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import tracing
import workloads
from zifsim import cli
from zifsim.config import default_config
from zifsim.ensm import EnsmMode, sweep_budgets
from zifsim.mac import compliance_matrix

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

# name -> (unit, better, bound); bound is the share of the parent's median
# by which a metric may get worse before a change counts as a regression.
# Times are scaled CPU times (see `Scaler`): on a shared VM the wall time
# of the same call moves by a fifth to a half from one run to the next as
# neighbours load the host, and its CPU time by a fifth; scaled to a
# reference interpreter run beside each call, a run's median moves by 2
# to 9 percent over ten seeds. The bounds are the widest allowed, since a
# busier host widens that spread. Raw CPU and wall times are printed
# beside them, ungated.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_p50_scaled_ms": ("ms", "lower", 0.25),
    "op_tail_scaled_ms": ("ms", "lower", 0.25),
    "ops_per_scaled_s": ("1/s", "higher", 0.25),
    "msamples_per_scaled_s": ("Msamples/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

# name -> (unit, better); the layer metrics of the traced run.
PER_LAYER = {
    "startup.python_s": ("s", "lower"),
    "startup.numpy_import_s": ("s", "lower"),
    "startup.zifsim_import_s": ("s", "lower"),
    "config.parse_config_s": ("s", "lower"),
    "config.lines": ("count", "higher"),
    "config.dump_config_s": ("s", "lower"),
    "sim.expand_schedule_s": ("s", "lower"),
    "sim.commands": ("count", "higher"),
    "sim.events": ("count", "higher"),
    "sim.sample_trace_s": ("s", "lower"),
    "sim.trace_samples": ("count", "higher"),
    "sim.ns_per_sample": ("ns", "lower"),
    "sim.measure_turnaround_s": ("s", "lower"),
    "sim.measure_ok_ratio": ("ratio", "higher"),
    "sim.trace_to_csv_s": ("s", "lower"),
    "rf.load_capture_s": ("s", "lower"),
    "rf.capture_bytes": ("bytes", "higher"),
    "rf.sample_power_db_s": ("s", "lower"),
    "rf.filter_packets_s": ("s", "lower"),
    "rf.average_power_db_s": ("s", "lower"),
    "rf.noise_floor_report_s": ("s", "lower"),
    "rf.noise_floor_report.self_s": ("s", "lower"),
    "rf.synthesize_capture_s": ("s", "lower"),
    "rf.ns_per_sample": ("ns", "lower"),
    "rf.samples_filtered": ("count", "higher"),
    "rf.keep_ratio": ("ratio", "higher"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "ensm.sweep_budgets_s": ("s", "lower"),
    "mac.compliance_matrix_s": ("s", "lower"),
    "trace.overhead_ms_per_op": ("ms", "lower"),
    "trace.unspanned_s": ("s", "lower"),
    "ops_failed_ratio": ("ratio", "lower"),
}

RUN_SECONDS = 25
STARTUP_REPEATS = 7
# setup_s probes at the start of every cycle, so they sample the whole run
# rather than its first two seconds.
SETUP_PROBES_PER_CYCLE = 4
SETUP_CODE = "import zifsim.cli"
# Samples beyond the reported tail percentile.
TAIL_SAMPLES = 10
# The reference a CPU time is scaled by: a fresh interpreter, isolated from
# the checkout and its environment (-I), running a fixed pure-Python loop,
# and its CPU time on a 2-vCPU Xeon VM at that machine's usual speed. It
# runs no zifsim code, so no change to the program can move it.
REFERENCE_ARGV = ["-I", "-c", "s = 0\nfor i in range(200_000):\n    s += i * 3\n"]
REFERENCE_CPU_S = 0.075
# One BLAS thread per process: the machine has two cores, and a BLAS helper
# thread that spins beside the caller adds CPU time that is not work.
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def cycles(workload: str, seconds: float, trace: int) -> int:
    """Whole cycles of a run of `seconds`; at least one.

    The count depends on `seconds` only, never on the clock, so a seed
    always makes the same invocations and the same ones fail.
    """
    return max(1, round(workloads.CYCLES[workload][trace] * seconds / RUN_SECONDS))


def spec() -> dict:
    """The content of BENCHMARK.json, built from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in workloads.WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()],
    }


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    correct: bool
    notes: dict = field(default_factory=dict)  # metric name -> explanation
    problems: list = field(default_factory=list)  # "label: problem" lines


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(ONE_THREAD_ENV)
    return env


@dataclass
class Spawned:
    """One fresh interpreter, run to exit."""

    wall: float  # seconds from spawn to exit
    cpu: float  # user + system seconds of the child
    returncode: int
    rss_mb: float  # the child's max RSS


def spawn(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) -> Spawned:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=stdout, stderr=stderr,
                            env=child_env(), cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                   usage.ru_maxrss / 1024.0)


def startup_times(code: str, repeats: int) -> list:
    """CPU times of fresh interpreters running `code`."""
    times = []
    for _ in range(repeats):
        child = spawn(["-c", code])
        if child.returncode != 0:
            raise RuntimeError(f"python -c {code!r} exited {child.returncode}")
        times.append(child.cpu)
    return times


class Scaler:
    """Scales CPU times to the reference machine's speed.

    The reference runs after every timed child, so each child lies between
    two reference runs; its CPU time is multiplied by REFERENCE_CPU_S over
    the geometric mean of their CPU times. A host whose neighbours slow a
    fresh interpreter by a fifth slows the reference beside it about as
    much, so the scaled time keeps what the program costs and drops most
    of what the machine's state adds.
    """

    def __init__(self):
        self.factors = []
        self._last = self._reference()

    @staticmethod
    def _reference() -> float:
        child = spawn(REFERENCE_ARGV)
        if child.returncode != 0:
            raise RuntimeError(f"reference interpreter exited {child.returncode}")
        return child.cpu

    def scaled(self, cpu: float) -> float:
        """`cpu`, taken just now, at the reference speed."""
        now = self._reference()
        factor = REFERENCE_CPU_S / math.sqrt(self._last * now)
        self._last = now
        self.factors.append(factor)
        return cpu * factor


def startup_seconds(code: str) -> float:
    return statistics.median(startup_times(code, STARTUP_REPEATS))


def _fresh_out(op):
    """Remove the previous cycle's output file, so a missing one shows."""
    if op.out:
        op.out.unlink(missing_ok=True)


def _result(op, work, rc) -> checks.Result:
    stdout = (work / "stdout.txt").read_text()
    data = op.out.read_text() if op.out and op.out.exists() else stdout
    return checks.Result(rc, stdout, (work / "stderr.txt").read_text(), data)


class _Tally:
    """Failures and correctness over the checked invocations of a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.problems = []

    def add(self, op, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.correct &= all(p.known_defect for p in problems)
        self.problems += [f"{op.label}: {p.text}" for p in problems]


# --- untraced run ---------------------------------------------------------

def run_subprocess(op, work) -> tuple:
    _fresh_out(op)
    with open(work / "stdout.txt", "w") as out, open(work / "stderr.txt", "w") as err:
        child = spawn(["-m", "zifsim.cli", *op.argv], stdout=out, stderr=err)
    return child, _result(op, work, child.returncode)


def _tail(times):
    """The highest percentile with TAIL_SAMPLES samples beyond it, and its note."""
    n = len(times)
    rank = max(0, n - TAIL_SAMPLES - 1)
    return sorted(times)[rank], f"p{100.0 * rank / n:.1f} of {n} invocations, " \
                                f"{n - 1 - rank} beyond it"


def untraced(ops, cycles, work, goldens) -> Outcome:
    children, scaled, setup = [], [], []
    tally = _Tally()
    iq = trace = 0
    scaler = Scaler()
    for _ in range(cycles):
        for _ in range(SETUP_PROBES_PER_CYCLE):
            (cpu,) = startup_times(SETUP_CODE, 1)
            setup.append(scaler.scaled(cpu))
        for op in ops:
            child, result = run_subprocess(op, work)
            children.append(child)
            scaled.append(scaler.scaled(child.cpu))
            iq += op.iq_samples
            trace += op.trace_samples
            tally.add(op, checks.check(op, result, goldens))

    n, total = len(children), sum(scaled)
    tail, tail_note = _tail(scaled)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_scaled_ms": statistics.median(scaled) * 1e3,
        "op_tail_scaled_ms": tail * 1e3,
        "ops_per_scaled_s": n / total,
        "msamples_per_scaled_s": (iq + trace) / total / 1e6,
        "peak_rss_mb": max(c.rss_mb for c in children),
    }
    cpu = [c.cpu for c in children]
    wall = [c.wall for c in children]
    notes = {
        "op_tail_scaled_ms": tail_note,
        "iq_msamples_per_scaled_s": f"{iq / total / 1e6:.6g} Msamples/s",
        "trace_ksamples_per_scaled_s": f"{trace / total / 1e3:.6g} ksamples/s",
        "ops_failed_ratio": f"{tally.failed / n:.4g} ({tally.failed} of {n})",
        "scale_factor": f"median {statistics.median(scaler.factors):.4g}, "
                        f"range {min(scaler.factors):.4g}..{max(scaler.factors):.4g}",
        "op_p50_cpu_ms": f"{statistics.median(cpu) * 1e3:.6g} ms CPU, unscaled, ungated",
        "op_tail_cpu_ms": f"{_tail(cpu)[0] * 1e3:.6g} ms CPU, unscaled, ungated",
        "op_p50_ms": f"{statistics.median(wall) * 1e3:.6g} ms wall, ungated",
        "op_tail_ms": f"{_tail(wall)[0] * 1e3:.6g} ms wall, ungated",
        "cli_ops_per_s": f"{n / sum(wall):.6g} 1/s wall, ungated",
    }
    return Outcome(metrics, tally.attempted, tally.failed, tally.correct, notes, tally.problems)


# --- traced run -----------------------------------------------------------

def run_inprocess(op, work, tracer=None):
    """cli.main(argv) in this process; output goes to files as in a subprocess."""
    _fresh_out(op)
    with open(work / "stdout.txt", "w") as out, open(work / "stderr.txt", "w") as err, \
            redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(op.argv)
            else:
                with tracer.span("cli.main"):
                    rc = cli.main(op.argv)
        except Exception as exc:  # a crash is a failed invocation, not a benchmark error
            err.write(f"{type(exc).__name__}: {exc}\n")
            rc = -1
        seconds = time.perf_counter() - start
    return seconds, _result(op, work, rc)


def null_call_seconds(fn, *args, repeats=5, calls=50) -> float:
    """Median per-call time of a call too short to move any end-to-end metric."""
    batches = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        batches.append((time.perf_counter() - start) / calls)
    return statistics.median(batches)


def traced(ops, cycles, work, goldens) -> Outcome:
    python_s = startup_seconds("pass")
    metrics = {
        "startup.python_s": python_s,
        "startup.numpy_import_s": startup_seconds("import numpy") - python_s,
        "startup.zifsim_import_s": startup_seconds(SETUP_CODE) - python_s,
    }
    # Documented nulls: about 0.1 ms each, so they are timed directly
    # rather than through the invocations that happen to call them.
    config = default_config()
    metrics["ensm.sweep_budgets_s"] = null_call_seconds(
        sweep_budgets, list(EnsmMode), config.clocks, config.profile)
    metrics["mac.compliance_matrix_s"] = null_call_seconds(
        compliance_matrix, config.clocks, config.profile, config.deadlines)

    tracer = tracing.Tracer()
    tally = _Tally()
    per_cycle = []
    for _ in range(cycles):
        first_span = len(tracer.spans)
        plain = spanned = 0.0
        measured = []
        for index, op in enumerate(ops):
            tracer.op = tally.attempted
            if index % 2:  # alternate the order, so cache warmth favours neither
                plain += run_inprocess(op, work)[0]
            with tracer.patched():
                elapsed, result = run_inprocess(op, work, tracer)
            spanned += elapsed
            if not index % 2:
                plain += run_inprocess(op, work)[0]

            problems = checks.check(op, result, goldens)
            kept = getattr(tracer.results.get("rf.filter_packets"), "keep_mask", None)
            if isinstance(op.expect, gen.Capture) and kept is not None:
                problems += checks.check_keep_mask(op.expect, kept)
            if op.kind == "trace" and "sim.measure_turnaround" in tracer.results:
                expected = op.expect.expected_turnaround_ns()
                measured.append(tracer.results["sim.measure_turnaround"] == expected)
            tracer.results.clear()
            tally.add(op, problems)
        per_cycle.append(_cycle_metrics(tracer, first_span, len(ops), plain, spanned, measured))

    for name in per_cycle[0]:
        metrics[name] = statistics.median(c[name] for c in per_cycle)
    metrics["ops_failed_ratio"] = tally.failed / tally.attempted
    outcome = Outcome(metrics, tally.attempted, tally.failed, tally.correct,
                      problems=tally.problems)
    return outcome, tracer


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def _cycle_metrics(tracer, first, n_ops, plain, spanned, measured):
    """Per-layer metrics of one cycle, from the spans it recorded."""
    spans = tracer.spans[first:]
    own = tracer.self_seconds()[first:]
    total, self_total, counts = {}, {}, {}
    layer_seconds = 0.0  # time covered by spans directly under cli.main
    for span, seconds in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + span.seconds
        self_total[span.name] = self_total.get(span.name, 0.0) + seconds
        for key, value in span.counts.items():
            counts[(span.name, key)] = counts.get((span.name, key), 0) + value
        if span.parent is not None and tracer.spans[span.parent].name == "cli.main":
            layer_seconds += span.seconds

    def t(name):
        return total.get(name, 0.0)

    def c(name, key):
        return counts.get((name, key), 0)

    filtered_in = c("rf.filter_packets", "samples")
    filtered = c("rf.filter_packets", "filtered")
    return {
        "config.parse_config_s": t("config.parse_config"),
        "config.lines": c("config.parse_config", "lines"),
        "config.dump_config_s": t("config.dump_config"),
        "sim.expand_schedule_s": t("sim.expand_schedule"),
        "sim.commands": c("sim.expand_schedule", "commands"),
        "sim.events": c("sim.expand_schedule", "events"),
        "sim.sample_trace_s": t("sim.sample_trace"),
        "sim.trace_samples": c("sim.sample_trace", "samples"),
        "sim.ns_per_sample": _ratio(t("sim.sample_trace"), c("sim.sample_trace", "samples"), 1e9),
        "sim.measure_turnaround_s": t("sim.measure_turnaround"),
        "sim.measure_ok_ratio": _ratio(sum(measured), len(measured)),
        "sim.trace_to_csv_s": t("sim.trace_to_csv"),
        "rf.load_capture_s": t("rf.load_capture"),
        "rf.capture_bytes": c("rf.load_capture", "bytes"),
        "rf.sample_power_db_s": t("rf.sample_power_db"),
        "rf.filter_packets_s": t("rf.filter_packets"),
        "rf.average_power_db_s": t("rf.average_power_db"),
        "rf.noise_floor_report_s": t("rf.noise_floor_report"),
        "rf.noise_floor_report.self_s": self_total.get("rf.noise_floor_report", 0.0),
        "rf.synthesize_capture_s": t("rf.synthesize_capture"),
        "rf.ns_per_sample": _ratio(t("rf.noise_floor_report"),
                                   c("rf.noise_floor_report", "samples"), 1e9),
        "rf.samples_filtered": filtered,
        "rf.keep_ratio": _ratio(filtered_in - filtered, filtered_in),
        "cli.main_s": t("cli.main"),
        "cli.self_s": self_total.get("cli.main", 0.0),
        "trace.overhead_ms_per_op": (spanned - plain) / n_ops * 1e3,
        "trace.unspanned_s": spanned - layer_seconds,
    }


# --- one run --------------------------------------------------------------

def run_workload(workload, seed, seconds, trace) -> dict:
    """One benchmark run; prints a readable report and returns the result."""
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        ops = workloads.build(workload, seed, work)
        goldens = checks.Goldens(ROOT / "tests" / "golden")
        n_cycles = cycles(workload, seconds, trace)
        if trace:
            outcome, tracer = traced(ops, n_cycles, work, goldens)
            spans_file = ROOT / ".perfbench" / f"spans-{workload}-{seed}.json"
            spans_file.write_text(json.dumps(tracer.to_json()))
            outcome.notes["spans"] = str(spans_file.relative_to(ROOT))
            units = {n: u for n, (u, _) in PER_LAYER.items()}
        else:
            outcome = untraced(ops, n_cycles, work, goldens)
            units = {n: u for n, (u, _, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {workload}, seed {seed}, trace {trace}")
    for line in sorted(set(outcome.problems)):
        print(f"# problem: {line}")
    for name in units:
        note = f"  [{outcome.notes[name]}]" if name in outcome.notes else ""
        print(f"# {name} = {outcome.metrics[name]:.6g} {units[name]}{note}")
    for name, note in outcome.notes.items():
        if name not in units:
            print(f"# {name} = {note}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": outcome.metrics[n], "unit": units[n]} for n in units},
    }
