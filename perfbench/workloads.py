"""The three workloads, each as the list of invocations in one cycle.

A run repeats whole cycles, so every run on every seed does the same mix
of invocations in the same proportions; only the generated content
changes with the seed. The number of cycles follows from `--seconds`
alone, never from the clock, so a seed always makes the same
invocations and the same ones fail, and the median and the tail
percentile land on the same kind of invocation from run to run.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
from zifsim.ensm import Direction, EnsmMode
from zifsim.rf import Band

FORMATS = ("table", "csv", "json")

WHY = {
    "cli-small": "every subcommand at default size: start-up, imports, config and "
                 "rendering dominate; rf and sim do under 5% of the work",
    "noise-capture": "1e6 and 1e7 sample captures with no, sparse and dense bursts, "
                     "plus synthesis: nearly all time is in the rf layer",
    "trace-schedule": "1e3 to 1e5 command schedules, integral and Fraction timing, "
                      "settling, mid-schedule triggers: config, sim and rendering",
}


# Whole cycles per run of `run_seconds`, untraced and traced; `--seconds`
# scales them. On a 2-vCPU Xeon VM an untraced run then takes 19-28 s
# (cli-small), 25-31 s (noise-capture) and 32-49 s (trace-schedule) as the
# host's load varies: the invocations, the set-up probes and the reference
# runs between them. A traced run takes 15-26 s.
CYCLES = {
    "cli-small": (2, 40),
    "noise-capture": (2, 1),
    "trace-schedule": (3, 1),
}


@dataclass
class Op:
    """One zifsim invocation and what its output must show."""

    label: str
    argv: list
    kind: str  # selects the output check
    fmt: str = "table"
    out: Path | None = None  # the --out file; None means data on stdout
    expect: object = None
    iq_samples: int = 0
    trace_samples: int = 0


def build(workload: str, seed: int, work: Path, sizes=None) -> list:
    """Generate the inputs for `workload` under `work` and return its cycle.

    `sizes` overrides the capture sizes or schedule lengths, for smoke tests.
    """
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, work, sizes)


def _cli_small(seed, work, sizes):
    rng = np.random.default_rng([seed, 1])
    small = work / "small.cfg"
    small_text, small_band = gen.write_small_config(small, [seed, 0])
    n_noise = sizes or 100_000
    ops = []
    for cfg in (None, small):
        prefix = ["-c", str(small)] if cfg else []
        tag = "cfg" if cfg else "dflt"
        trace = gen.default_schedule(small_band if cfg else Band.B2G4)
        mode = list(EnsmMode)[int(rng.integers(len(EnsmMode)))]
        direction = [None, *Direction][int(rng.integers(3))]
        dirs = [direction.value] if direction else [d.value for d in Direction]
        noise_mode = list(EnsmMode)[int(rng.integers(len(EnsmMode)))]
        noise_band = list(Band)[int(rng.integers(len(Band)))]
        for fmt in FORMATS:
            f = ["--format", fmt]
            turn = ["turnaround", "--mode", mode.value]
            if direction:
                turn += ["--dir", direction.value]
            ops += [
                Op(f"{tag}-turnaround-all-{fmt}", prefix + ["turnaround", "--all"] + f,
                   "turnaround-all", fmt),
                Op(f"{tag}-turnaround-mode-{fmt}", prefix + turn + f, "turnaround-mode", fmt,
                   expect=(mode.value, dirs)),
                Op(f"{tag}-comply-{fmt}", prefix + ["comply"] + f, "comply", fmt),
                Op(f"{tag}-trace-{fmt}", prefix + ["trace"] + f, "trace", fmt,
                   expect=trace, trace_samples=trace.rows),
                Op(f"{tag}-noise-{fmt}",
                   prefix + ["noise", "--mode", noise_mode.value, "--band", noise_band.value]
                   + (["--n", str(sizes)] if sizes else []) + f,
                   "noise", fmt, expect=(noise_mode, noise_band, n_noise), iq_samples=n_noise),
            ]
        ops += [
            Op(f"{tag}-comply-require", prefix + ["comply", "--require", "lo-control"],
               "comply", expect="lo-control"),
            Op(f"{tag}-config-dump", prefix + ["config", "--dump"], "config-dump",
               expect=small_text if cfg else None),
        ]
    return ops


# Captures per size: two of each burst duty at 1e6, sparse and dense at
# 1e7. With six 1e6 and one 1e7 synthesis calls a cycle is twelve 1e6 and
# three 1e7 calls, and a run of two cycles thirty, so both the median and
# the tail percentile (ten calls beyond it, p65) fall among the 1e6 calls,
# not on the edge between the sizes. Ten or more 1e7 calls, which the
# tail would need to land among them, take longer than a whole run.
_CAPTURES = {0: ("none", "none", "sparse", "sparse", "dense", "dense"), 1: ("sparse", "dense")}
_SYNTHESES = {0: 6, 1: 1}


def _noise_capture(seed, work, sizes):
    rng = np.random.default_rng([seed, 1])
    ops = []
    for index, n in enumerate(sizes or (1_000_000, 10_000_000)):
        for k, duty in enumerate(_CAPTURES[index]):
            capture = gen.write_capture(work / f"cap-{n}-{duty}-{k}.iq", n, duty,
                                        [seed, n, len(ops)])
            ops.append(Op(f"capture-{n}-{duty}-{k}",
                          ["noise", "--capture", str(capture.path), "--format", "json"],
                          "noise", "json", expect=capture, iq_samples=n))
        for _ in range(_SYNTHESES[index]):
            mode = list(EnsmMode)[int(rng.integers(len(EnsmMode)))]
            band = list(Band)[int(rng.integers(len(Band)))]
            noise_seed = int(rng.integers(1, 1 << 30))
            ops.append(Op(f"synth-{n}-{len(ops)}",
                          ["noise", "--mode", mode.value, "--band", band.value,
                           "--n", str(n), "--seed", str(noise_seed)],
                          "noise", expect=(mode, band, n), iq_samples=n))
    return ops


# Formats per schedule length. A 1e5-command trace is a million rows; it
# runs once, as csv, since table and json take 7 to 10 s there. At 5e3
# every case renders through the CLI's table or json path, so those calls
# take about the same time. At 1e3 every case runs as csv and as table.
# Three cycles make 48 calls: the median lands among the thirty 1e3
# calls, and the tail percentile (ten calls beyond it) in the middle of
# the fifteen 5e3 calls.
_TRACE_PLAN = (
    (1_000, {case: ("csv", "table") for case in gen.SCHEDULE_CASES}),
    (5_000, {"int": ("json",), "frac": ("table",), "settle": ("json",),
             "trig-on": ("table",), "trig-off": ("json",)}),
    (100_000, {"int": ("csv",)}),
)


def _trace_schedule(seed, work, sizes):
    ops = []
    for index, (n, plan) in enumerate(_TRACE_PLAN):
        n = sizes[index] if sizes else n
        for case_name, formats in plan.items():
            sched = gen.write_schedule(work / f"sched-{n}-{case_name}.cfg",
                                       gen.SCHEDULE_CASES[case_name], n, [seed, n, len(ops)])
            for fmt in formats:
                out = work / f"trace-{n}-{case_name}.{fmt}"
                ops.append(Op(f"trace-{n}-{case_name}-{fmt}",
                              ["-c", str(sched.path), "trace", "--format", fmt,
                               "--out", str(out)],
                              "trace", fmt, out=out, expect=sched,
                              trace_samples=sched.rows))
    return ops


_BUILDERS = {
    "cli-small": _cli_small,
    "noise-capture": _noise_capture,
    "trace-schedule": _trace_schedule,
}
