"""Output checks: each invocation's output against what the model says.

A check returns a list of problems; an empty list means the output
passed. Every problem makes the invocation count as failed. A problem
marked `known_defect` is the trace step measurement, which is known to
miss or mis-measure steps after a mid-schedule trigger; it counts as a
failure but does not make the run incorrect, so the defect shows in the
failure ratio instead of hiding the other checks.
"""

import csv
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

from zifsim.config import default_config, dump_config, parse_config
from zifsim.ensm import EnsmMode
from zifsim.rf import Band, RfModelParams, rx_noise_floor

# Filtered noise floor versus rx_noise_floor: the filter drops the loudest
# noise samples with the bursts, which biases the mean by about -0.05 dB.
FLOOR_TOLERANCE_DB = 0.5

_MEASURED = re.compile(r"^measured turnaround: (.*)$", re.MULTILINE)


@dataclass(frozen=True)
class Problem:
    text: str
    known_defect: bool = False


@dataclass
class Result:
    """What one invocation left behind."""

    returncode: int
    stdout: str
    stderr: str
    data: str  # the --out file when the op has one, else stdout


class Goldens:
    """The golden tables of the repository's tests, as rows of strings."""

    def __init__(self, golden_dir):
        golden_dir = Path(golden_dir)
        self.turnaround = _read_csv(golden_dir / "turnaround_all.csv")
        self.comply = _read_csv(golden_dir / "comply_default.csv")
        self.totals = {(r["mode"], r["direction"]): r["total_ns"] for r in self.turnaround}


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_rows(text: str, fmt: str) -> list:
    """Rows of a csv, json or table rendering, every cell as text."""
    if fmt == "json":
        return [{k: _cell(v) for k, v in row.items()} for row in json.loads(text)]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    lines = text.splitlines()
    header = lines[0].split()
    return [dict(zip(header, line.split())) for line in lines[1:]]


def check(op, result: Result, goldens: Goldens) -> list:
    if result.returncode != 0:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        return [Problem(f"exit code {result.returncode}: {tail[0]}")]
    try:
        return _CHECKS[op.kind](op, result, goldens)
    except (ValueError, KeyError, IndexError) as exc:  # unparseable output
        return [Problem(f"cannot parse output: {exc!r}")]


def _check_turnaround_all(op, result, goldens):
    rows = parse_rows(result.data, op.fmt)
    if rows != goldens.turnaround:
        return [Problem("turnaround --all differs from tests/golden/turnaround_all.csv")]
    return []


def _check_turnaround_mode(op, result, goldens):
    mode, directions = op.expect
    problems = []
    for row in parse_rows(result.data, op.fmt):
        key = (row["mode"], row["direction"])
        if row["mode"] != mode or row["direction"] not in directions:
            problems.append(Problem(f"unexpected row for {key}"))
        elif row["total_ns"] != goldens.totals[key]:
            problems.append(Problem(f"{key} total {row['total_ns']} != golden"))
    status = result.stderr.splitlines()
    for direction in directions:
        line = f"{mode} {direction}: total {goldens.totals[(mode, direction)]} ns"
        if line not in status:
            problems.append(Problem(f"missing status line {line!r}"))
    return problems


def _check_comply(op, result, goldens):
    problems = []
    if parse_rows(result.data, op.fmt) != goldens.comply:
        problems.append(Problem("comply differs from tests/golden/comply_default.csv"))
    if op.expect and f"requirement {op.expect}: met" not in result.stderr.splitlines():
        problems.append(Problem(f"requirement {op.expect} not reported as met"))
    return problems


def _check_config_dump(op, result, goldens):
    expected = parse_config(op.expect) if op.expect is not None else default_config()
    reparsed = parse_config(result.data)
    problems = []
    if reparsed != expected:
        problems.append(Problem("config --dump does not parse back to the active config"))
    if dump_config(reparsed) != result.data:
        problems.append(Problem("config --dump is not a fixed point of parse and dump"))
    return problems


def trace_columns(text: str, fmt: str):
    """(first time, last time, row count, distinct power cells) of a trace."""
    if fmt == "json":
        rows = json.loads(text)
        powers = {row["power_db"] for row in rows}
        return rows[0]["time_us"], rows[-1]["time_us"], len(rows), powers
    sep = "," if fmt == "csv" else None
    lines = text.splitlines()[1:]
    times = [lines[0].split(sep)[0], lines[-1].split(sep)[0]]
    powers = {line.split(sep)[1] for line in lines}
    return float(times[0]), float(times[1]), len(lines), {float(p) for p in powers}


def _check_trace(op, result, goldens):
    sched = op.expect
    first, last, count, powers = trace_columns(result.data, op.fmt)
    problems = []
    if count != sched.rows:
        problems.append(Problem(f"{count} trace rows, expected {sched.rows}"))
    if (first, last) != (round(sched.start_ns / 1000, 2), round(sched.end_ns / 1000, 2)):
        problems.append(Problem(f"trace spans {first}..{last} us"))
    levels = sorted(round(level, 2) for level in sched.levels())
    if sched.settling_tau_ns > 0:  # settling passes through values between levels
        stray = [p for p in powers if not levels[0] <= p <= levels[-1]]
    else:
        stray = [p for p in powers if p not in levels]
    if stray:
        problems.append(Problem(f"power values outside the model levels: {sorted(stray)[:3]}"))

    status = result.stdout if op.out else result.stderr
    found = _MEASURED.findall(status)
    expected_ns = sched.expected_turnaround_ns()
    expected = f"{float(expected_ns) / 1000.0:.2f} us ({sched.direction.value})"
    if found != [expected]:
        problems.append(Problem(
            f"measured turnaround {found} != {expected} ({sched.name})", known_defect=True
        ))
    return problems


def _check_noise(op, result, goldens):
    (row,) = parse_rows(result.data, op.fmt)
    expect = op.expect  # a generated Capture, or (mode, band, n) for synthesis
    if isinstance(expect, tuple):
        mode, band, n_samples = expect
        burst_samples = 0
    else:
        mode, band, n_samples = expect.mode, expect.band, expect.n_samples
        burst_samples = expect.burst_samples
    problems = []
    if (row["mode"], row["band"]) != (mode.value, band.value):
        problems.append(Problem(f"mode/band {row['mode']}/{row['band']}"))
    total, used, filtered = (int(row[k]) for k in
                             ("samples_total", "samples_used", "samples_filtered"))
    if total != n_samples or used + filtered != total:
        problems.append(Problem(f"samples total {total}, used {used}, filtered {filtered}"))
    if filtered < burst_samples:
        problems.append(Problem(f"{filtered} samples filtered, {burst_samples} injected"))
    floor = rx_noise_floor(EnsmMode(mode), Band(band), RfModelParams())
    if abs(float(row["average_power_db"]) - floor) > FLOOR_TOLERANCE_DB:
        problems.append(Problem(f"floor {row['average_power_db']} dB, model {floor} dB"))
    return problems


def check_keep_mask(capture, keep_mask) -> list:
    """Every injected burst sample must be filtered (traced run only)."""
    missed = sum(int(keep_mask[s:s + n].sum()) for s, n in capture.bursts)
    return [Problem(f"{missed} burst samples kept")] if missed else []


_CHECKS = {
    "turnaround-all": _check_turnaround_all,
    "turnaround-mode": _check_turnaround_mode,
    "comply": _check_comply,
    "config-dump": _check_config_dump,
    "trace": _check_trace,
    "noise": _check_noise,
}
