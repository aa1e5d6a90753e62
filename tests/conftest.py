"""Shared fixtures and brute-force reference implementations.

The reference implementations here are deliberately slow and simple
(quadratic scans, explicit loops) so they can serve as independent
oracles for the vectorized library code.
"""

import statistics

import numpy as np
import pytest

from zifsim import ClockConfig, RfModelParams, TimingProfile
from zifsim.looptrace import LoopTimeline
from zifsim.params import (
    COMMAND_KINDS,
    CommandKind,
    Direction,
    Record,
    Schedule,
    check_command_time,
    check_fields,
)
from zifsim.steps import (
    EFFECTS,
    NO_CROSSING,
    NO_STEP,
    PACKET_WARNING,
    TRIGGER_OUTSIDE,
    event_time_ns,
)


@pytest.fixture
def clocks():
    return ClockConfig()


@pytest.fixture
def profile():
    return TimingProfile()


@pytest.fixture
def rf():
    return RfModelParams()


class Command(Record):
    """One scheduled command: `kind` issued at `time_ns`. The library keeps
    a schedule as columns (`Schedule`), with no object per command; tests
    write their schedules as lists of these."""

    time_ns: int
    kind: CommandKind

    def __post_init__(self):
        check_fields(self)
        check_command_time(self.time_ns)


def from_commands(commands) -> Schedule:
    """The schedule of Command objects, in their order."""
    commands = list(commands)
    return Schedule([cmd.time_ns for cmd in commands],
                    [COMMAND_KINDS.index(cmd.kind) for cmd in commands])


def loop_timeline(timeline):
    """A Timeline as the loop pipeline's LoopTimeline: a (key, effect,
    power_after_dbr, warned, lo_change) row per event, the key
    2 * floor_ns + plus_frac, and the frame's fraction held once."""
    columns = zip((2 * timeline.floor_ns + timeline.plus_frac).tolist(),
                  timeline.effect.tolist(), timeline.power_after_dbr.tolist(),
                  timeline.warned.tolist(), timeline.lo_change.tolist())
    rows = [(key, EFFECTS[code], power, warned, lo_change)
            for key, code, power, warned, lo_change in columns]
    return LoopTimeline(rows, timeline.frac_ns, timeline.initial_dbr, timeline.trigger_ns,
                        timeline.step_index)


def exact_times(timeline):
    """A LoopTimeline's event times, exact (int or Fraction)."""
    return [event_time_ns(key >> 1, key & 1, timeline.frac_ns) for key, *_ in timeline.events]


def event_rows(timeline):
    """A Timeline's events as (time_ns, effect, power_after_dbr, warning) tuples."""
    loop = loop_timeline(timeline)
    return [(time_ns, effect, power, PACKET_WARNING if warned else None)
            for time_ns, (_, effect, power, warned, _) in zip(exact_times(loop), loop.events)]


def assert_same_text(got, expected):
    """Fail unless the two texts (str, bytes or None) are equal, naming the
    first line that differs and both versions of it. pytest's own diff of
    two traces of 2**16 rows takes minutes, and hypothesis fails many
    times while it shrinks."""
    if got != expected:
        ours, theirs = ((text or "").splitlines(keepends=True) for text in (got, expected))
        k = next((k for k, pair in enumerate(zip(ours, theirs)) if pair[0] != pair[1]),
                 min(len(ours), len(theirs)))
        pytest.fail(f"texts differ at line {k + 1}: {ours[k:k + 1]} != {theirs[k:k + 1]}")


def brute_force_turnaround(trace, step):
    """Reference step measurement over either pipeline's trace: every
    sample's time tested against the trigger, and the window's end by the
    exact test start + k * interval < end_ns. The time, or the
    MeasurementError text."""
    samples = list(trace.samples)
    times = [trace.start_ns + k * trace.interval_ns for k in range(len(samples))]
    before = [k for k, t in enumerate(times) if t <= step.trigger_ns]
    if not before or before[-1] == len(samples) - 1:
        return TRIGGER_OUTSIDE
    at, rising = before[-1], step.direction is Direction.RX_TO_TX
    name = "rising" if rising else "falling"
    if not (step.level_dbr > samples[at] if rising else step.level_dbr < samples[at]):
        return NO_STEP.format(name)
    midpoint = (samples[at] + step.level_dbr) / 2.0
    for k in range(at + 1, len(samples)):
        if step.end_ns is not None and not times[k] < step.end_ns:
            break
        if samples[k] >= midpoint if rising else samples[k] <= midpoint:
            return times[k] - step.trigger_ns
    return NO_CROSSING.format(name)


def brute_force_keep_mask(series, threshold_db, guard):
    """Quadratic-scan reference for the burst filter's keep mask."""
    series = list(series)
    n = len(series)
    cut = statistics.median(series) + threshold_db
    removed = [False] * n
    for i in range(n):
        if series[i] > cut:
            for j in range(max(0, i - guard), min(n, i + guard + 1)):
                removed[j] = True
    return [not r for r in removed]


def removed_mask(runs, n):
    """Bool mask of the (start, length) runs of a NoiseFloorReport."""
    removed = np.zeros(n, dtype=bool)
    for start, length in runs:
        removed[start:start + length] = True
    return removed


def brute_force_average_db(samples):
    """Double-pass mean power over (i, q) rows, plain Python arithmetic."""
    import math

    total = 0.0
    count = 0
    for i, q in samples:
        total += float(i) * float(i) + float(q) * float(q)
        count += 1
    return 10.0 * math.log10(total / count)


def make_burst_series(rng, n):
    """Power series: jittered flat floor plus a few strong bursts.

    Floor jitter stays within +/-1 dB of 0 so the bursts (>= +15 dB) are
    unambiguous against the median + 10 dB cut. Returns the series and the
    list of (start, width) burst extents actually injected.
    """
    series = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    bursts = []
    for _ in range(rng.randint(0, 4)):
        width = rng.randint(1, max(1, n // 10))
        start = rng.randint(0, n - width)
        level = rng.uniform(15.0, 30.0)
        for k in range(start, start + width):
            series[k] = level + rng.uniform(-1.0, 1.0)
        bursts.append((start, width))
    return series, bursts


def make_burst_capture(floor_amplitude=100, n=4000, bursts=((1000, 40), (2500, 25))):
    """Constant-envelope capture with rectangular bursts at +26 dB.

    Deterministic by construction (no RNG), so the expected keep mask is
    exactly computable by the brute-force oracle.
    """
    i = np.full(n, floor_amplitude, dtype=np.int16)
    q = np.full(n, -floor_amplitude, dtype=np.int16)
    for start, width in bursts:
        i[start:start + width] = floor_amplitude * 20
        q[start:start + width] = floor_amplitude * 20
    return np.stack([i, q], axis=1)
