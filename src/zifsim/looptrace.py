"""The trace pipeline as per-event and per-row loops, without numpy.

`sim` expands a schedule, samples and measures the trace and renders its
text on whole numpy columns. This module does each step with plain
Python loops over the `Schedule` columns and gives the same events, the
same bits in every sample, the same measurement, the same text and the
same errors. A small trace costs less this way than loading numpy does,
so `zifsim trace` runs it below the sizes `cli` sets (`LOOP_ROWS`,
`LOOP_COMMANDS`); the tests pin the two pipelines equal.

The functions carry `sim`'s names and arguments. `expand_schedule` gives
a `LoopTimeline` of event rows, `sample_trace` a `LoopTrace` of a list of
samples, and `render_blocks` the whole text as one block.
"""

import math
from fractions import Fraction

from .errors import MeasurementError, OverlappingSpiError, ScheduleError
from .params import (
    COMMAND_KINDS,
    NO_CROSSING,
    NO_REFERENCE,
    NO_STATE_CHANGE,
    NO_STEP,
    NO_STEP_COMMAND,
    NOT_SORTED,
    PACKET_INSIDE,
    PACKET_OPEN,
    PACKET_UNMATCHED,
    SPI_OVERLAP,
    TRIGGER_OUTSIDE,
    Band,
    ClockConfig,
    Direction,
    Effect,
    LoStep,
    Record,
    RfModelParams,
    Schedule,
    TimingProfile,
    cell_text,
    check_sampling,
    frame_duration_ns,
    trace_levels,
)

_LO_ON, _LO_OFF, _PACKET_START, _PACKET_END, _TRIGGER = range(len(COMMAND_KINDS))


class LoopTimeline(Record):
    """An expanded schedule: the fields of a `sim.Timeline`, with the
    events as rows in time order. A row is (time_ns, effect,
    power_after_dbr, warned, lo_change): the exact time (int or
    Fraction), the Effect, the power after the event, whether it carries
    PACKET_WARNING and whether it changes the LO state."""

    events: list
    initial_dbr: float = 0.0
    trigger_ns: int | None = None
    step_index: int = -1

    def warning_times(self) -> list:
        """The exact times of the events that carry PACKET_WARNING."""
        return [event[0] for event in self.events if event[3]]


def _validate_schedule(times, kinds):
    """Raise ScheduleError for the first command, in schedule order, that
    comes before its predecessor or breaks the packet nesting."""
    last_time = None
    packet_open = False
    for time_ns, kind in zip(times, kinds):
        if last_time is not None and time_ns < last_time:
            raise ScheduleError(NOT_SORTED.format(COMMAND_KINDS[kind].value, time_ns, last_time))
        last_time = time_ns
        if kind == _PACKET_START:
            if packet_open:
                raise ScheduleError(PACKET_INSIDE.format(time_ns))
            packet_open = True
        elif kind == _PACKET_END:
            if not packet_open:
                raise ScheduleError(PACKET_UNMATCHED.format(time_ns))
            packet_open = False
    if packet_open:
        raise ScheduleError(PACKET_OPEN)


def expand_schedule(
    schedule: Schedule,
    clocks: ClockConfig,
    profile: TimingProfile,
    band: Band = Band.B2G4,
    rf: RfModelParams | None = None,
) -> LoopTimeline:
    """Expand a schedule into timed events with latencies applied, as
    `sim.expand_schedule` does."""
    if rf is None:
        rf = RfModelParams()
    times, kinds = schedule.times_ns, schedule.kinds
    _validate_schedule(times, kinds)
    first_lo = next((i for i, kind in enumerate(kinds) if kind <= _LO_OFF), None)
    lo_on_at_start = first_lo is not None and kinds[first_lo] == _LO_OFF
    if _TRIGGER in kinds:
        trigger_ns = times[kinds.index(_TRIGGER)]
    else:
        trigger_ns = None if first_lo is None else times[first_lo]

    frame_ns = frame_duration_ns(clocks)
    frame_floor, frame_ceil = math.floor(frame_ns), math.ceil(frame_ns)
    frac_ns = frame_ns - frame_floor
    plus = 1 if frac_ns else 0
    delays = {_LO_ON: (frame_floor + profile.lo_div_powerup_ns, Effect.LO_POWERED_UP),
              _LO_OFF: (frame_floor + profile.lo_div_powerdown_ns, Effect.LO_POWERED_DOWN)}
    # (2 * floor + plus_frac, effect) per event: the key orders the exact
    # times, and a stable sort keeps simultaneous events in schedule order
    pending = []
    last_lo = None
    step_event = None  # the divider event of the first LO command at or after the trigger
    for time_ns, kind in zip(times, kinds):
        if kind <= _LO_OFF:
            # integer gaps: gap < frame_ns exactly when gap < ceil(frame_ns)
            if last_lo is not None and time_ns - last_lo < frame_ceil:
                raise OverlappingSpiError(SPI_OVERLAP.format(time_ns, last_lo + frame_ns))
            last_lo = time_ns
            delay, effect = delays[kind]
            divider = (2 * (time_ns + delay) + plus, effect)
            pending += [(2 * time_ns, Effect.SPI_START),
                        (2 * (time_ns + frame_floor) + plus, Effect.SPI_END), divider]
            if step_event is None and time_ns >= trigger_ns:
                step_event = divider
        elif kind == _PACKET_START:
            pending.append((2 * time_ns, Effect.PACKET_ON))
        elif kind == _PACKET_END:
            pending.append((2 * time_ns, Effect.PACKET_OFF))
    pending.sort(key=lambda event: event[0])

    levels = trace_levels(rf, band)
    lo_on, packet_on = lo_on_at_start, False
    events = []
    step_index = -1
    for index, event in enumerate(pending):
        key, effect = event
        lo_change = False
        if effect is Effect.LO_POWERED_UP or effect is Effect.LO_POWERED_DOWN:
            on = effect is Effect.LO_POWERED_UP
            lo_change, lo_on = on != lo_on, on
        elif effect is Effect.PACKET_ON or effect is Effect.PACKET_OFF:
            packet_on = effect is Effect.PACKET_ON
        if event is step_event:
            step_index = index
        time_ns = (key >> 1) + frac_ns if key & 1 else key >> 1
        events.append((time_ns, effect, levels[2 * lo_on + packet_on],
                       effect is Effect.PACKET_ON and not lo_on, lo_change))
    return LoopTimeline(events, levels[2 * lo_on_at_start], trigger_ns, step_index)


def find_step(timeline: LoopTimeline) -> LoStep:
    """The first LO step at or after the timeline's trigger, as
    `sim.find_step` finds it."""
    trigger_ns, index = timeline.trigger_ns, timeline.step_index
    if trigger_ns is None:
        raise MeasurementError(NO_REFERENCE)
    if index < 0:
        raise MeasurementError(NO_STEP_COMMAND.format(trigger_ns))
    _, effect, level, _, lo_change = timeline.events[index]
    rising = effect is Effect.LO_POWERED_UP
    if not lo_change:
        raise MeasurementError(NO_STATE_CHANGE.format(trigger_ns, "on" if rising else "off"))
    end_ns = next((event[0] for event in timeline.events[index + 1:] if event[4]), None)
    direction = Direction.RX_TO_TX if rising else Direction.TX_TO_RX
    return LoStep(trigger_ns, direction, level, end_ns)


class LoopTrace(Record):
    """Power samples on a uniform grid, as a list: sample k is taken at
    start_ns + k * interval_ns."""

    start_ns: int
    interval_ns: int
    samples: list


def sample_trace(
    timeline: LoopTimeline,
    window,
    interval_ns: int = 50,
    settling_tau_ns: float = 0.0,
) -> LoopTrace:
    """Sample an expanded schedule onto a uniform grid over `window`, one
    sample at a time, as `sim.sample_trace` does.

    With settling, the value at each level change at time c relaxes
    toward the level before it, and a sample at t after it is
    target + (value_at_c - target) * exp(-(t - c) / tau), the time
    difference exact and then rounded once to float.
    """
    start_ns, end_ns = window
    check_sampling(start_ns, end_ns, interval_ns, settling_tau_ns)
    events = timeline.events
    # an event at time e is seen by the samples at or after ceil(e)
    ceilings = [math.ceil(event[0]) for event in events]
    # exact times over the frame's denominator, as integers
    den = max((event[0].denominator for event in events), default=1)
    tau = settling_tau_ns
    samples = []
    index = 0
    level = timeline.initial_dbr
    change = None  # the last level change's scaled time
    value_at_change = level
    for k in range((end_ns - start_ns) // interval_ns + 1):
        t = start_ns + k * interval_ns
        while index < len(events) and ceilings[index] <= t:
            time_ns, _, new_level, _, _ = events[index]
            if tau > 0 and new_level != level:
                scaled = time_ns.numerator * (den // time_ns.denominator)
                if change is not None:
                    dt = (scaled - change) / den  # int / int rounds once, like float()
                    value_at_change = level + (value_at_change - level) * math.exp(-dt / tau)
                else:
                    value_at_change = level
                change = scaled
            level = new_level
            index += 1
        if change is None:
            samples.append(level)
        else:
            decay = math.exp(-((t * den - change) / den) / tau)
            samples.append(level + (value_at_change - level) * decay)
    return LoopTrace(start_ns, interval_ns, samples)


def measure_turnaround(trace: LoopTrace, step: LoStep):
    """Time from the trigger to the first sample past the step midpoint,
    as `sim.measure_turnaround` measures it."""
    start, interval, samples = trace.start_ns, trace.interval_ns, trace.samples
    n = len(samples)
    at_trigger = (step.trigger_ns - start) // interval
    if not 0 <= at_trigger < n - 1:
        raise MeasurementError(TRIGGER_OUTSIDE)
    pre_level = samples[at_trigger]
    rising = step.direction is Direction.RX_TO_TX
    name = "rising" if rising else "falling"
    if not (step.level_dbr > pre_level if rising else step.level_dbr < pre_level):
        raise MeasurementError(NO_STEP.format(name))
    stop = n
    if step.end_ns is not None:  # samples before the next LO state change
        stop = min(n, math.ceil(Fraction(step.end_ns - start) / interval))
    midpoint = (pre_level + step.level_dbr) / 2.0
    for k in range(at_trigger + 1, stop):
        if samples[k] >= midpoint if rising else samples[k] <= midpoint:
            return start + k * interval - step.trigger_ns
    raise MeasurementError(NO_CROSSING.format(name))


def render_blocks(trace: LoopTrace, fmt: str):
    """The trace as csv, json or an aligned table, in ASCII bytes, one row
    per sample of time_us and power_db, as `sim.render_blocks` writes it,
    in one block."""
    if fmt not in ("csv", "table", "json"):
        raise ValueError(f"unknown trace format {fmt!r}")
    start, interval = trace.start_ns, trace.interval_ns
    times = [cell_text((start + k * interval) / 1000.0, fmt) for k in range(len(trace.samples))]
    powers = []
    last = text = None
    for value in trace.samples:
        if value is not last:  # a run of one level is one object
            last, text = value, cell_text(value, fmt)
        powers.append(text)
    if fmt == "csv":
        text = "time_us,power_db\n" + "".join(f"{t},{p}\n" for t, p in zip(times, powers))
    elif fmt == "table":
        width = max([len("time_us"), *map(len, times)])
        text = "".join(f"{t.ljust(width)}  {p}\n" for t, p in zip(["time_us", *times],
                                                                  ["power_db", *powers]))
    elif not times:
        text = "[]\n"
    else:
        rows = ",\n".join(f'  {{\n    "time_us": {t},\n    "power_db": {p}\n  }}'
                          for t, p in zip(times, powers))
        text = f"[\n{rows}\n]\n"
    yield text.encode("ascii")
