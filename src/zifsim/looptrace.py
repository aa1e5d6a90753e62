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
samples, and `render_blocks` the whole text as one block. An event's
time is an integer key, as in `sim`'s columns, with the frame's fraction
held once per timeline. `find_step` and `measure_turnaround` are the
`steps` functions `sim` binds too, reading `step_event` and `first_past`.
"""

import math
from operator import itemgetter

from .errors import OverlappingSpiError, ScheduleError
from .params import (
    COMMAND_KINDS,
    Band,
    ClockConfig,
    Record,
    RfModelParams,
    Schedule,
    TimingProfile,
    check_sampling,
    frame_duration_ns,
)
from .steps import (
    EFFECTS,
    NOT_SORTED,
    PACKET_INSIDE,
    PACKET_OPEN,
    PACKET_UNMATCHED,
    SPI_OVERLAP,
    TRACE_ROW,
    cell_text,
    event_time_ns,
    find_step,  # the step measurement of both pipelines, under looptrace's names
    measure_turnaround,
    time_width,
    trace_header,
    trace_levels,
)

_LO_ON, _LO_OFF, _PACKET_START, _PACKET_END, _TRIGGER = range(len(COMMAND_KINDS))
# the Effect members, in member order, bound once: an Effect.X lookup
# costs several times a global's load, and expansion tests one per event
_SPI_START, _SPI_END, _UP, _DOWN, _PACKET_ON, _PACKET_OFF = EFFECTS


class LoopTimeline(Record):
    """An expanded schedule: the fields of a `sim.Timeline`, with the
    events as rows in time order. A row is (key, effect, power_after_dbr,
    warned, lo_change): the integer key 2 * floor_ns + plus_frac of the
    event's time, the Effect, the power after the event, whether it
    carries PACKET_WARNING and whether it changes the LO state. The
    frame's fraction `frac_ns` is held once; `steps.event_time_ns` makes
    the exact time of a key."""

    events: list
    frac_ns: "int | Fraction" = 0
    initial_dbr: float = 0.0
    trigger_ns: int | None = None
    step_index: int = -1

    def warning_times(self) -> list:
        """The exact times of the events that carry PACKET_WARNING."""
        return [event_time_ns(key >> 1, key & 1, self.frac_ns)
                for key, _, _, warned, _ in self.events if warned]

    def step_event(self) -> tuple:
        """The event at step_index as `sim.Timeline.step_event` gives it."""
        _, effect, level, _, lo_change = self.events[self.step_index]
        end = next((event[0] for event in self.events[self.step_index + 1:] if event[4]), None)
        return effect is _UP, level, lo_change, end


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
    delays = {_LO_ON: (frame_floor + profile.lo_div_powerup_ns, _UP),
              _LO_OFF: (frame_floor + profile.lo_div_powerdown_ns, _DOWN)}
    # (2 * floor + plus_frac, effect) per event: the key orders the exact
    # times, and a stable sort keeps simultaneous events in schedule order
    pending = []
    last_time = last_lo = overlap = None
    packet_open = False
    step_event = None  # the divider event of the first LO command at or after the trigger
    for time_ns, kind in zip(times, kinds):
        if last_time is not None and time_ns < last_time:
            raise ScheduleError(NOT_SORTED.format(COMMAND_KINDS[kind].value, time_ns, last_time))
        last_time = time_ns
        if kind <= _LO_OFF:
            # integer gaps: gap < frame_ns exactly when gap < ceil(frame_ns)
            if overlap is None and last_lo is not None and time_ns - last_lo < frame_ceil:
                overlap = OverlappingSpiError(SPI_OVERLAP.format(time_ns, last_lo + frame_ns))
            last_lo = time_ns
            delay, effect = delays[kind]
            divider = (2 * (time_ns + delay) + plus, effect)
            pending += ((2 * time_ns, _SPI_START), (2 * (time_ns + frame_floor) + plus, _SPI_END),
                        divider)
            if step_event is None and time_ns >= trigger_ns:
                step_event = divider
        elif kind == _PACKET_START:
            if packet_open:
                raise ScheduleError(PACKET_INSIDE.format(time_ns))
            packet_open = True
            pending.append((2 * time_ns, _PACKET_ON))
        elif kind == _PACKET_END:
            if not packet_open:
                raise ScheduleError(PACKET_UNMATCHED.format(time_ns))
            packet_open = False
            pending.append((2 * time_ns, _PACKET_OFF))
    if packet_open:
        raise ScheduleError(PACKET_OPEN)
    if overlap:  # after the order and packet errors of the whole schedule
        raise overlap
    pending.sort(key=itemgetter(0))

    levels = trace_levels(rf, band)
    lo_on, packet_on = lo_on_at_start, False
    events = []
    for key, effect in pending:
        lo_change = False
        if effect is _UP or effect is _DOWN:
            on = effect is _UP
            lo_change, lo_on = on != lo_on, on
        elif effect is _PACKET_ON or effect is _PACKET_OFF:
            packet_on = effect is _PACKET_ON
        events.append((key, effect, levels[2 * lo_on + packet_on],
                       effect is _PACKET_ON and not lo_on, lo_change))
    step_index = next((i for i, event in enumerate(pending) if event is step_event), -1)
    return LoopTimeline(events, frac_ns, levels[2 * lo_on_at_start], trigger_ns, step_index)


class LoopTrace(Record):
    """Power samples on a uniform grid, as a list: sample k is taken at
    start_ns + k * interval_ns."""

    start_ns: int
    interval_ns: int
    samples: list

    def first_past(self, midpoint: float, rising: bool, lo: int, hi: int) -> int:
        """The first sample index in [lo, hi) at or above `midpoint`
        (rising) or at or below it, else -1."""
        samples = self.samples
        for k in range(lo, hi):
            if samples[k] >= midpoint if rising else samples[k] <= midpoint:
                return k
        return -1


def sample_trace(
    timeline: LoopTimeline,
    window,
    interval_ns: int = 50,
    settling_tau_ns: float = 0.0,
) -> LoopTrace:
    """Sample an expanded schedule onto a uniform grid over `window`, the
    samples between two events at a time, as `sim.sample_trace` does.

    With settling, the value at each level change at time c relaxes
    toward the level before it, and a sample at t after it is
    target + (value_at_c - target) * exp(-(t - c) / tau), the time
    difference exact and then rounded once to float.
    """
    start_ns, end_ns = window
    check_sampling(start_ns, end_ns, interval_ns, settling_tau_ns)
    events = timeline.events
    n = (end_ns - start_ns) // interval_ns + 1
    samples = []
    level = timeline.initial_dbr
    # sample k sees an event once start_ns + k * interval_ns reaches the
    # event's ceiling, (key + 1) >> 1: fill the samples up to the first
    # one at or after each event, a stretch of one level at a time
    if not settling_tau_ns:
        filled = 0
        for key, _, new_level, _, _ in events:
            first = ((key + 1 >> 1) - start_ns - 1) // interval_ns + 1
            if first > filled:
                if first >= n:  # no sample sees this event or any later one
                    break
                samples += [level] * (first - filled)
                filled = first
            level = new_level
        samples += [level] * (n - filled)
        return LoopTrace(start_ns, interval_ns, samples)
    # exact times over the frame's denominator, as integers
    p, den = timeline.frac_ns.numerator, timeline.frac_ns.denominator
    origin, step, tau, exp = start_ns * den, interval_ns * den, settling_tau_ns, math.exp
    change = None  # the last level change's scaled time
    value_at_change = level
    # a sentinel event past the window fills the rest
    for key, _, new_level, _, _ in [*events, (2 * (end_ns + interval_ns), None, None, None, None)]:
        first = min(n, ((key + 1 >> 1) - start_ns - 1) // interval_ns + 1)
        if first > len(samples):
            if change is None:  # one object per stretch
                samples += [level] * (first - len(samples))
            else:
                gap, since = value_at_change - level, origin - change
                for u in range(since + len(samples) * step, since + first * step, step):
                    samples.append(level + gap * exp(-(u / den) / tau))  # u = t * den - change
        if first == n:  # no sample sees this event or any later one
            break
        if new_level != level:
            scaled = (key >> 1) * den + (key & 1) * p
            if change is not None:
                dt = (scaled - change) / den  # int / int rounds once, like float()
                value_at_change = level + (value_at_change - level) * exp(-dt / tau)
            else:
                value_at_change = level
            change = scaled
        level = new_level
    return LoopTrace(start_ns, interval_ns, samples)


def render_blocks(trace: LoopTrace, fmt: str):
    """The trace as csv, json or an aligned table, in ASCII bytes, one row
    per sample of time_us and power_db, as `sim.render_blocks` writes it,
    in one block."""
    if fmt not in TRACE_ROW:
        raise ValueError(f"unknown trace format {fmt!r}")
    lead, sep, end = TRACE_ROW[fmt]
    start, interval, count = trace.start_ns, trace.interval_ns, len(trace.samples)
    if not count:
        yield trace_header(fmt, 0, 0).encode("ascii")
        return
    last_ns = start + (count - 1) * interval
    width = time_width(fmt, start, last_ns)  # 0: " " * (0 - len(cell)) is ""
    # a row is three parts, each an object many rows share: a head (the
    # lead and the time cell, or its part up to the two hundredths
    # digits), a tail (those digits, the table's pad and the separator)
    # and the power cell with the row end. A time of t >= 0 ns off a tie
    # is (t + 5) // 10 hundredths of a microsecond (see steps.cell_text),
    # its last two digits from a table; negative times and ties take
    # cell_text itself, a cell per row
    cents = [f"{k:02d}" for k in range(100)]
    if fmt == "json":  # repr drops a trailing zero: 2.5, 3.0
        cents[::10] = "0123456789"
    if interval % 10 or 1000 % interval or start % 10 == 5:
        by_row = count
    else:  # no tie, and hundredths that step by a divisor of 100: every
        # microsecond u >= 0 holds the same two-digit suffixes
        by_row = min(count, max(0, -(start // interval)))  # the rows before 0 ns
    cells = [cell_text(t / 1000.0, fmt) if t < 0 or t % 10 == 5
             else f"{(t + 5) // 1000}.{cents[(t + 5) % 1000 // 10]}"
             for t in range(start, start + by_row * interval, interval)]
    heads = [lead + cell for cell in cells]
    tails = [" " * (width - len(cell)) + sep for cell in cells]
    if by_row < count:
        low, high = (start + by_row * interval + 5) // 10, (last_ns + 5) // 10
        step = interval // 10
        every = cents[low % step::step]
        # a head per microsecond u, over its rows; a tail per suffix, the
        # table's pad one width per digit count of u
        per, u, top = len(every), low // 100, high // 100 + 1
        micro = [f"{lead}{v}." for v in range(u, top)]
        heads += micro * per  # the size, then each head over its rows
        for k in range(per):
            heads[by_row + k::per] = micro
        while u < top:
            digits = len(str(u))
            stop = min(top, 10**digits)
            pad = " " * (width - digits - 3)
            tails += [f"{pair}{pad}{sep}" for pair in every] * (stop - u)
            u = stop
        # cut the first and the last microsecond to the window
        for column in heads, tails:
            del column[len(column) - (99 - high % 100) // step:]
            del column[by_row:by_row + low % 100 // step]
    # a text per run of one object, and per distinct value but zero: 0.0
    # and -0.0 are equal keys of different texts (a NaN finds only itself)
    powers, texts = [], {}
    last = text = None
    for value in trace.samples:
        if value is not last:
            last, text = value, texts.get(value) if value else None
            if text is None:
                text = texts[value] = cell_text(value, fmt) + end
        powers.append(text)
    heads[0] = trace_header(fmt, width, count) + heads[0]
    if fmt == "json":  # the last row closes the list
        powers[-1] = powers[-1][:-2] + "\n]\n"
    parts = [None] * (3 * count)
    parts[0::3], parts[1::3], parts[2::3] = heads, tails, powers
    yield "".join(parts).encode("ascii")
