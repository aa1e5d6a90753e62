"""Hypothesis properties of the trace simulator.

The columnar schedule expansion, the array sampling and the columnar
text rendering must equal, exactly, bit for bit and byte for byte, the
per-event and per-row loops they replace. Those loops are kept below as
the oracle: the expansion loop with its validation, the sampling loop
(with the initial level handed in, where it used to infer it from the
first event), the csv writer and the CLI's table and json formatting of
a trace.
"""

import dataclasses
import io
import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zifsim import (
    Band,
    ClockConfig,
    Command,
    CommandKind,
    Direction,
    EnsmMode,
    LoStep,
    MeasurementError,
    OverlappingSpiError,
    PowerTrace,
    RfModelParams,
    Schedule,
    ScheduleError,
    TimingProfile,
    expand_schedule,
    find_step,
    frame_duration_ns,
    measure_turnaround,
    sample_trace,
    trace_to_csv,
    turnaround_budget,
)
from zifsim.sim import Effect, Timeline, render_blocks

from conftest import event_rows

# Deterministic and bounded so the tier-1 run stays fast and stable.
PROFILE = settings(derandomize=True, deadline=None, max_examples=150, database=None)


# --- oracle: the per-event and per-row code the array version replaces -----

def oracle_level(lo_on, packet_on, band, rf):
    if not lo_on:
        return 0.0
    level = rf.lo_on_delta_db[band]
    if packet_on:
        level += rf.packet_delta_db
    return level


def oracle_validate(commands):
    last_time = None
    packet_open = False
    for cmd in commands:
        if last_time is not None and cmd.time_ns < last_time:
            raise ScheduleError(
                f"schedule not sorted: {cmd.kind.value} at {cmd.time_ns} ns "
                f"after {last_time} ns"
            )
        last_time = cmd.time_ns
        if cmd.kind is CommandKind.TX_PACKET_START:
            if packet_open:
                raise ScheduleError(f"packet start at {cmd.time_ns} ns inside an open packet")
            packet_open = True
        elif cmd.kind is CommandKind.TX_PACKET_END:
            if not packet_open:
                raise ScheduleError(
                    f"packet end at {cmd.time_ns} ns without a matching start"
                )
            packet_open = False
    if packet_open:
        raise ScheduleError("schedule leaves a packet open (missing end)")


def oracle_initial_lo_on(commands):
    for cmd in commands:
        if cmd.kind is CommandKind.LO_ON:
            return False
        if cmd.kind is CommandKind.LO_OFF:
            return True
    return False


def oracle_expand(commands, clocks, profile, band, rf):
    """(events, initial level) of a schedule, one (time_ns, effect,
    power_after_dbr, warning) tuple per event."""
    oracle_validate(commands)
    initial_lo_on = oracle_initial_lo_on(commands)
    frame_ns = frame_duration_ns(clocks)
    pending = []  # (time, effect)
    spi_busy_until = None
    for cmd in commands:
        if cmd.kind in (CommandKind.LO_ON, CommandKind.LO_OFF):
            if spi_busy_until is not None and cmd.time_ns < spi_busy_until:
                raise OverlappingSpiError(
                    f"register write at {cmd.time_ns} ns overlaps the frame "
                    f"that ends at {spi_busy_until} ns"
                )
            end = cmd.time_ns + frame_ns
            spi_busy_until = end
            pending.append((cmd.time_ns, Effect.SPI_START))
            pending.append((end, Effect.SPI_END))
            if cmd.kind is CommandKind.LO_ON:
                pending.append((end + profile.lo_div_powerup_ns, Effect.LO_POWERED_UP))
            else:
                pending.append((end + profile.lo_div_powerdown_ns, Effect.LO_POWERED_DOWN))
        elif cmd.kind is CommandKind.TX_PACKET_START:
            pending.append((cmd.time_ns, Effect.PACKET_ON))
        elif cmd.kind is CommandKind.TX_PACKET_END:
            pending.append((cmd.time_ns, Effect.PACKET_OFF))
    pending.sort(key=lambda item: item[0])  # stable for simultaneous events

    events = []
    lo_on = initial_lo_on
    packet_on = False
    for time_ns, effect in pending:
        warning = None
        if effect is Effect.LO_POWERED_UP:
            lo_on = True
        elif effect is Effect.LO_POWERED_DOWN:
            lo_on = False
        elif effect is Effect.PACKET_ON:
            packet_on = True
            if not lo_on:
                warning = "packet transmitted while the LO divider is down"
        elif effect is Effect.PACKET_OFF:
            packet_on = False
        events.append((time_ns, effect, oracle_level(lo_on, packet_on, band, rf), warning))
    return events, oracle_level(initial_lo_on, False, band, rf)


LO_KINDS = (CommandKind.LO_ON, CommandKind.LO_OFF)


def oracle_lo_changes(commands, events):
    """Indices of the divider events that change the LO state, in time
    order from the initial state."""
    lo_on = oracle_initial_lo_on(commands)
    changes = []
    for k, (_, effect, _, _) in enumerate(events):
        if effect in (Effect.LO_POWERED_UP, Effect.LO_POWERED_DOWN):
            if (effect is Effect.LO_POWERED_UP) != lo_on:
                changes.append(k)
            lo_on = effect is Effect.LO_POWERED_UP
    return changes


def oracle_step(commands, clocks, profile, events):
    """The LoStep of a schedule whose expansion is `events`, or the message
    of the MeasurementError: the first LO command at or after the trigger,
    the level its own divider event sets, and the time of the next divider
    event that changes the LO state. A command whose divider event finds
    the LO already in its state has no step."""
    trigger_ns = next((c.time_ns for c in commands if c.kind is CommandKind.TRIGGER), None)
    if trigger_ns is None:
        trigger_ns = next((c.time_ns for c in commands if c.kind in LO_KINDS), None)
    if trigger_ns is None:
        return "no trigger and no LO command in the schedule"
    command = next((c for c in commands if c.kind in LO_KINDS and c.time_ns >= trigger_ns),
                   None)
    if command is None:
        return f"no LO command at or after the trigger at {trigger_ns} ns"
    if command.kind is CommandKind.LO_ON:
        direction, effect, state = Direction.RX_TO_TX, Effect.LO_POWERED_UP, "on"
        delay = profile.lo_div_powerup_ns
    else:
        direction, effect, state = Direction.TX_TO_RX, Effect.LO_POWERED_DOWN, "off"
        delay = profile.lo_div_powerdown_ns
    # two LO writes of one kind lie at least a frame apart, so the time
    # and effect name the command's divider event
    at = command.time_ns + frame_duration_ns(clocks) + delay
    index = next(k for k, e in enumerate(events) if e[:2] == (at, effect))
    changes = oracle_lo_changes(commands, events)
    if index not in changes:
        return (f"the first LO command at or after the trigger at {trigger_ns} ns finds "
                f"the LO already {state}")
    end_ns = next((events[k][0] for k in changes if k > index), None)
    return LoStep(trigger_ns, direction, events[index][2], end_ns)


def oracle_samples(events, window, interval_ns, baseline, settling_tau_ns):
    start_ns, end_ns = window
    events = sorted(events, key=lambda ev: ev[0])
    count = int((end_ns - start_ns) // interval_ns) + 1
    samples = []
    index = 0
    level = baseline
    last_change_t = None
    value_at_change = baseline
    for k in range(count):
        t = start_ns + k * interval_ns
        while index < len(events) and events[index][0] <= t:
            event_t, _, new_level, _ = events[index]
            if settling_tau_ns > 0 and new_level != level:
                value_at_change = oracle_settled(
                    level, value_at_change, last_change_t, event_t, settling_tau_ns,
                )
                last_change_t = event_t
            level = new_level
            index += 1
        if settling_tau_ns > 0:
            samples.append(
                oracle_settled(level, value_at_change, last_change_t, t, settling_tau_ns)
            )
        else:
            samples.append(level)
    return samples


def oracle_settled(target, value_at_change, change_t, t, tau):
    if change_t is None:
        return float(target)
    dt = float(t - change_t)
    return float(target + (value_at_change - target) * math.exp(-dt / tau))


def oracle_times(trace):
    return [trace.start_ns + k * trace.interval_ns for k in range(trace.samples.size)]


def oracle_fmt2(value):
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def oracle_csv(trace):
    lines = ["time_us,power_db"]
    for t, v in zip(oracle_times(trace), trace.samples.tolist()):
        lines.append(f"{oracle_fmt2(t / 1000.0)},{oracle_fmt2(v)}")
    return "\n".join(lines) + "\n"


def oracle_rows(trace):
    return [
        {"time_us": round(t / 1000.0, 2), "power_db": round(v, 2)}
        for t, v in zip(oracle_times(trace), trace.samples.tolist())
    ]


def oracle_json(trace):
    return json.dumps(oracle_rows(trace), indent=2) + "\n"


def oracle_table(trace):
    texts = [[f"{r['time_us']:.2f}", f"{r['power_db']:.2f}"] for r in oracle_rows(trace)]
    names = ["time_us", "power_db"]
    widths = [max(len(name), *(len(t[i]) for t in texts)) if texts else len(name)
              for i, name in enumerate(names)]
    out = io.StringIO()
    for cells in [names, *texts]:
        line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
        out.write(line.rstrip() + "\n")
    return out.getvalue()


ORACLE = {"csv": oracle_csv, "table": oracle_table, "json": oracle_json}


def bits(values):
    return [struct.pack("<d", v) for v in values]


# --- strategies -------------------------------------------------------------

# 7 and 9 MHz give Fraction frame ends; the others integral ones.
SPI_CLOCKS = (50_000_000, 48_000_000, 25_000_000, 9_000_000, 7_000_000)
# levels that round to -0.00 or sit near a two-decimal tie, as well as the
# model's own; packet steps never cancel an LO level
LO_LEVELS = (30.0, 22.0, -0.0, -0.004, 0.001, 0.005, 2.675, 12.345)
PACKET_STEPS = (15.0, 2.5, 7.125)


@st.composite
def schedules(draw):
    """Valid command schedules: LO writes at least a frame apart, packets
    paired, triggers anywhere, integral or Fraction event times."""
    clocks = ClockConfig(spi_clock_hz=draw(st.sampled_from(SPI_CLOCKS)))
    frame = frame_duration_ns(clocks)
    commands = []
    t = draw(st.integers(0, 800))
    spi_free = 0
    packet_open = False
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(list(CommandKind)))
        t += draw(st.integers(0, 1500))
        if kind in (CommandKind.TX_PACKET_START, CommandKind.TX_PACKET_END):
            kind = CommandKind.TX_PACKET_END if packet_open else CommandKind.TX_PACKET_START
            packet_open = not packet_open
        elif kind is not CommandKind.TRIGGER:
            t = max(t, math.ceil(spi_free))
            spi_free = t + frame
        commands.append(Command(t, kind))
    if packet_open:
        commands.append(Command(t + draw(st.integers(0, 500)), CommandKind.TX_PACKET_END))
    return commands, clocks


@st.composite
def crowded_schedules(draw):
    """Valid schedules with many coincidences: commands at the same time,
    LO writes back to back, and commands at the floor and ceiling of the
    previous LO write's frame end and divider event."""
    clocks = ClockConfig(spi_clock_hz=draw(st.sampled_from(SPI_CLOCKS)))
    profile = TimingProfile(lo_div_powerup_ns=draw(st.sampled_from((160, 0, 3))),
                            lo_div_powerdown_ns=draw(st.sampled_from((20, 0, 160))))
    frame = frame_duration_ns(clocks)
    commands = []
    t = draw(st.integers(0, 50))
    marks = []  # event times of the last LO write
    spi_free = 0
    packet_open = False
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(list(CommandKind)))
        near = [f(m) for m in marks for f in (math.floor, math.ceil)]
        t = max(t, draw(st.sampled_from(near) | st.sampled_from((t, t + 1)) | st.integers(t, t + 900))
                if near else draw(st.sampled_from((t, t + 1)) | st.integers(t, t + 900)))
        if kind in (CommandKind.TX_PACKET_START, CommandKind.TX_PACKET_END):
            kind = CommandKind.TX_PACKET_END if packet_open else CommandKind.TX_PACKET_START
            packet_open = not packet_open
        elif kind is not CommandKind.TRIGGER:
            t = max(t, math.ceil(spi_free))
            spi_free = t + frame
            delay = (profile.lo_div_powerup_ns if kind is CommandKind.LO_ON
                     else profile.lo_div_powerdown_ns)
            marks = [spi_free, spi_free + delay]
        commands.append(Command(t, kind))
    if packet_open:
        commands.append(Command(t + draw(st.integers(0, 500)), CommandKind.TX_PACKET_END))
    return commands, clocks, profile


@st.composite
def any_schedules(draw):
    """Schedules that may be unsorted, mis-nested or overlapping: an LO
    write follows the previous one by the frame time rounded down or up,
    or by any gap, a packet command may break the nesting, and two
    commands may swap."""
    clocks = ClockConfig(spi_clock_hz=draw(st.sampled_from(SPI_CLOCKS)))
    frame = frame_duration_ns(clocks)
    commands = []
    t, last_lo, packet_open = 0, None, False
    for kind in draw(st.lists(st.sampled_from(list(CommandKind)), max_size=10)):
        t += draw(st.sampled_from((0, 1)) | st.integers(0, 4000))
        if kind in (CommandKind.LO_ON, CommandKind.LO_OFF):
            if last_lo is not None:  # 0: any gap
                t = max(t, last_lo + draw(st.sampled_from((math.floor(frame), math.ceil(frame), 0))))
            last_lo = t
        elif kind is not CommandKind.TRIGGER and draw(st.sampled_from((True, True, False))):
            kind = CommandKind.TX_PACKET_END if packet_open else CommandKind.TX_PACKET_START
        if kind in (CommandKind.TX_PACKET_START, CommandKind.TX_PACKET_END):
            packet_open = kind is CommandKind.TX_PACKET_START
        commands.append(Command(t, kind))
    if commands and draw(st.booleans()):
        i, j = draw(st.integers(0, len(commands) - 1)), draw(st.integers(0, len(commands) - 1))
        commands[i], commands[j] = commands[j], commands[i]
    return commands, clocks


def expansion_or_error(expand, commands, clocks, profile):
    rf = RfModelParams()
    try:
        return expand(commands, clocks, profile, Band.B2G4, rf)
    except (ScheduleError, OverlappingSpiError) as exc:
        return type(exc), str(exc)


def columns_expand(commands, clocks, profile, band, rf):
    timeline = expand_schedule(Schedule.from_commands(commands), clocks, profile, band=band, rf=rf)
    return event_rows(timeline), timeline.initial_dbr


def exact(events):
    """Events with the type of each time and the bits of each level."""
    return [(e, type(e[0]), bits([e[2]])) for e in events]


@st.composite
def traced_schedules(draw):
    commands, clocks = draw(schedules())
    band = draw(st.sampled_from(list(Band)))
    rf = RfModelParams(
        lo_on_delta_db={b: draw(st.sampled_from(LO_LEVELS)) for b in Band},
        packet_delta_db=draw(st.sampled_from(PACKET_STEPS)),
    )
    # the level before the first event: the expansion's, or the LO held
    # on or off
    initial_dbr = draw(st.sampled_from((None, rf.lo_on_delta_db[band], 0.0)))
    timeline = expand_schedule(Schedule.from_commands(commands), clocks, TimingProfile(),
                               band=band, rf=rf)
    if initial_dbr is not None:
        timeline = dataclasses.replace(timeline, initial_dbr=initial_dbr)
    interval = draw(st.sampled_from((1, 5, 7, 10, 15, 25, 50, 250)) | st.integers(1, 400))
    start = draw(st.integers(-3000, 3000))
    end = start + draw(st.integers(0, 300)) * interval + draw(st.integers(0, interval - 1))
    tau = draw(st.sampled_from((0.0, 0.0, 1.0, 10.0, 200.0)) | st.floats(0.01, 1e4))
    return timeline, (start, end), interval, tau


@st.composite
def traces(draw):
    """Arbitrary traces: negative and huge start times, ties at t % 10 == 5,
    powers that round to -0.00, non-finite powers."""
    interval = draw(st.integers(1, 1000))
    count = draw(st.integers(1, 60))
    start = draw(st.integers(-4000, 4000) | st.integers(-(2**53) + 1, 2**53 - 1 - count * interval))
    power = st.sampled_from((-0.0, 0.0, -0.004, 0.005, 0.015, 2.675, -1.005, 30.0)) | st.floats()
    return PowerTrace(start, interval, draw(st.lists(power, min_size=count, max_size=count)))


@st.composite
def run_traces(draw):
    """Traces made of runs of levels, flat or settling toward each level
    from the one before (many distinct levels), repeated to an empty, a
    short, or a one-block-or-so length: the renderer works in blocks of
    2**16 rows."""
    count = draw(st.sampled_from((0, 1, 2**16 - 1, 2**16, 2**16 + 1)) | st.integers(0, 400))
    levels = draw(st.lists(st.sampled_from((-0.0, 0.0, -0.004, 0.005, 2.675, 30.0))
                           | st.floats(-200, 200), min_size=1, max_size=6))
    runs = draw(st.lists(st.integers(1, 2000), min_size=len(levels), max_size=len(levels)))
    tau = draw(st.sampled_from((0.0, 3.0, 40.0)))
    period, before = [], levels[-1]
    for level, run in zip(levels, runs):
        settling = np.exp(-np.arange(run) / tau) if tau else np.zeros(run)
        period.append(level + (before - level) * settling)
        before = level
    start = draw(st.integers(-4000, 4000))
    return PowerTrace(start, draw(st.integers(1, 1000)), np.resize(np.concatenate(period), count))


# --- properties ---------------------------------------------------------------

@PROFILE
@given(crowded_schedules(), st.sampled_from(list(Band)),
       st.sampled_from(LO_LEVELS), st.sampled_from(PACKET_STEPS))
def test_expansion_equals_the_loop(case, band, lo_level, packet_step):
    commands, clocks, profile = case
    rf = RfModelParams(lo_on_delta_db={b: lo_level for b in Band}, packet_delta_db=packet_step)
    timeline = expand_schedule(Schedule.from_commands(commands), clocks, profile, band=band, rf=rf)
    events, initial_dbr = oracle_expand(commands, clocks, profile, band, rf)
    assert exact(event_rows(timeline)) == exact(events)
    assert bits([timeline.initial_dbr]) == bits([initial_dbr])
    assert len(timeline) == len(events)


@PROFILE
@given(any_schedules())
# the third command is both out of order and a second packet start
@example(([Command(0, CommandKind.TX_PACKET_START), Command(5, CommandKind.LO_ON),
           Command(3, CommandKind.TX_PACKET_START)], ClockConfig()))
def test_expansion_fails_like_the_loop(case):
    commands, clocks = case
    profile = TimingProfile()
    expected = expansion_or_error(oracle_expand, commands, clocks, profile)
    got = expansion_or_error(columns_expand, commands, clocks, profile)
    if isinstance(expected[0], list):
        assert exact(got[0]) == exact(expected[0]) and got[1] == expected[1]
    else:
        assert got == expected


@PROFILE
@given(crowded_schedules(), st.sampled_from((0, 700, 2000)), st.sampled_from((0, 700, 2000)))
# a divider delay longer than the command spacing: the first lo-on's
# divider event comes after the trigger, and the second lo-on's finds the
# LO already on
@example(([Command(0, CommandKind.LO_ON), Command(480, CommandKind.LO_OFF),
           Command(960, CommandKind.LO_ON), Command(960, CommandKind.TRIGGER)],
          ClockConfig(), TimingProfile()), 1840, 0)
@example(([Command(0, CommandKind.TX_PACKET_START), Command(9, CommandKind.TX_PACKET_END)],
          ClockConfig(), TimingProfile()), 0, 0)
@example(([Command(0, CommandKind.LO_ON), Command(9, CommandKind.TRIGGER)],
          ClockConfig(), TimingProfile()), 0, 0)
# a no-op write after the trigger, and one that would end the step early
@example(([Command(0, CommandKind.LO_ON), Command(2000, CommandKind.TRIGGER),
           Command(2000, CommandKind.LO_ON)], ClockConfig(), TimingProfile()), 0, 0)
@example(([Command(0, CommandKind.LO_ON), Command(480, CommandKind.LO_ON),
           Command(960, CommandKind.LO_OFF)], ClockConfig(), TimingProfile()), 0, 0)
def test_step_is_the_first_lo_commands_own_divider_event(case, more_up, more_down):
    commands, clocks, profile = case
    # longer delays keep the schedule valid: only the frame spaces LO writes
    profile = TimingProfile(lo_div_powerup_ns=profile.lo_div_powerup_ns + more_up,
                            lo_div_powerdown_ns=profile.lo_div_powerdown_ns + more_down)
    events, _ = oracle_expand(commands, clocks, profile, Band.B2G4, RfModelParams())
    expected = oracle_step(commands, clocks, profile, events)
    try:
        got = find_step(expand_schedule(Schedule.from_commands(commands), clocks, profile))
    except MeasurementError as exc:
        got = str(exc)
    assert got == expected


@PROFILE
@given(traced_schedules())
def test_samples_equal_the_loop(case):
    timeline, window, interval, tau = case
    trace = sample_trace(timeline, window, interval_ns=interval, settling_tau_ns=tau)
    expected = oracle_samples(event_rows(timeline), window, interval, timeline.initial_dbr,
                              tau)
    assert bits(trace.samples.tolist()) == bits(expected)
    assert trace.times_ns().tolist() == oracle_times(trace)


def timeline_at(times, levels, initial_dbr=0.0):
    """A timeline of events at `times` (ints, or Fractions with one shared
    fractional part), each setting the level in `levels`."""
    floor = [math.floor(t) for t in times]
    frac = next((t - f for t, f in zip(times, floor) if t != f), 0)
    n = len(times)
    return Timeline(floor_ns=np.array(floor, np.int64),
                    plus_frac=np.array([t != f for t, f in zip(times, floor)], bool),
                    effect=np.zeros(n, np.int8), power_after_dbr=np.array(levels, np.float64),
                    warned=np.zeros(n, bool), lo_change=np.zeros(n, bool), frac_ns=frac,
                    initial_dbr=initial_dbr)


@pytest.mark.parametrize("times, levels, window, interval, tau", [
    ((-300, -120, -50), (10.0, 20.0, 30.0), (0, 200), 50, 0.0),  # all before the window
    ((500, 700), (10.0, 20.0), (0, 400), 50, 0.0),  # all after it
    ((100, 150, 151), (10.0, 20.0, 5.0), (0, 300), 50, 0.0),  # on grid points
    ((-125, -75), (10.0, 20.0), (-175, 75), 50, 0.0),  # on negative grid points
    # ceilings 100 (a grid point) and 101 (not one)
    ((Fraction(299, 3), Fraction(302, 3)), (5.0, 7.0), (0, 300), 50, 0.0),
    ((10, 20, 30, 40), (1.0, 2.0, 3.0, 4.0), (0, 100), 50, 0.0),  # several between samples
    ((100,), (10.0,), (100, 149), 50, 0.0),  # one sample, on the event
    ((101,), (10.0,), (100, 100), 50, 0.0),  # one sample, before the event
    ((), (), (-20, 90), 7, 0.0),  # no events
    ((), (), (-20, 90), 7, 30.0),
    ((-500, -200, 100), (10.0, 0.0, 20.0), (0, 400), 25, 80.0),  # settling from before
    ((Fraction(-1199, 3), Fraction(1, 3), Fraction(604, 3)), (30.0, 0.0, 30.0), (3, 350), 7,
     40.0),
])
def test_grid_edges_sample_like_the_loop(times, levels, window, interval, tau):
    timeline = timeline_at(times, levels, initial_dbr=-1.5)
    trace = sample_trace(timeline, window, interval_ns=interval, settling_tau_ns=tau)
    expected = oracle_samples(event_rows(timeline), window, interval, -1.5, tau)
    assert bits(trace.samples.tolist()) == bits(expected)


@PROFILE
@given(traced_schedules())
def test_renderings_of_sampled_traces_equal_the_loop(case):
    timeline, window, interval, tau = case
    trace = sample_trace(timeline, window, interval_ns=interval, settling_tau_ns=tau)
    assert trace_to_csv(trace) == oracle_csv(trace)
    for fmt, oracle in ORACLE.items():
        assert streamed_text(trace, fmt) == oracle(trace), fmt


@PROFILE
@given(traces())
def test_renderings_equal_the_loop(trace):
    for fmt, oracle in ORACLE.items():
        assert streamed_text(trace, fmt) == oracle(trace), fmt


def streamed_text(trace, fmt):
    """The text of render_blocks, after checking its blocks: the header,
    then a block per 2**16 rows, each holding whole rows (json closes the
    list at the end of the last one)."""
    header, *blocks = render_blocks(trace, fmt)
    rows = trace.samples.size
    assert header.endswith(b"\n")
    assert len(blocks) == -(-rows // 2**16)
    for k, block in enumerate(blocks):
        last = k == len(blocks) - 1
        if fmt == "json":
            assert block.endswith(b"  }\n]\n" if last else b"  },\n")
        assert block.count(b"{" if fmt == "json" else b"\n") == min(2**16, rows - k * 2**16)
    return b"".join([header, *blocks]).decode("ascii")


@settings(PROFILE, max_examples=20)
@given(run_traces())
# one row; the last block full; one row past it, settling, negative times
@example(PowerTrace(-7, 3, [2.675]))
@example(PowerTrace(-4000, 7, np.resize([-0.0, 30.0, 0.005], 2**16)))
@example(PowerTrace(-4000, 1, 30.0 * (1 - np.exp(-np.arange(2**16 + 1) / 40.0))))
def test_renderings_of_long_runs_equal_the_loop(trace):
    # each block is checked, and the joined blocks against the loop
    for fmt, oracle in ORACLE.items():
        assert streamed_text(trace, fmt) == oracle(trace), fmt


def test_renderings_of_negative_zero_cells():
    # -3 ns and the dB values below round to -0.00: the csv shows 0.00,
    # the table -0.00 and json -0.0
    trace = PowerTrace(-3, 1, [-0.001, -0.0, 0.0, 0.004, -0.005])
    for fmt, oracle in ORACLE.items():
        assert streamed_text(trace, fmt) == oracle(trace), fmt
    assert streamed_text(trace, "csv").splitlines()[1] == "0.00,0.00"
    assert streamed_text(trace, "table").splitlines()[1] == "-0.00    -0.00"
    assert '"power_db": -0.0' in streamed_text(trace, "json")


def test_renderings_of_an_empty_trace():
    trace = PowerTrace(0, 50, [])
    for fmt, oracle in ORACLE.items():
        assert streamed_text(trace, fmt) == oracle(trace), fmt


def test_ties_round_by_the_float_quotient():
    # 0.005 us is just above its tie and 0.015 us just below
    trace = PowerTrace(5, 10, [0.0, 0.0])
    assert streamed_text(trace, "csv") == "time_us,power_db\n0.01,0.00\n0.01,0.00\n"
    assert streamed_text(trace, "csv") == oracle_csv(trace)


@PROFILE
@given(
    st.sampled_from(SPI_CLOCKS),
    st.sampled_from((CommandKind.LO_ON, CommandKind.LO_OFF)),
    st.integers(0, 5000),
    st.integers(0, 5000),
    st.sampled_from((1, 5, 7, 10, 25, 50, 250)) | st.integers(1, 700),
    st.integers(0, 10_000),
    st.sampled_from(list(Band)),
)
def test_single_step_measures_its_budget_on_the_grid(spi_hz, kind, command_ns, lead_ns,
                                                     interval, start_back, band):
    clocks, profile = ClockConfig(spi_clock_hz=spi_hz), TimingProfile()
    trigger_ns = max(0, command_ns - lead_ns)
    commands = [Command(trigger_ns, CommandKind.TRIGGER), Command(command_ns, kind)]
    timeline = expand_schedule(Schedule.from_commands(commands), clocks, profile, band=band)
    direction = Direction.RX_TO_TX if kind is CommandKind.LO_ON else Direction.TX_TO_RX
    budget = turnaround_budget(EnsmMode.LO_CONTROL, direction, clocks, profile).total_ns
    start = trigger_ns - start_back
    end = command_ns + math.ceil(budget) + interval
    trace = sample_trace(timeline, (start, end), interval_ns=interval)

    k = math.ceil(Fraction(command_ns + budget - start) / interval)
    step = find_step(timeline)
    assert step.direction is direction
    assert measure_turnaround(trace, step) == start + k * interval - trigger_ns
