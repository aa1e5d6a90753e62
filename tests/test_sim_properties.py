"""Hypothesis properties of the trace simulator.

The trace has two pipelines: the array one (`zifsim.sim`), which expands,
samples, measures and renders on whole numpy columns, and the per-event
and per-row loops it replaced, which ship as `zifsim.looptrace` and run
small traces. Each property runs both and asks them to agree exactly:
the events (times of the same type, levels bit for bit, the warning and
LO-change flags), the first error, the step, the samples bit for bit,
the measurement and the text byte for byte. The loop sampling gets the
array timeline's rows, so the initial level drawn here reaches both. The
per-value texts and json's own text stay as independent checks.
"""

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
    CommandKind,
    Direction,
    EnsmMode,
    MeasurementError,
    OverlappingSpiError,
    PowerTrace,
    RfModelParams,
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
from zifsim import looptrace
from zifsim.steps import cell_text, event_time_ns
from zifsim.sim import Timeline, _power_field, render_blocks

from conftest import (
    Command,
    assert_same_text,
    brute_force_turnaround,
    exact_times,
    from_commands,
    loop_timeline,
)

# Deterministic and bounded so the tier-1 run stays fast and stable.
PROFILE = settings(derandomize=True, deadline=None, max_examples=150, database=None)

FORMATS = ("csv", "table", "json")


def loop_text(trace, fmt):
    """The loop pipeline's text of a PowerTrace."""
    samples = looptrace.LoopTrace(trace.start_ns, trace.interval_ns, trace.samples.tolist())
    return b"".join(looptrace.render_blocks(samples, fmt)).decode("ascii")


def loop_samples(timeline, window, interval, tau):
    """The loop pipeline's samples of a Timeline's events."""
    return looptrace.sample_trace(loop_timeline(timeline), window, interval_ns=interval,
                                  settling_tau_ns=tau).samples


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
    """The loop form of an expansion (array: through loop_timeline), or
    the type and text of its error."""
    try:
        timeline = expand(from_commands(commands), clocks, profile)
    except (ScheduleError, OverlappingSpiError) as exc:
        return type(exc), str(exc)
    return timeline if expand is looptrace.expand_schedule else loop_timeline(timeline)


def exact(timeline):
    """A LoopTimeline's fields with the exact time of each event, its type
    and the bits of each level."""
    return ([(e, t, type(t), bits([e[2]])) for e, t in zip(timeline.events, exact_times(timeline))],
            timeline.frac_ns, bits([timeline.initial_dbr]), timeline.trigger_ns,
            timeline.step_index)


def array_times(timeline):
    """A Timeline's event times, exact, from its columns."""
    return [event_time_ns(key, timeline.frac_ns) for key in timeline.key.tolist()]


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
    timeline = expand_schedule(from_commands(commands), clocks, TimingProfile(),
                               band=band, rf=rf)
    if initial_dbr is not None:
        timeline = timeline.replace(initial_dbr=initial_dbr)
    interval = draw(st.sampled_from((1, 5, 7, 10, 15, 25, 50, 250)) | st.integers(1, 400))
    start = draw(st.integers(-3000, 3000))
    end = start + draw(st.integers(0, 300)) * interval + draw(st.integers(0, interval - 1))
    tau = draw(st.sampled_from((0.0, 0.0, 1.0, 10.0, 200.0)) | st.floats(0.01, 1e4))
    return timeline, (start, end), interval, tau


@st.composite
def traces(draw):
    """Arbitrary traces: negative and huge start times, ties at t % 10 == 5
    (on every row of a grid of 10 ns from a tie, or every other of 25 ns),
    times next to +/-2**53, powers that round to -0.00, non-finite powers."""
    interval = draw(st.sampled_from((10, 25, 250)) | st.integers(1, 1000))
    count = draw(st.integers(1, 60))
    last = 2**53 - 1 - (count - 1) * interval  # the last start inside the limit
    start = draw(st.integers(-4000, 4000) | st.integers(-(2**53) + 1, last)
                 | st.sampled_from((-(2**53) + 7, last - 6)))  # ties at the limits
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
    schedule = from_commands(commands)
    timeline = expand_schedule(schedule, clocks, profile, band=band, rf=rf)
    loop = looptrace.expand_schedule(schedule, clocks, profile, band=band, rf=rf)
    assert exact(loop_timeline(timeline)) == exact(loop)
    assert len(timeline) == len(loop.events)
    times = array_times(timeline)
    assert [(t, type(t)) for t in times] == [(t, type(t)) for t in exact_times(loop)]
    assert loop.warning_times() == timeline.warning_times() == [
        t for t, (*_, warned, _) in zip(times, loop.events) if warned]


@PROFILE
@given(st.sampled_from(SPI_CLOCKS) | st.integers(1_000_000, 50_000_000),
       st.integers(0, 3000), st.integers(0, 3000),
       st.lists(st.tuples(st.booleans(), st.integers(0, 2000)), max_size=8))
@example(7_000_000, 100, 200, [(True, 50), (False, 0)])  # odd keys: Fraction times
def test_event_keys_order_the_exact_times(spi_hz, up, down, writes):
    # LO writes a frame or more apart, and a packet at each write: every
    # key is 2 * floor + plus, its time floor (+ frac_ns) exactly, and the
    # keys order the times as the exact arithmetic does
    clocks = ClockConfig(spi_clock_hz=spi_hz)
    profile = TimingProfile(lo_div_powerup_ns=up, lo_div_powerdown_ns=down)
    frame = frame_duration_ns(clocks)
    commands, expected, t = [], [], 7
    for on, gap in writes:
        commands += [Command(t, CommandKind.LO_ON if on else CommandKind.LO_OFF),
                     Command(t, CommandKind.TX_PACKET_START),
                     Command(t + gap, CommandKind.TX_PACKET_END)]
        expected += [t, t + frame, t + frame + (up if on else down), t, t + gap]
        t += gap + math.ceil(frame)
    loop = looptrace.expand_schedule(from_commands(commands), clocks, profile)
    frac = Fraction(frame) - math.floor(frame)
    assert loop.frac_ns == frac and type(loop.frac_ns) is (Fraction if frac else int)
    keys, times = [event[0] for event in loop.events], exact_times(loop)
    for key, time in zip(keys, times):
        assert time == Fraction(key >> 1) + (frac if key & 1 else 0)
        assert type(time) is (Fraction if key & 1 else int)
        assert (key >> 1, (key + 1) >> 1) == (math.floor(time), math.ceil(time))
    assert sorted(times) == sorted(expected)
    assert times == sorted(times)
    assert all((a < b) == (s < u) and (a == b) == (s == u)
               for (a, s), (b, u) in zip(zip(keys, times), zip(keys[1:], times[1:])))


@PROFILE
@given(any_schedules())
# the third command is both out of order and a second packet start
@example(([Command(0, CommandKind.TX_PACKET_START), Command(5, CommandKind.LO_ON),
           Command(3, CommandKind.TX_PACKET_START)], ClockConfig()))
def test_expansion_fails_like_the_loop(case):
    commands, clocks = case
    profile = TimingProfile()
    expected = expansion_or_error(looptrace.expand_schedule, commands, clocks, profile)
    got = expansion_or_error(expand_schedule, commands, clocks, profile)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert exact(got) == exact(expected)


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
    schedule = from_commands(commands)
    timeline = expand_schedule(schedule, clocks, profile)
    loop = looptrace.expand_schedule(schedule, clocks, profile)
    step = step_or_error(find_step, timeline)
    assert step == step_or_error(looptrace.find_step, loop)
    if not isinstance(step, str) and step.end_ns is not None:
        # the end is the exact time of the next LO state change
        end = next(i for i in range(timeline.step_index + 1, len(timeline))
                   if timeline.lo_change[i])
        assert (step.end_ns, type(step.end_ns)) == (array_times(timeline)[end],
                                                    type(exact_times(loop)[end]))


def step_or_error(find, timeline):
    try:
        return find(timeline)
    except MeasurementError as exc:
        return str(exc)


@PROFILE
@given(traced_schedules())
def test_samples_equal_the_loop(case):
    timeline, window, interval, tau = case
    trace = sample_trace(timeline, window, interval_ns=interval, settling_tau_ns=tau)
    expected = loop_samples(timeline, window, interval, tau)
    assert bits(trace.samples.tolist()) == bits(expected)
    assert trace.times_ns().tolist() == [window[0] + k * interval for k in range(len(expected))]


@PROFILE
@given(traced_schedules())
def test_measurements_equal_the_loop(case):
    timeline, window, interval, tau = case
    trace = sample_trace(timeline, window, interval_ns=interval, settling_tau_ns=tau)
    loop = looptrace.LoopTrace(trace.start_ns, interval, loop_samples(timeline, window,
                                                                      interval, tau))
    outcomes = []
    for measure, samples, find, events in ((measure_turnaround, trace, find_step, timeline),
                                           (looptrace.measure_turnaround, loop,
                                            looptrace.find_step, loop_timeline(timeline))):
        try:
            outcomes.append(measure(samples, find(events)))
        except MeasurementError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@st.composite
def step_windows(draw):
    """A trigger, an LO write at or after it and a write of the other kind
    a frame or more later, whose divider event ends the step; a drawn SPI
    clock, grid, window and tau around them."""
    clocks = ClockConfig(spi_clock_hz=draw(st.sampled_from(SPI_CLOCKS)))
    kinds = draw(st.permutations((CommandKind.LO_ON, CommandKind.LO_OFF)))
    trigger = draw(st.integers(0, 2000))
    first = trigger + draw(st.integers(0, 1000))
    second = first + math.ceil(frame_duration_ns(clocks)) + draw(st.integers(0, 1000))
    commands = [Command(trigger, CommandKind.TRIGGER), Command(first, kinds[0]),
                Command(second, kinds[1])]
    interval = draw(st.sampled_from((1, 7, 50, 490, 700)) | st.integers(1, 3000))
    start = trigger - draw(st.integers(0, 3 * interval))
    window = (start, draw(st.integers(start, second + 4000)))
    return commands, clocks, window, interval, draw(st.sampled_from((0.0, 40.0, 200.5)))


@PROFILE
@given(step_windows())
# the step from 640 ns ends at 980 ns: on a grid point, whose settled
# sample would cross, and 1 ns after one, whose sample crosses
@example(([Command(0, CommandKind.TRIGGER), Command(0, CommandKind.LO_ON),
           Command(480, CommandKind.LO_OFF)], ClockConfig(), (0, 1500), 490, 200.5))
@example(([Command(0, CommandKind.TRIGGER), Command(0, CommandKind.LO_ON),
           Command(481, CommandKind.LO_OFF)], ClockConfig(), (0, 1500), 490, 0.0))
# at 7 MHz the end is 6877 4/7 ns: the sample at 6877 ns lies before it
@example(([Command(0, CommandKind.TRIGGER), Command(0, CommandKind.LO_ON),
           Command(3429, CommandKind.LO_OFF)], ClockConfig(spi_clock_hz=7_000_000),
          (0, 7000), 6877, 200.5))
# the trigger on the last sample
@example(([Command(1000, CommandKind.TRIGGER), Command(1000, CommandKind.LO_ON),
           Command(1480, CommandKind.LO_OFF)], ClockConfig(), (0, 1000), 50, 0.0))
def test_the_step_window_ends_before_the_next_lo_state_change(case):
    commands, clocks, window, interval, tau = case
    schedule, profile = from_commands(commands), TimingProfile()
    timeline = expand_schedule(schedule, clocks, profile)
    loop = looptrace.expand_schedule(schedule, clocks, profile)
    step = find_step(timeline)
    assert step.end_ns is not None and looptrace.find_step(loop) == step
    for trace in (sample_trace(timeline, window, interval_ns=interval, settling_tau_ns=tau),
                  looptrace.sample_trace(loop, window, interval_ns=interval,
                                         settling_tau_ns=tau)):
        try:
            measured = measure_turnaround(trace, step)
        except MeasurementError as exc:
            measured = str(exc)
        assert measured == brute_force_turnaround(trace, step)


def timeline_at(times, levels, initial_dbr=0.0):
    """A timeline of events at `times` (ints, or Fractions with one shared
    fractional part), each setting the level in `levels`."""
    floor = [math.floor(t) for t in times]
    frac = next((t - f for t, f in zip(times, floor) if t != f), 0)
    n = len(times)
    return Timeline(key=np.array([2 * f + (t != f) for t, f in zip(times, floor)], np.int64),
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
    ((100, 500, 700), (10.0, 20.0, 0.0), (0, 400), 50, 1.0),  # settling, changes after it
    # two, then three level changes between the same two samples: the
    # runs of all but the last are empty
    ((100, 110, 120), (10.0, 20.0, 30.0), (0, 300), 50, 40.0),
    ((100, 110, 120, 130), (10.0, 20.0, 30.0, 5.0), (0, 300), 50, 40.0),
    ((100, 300), (10.0, 20.0), (0, 300), 50, 40.0),  # a change on the last sample
    ((100, 301), (10.0, 20.0), (0, 300), 50, 40.0),  # and just past it
    ((-300, -120, -50), (10.0, 20.0, 30.0), (0, 200), 50, 40.0),  # all before, settling
    # the target is the last event's level: -0.0 where the decay underflows
    ((100, 150, 400), (0.0, -0.0, 20.0), (0, 500), 50, 0.1),
])
def test_grid_edges_sample_like_the_loop(times, levels, window, interval, tau):
    timeline = timeline_at(times, levels, initial_dbr=-1.5)
    trace = sample_trace(timeline, window, interval_ns=interval, settling_tau_ns=tau)
    assert bits(trace.samples.tolist()) == bits(loop_samples(timeline, window, interval, tau))


def test_settled_runs_reach_their_level_or_decay_toward_zero():
    # toward 30 dB the settled samples round to the level itself within the
    # stretch and stay there; toward 0 dBr they shrink at every sample
    timeline = timeline_at((0, 2000), (30.0, 0.0), initial_dbr=-1.5)
    trace = sample_trace(timeline, (-100, 4000), interval_ns=50, settling_tau_ns=10.0)
    loop = loop_samples(timeline, (-100, 4000), 50, 10.0)
    assert bits(trace.samples.tolist()) == bits(loop)
    rising, falling = loop[2:42], loop[42:]  # from 0 ns and from 2000 ns
    reached = rising.index(30.0)
    assert 0 < reached and rising[reached:] == [30.0] * (len(rising) - reached)
    assert all(0 < later < value for value, later in zip(falling, falling[1:]))


@pytest.mark.parametrize("start", [2**53 - 605, -(2**53) + 5])
def test_settled_ties_at_the_time_limits_render_like_the_loop(start):
    # every row of a 10 ns grid from a tie is a tie, next to +/-2**53 ns
    timeline = timeline_at((start + 100, start + 300), (30.0, 0.0), initial_dbr=-1.5)
    trace = sample_trace(timeline, (start, start + 590), interval_ns=10, settling_tau_ns=40.0)
    assert bits(trace.samples.tolist()) == bits(loop_samples(timeline, (start, start + 590), 10,
                                                             40.0))
    for fmt in FORMATS:
        assert_same_text(streamed_text(trace, fmt), loop_text(trace, fmt))


@PROFILE
@given(traced_schedules())
def test_renderings_of_sampled_traces_equal_the_loop(case):
    timeline, window, interval, tau = case
    trace = sample_trace(timeline, window, interval_ns=interval, settling_tau_ns=tau)
    assert_same_text(trace_to_csv(trace), loop_text(trace, "csv"))
    for fmt in FORMATS:
        assert_same_text(streamed_text(trace, fmt), loop_text(trace, fmt))


@PROFILE
@given(traces())
@example(PowerTrace(-1005, 25, [0.0] * 81))  # a tie on every other row
@example(PowerTrace(-(2**53) + 7, 10, [0.0] * 60))  # on every row, from the limits
@example(PowerTrace(2**53 - 7 - 59 * 10, 10, [0.0] * 60))
@example(PowerTrace(-1875, 250, [0.0] * 60))  # quotients exactly on the tie, to even
@example(PowerTrace(-12, 1, [30.0] * 25))  # across zero at 1 ns: ties and -0.00 cells
def test_renderings_equal_the_loop(trace):
    for fmt in FORMATS:
        assert_same_text(streamed_text(trace, fmt), loop_text(trace, fmt))


@PROFILE
@given(st.sampled_from((10, 20, 40, 50, 100, 200, 250, 500, 1000, 30, 125)), st.integers(0, 9),
       st.integers(1, 400), st.integers(-3000, 3000) | st.sampled_from((-(2**53), 2**53)),
       st.sampled_from((-0.0, 2.675, 30.0)))
@example(10, 3, 450, 1230, 30.0)  # 1.23 to 5.72 us: a partial first and last microsecond
@example(10, 3, 450, 1210, 30.0)  # 1.21 to 5.70 us
@example(10, 5, 450, 1230, 30.0)  # every row a tie: the per-row texts
@example(50, 0, 101, -2500, 30.0)  # the default window, across 0
@example(250, 7, 40, -1000, 2.675)
@example(1000, 9, 30, -4, 30.0)
@example(30, 0, 100, -100, 30.0)  # grids that do not divide 1 us
@example(125, 0, 100, 0, 30.0)
@example(20, 1, 400, 2**53, -0.0)  # next to +2**53
@example(40, 6, 400, -(2**53), -0.0)
@example(50, 0, 3, 9900, 30.0)  # across a digit count of the microsecond: 9.95 to 10.00 us
@example(10, 0, 12, 99950, 2.675)  # 99.95 to 100.00 us
@example(50, 0, 3, 999900, -0.0)  # 999.95 to 1000.00 us
@example(10, 0, 12, 999950, 30.0)
@example(50, 0, 3, 9999900, 30.0)  # to 10000.00 us, wider than "time_us"
@example(1000, 0, 2000, -1_000_000, 30.0)  # the widest cell the first, -1000.00 to 999.00 us
@example(50, 0, 1, 1230, 30.0)  # one and two rows
@example(50, 0, 2, 1230, 2.675)
@example(50, 0, 2, -50, -0.0)  # -0.05 and 0.00 us
def test_renderings_by_the_microsecond_equal_the_loop(interval, residue, count, around, level):
    # a grid that divides 1 us in steps of 10 ns, from a start off a tie,
    # writes the time column a microsecond at a time, the first and last
    # one cut to the window; a tie or any other grid takes the per-row texts
    lowest, highest = -(2**53) + 10, 2**53 - 10 - (count - 1) * interval
    start = min(max(around, lowest), highest)
    start += (residue - start) % 10
    trace = PowerTrace(start, interval, [level] * count)
    for fmt in FORMATS:
        assert_same_text(streamed_text(trace, fmt), loop_text(trace, fmt))


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
    for fmt in FORMATS:
        assert_same_text(streamed_text(trace, fmt), loop_text(trace, fmt))


# Traces whose cell widths change at the first block edge (2**16 rows):
# each block writes its fields into one row template, so a narrower field
# after a wider one must leave nothing of it behind
EDGE = 2**16
WIDTHS_AT_THE_EDGE = {
    "time 999.99 to 1000.00 us": PowerTrace(1_000_000 - 10 * EDGE, 10, [30.0] * (EDGE + 5)),
    "table pad 9999.99 to 10000.00 us": PowerTrace(10_000_000 - 10 * EDGE, 10,
                                                   [2.5] * (EDGE + 5)),
    "time -0.01 to 0.00 us": PowerTrace(-10 * EDGE, 10, [-0.0] * (EDGE + 5)),
    "power 12345.67 to 1.00": PowerTrace(0, 1, [12345.67] * EDGE + [1.0] * 5),
    "power -inf to 30.00": PowerTrace(0, 1, [-math.inf] * EDGE + [30.0] * 5),
    "power 1.00 to 1e13, wider": PowerTrace(0, 1, [1.0] * EDGE + [1e13] * 5),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("trace", WIDTHS_AT_THE_EDGE.values(), ids=WIDTHS_AT_THE_EDGE)
def test_renderings_equal_the_loop_where_widths_change_at_a_block_edge(trace, fmt):
    assert_same_text(streamed_text(trace, fmt), loop_text(trace, fmt))


def test_renderings_of_negative_zero_cells():
    # -3 ns and the dB values below round to -0.00: the csv shows 0.00,
    # the table -0.00 and json -0.0
    trace = PowerTrace(-3, 1, [-0.001, -0.0, 0.0, 0.004, -0.005])
    for fmt in FORMATS:
        assert_same_text(streamed_text(trace, fmt), loop_text(trace, fmt))
    assert streamed_text(trace, "csv").splitlines()[1] == "0.00,0.00"
    assert streamed_text(trace, "table").splitlines()[1] == "-0.00    -0.00"
    assert '"power_db": -0.0' in streamed_text(trace, "json")


def test_renderings_of_equal_values_held_as_distinct_objects():
    # tolist() gives each sample its own float object, so the loop renderer
    # meets 0.0, -0.0 and NaN again outside a run: the equal zeros keep
    # their own texts and each NaN its text
    trace = PowerTrace(-3, 1, [0.0, -0.0, 0.0, -0.0, math.nan, math.nan, 2.5, -0.0, 0.0])
    samples = trace.samples.tolist()
    assert len({id(value) for value in samples}) == len(samples)
    for fmt in FORMATS:
        assert_same_text(streamed_text(trace, fmt), loop_text(trace, fmt))
    assert [row.split()[1] for row in loop_text(trace, "table").splitlines()[1:]] == [
        "0.00", "-0.00", "0.00", "-0.00", "nan", "nan", "2.50", "-0.00", "0.00"]
    assert loop_text(trace, "json").count('"power_db": -0.0\n') == 3


def test_renderings_of_an_empty_trace():
    trace = PowerTrace(0, 50, [])
    for fmt in FORMATS:
        assert_same_text(streamed_text(trace, fmt), loop_text(trace, fmt))


@PROFILE
@given(traces())
@example(PowerTrace(-3, 1, [-0.001, -0.0, 2.675, math.inf, math.nan]))
def test_loop_json_is_json(trace):
    # json.dumps of the rows, rounded to two decimals, as the CLI once wrote them
    rows = [{"time_us": round((trace.start_ns + k * trace.interval_ns) / 1000.0, 2),
             "power_db": round(v, 2)} for k, v in enumerate(trace.samples.tolist())]
    assert loop_text(trace, "json") == json.dumps(rows, indent=2) + "\n"


# each format's text of one power value, as the per-row code wrote it
POWER_TEXT = {
    "csv": lambda v: "0.00" if f"{v:.2f}" == "-0.00" else f"{v:.2f}",
    "table": lambda v: f"{round(v, 2):.2f}",
    "json": lambda v: json.dumps(round(v, 2)),
}
# just below, at and just above the magnitudes where the formatter hands
# values back to Python's text
EDGES = [v for x in (1e13, 1e15, 1e16, 2.0**53)
         for v in (math.nextafter(x, 0), x, math.nextafter(x, math.inf), -x)]


@PROFILE
@given(st.lists(st.floats() | st.floats(-300, 300)
                | st.integers(-10**6, 10**6).map(lambda k: k / 1000), min_size=1, max_size=20))
@example([0.125, 2.675, -0.004, -0.005, -0.0])
@example(EDGES)
@example([math.inf, -math.inf, math.nan, 1.0])
def test_power_texts_equal_the_per_value_text(values):
    # a mix of the formatter's digits and values handed back to Python
    for fmt, oracle in POWER_TEXT.items():
        field = _power_field(np.array(values), fmt)
        assert [bytes(row[row != 0]).decode() for row in field] == [oracle(v) for v in values]
        assert [cell_text(v, fmt) for v in values] == [oracle(v) for v in values]


def test_ties_round_by_the_float_quotient():
    # 0.005 us is just above its tie and 0.015 us just below
    trace = PowerTrace(5, 10, [0.0, 0.0])
    assert streamed_text(trace, "csv") == "time_us,power_db\n0.01,0.00\n0.01,0.00\n"
    assert_same_text(streamed_text(trace, "csv"), loop_text(trace, "csv"))


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
    timeline = expand_schedule(from_commands(commands), clocks, profile, band=band)
    direction = Direction.RX_TO_TX if kind is CommandKind.LO_ON else Direction.TX_TO_RX
    budget = turnaround_budget(EnsmMode.LO_CONTROL, direction, clocks, profile).total_ns
    start = trigger_ns - start_back
    end = command_ns + math.ceil(budget) + interval
    trace = sample_trace(timeline, (start, end), interval_ns=interval)

    k = math.ceil(Fraction(command_ns + budget - start) / interval)
    step = find_step(timeline)
    assert step.direction is direction
    assert measure_turnaround(trace, step) == start + k * interval - trigger_ns
    loop = looptrace.expand_schedule(from_commands(commands), clocks, profile, band=band)
    loop_trace = looptrace.sample_trace(loop, (start, end), interval_ns=interval)
    assert looptrace.find_step(loop) == step
    assert looptrace.measure_turnaround(loop_trace, step) == start + k * interval - trigger_ns
