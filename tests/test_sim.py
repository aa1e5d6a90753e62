"""Schedule expansion, trace sampling, and turnaround measurement."""

import math
from fractions import Fraction

import numpy as np
import pytest

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
    Schedule,
    ScheduleError,
    TimingProfile,
    expand_schedule,
    find_step,
    measure_turnaround,
    sample_trace,
    trace_to_csv,
    turnaround_budget,
)
from zifsim.params import check_sampling
from zifsim.params import PACKET_WARNING, Effect

from conftest import event_rows

WINDOW = (-2500, 2500)


def _schedule(commands):
    return Schedule.from_commands(Command(t, k) for t, k in commands)


def _expand(schedule, clocks, profile, **kwargs):
    return expand_schedule(_schedule(schedule), clocks, profile, **kwargs)


def _measure(schedule, clocks, profile, window=WINDOW, interval_ns=50):
    timeline = _expand(schedule, clocks, profile)
    trace = sample_trace(timeline, window, interval_ns=interval_ns)
    return measure_turnaround(trace, find_step(timeline))


def test_lo_on_expansion(clocks, profile):
    events = event_rows(_expand([(0, CommandKind.LO_ON)], clocks, profile))
    assert events == [
        (0, Effect.SPI_START, 0.0, None),
        (480, Effect.SPI_END, 0.0, None),
        (640, Effect.LO_POWERED_UP, 30.0, None),
    ]


def test_lo_off_expansion(clocks, profile):
    timeline = _expand([(0, CommandKind.LO_OFF)], clocks, profile)
    # LO inferred on before the off command, so the SPI events sit at +30
    assert event_rows(timeline) == [
        (0, Effect.SPI_START, 30.0, None),
        (480, Effect.SPI_END, 30.0, None),
        (500, Effect.LO_POWERED_DOWN, 0.0, None),
    ]
    assert timeline.initial_dbr == 30.0


def test_empty_schedule_expands_to_nothing(clocks, profile):
    timeline = _expand([], clocks, profile)
    assert event_rows(timeline) == [] and len(timeline) == 0
    assert timeline.initial_dbr == 0.0


def test_band_selects_the_power_step(clocks, profile):
    events = event_rows(_expand([(0, CommandKind.LO_ON)], clocks, profile, band=Band.B5G))
    assert events[-1][2] == 22.0


def test_trigger_produces_no_event(clocks, profile):
    events = event_rows(_expand([(0, CommandKind.TRIGGER), (100, CommandKind.LO_ON)],
                                clocks, profile))
    assert [effect for _, effect, _, _ in events] == [
        Effect.SPI_START, Effect.SPI_END, Effect.LO_POWERED_UP,
    ]


def test_overlapping_spi_rejected_with_timestamps(clocks, profile):
    with pytest.raises(OverlappingSpiError) as err:
        _expand([(0, CommandKind.LO_ON), (100, CommandKind.LO_OFF)],
                clocks, profile)
    assert "100" in str(err.value) and "480" in str(err.value)


def test_back_to_back_spi_at_frame_boundary_ok(clocks, profile):
    events = event_rows(_expand([(0, CommandKind.LO_ON), (480, CommandKind.LO_OFF)],
                                clocks, profile))
    assert [effect for _, effect, _, _ in events] == [
        Effect.SPI_START, Effect.SPI_END, Effect.SPI_START,
        Effect.LO_POWERED_UP, Effect.SPI_END, Effect.LO_POWERED_DOWN,
    ]


def test_unsorted_schedule_rejected(clocks, profile):
    with pytest.raises(ScheduleError):
        _expand([(100, CommandKind.LO_ON), (0, CommandKind.TRIGGER)],
                clocks, profile)


def test_packet_nesting_enforced(clocks, profile):
    with pytest.raises(ScheduleError):
        _expand([(0, CommandKind.TX_PACKET_END)], clocks, profile)
    with pytest.raises(ScheduleError):
        _expand([(0, CommandKind.TX_PACKET_START),
                 (10, CommandKind.TX_PACKET_START)], clocks, profile)
    with pytest.raises(ScheduleError):
        _expand([(0, CommandKind.TX_PACKET_START)], clocks, profile)


def test_negative_command_time_rejected():
    with pytest.raises(ValueError):
        Command(-1, CommandKind.LO_ON)


def test_command_time_is_an_integer_below_2_53_ns():
    # the expanded event times are int64 columns, exact only for these; an
    # integral float or Fraction is refused like any other non-integer
    for bad in (Fraction(4), 4.0, Fraction(1, 2)):
        with pytest.raises(ValueError, match="^time_ns must be an integer"):
            Command(bad, CommandKind.LO_ON)
    for bad in (2**53, math.inf, math.nan):
        with pytest.raises(ValueError):
            Command(bad, CommandKind.LO_ON)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        Command(2**53, CommandKind.LO_ON)
    assert Command(2**53 - 1, CommandKind.LO_ON).time_ns == 2**53 - 1


def test_schedule_columns_and_commands():
    commands = [Command(0, CommandKind.LO_ON), Command(700, CommandKind.TRIGGER)]
    schedule = Schedule.from_commands(commands)
    assert (schedule.times_ns.typecode, schedule.kinds.typecode) == ("q", "b")
    assert list(schedule.times_ns) == [0, 700]
    assert list(schedule.kinds) == [0, 4]  # positions in CommandKind order
    assert len(schedule) == 2
    assert schedule == Schedule([0, 700], [0, 4])
    assert schedule != Schedule([0, 700], [0, 3])
    assert len(Schedule()) == 0 and not Schedule()


@pytest.mark.parametrize("times, kinds, message", [
    ([0, 1], [0], "differ in length"),
    ([-1], [0], "non-negative"),
    ([2**53], [0], "2\\*\\*53"),
    ([0], [5], "kind codes"),
    ([0], [-1], "kind codes"),
    ([0.5], [0], "times_ns must hold integers"),
    ([2**63], [0], "times_ns must hold integers"),
    ([0], [300], "kinds must hold integers"),
])
def test_schedule_rejects_bad_columns(times, kinds, message):
    with pytest.raises(ValueError, match=message):
        Schedule(times, kinds)


def test_packet_power_stacks_on_lo(clocks, profile):
    events = event_rows(_expand(
        [(0, CommandKind.LO_ON), (1000, CommandKind.TX_PACKET_START),
         (2000, CommandKind.TX_PACKET_END)],
        clocks, profile,
    ))
    levels = {effect: power for _, effect, power, _ in events}
    assert levels[Effect.PACKET_ON] == 45.0  # 30 + 15
    assert levels[Effect.PACKET_OFF] == 30.0
    assert all(warning is None for *_, warning in events)


def test_packet_while_lo_down_warns_but_stays_at_floor(clocks, profile):
    events = event_rows(_expand(
        [(0, CommandKind.TX_PACKET_START), (100, CommandKind.TX_PACKET_END)],
        clocks, profile,
    ))
    assert events[0] == (0, Effect.PACKET_ON, 0.0, PACKET_WARNING)


def test_find_trigger_prefers_explicit_trigger(clocks, profile):
    schedule = [(50, CommandKind.TRIGGER), (100, CommandKind.LO_ON)]
    assert _expand(schedule, clocks, profile).trigger_ns == 50
    assert _expand([(100, CommandKind.LO_ON)], clocks, profile).trigger_ns == 100
    assert _expand([], clocks, profile).trigger_ns is None


def test_sample_trace_grid_and_right_continuity(clocks, profile):
    events = _expand([(0, CommandKind.LO_ON)], clocks, profile)
    trace = sample_trace(events, (600, 700), interval_ns=20)
    assert trace.times_ns().tolist() == [600, 620, 640, 660, 680, 700]
    # the sample exactly on the 640 ns event takes the post-event level
    assert trace.samples.tolist() == [0.0, 0.0, 30.0, 30.0, 30.0, 30.0]


def test_sample_trace_window_length(clocks, profile):
    events = _expand([(0, CommandKind.LO_ON)], clocks, profile)
    trace = sample_trace(events, WINDOW, interval_ns=50)
    assert len(trace.samples) == 101
    assert trace.start_ns == -2500 and trace.interval_ns == 50


def test_no_events_means_constant_floor(clocks, profile):
    trace = sample_trace(_expand([], clocks, profile), WINDOW, interval_ns=50)
    assert set(trace.samples) == {0.0}


def test_baseline_inferred_for_falling_trace(clocks, profile):
    events = _expand([(0, CommandKind.LO_OFF)], clocks, profile)
    trace = sample_trace(events, WINDOW, interval_ns=50)
    assert trace.samples[0] == 30.0  # before the off command the LO was up
    assert trace.samples[-1] == 0.0


def test_measured_turnarounds_match_the_model(clocks, profile):
    assert _measure([(0, CommandKind.LO_ON)], clocks, profile) == 650
    assert _measure([(0, CommandKind.LO_OFF)], clocks, profile) == 500
    # the first step after the trigger, in a schedule that steps back
    on_off = [(0, CommandKind.LO_ON), (1500, CommandKind.LO_OFF)]
    assert _measure(on_off, clocks, profile) == 650
    mid = [(0, CommandKind.LO_ON), (1000, CommandKind.TRIGGER), (1000, CommandKind.LO_OFF)]
    assert _measure(mid, clocks, profile) == 500


def test_measurement_agrees_with_budget_across_spi_clocks(profile):
    # simulated turnaround within one sample interval of the budget total
    for hz in (10_000_000, 25_000_000, 50_000_000):
        clocks = ClockConfig(spi_clock_hz=hz)
        measured = _measure([(0, CommandKind.LO_ON)], clocks, profile, window=(-2500, 5000))
        budget = turnaround_budget(EnsmMode.LO_CONTROL, Direction.RX_TO_TX,
                                   clocks, profile)
        assert abs(measured - budget.total_ns) <= 50


def test_halving_interval_never_increases_error(clocks, profile):
    exact = 640
    for start in (40, 50):
        interval = start
        last_error = None
        while interval >= 5:
            measured = _measure([(0, CommandKind.LO_ON)], clocks, profile,
                                interval_ns=interval)
            error = abs(measured - exact)
            if last_error is not None:
                assert error <= last_error
            last_error = error
            if interval % 2:
                break
            interval //= 2


def test_trace_translation_invariance(clocks, profile):
    delta = 777  # deliberately not a multiple of the sampling interval
    base = sample_trace(_expand([(1000, CommandKind.LO_ON)], clocks, profile),
                        (0, 4000), interval_ns=50)
    moved = sample_trace(
        _expand([(1000 + delta, CommandKind.LO_ON)], clocks, profile),
        (delta, 4000 + delta), interval_ns=50,
    )
    assert base.samples.tolist() == moved.samples.tolist()


def test_determinism(clocks, profile):
    schedule = [(0, CommandKind.LO_ON), (2000, CommandKind.LO_OFF)]
    one = sample_trace(_expand(schedule, clocks, profile), WINDOW, interval_ns=50)
    two = sample_trace(_expand(schedule, clocks, profile), WINDOW, interval_ns=50)
    assert (one.start_ns, one.interval_ns) == (two.start_ns, two.interval_ns)
    assert np.array_equal(one.samples, two.samples)


def test_measurement_errors(clocks, profile):
    flat = PowerTrace(start_ns=0, interval_ns=50, samples=(1.0,) * 20)
    with pytest.raises(MeasurementError):
        measure_turnaround(flat, LoStep(100, Direction.RX_TO_TX, 1.0))
    events = _expand([(0, CommandKind.LO_ON)], clocks, profile)
    trace = sample_trace(events, WINDOW, interval_ns=50)
    with pytest.raises(MeasurementError):  # beyond the window
        measure_turnaround(trace, LoStep(5000, Direction.RX_TO_TX, 30.0))
    with pytest.raises(MeasurementError):
        # looking for a falling edge in a rising trace
        measure_turnaround(trace, LoStep(0, Direction.TX_TO_RX, 0.0))
    with pytest.raises(MeasurementError, match="no trigger and no LO command"):
        packets = [(0, CommandKind.TX_PACKET_START), (10, CommandKind.TX_PACKET_END)]
        find_step(_expand(packets, clocks, profile))
    with pytest.raises(MeasurementError, match="no LO command at or after the trigger at 10 ns"):
        find_step(_expand([(0, CommandKind.LO_ON), (10, CommandKind.TRIGGER)], clocks, profile))


def test_sample_trace_validation(clocks, profile):
    events = _expand([(0, CommandKind.LO_ON)], clocks, profile)
    with pytest.raises(ValueError):
        sample_trace(events, WINDOW, interval_ns=0)
    with pytest.raises(ValueError):
        sample_trace(events, (100, 0), interval_ns=50)


@pytest.mark.parametrize("sample, field", [
    (lambda timeline: check_sampling(0, 100, 2.5, 0.0), "interval_ns"),
    (lambda timeline: sample_trace(timeline, WINDOW, interval_ns=2.5), "interval_ns"),
    (lambda timeline: sample_trace(timeline, (2.5, 100), interval_ns=50), "start_ns"),
    (lambda timeline: sample_trace(timeline, (0, 100.5), interval_ns=50), "end_ns"),
], ids=["check_sampling", "sample_trace", "start", "end"])
def test_sampling_refuses_fractional_values(clocks, profile, sample, field):
    with pytest.raises(ValueError, match=field):
        sample(_expand([(0, CommandKind.LO_ON)], clocks, profile))


@pytest.mark.parametrize("tau", [-5.0, math.nan, math.inf])
def test_sample_trace_rejects_bad_settling(clocks, profile, tau):
    events = _expand([(0, CommandKind.LO_ON)], clocks, profile)
    with pytest.raises(ValueError, match="settling_tau_ns"):
        sample_trace(events, WINDOW, interval_ns=50, settling_tau_ns=tau)


def test_sample_trace_rejects_windows_beyond_exact_float_times(clocks, profile):
    events = _expand([(0, CommandKind.LO_ON)], clocks, profile)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        sample_trace(events, (0, 2**53), interval_ns=50)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        sample_trace(events, (0, 100), interval_ns=2**53)


@pytest.mark.parametrize("schedule,expected", [
    ([(0, CommandKind.LO_ON), (1500, CommandKind.LO_OFF)],
     LoStep(0, Direction.RX_TO_TX, 30.0, 2000)),
    ([(0, CommandKind.LO_ON), (1000, CommandKind.TRIGGER), (1000, CommandKind.LO_OFF)],
     LoStep(1000, Direction.TX_TO_RX, 0.0, None)),
    # a packet inside the window does not move the step's level
    ([(0, CommandKind.TRIGGER), (0, CommandKind.LO_ON),
      (700, CommandKind.TX_PACKET_START), (900, CommandKind.TX_PACKET_END),
      (1000, CommandKind.LO_OFF)],
     LoStep(0, Direction.RX_TO_TX, 30.0, 1500)),

    # a no-op write (the LO already on) does not end the step
    ([(0, CommandKind.LO_ON), (480, CommandKind.LO_ON)],
     LoStep(0, Direction.RX_TO_TX, 30.0, None)),
    ([(0, CommandKind.LO_ON), (480, CommandKind.LO_ON), (960, CommandKind.LO_OFF)],
     LoStep(0, Direction.RX_TO_TX, 30.0, 1460)),
])
def test_find_step_takes_the_first_lo_command_at_or_after_the_trigger(
        clocks, profile, schedule, expected):
    assert find_step(_expand(schedule, clocks, profile)) == expected


def test_find_step_takes_the_level_of_the_commands_own_divider_event(clocks):
    # with a 2000 ns power-up the lo-on at 1000 ns lands at 3480 ns, after
    # the divider event (3000 ns) of the lo-off at the trigger: the step is
    # the lo-off's own event, and the late power-up ends its window
    profile = TimingProfile(lo_div_powerup_ns=2000)
    schedule = [(0, CommandKind.LO_ON), (1000, CommandKind.LO_ON),
                (2500, CommandKind.TRIGGER), (2500, CommandKind.LO_OFF)]
    timeline = _expand(schedule, clocks, profile)
    assert event_rows(timeline)[timeline.step_index][0] == 3000
    step = find_step(timeline)
    assert step == LoStep(2500, Direction.TX_TO_RX, 0.0, 3480)
    trace = sample_trace(timeline, (0, 5000), interval_ns=50)
    assert measure_turnaround(trace, step) == 500


@pytest.mark.parametrize("schedule, powerup_ns, trigger_ns", [
    # the LO is on from 640 ns; the packet edge at 2100 ns is no LO step
    ([(0, CommandKind.LO_ON), (2000, CommandKind.TRIGGER), (2000, CommandKind.LO_ON),
      (2100, CommandKind.TX_PACKET_START), (5000, CommandKind.TX_PACKET_END)], 160, 2000),
    # with a 2000 ns power-up, the first lo-on's divider event lands at
    # 2480 ns, after the trigger, and the second lo-on's, at 3440 ns, finds
    # the LO already on
    ([(0, CommandKind.LO_ON), (480, CommandKind.LO_OFF),
      (960, CommandKind.LO_ON), (960, CommandKind.TRIGGER)], 2000, 960),
])
def test_find_step_refuses_a_write_that_finds_the_lo_in_its_state(
        clocks, schedule, powerup_ns, trigger_ns):
    timeline = _expand(schedule, clocks, TimingProfile(lo_div_powerup_ns=powerup_ns))
    assert not timeline.lo_change[timeline.step_index]
    with pytest.raises(MeasurementError, match=f"at {trigger_ns} ns finds the LO already on"):
        find_step(timeline)


def test_step_that_misses_its_window_is_not_measured(clocks, profile):
    # the divider is up at 640, but the next LO state change (the lo-off
    # at 480 lands at 980) comes before any sample on the 1000 ns grid;
    # the rise at 2000 belongs to the second lo-on
    schedule = [(0, CommandKind.LO_ON), (480, CommandKind.LO_OFF), (960, CommandKind.LO_ON)]
    timeline = _expand(schedule, clocks, profile)
    trace = sample_trace(timeline, (-2000, 3000), interval_ns=1000)
    with pytest.raises(MeasurementError, match="crossing"):
        measure_turnaround(trace, find_step(timeline))


def test_settling_relaxes_exponentially(clocks, profile):
    events = _expand([(0, CommandKind.LO_ON)], clocks, profile)
    tau = 200.0
    trace = sample_trace(events, (600, 1600), interval_ns=20,
                         settling_tau_ns=tau)
    by_time = dict(zip(trace.times_ns(), trace.samples))
    expected_840 = 30.0 * (1.0 - math.exp(-(840 - 640) / tau))
    assert by_time[840] == pytest.approx(expected_840, abs=1e-9)
    # monotone rise toward the ideal level, never overshooting
    values = [by_time[t] for t in sorted(by_time) if t >= 640]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] < 30.0


def test_trace_csv_format(clocks, profile):
    events = _expand([(0, CommandKind.LO_ON)], clocks, profile)
    trace = sample_trace(events, (-100, 100), interval_ns=50)
    text = trace_to_csv(trace)
    lines = text.splitlines()
    assert lines[0] == "time_us,power_db"
    assert lines[1] == "-0.10,0.00"
    assert lines[2] == "-0.05,0.00"
    assert lines[3] == "0.00,0.00"
    assert lines[-1] == "0.10,0.00"
    assert text.endswith("\n")
    assert "-0.00" not in text
