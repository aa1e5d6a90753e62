"""Acceptance gate: one test per release criterion.

Each test prints a single `[acceptance] criterion N (...): PASS|FAIL` line
on the real stdout (past pytest's capture) so the gate status is visible
in any test run, then fails normally through pytest on a red criterion.
"""

import random
import sys
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from zifsim import (
    Band,
    BUILTIN_DEADLINES,
    ClockConfig,
    Command,
    CommandKind,
    Direction,
    EnsmMode,
    IqCapture,
    RfModelParams,
    Schedule,
    SpiFrame,
    TimingProfile,
    average_power_db,
    compliance_matrix,
    decode_frame,
    encode_frame,
    expand_schedule,
    filter_packets,
    find_step,
    flush_time_ns,
    frame_duration_ns,
    measure_turnaround,
    noise_floor_report,
    rx_noise_floor,
    sample_trace,
    synthesize_capture,
    turnaround_budget,
)
from zifsim.cli import main
from zifsim.errors import FilterRefusedError

from conftest import brute_force_keep_mask, make_burst_series


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _find_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(number, label, passed):
    line = f"[acceptance] criterion {number} ({label}): {'PASS' if passed else 'FAIL'}"
    suspended = (
        _CAPTURE_MANAGER.global_and_fixture_disabled()
        if _CAPTURE_MANAGER is not None
        else nullcontext()
    )
    with suspended:
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        _report(number, label, False)
        raise
    _report(number, label, True)


def test_criterion_1_budget_reproduction(capsys):
    with criterion(1, "budget reproduction"):
        started = time.perf_counter()
        code = main(["turnaround", "--all", "--format", "csv"])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == 0
        totals = {}
        for line in out.splitlines()[1:]:
            mode, direction, total = line.split(",")
            totals[(mode, direction)] = int(total)
        assert totals[("standard-ensm-tdd", "rx-tx")] == 55_000
        assert totals[("standard-tdd", "rx-tx")] == 18_000
        assert totals[("standard-tdd-dual-synth", "rx-tx")] == 18_000
        assert totals[("fdd-independent", "rx-tx")] == 18_000
        assert totals[("lo-control", "rx-tx")] == 640
        assert totals[("lo-control", "tx-rx")] == 500
        assert totals[("fdd", "rx-tx")] == 0
        assert totals[("fdd", "tx-rx")] == 0
        assert elapsed < 1.0


def test_criterion_2_spi_timing():
    with criterion(2, "SPI and flush timing"):
        frame = frame_duration_ns(ClockConfig())
        assert frame == 480 and isinstance(frame, int)
        flush = flush_time_ns(ClockConfig(), TimingProfile())
        assert flush == 2400 and isinstance(flush, int)


def test_criterion_3_trace_pipeline():
    with criterion(3, "trace pipeline"):
        clocks, profile, rf = ClockConfig(), TimingProfile(), RfModelParams()
        window, interval = (-2500, 2500), 50

        on = Schedule.from_commands([Command(0, CommandKind.LO_ON)])
        for band in Band:
            on_events = expand_schedule(on, clocks, profile, band=band, rf=rf)
            on_trace = sample_trace(on_events, window, interval_ns=interval)
            step = find_step(on_events)
            assert step.direction is Direction.RX_TO_TX
            tt_on = measure_turnaround(on_trace, step)
            assert abs(tt_on - 650) <= interval
            # on/off power delta, exact against the model parameters
            delta = on_trace.samples[-1] - on_trace.samples[0]
            assert delta == rf.lo_on_delta_db[band]

        off = Schedule.from_commands([Command(0, CommandKind.LO_OFF)])
        off_events = expand_schedule(off, clocks, profile, rf=rf)
        off_trace = sample_trace(off_events, window, interval_ns=interval)
        step = find_step(off_events)
        assert step.direction is Direction.TX_TO_RX
        tt_off = measure_turnaround(off_trace, step)
        assert abs(tt_off - 500) <= interval

        assert rf.lo_on_delta_db[Band.B2G4] == 30.0
        assert rf.lo_on_delta_db[Band.B5G] == 22.0


def test_criterion_4_noise_table_regression():
    with criterion(4, "noise floor table"):
        started = time.perf_counter()
        rf = RfModelParams()
        measured = {}
        for mode in (EnsmMode.FDD, EnsmMode.STANDARD_TDD, EnsmMode.LO_CONTROL):
            for band in Band:
                capture = synthesize_capture(mode, band, rf, 100_000, seed=1)
                report = noise_floor_report(capture)
                target = rx_noise_floor(mode, band, rf)
                assert abs(report.average_power_db - target) <= 0.1, (mode, band)
                measured[(mode, band)] = report.average_power_db
        delta_2g4 = measured[(EnsmMode.FDD, Band.B2G4)] \
            - measured[(EnsmMode.LO_CONTROL, Band.B2G4)]
        delta_5g = measured[(EnsmMode.FDD, Band.B5G)] \
            - measured[(EnsmMode.LO_CONTROL, Band.B5G)]
        assert abs(delta_2g4 - 13.4) <= 0.2
        assert abs(delta_5g - 4.6) <= 0.2
        assert time.perf_counter() - started < 5.0


def test_criterion_5_compliance_matrix():
    with criterion(5, "compliance matrix"):
        results = compliance_matrix(ClockConfig(), TimingProfile(),
                                    BUILTIN_DEADLINES)
        table = {(r.mode, r.deadline.name): r.passed for r in results}
        expected_pass = {EnsmMode.FDD, EnsmMode.LO_CONTROL}
        assert len(table) == 18
        for mode in EnsmMode:
            for deadline in BUILTIN_DEADLINES:
                assert table[(mode, deadline.name)] is (mode in expected_pass), \
                    (mode, deadline.name)


def test_criterion_6_property_suites():
    with criterion(6, "property suites"):
        # SPI codec roundtrip: 10 000 random frames plus all boundary frames
        rng = random.Random(1)
        for _ in range(10_000):
            frame = SpiFrame(
                write_flag=rng.random() < 0.5,
                extra_byte_count=rng.randrange(8),
                register_address=rng.randrange(1024),
                data=rng.randrange(256),
            )
            assert decode_frame(encode_frame(frame)) == frame
        for write in (False, True):
            for extra in (0, 7):
                for addr in (0, 1023):
                    for data in (0, 255):
                        frame = SpiFrame(write, extra, addr, data)
                        assert decode_frame(encode_frame(frame)) == frame

        # stage law over 1 000 random timing profiles
        clocks = ClockConfig()
        for _ in range(1000):
            profile = TimingProfile(
                vco_cal_ns=rng.randrange(100_000),
                pll_lock_ns=rng.randrange(50_000),
                dac_powerup_ns=rng.randrange(50_000),
                flush_cycles=rng.randrange(2000),
                lo_div_powerup_ns=rng.randrange(2000),
                lo_div_powerdown_ns=rng.randrange(2000),
            )
            for mode in EnsmMode:
                for direction in Direction:
                    budget = turnaround_budget(mode, direction, clocks, profile)
                    stages = {}
                    for comp in budget.components:
                        stages[comp.stage] = max(
                            stages.get(comp.stage, 0), comp.duration_ns
                        )
                    assert sum(stages.values()) == budget.total_ns

        # burst filter against the brute-force oracle, plus idempotence
        frng = random.Random(2)
        for _ in range(500):
            series, _ = make_burst_series(frng, frng.randint(1, 300))
            guard = frng.choice((0, 2, 16))
            try:
                result = filter_packets(series, guard_samples=guard)
            except FilterRefusedError:
                keep = brute_force_keep_mask(series, 10.0, guard)
                assert (len(series) - sum(keep)) > 0.9 * len(series)
                continue
            assert list(result.keep_mask) == brute_force_keep_mask(
                series, 10.0, guard
            )
            again = filter_packets(list(result.series[result.keep_mask]),
                                   guard_samples=guard)
            assert again.samples_filtered == 0

        # scale covariance: x10 amplitude is +20 dB, within 1e-9 dB
        nrng = np.random.default_rng(3)
        base = nrng.integers(-3000, 3000, size=(1000, 2)).astype(np.int16)
        base[0] = (7, -7)
        scaled = (base.astype(np.int32) * 10).astype(np.int16)
        delta = average_power_db(IqCapture(scaled)) \
            - average_power_db(IqCapture(base))
        assert abs(delta - 20.0) <= 1e-9


def test_criterion_7_cli_determinism(capsys, tmp_path):
    with criterion(7, "CLI determinism"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noise.n_samples = 20000\nnoise.seed = 5\n")
        subcommands = [
            ["turnaround", "--all", "--format", "csv"],
            ["turnaround", "--mode", "lo-control", "--format", "table"],
            ["-c", str(cfg), "trace", "--format", "csv"],
            ["-c", str(cfg), "noise", "--mode", "fdd", "--band", "5g",
             "--format", "json"],
            ["comply", "--format", "csv"],
            ["config", "--dump"],
        ]
        for argv in subcommands:
            code_a = main(list(argv))
            first = capsys.readouterr()
            code_b = main(list(argv))
            second = capsys.readouterr()
            assert code_a == code_b == 0
            assert first.out.encode() == second.out.encode(), argv
            assert first.err.encode() == second.err.encode(), argv
