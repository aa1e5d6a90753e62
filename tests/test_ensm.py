"""Turnaround budget construction and the stage law."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from zifsim import (
    ClockConfig,
    Direction,
    EnsmMode,
    TimingProfile,
    flush_time_ns,
    frame_duration_ns,
    sweep_budgets,
    turnaround_budget,
)

ALL_MODES = list(EnsmMode)
BOTH = (Direction.RX_TO_TX, Direction.TX_TO_RX)


def test_flush_time_known_values(profile):
    assert flush_time_ns(ClockConfig(), profile) == 2400
    assert flush_time_ns(ClockConfig(adc_clock_hz=384_000_000), profile) == 1000
    assert flush_time_ns(ClockConfig(), TimingProfile(flush_cycles=0)) == 0


def test_default_totals(clocks, profile):
    expected = {
        (EnsmMode.STANDARD_ENSM_TDD, Direction.RX_TO_TX): 55_000,
        (EnsmMode.STANDARD_ENSM_TDD, Direction.TX_TO_RX): 52_000,
        (EnsmMode.STANDARD_TDD, Direction.RX_TO_TX): 18_000,
        (EnsmMode.STANDARD_TDD, Direction.TX_TO_RX): 15_000,
        (EnsmMode.STANDARD_TDD_DUAL_SYNTH, Direction.RX_TO_TX): 18_000,
        (EnsmMode.STANDARD_TDD_DUAL_SYNTH, Direction.TX_TO_RX): 2_400,
        (EnsmMode.FDD_INDEPENDENT, Direction.RX_TO_TX): 18_000,
        (EnsmMode.FDD_INDEPENDENT, Direction.TX_TO_RX): 0,
        (EnsmMode.FDD, Direction.RX_TO_TX): 0,
        (EnsmMode.FDD, Direction.TX_TO_RX): 0,
        (EnsmMode.LO_CONTROL, Direction.RX_TO_TX): 640,
        (EnsmMode.LO_CONTROL, Direction.TX_TO_RX): 500,
    }
    for (mode, direction), total in expected.items():
        budget = turnaround_budget(mode, direction, clocks, profile)
        assert budget.total_ns == total, (mode, direction)
        assert isinstance(budget.total_ns, int)


def test_default_ordering_regression(clocks, profile):
    def worst(mode):
        return max(
            turnaround_budget(mode, d, clocks, profile).total_ns for d in BOTH
        )

    assert worst(EnsmMode.FDD) < worst(EnsmMode.LO_CONTROL)
    assert worst(EnsmMode.LO_CONTROL) <= 640
    assert (
        worst(EnsmMode.LO_CONTROL)
        < worst(EnsmMode.STANDARD_TDD)
        == worst(EnsmMode.STANDARD_TDD_DUAL_SYNTH)
        == worst(EnsmMode.FDD_INDEPENDENT)
        < worst(EnsmMode.STANDARD_ENSM_TDD)
    )


def test_ensm_tdd_stage_structure(clocks, profile):
    budget = turnaround_budget(
        EnsmMode.STANDARD_ENSM_TDD, Direction.RX_TO_TX, clocks, profile
    )
    by_name = {c.name: c for c in budget.components}
    assert by_name["vco_cal"].stage == 0
    assert {by_name[n].stage for n in ("pll_lock", "dac_powerup", "flush")} == {1}
    assert by_name["flush"].duration_ns == 2400


def test_tx_to_rx_drops_only_the_dac(clocks, profile):
    for mode in (EnsmMode.STANDARD_ENSM_TDD, EnsmMode.STANDARD_TDD,
                 EnsmMode.STANDARD_TDD_DUAL_SYNTH, EnsmMode.FDD_INDEPENDENT):
        to_tx = turnaround_budget(mode, Direction.RX_TO_TX, clocks, profile)
        to_rx = turnaround_budget(mode, Direction.TX_TO_RX, clocks, profile)
        names_tx = [c.name for c in to_tx.components]
        names_rx = [c.name for c in to_rx.components]
        assert "dac_powerup" in names_tx
        assert "dac_powerup" not in names_rx
        assert names_rx == [n for n in names_tx if n != "dac_powerup"]


def test_flush_persists_on_tx_to_rx_where_modeled(clocks, profile):
    for mode in (EnsmMode.STANDARD_ENSM_TDD, EnsmMode.STANDARD_TDD,
                 EnsmMode.STANDARD_TDD_DUAL_SYNTH):
        budget = turnaround_budget(mode, Direction.TX_TO_RX, clocks, profile)
        assert "flush" in [c.name for c in budget.components]


def test_lo_control_is_strictly_sequential(clocks, profile):
    budget = turnaround_budget(EnsmMode.LO_CONTROL, Direction.RX_TO_TX, clocks, profile)
    assert [(c.name, c.stage) for c in budget.components] == [
        ("spi_frame", 0),
        ("lo_div_powerup", 1),
    ]
    down = turnaround_budget(EnsmMode.LO_CONTROL, Direction.TX_TO_RX, clocks, profile)
    assert [(c.name, c.stage) for c in down.components] == [
        ("spi_frame", 0),
        ("lo_div_powerdown", 1),
    ]


def test_fdd_budget_is_empty(clocks, profile):
    for direction in BOTH:
        budget = turnaround_budget(EnsmMode.FDD, direction, clocks, profile)
        assert budget.components == ()
        assert budget.total_ns == 0


def test_stage_law_recompute_matches_stored_total(clocks, profile):
    for mode in ALL_MODES:
        for direction in BOTH:
            budget = turnaround_budget(mode, direction, clocks, profile)
            assert budget.total_ns == _expected_total(mode, direction, clocks, profile)


def _expected_total(mode, direction, clocks, profile):
    """Independent closed-form expressions, not the stage machinery."""
    flush = flush_time_ns(clocks, profile)
    to_tx = direction is Direction.RX_TO_TX
    if mode is EnsmMode.STANDARD_ENSM_TDD:
        parallel = (profile.pll_lock_ns, profile.dac_powerup_ns, flush) if to_tx \
            else (profile.pll_lock_ns, flush)
        return profile.vco_cal_ns + max(parallel)
    if mode is EnsmMode.STANDARD_TDD:
        return max(profile.pll_lock_ns, profile.dac_powerup_ns, flush) if to_tx \
            else max(profile.pll_lock_ns, flush)
    if mode is EnsmMode.STANDARD_TDD_DUAL_SYNTH:
        return max(profile.dac_powerup_ns, flush) if to_tx else flush
    if mode is EnsmMode.FDD_INDEPENDENT:
        return profile.dac_powerup_ns if to_tx else 0
    if mode is EnsmMode.FDD:
        return 0
    tail = profile.lo_div_powerup_ns if to_tx else profile.lo_div_powerdown_ns
    return frame_duration_ns(clocks) + tail


def test_stage_law_random_profiles(clocks):
    rng = random.Random(909)
    for _ in range(1000):
        profile = TimingProfile(
            vco_cal_ns=rng.randrange(0, 100_000),
            pll_lock_ns=rng.randrange(0, 50_000),
            dac_powerup_ns=rng.randrange(0, 50_000),
            flush_cycles=rng.randrange(0, 2000),
            lo_div_powerup_ns=rng.randrange(0, 2_000),
            lo_div_powerdown_ns=rng.randrange(0, 2_000),
        )
        for mode in ALL_MODES:
            for direction in BOTH:
                budget = turnaround_budget(mode, direction, clocks, profile)
                assert budget.total_ns == _expected_total(
                    mode, direction, clocks, profile
                )


def test_monotonicity_in_profile_components(clocks, profile):
    bumped_fields = ("vco_cal_ns", "pll_lock_ns", "dac_powerup_ns",
                     "flush_cycles", "lo_div_powerup_ns", "lo_div_powerdown_ns")
    base = {
        (m, d): turnaround_budget(m, d, clocks, profile).total_ns
        for m in ALL_MODES for d in BOTH
    }
    for name in bumped_fields:
        kwargs = {name: getattr(profile, name) + 1000}
        bumped = TimingProfile(**{**_profile_dict(profile), **kwargs})
        for (mode, direction), total in base.items():
            assert turnaround_budget(mode, direction, clocks, bumped).total_ns >= total


def _profile_dict(profile):
    return {
        "vco_cal_ns": profile.vco_cal_ns,
        "pll_lock_ns": profile.pll_lock_ns,
        "dac_powerup_ns": profile.dac_powerup_ns,
        "flush_cycles": profile.flush_cycles,
        "lo_div_powerup_ns": profile.lo_div_powerup_ns,
        "lo_div_powerdown_ns": profile.lo_div_powerdown_ns,
    }


def test_lo_control_scales_with_spi_clock(profile):
    # the SPI term scales like the frame duration; lo_div terms do not
    for hz in (10_000_000, 25_000_000, 50_000_000):
        clocks = ClockConfig(spi_clock_hz=hz)
        budget = turnaround_budget(EnsmMode.LO_CONTROL, Direction.RX_TO_TX,
                                   clocks, profile)
        assert budget.total_ns == frame_duration_ns(clocks) + profile.lo_div_powerup_ns


def test_exact_rational_totals_for_odd_clocks(profile):
    clocks = ClockConfig(adc_clock_hz=7_000_000, spi_clock_hz=7_000_000)
    budget = turnaround_budget(EnsmMode.LO_CONTROL, Direction.TX_TO_RX,
                               clocks, profile)
    assert budget.total_ns == Fraction(24_000, 7) + 20


def test_bogus_mode_and_direction_rejected(clocks, profile):
    with pytest.raises(ValueError):
        turnaround_budget("bogus", Direction.RX_TO_TX, clocks, profile)
    with pytest.raises(ValueError):
        turnaround_budget(EnsmMode.FDD, "sideways", clocks, profile)


def test_sweep_order_and_size(clocks, profile):
    rows = sweep_budgets(ALL_MODES, clocks, profile)
    assert len(rows) == 12
    assert [(b.mode, b.direction) for b in rows[:2]] == [
        (EnsmMode.STANDARD_ENSM_TDD, Direction.RX_TO_TX),
        (EnsmMode.STANDARD_ENSM_TDD, Direction.TX_TO_RX),
    ]
    assert sweep_budgets([], clocks, profile) == []
    lo_only = sweep_budgets([EnsmMode.LO_CONTROL], clocks, profile)
    assert [b.total_ns for b in lo_only] == [640, 500]


def _record(budget):
    # the golden record is the budget's own fields; the CLI's json rows are
    # the budget writer (test_cli.py)
    return {
        "mode": budget.mode.value,
        "direction": budget.direction.value,
        "total_ns": budget.total_ns,
        "components": [
            {"name": c.name, "stage": c.stage, "duration_ns": c.duration_ns}
            for c in budget.components
        ],
    }


def test_budget_record_shape(clocks, profile):
    record = _record(
        turnaround_budget(EnsmMode.LO_CONTROL, Direction.RX_TO_TX, clocks, profile)
    )
    assert record == {
        "mode": "lo-control",
        "direction": "rx-tx",
        "total_ns": 640,
        "components": [
            {"name": "spi_frame", "stage": 0, "duration_ns": 480},
            {"name": "lo_div_powerup", "stage": 1, "duration_ns": 160},
        ],
    }
    json.dumps(record)  # must be JSON-serializable as-is


def test_budget_record_golden(clocks, profile):
    record = _record(
        turnaround_budget(EnsmMode.LO_CONTROL, Direction.RX_TO_TX, clocks, profile)
    )
    golden = Path(__file__).parent / "golden" / "budget_lo_control_rx_tx.json"
    assert json.dumps(record, indent=2) + "\n" == golden.read_text()
