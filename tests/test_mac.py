"""Deadline definitions, single checks, and the compliance matrix."""

import random

import pytest

from zifsim import (
    BUILTIN_DEADLINES,
    EnsmMode,
    ProtocolDeadline,
    check,
    compliance_matrix,
    worst_case_tt_ns,
)

SIFS_2G4, SIFS_5G, NR_GUARD = BUILTIN_DEADLINES


def test_builtin_deadline_values():
    assert (SIFS_2G4.name, SIFS_2G4.deadline_ns) == ("sifs-2g4", 10_000)
    assert (SIFS_5G.name, SIFS_5G.deadline_ns) == ("sifs-5g", 16_000)
    assert (NR_GUARD.name, NR_GUARD.deadline_ns) == ("nr-guard-120khz", 17_840)


def test_check_known_results():
    result = check(640, SIFS_2G4)
    assert result.passed and result.margin_ns == 9_360
    result = check(55_000, SIFS_5G)
    assert not result.passed and result.margin_ns == -39_000
    boundary = check(10_000, SIFS_2G4)
    assert boundary.passed and boundary.margin_ns == 0


def test_check_rejects_negative_tt():
    with pytest.raises(ValueError):
        check(-1, SIFS_2G4)


def test_deadline_must_be_positive():
    with pytest.raises(ValueError):
        ProtocolDeadline("never", 0)


@pytest.mark.parametrize("build, field", [
    (lambda: ProtocolDeadline("x", float("nan")), "deadline_ns"),
    (lambda: ProtocolDeadline("x", 1.5), "deadline_ns"),
    (lambda: check(float("nan"), SIFS_2G4), "tt_ns"),
], ids=["nan-deadline", "fractional-deadline", "nan-tt"])
def test_nan_and_fractional_values_are_refused(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_check_anti_monotone_in_tt():
    rng = random.Random(31415)
    for _ in range(500):
        deadline = ProtocolDeadline("d", rng.randrange(1, 100_000))
        tt_a = rng.randrange(0, 120_000)
        tt_b = rng.randrange(0, 120_000)
        lo, hi = sorted((tt_a, tt_b))
        if check(hi, deadline).passed:
            assert check(lo, deadline).passed
        # margin consistency: pass exactly when the margin is non-negative
        for tt in (lo, hi):
            result = check(tt, deadline)
            assert result.passed == (result.margin_ns >= 0)


def test_worst_case_uses_the_slower_direction(clocks, profile):
    expected = {
        EnsmMode.STANDARD_ENSM_TDD: 55_000,
        EnsmMode.STANDARD_TDD: 18_000,
        EnsmMode.STANDARD_TDD_DUAL_SYNTH: 18_000,
        EnsmMode.FDD_INDEPENDENT: 18_000,
        EnsmMode.FDD: 0,
        EnsmMode.LO_CONTROL: 640,
    }
    for mode, total in expected.items():
        assert worst_case_tt_ns(mode, clocks, profile) == total


def test_matrix_boolean_table(clocks, profile):
    results = compliance_matrix(clocks, profile, BUILTIN_DEADLINES)
    assert len(results) == 18
    table = {(r.mode, r.deadline.name): r.passed for r in results}
    passing_modes = {EnsmMode.FDD, EnsmMode.LO_CONTROL}
    for mode in EnsmMode:
        for deadline in BUILTIN_DEADLINES:
            assert table[(mode, deadline.name)] == (mode in passing_modes)


def test_matrix_is_pointwise_check(clocks, profile):
    rng = random.Random(2718)
    deadlines = [
        ProtocolDeadline(f"d{k}", rng.randrange(1, 60_000)) for k in range(5)
    ]
    results = compliance_matrix(clocks, profile, deadlines)
    assert [(r.mode, r.deadline.name) for r in results] == [
        (mode, d.name) for mode in EnsmMode for d in deadlines
    ]
    for result in results:
        tt = worst_case_tt_ns(result.mode, clocks, profile)
        independent = check(tt, result.deadline, mode=result.mode)
        assert independent == result


def test_fdd_passes_every_positive_deadline(clocks, profile):
    rng = random.Random(161803)
    deadlines = [ProtocolDeadline(f"d{k}", rng.randrange(1, 10**9))
                 for k in range(50)]
    for result in compliance_matrix(clocks, profile, deadlines):
        if result.mode is EnsmMode.FDD:
            assert result.passed


def test_matrix_rejects_empty_deadlines(clocks, profile):
    with pytest.raises(ValueError):
        compliance_matrix(clocks, profile, [])
