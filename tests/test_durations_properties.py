"""Exact durations on their integer paths.

A duration that comes out a whole number of ns is computed and returned
as a plain int, without `fractions`; any other is a Fraction. Each
property compares a function with the Fraction definition it replaces,
written out here, in value and in type.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zifsim.params import (
    FRAME_BITS,
    NS_PER_S,
    ClockConfig,
    cycles_to_ns,
    exact_ns,
    frame_duration_ns,
    ns_value,
)
from zifsim.steps import first_sample_at

PROFILE = settings(derandomize=True, deadline=None, max_examples=300, database=None)

# numpy integers too, below the int64 overflow of cycles * NS_PER_S
CYCLES = st.integers(0, 2**40) | st.integers(0, 2**33).map(np.int64)
# any clock, and clocks that divide 1e9 ns a cycle evenly or nearly so
CLOCKS = st.integers(1, 10**10) | st.sampled_from(
    (1, 3, 7, 10**6, 7 * 10**6, 25 * 10**6, 50 * 10**6, 160 * 10**6, 10**9, 3 * 10**9, 10**10))
FRACTIONS = st.fractions(max_denominator=10**10).filter(lambda f: abs(f) < 2**60)


def reference_exact(duration):
    """The Fraction definition: an int when integral, else the Fraction."""
    frac = Fraction(duration)
    return int(frac) if frac.denominator == 1 else frac


def reference_cycles(cycles, clock_hz):
    return reference_exact(Fraction(cycles * NS_PER_S, clock_hz))


def same(value, expected):
    return value == expected and type(value) is type(expected)


@PROFILE
@given(CYCLES, CLOCKS)
def test_cycles_to_ns_equals_the_fraction_definition(cycles, clock_hz):
    assert same(cycles_to_ns(cycles, clock_hz), reference_cycles(cycles, clock_hz))


@PROFILE
@given(CLOCKS)
def test_frame_duration_equals_the_fraction_definition(clock_hz):
    clocks = ClockConfig(spi_clock_hz=clock_hz, allow_spi_overclock=True)
    assert same(frame_duration_ns(clocks), reference_cycles(FRAME_BITS, clock_hz))


@PROFILE
@given(st.integers(-(2**62), 2**62) | FRACTIONS)
def test_ns_value_equals_the_fraction_definition(duration):
    expected = reference_exact(duration)
    assert same(ns_value(duration), expected if isinstance(expected, int) else float(expected))


@PROFILE
@given(st.integers(-(2**62), 2**62) | st.booleans() | FRACTIONS
       | st.integers(-(2**62), 2**62).map(np.int64) | st.integers(0, 255).map(np.uint8)
       | st.floats(allow_nan=False, allow_infinity=False))
def test_exact_ns_equals_the_fraction_definition(duration):
    assert same(exact_ns(duration), reference_exact(duration))


@PROFILE
@given(st.integers(-(2**53), 2**53) | FRACTIONS, st.integers(-(2**53), 2**53),
       st.integers(1, 10**6))
def test_first_sample_at_is_the_ceiling_division(time_ns, start_ns, interval_ns):
    expected = math.ceil(Fraction(time_ns - start_ns) / interval_ns)
    assert same(first_sample_at(time_ns, start_ns, interval_ns), expected)
