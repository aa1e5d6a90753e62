"""One rule for every value type: a field's declared type is its check.

Each value type is walked through `field_types`, so a new field is covered
without an edit here.
"""

import math
import typing
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zifsim import (
    Band,
    ClockConfig,
    Command,
    CommandKind,
    IqCapture,
    LoDividerConfig,
    NoiseSettings,
    ProtocolDeadline,
    RfModelParams,
    SpiFrame,
    TimingProfile,
    TraceSettings,
)
from zifsim.params import field_types

PROFILE = settings(derandomize=True, deadline=None, max_examples=200, database=None)

# each value type, with the arguments it needs beyond its defaults
VALUE_TYPES = (
    (ClockConfig, {}),
    (TimingProfile, {}),
    (RfModelParams, {}),
    (Command, {"time_ns": 0, "kind": CommandKind.LO_ON}),
    (TraceSettings, {}),
    (NoiseSettings, {}),
    (ProtocolDeadline, {"name": "tight", "deadline_ns": 600}),
    (IqCapture, {"samples": np.zeros((2, 2), dtype=np.int16)}),
    (SpiFrame, {}),
    (LoDividerConfig, {}),
)
NOT_INTEGERS = (5.0, Fraction(4), math.nan, math.inf, "5", None)
NOT_FINITE = (math.nan, math.inf, -math.inf)
NOT_NUMBERS = ("5", "x", None)
NOT_BOOLS = ("false", 1)


def refused(cls, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        cls(**kwargs)


def enum_members(kind) -> tuple:
    """The members of an Enum field's type, or of the Enum in an Enum | None."""
    return tuple(m for m in typing.get_args(kind) or (kind,)
                 if isinstance(m, type) and issubclass(m, Enum))


@PROFILE
@given(st.sampled_from(VALUE_TYPES), st.floats() | st.fractions() | st.text(max_size=3),
       st.integers() | st.text(max_size=3), st.text(max_size=3))
def test_a_fields_type_is_its_check(value_type, not_integer, not_bool, not_number):
    cls, base = value_type
    valid = cls(**base)
    for name, kind in field_types(cls):
        value = getattr(valid, name)
        if kind is int:
            for bad in (*NOT_INTEGERS, not_integer):
                refused(cls, {**base, name: bad}, name)
            stored = getattr(cls(**{**base, name: np.int64(value)}), name)
            assert type(stored) is int and stored == value
        elif kind is float:
            for bad in (*NOT_FINITE, *NOT_NUMBERS, not_number):
                refused(cls, {**base, name: bad}, name)
            assert getattr(cls(**{**base, name: int(value)}), name) == value  # an int is a number
        elif kind is bool:
            for bad in (*NOT_BOOLS, not_bool):
                refused(cls, {**base, name: bad}, name)
        elif kind == dict[Band, float]:
            for band in Band:
                for bad in (*NOT_FINITE, *NOT_NUMBERS, not_number):
                    refused(cls, {**base, name: {**value, band: bad}}, name)
        elif enums := enum_members(kind):
            # a member's value or name, a code, or a member of another Enum
            (enum,) = enums
            other = CommandKind.LO_ON if enum is not CommandKind else Band.B2G4
            for member in enum:
                for bad in (member.value, member.name, 0, other, not_number):
                    refused(cls, {**base, name: bad}, name)
                assert getattr(cls(**{**base, name: member}), name) is member
            if type(None) in typing.get_args(kind):
                assert getattr(cls(**{**base, name: None}), name) is None
            else:
                refused(cls, {**base, name: None}, name)
