"""Clock and timing parameters shared by the timing model and the SPI codec.

All frequencies are integer hertz and all durations integer nanoseconds, so
every derived duration is an exact rational number. Durations that come out
integral are normalized to plain ints; everything else stays a Fraction.
"""

import functools
import typing
from dataclasses import dataclass, fields
from fractions import Fraction

NS_PER_S = 1_000_000_000

# Times and delays stay below 2**53 ns (about 104 days): every such time
# has an exact float64 value, which keeps rendered microseconds exact, and
# sums of a few of them stay exact in int64.
TIME_LIMIT_NS = 2**53


def exact_ns(duration) -> int | Fraction:
    """An exact duration as a plain int when integral, else a Fraction."""
    frac = Fraction(duration)
    return int(frac) if frac.denominator == 1 else frac


def cycles_to_ns(cycles: int, clock_hz: int) -> int | Fraction:
    """Exact duration of `cycles` periods of a `clock_hz` clock, in ns."""
    if clock_hz <= 0:
        raise ValueError(f"clock_hz must be positive, got {clock_hz}")
    return exact_ns(Fraction(cycles * NS_PER_S, clock_hz))


def ns_value(duration) -> int | float:
    """Collapse an exact duration to an int when integral, else a float.

    Used only at serialization boundaries (CSV/JSON); internal arithmetic
    stays rational.
    """
    value = exact_ns(duration)
    return float(value) if isinstance(value, Fraction) else value


@functools.cache
def field_types(cls) -> tuple:
    """(name, resolved type) of each field of dataclass `cls`, in order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


@dataclass(frozen=True)
class ClockConfig:
    """Clock tree settings that parameterize the timing formulas."""

    ref_clock_hz: int = 40_000_000
    adc_clock_hz: int = 160_000_000
    spi_clock_hz: int = 50_000_000
    # Lets what-if analyses push the SPI clock past the device ceiling.
    allow_spi_overclock: bool = False

    def __post_init__(self):
        for name in (n for n, kind in field_types(type(self)) if kind is int):
            value = getattr(self, name)
            if value != int(value):
                raise ValueError(f"{name} must be an integer hertz value, got {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class TimingProfile:
    """Per-component switching durations of the modeled front-end.

    Defaults describe an AD9361-class transceiver: synthesizer calibration
    and lock, Tx DAC power-up, data-path flushing (in ADC clock cycles, not
    ns), and the much faster LO-divider power transitions.
    """

    vco_cal_ns: int = 37_000
    pll_lock_ns: int = 15_000
    dac_powerup_ns: int = 18_000
    flush_cycles: int = 384
    lo_div_powerup_ns: int = 160
    lo_div_powerdown_ns: int = 20

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if value != int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, int(value))
        for name in ("lo_div_powerup_ns", "lo_div_powerdown_ns"):
            if getattr(self, name) >= TIME_LIMIT_NS:
                raise ValueError(f"{name} must be below 2**53 ns, got {getattr(self, name)}")
