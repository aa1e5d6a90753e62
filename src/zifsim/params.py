"""Parameters and value types shared by the model layers and the config.

All frequencies are integer hertz and all durations integer nanoseconds, so
every derived duration is an exact rational number. Durations that come out
integral are plain ints, worked out in integer arithmetic; everything else
is a Fraction. `fractions` is imported at the first non-integral duration,
so a call at clocks that divide evenly never loads it, and the annotations
that name `Fraction` are strings.

The module imports no numpy: the budget, compliance and config paths build
every setting from here without loading the array layers (`rf`, `sim`).
The rules the trace's two pipelines share live in `steps`, which only
`trace` loads; `check_sampling`, which `config` reads, stays here.
"""

import functools
import math
import operator
import types
from array import array
from enum import Enum

NS_PER_S = 1_000_000_000

# Times and delays stay below 2**53 ns (about 104 days): every such time
# has an exact float64 value, which keeps rendered microseconds exact, and
# sums of a few of them stay exact in int64.
TIME_LIMIT_NS = 2**53

# Device ceiling for the serial clock; ClockConfig rejects a faster one
# unless allow_spi_overclock is set.
SPI_MAX_HZ = 50_000_000

# Bits on the wire of one single-register write (see `spi` for the layout).
FRAME_BITS = 24


def exact_ns(duration) -> "int | Fraction":
    """An exact duration as a plain int when integral, else a Fraction."""
    if isinstance(duration, int):
        return int(duration)
    from fractions import Fraction

    frac = Fraction(duration)
    return int(frac) if frac.denominator == 1 else frac


def cycles_to_ns(cycles: int, clock_hz: int) -> "int | Fraction":
    """Exact duration of `cycles` periods of a `clock_hz` clock, in ns."""
    if clock_hz <= 0:
        raise ValueError(f"clock_hz must be positive, got {clock_hz}")
    ns, rest = divmod(cycles * NS_PER_S, clock_hz)
    if rest or type(ns) is not int:  # a fraction of a ns, or no plain ints
        from fractions import Fraction

        return exact_ns(Fraction(cycles * NS_PER_S, clock_hz))
    return ns


def frame_duration_ns(clocks: "ClockConfig") -> "int | Fraction":
    """Wire time of one 24-bit frame at the configured SPI clock, exact ns."""
    return cycles_to_ns(FRAME_BITS, clocks.spi_clock_hz)


def ns_value(duration) -> "int | float":
    """Collapse an exact duration to an int when integral, else a float.

    Used only at serialization boundaries (CSV/JSON); internal arithmetic
    stays rational.
    """
    value = exact_ns(duration)
    return value if isinstance(value, int) else float(value)


class Field:
    """A Record field's default, a value or a `factory` called per instance
    (neither: the field is required), and the width in `bits` of an int."""

    __slots__ = ("factory", "bits")

    def __init__(self, *default, factory=None, bits=None):
        self.factory, self.bits = (lambda: default[0]) if default else factory, bits


class Record:
    """Base of the value types: each annotated class attribute is a field,
    and `fields` holds each one's (name, type, bits), read once, with no
    generated code. A record takes its fields by position or keyword, runs
    `__post_init__`, prints and compares by them within its class, and
    `replace` rebuilds it through the checks. Frozen (the default), it
    refuses changes and hashes its fields; `frozen=False` makes it mutable
    and unhashable. A record that holds an array is equal only to itself,
    set in its class body, since arrays compare element by element."""

    fields = ()
    _factories = {}

    def __init_subclass__(cls, frozen=True):
        table, factories = {f[0]: f for f in cls.fields}, dict(cls._factories)
        for name, kind in cls.__annotations__.items():  # this class's own
            spec = cls.__dict__.get(name, Field())
            spec = spec if isinstance(spec, Field) else Field(spec)
            table[name], factories[name] = (name, kind, spec.bits), spec.factory
        cls.fields, cls._factories = tuple(table.values()), factories
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse_change
        elif "__hash__" not in cls.__dict__:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        factories, values = self._factories, dict(zip(self._factories, args))
        if len(values) < len(args) or values.keys() & kwargs or kwargs.keys() - factories.keys():
            raise TypeError(f"{type(self).__qualname__}() takes each field at most once: "
                            + ", ".join(factories))
        values.update(kwargs)
        for name, factory in factories.items():  # in field order
            if name not in values and factory is None:
                raise TypeError(f"{type(self).__qualname__}() missing field {name!r}")
            self.__dict__[name] = values[name] if name in values else factory()
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; the base checks nothing."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._factories)

    def __repr__(self):
        items = (f"{name}={value!r}" for name, value in zip(self._factories, self._values()))
        return f"{type(self).__qualname__}({', '.join(items)})"

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def replace(self, **changes):
        """A copy with `changes` applied, built and checked as new."""
        return type(self)(**dict(zip(self._factories, self._values()), **changes))

    def _refuse_change(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r} "
                             f"of frozen {type(self).__qualname__}")


class Band(Enum):
    B2G4 = "2g4"  # Wi-Fi channel 1
    B5G = "5g"  # Wi-Fi channel 44


class EnsmMode(Enum):
    """Duplexing / switching strategies of the modeled front-end."""

    STANDARD_ENSM_TDD = "standard-ensm-tdd"
    STANDARD_TDD = "standard-tdd"
    STANDARD_TDD_DUAL_SYNTH = "standard-tdd-dual-synth"
    FDD_INDEPENDENT = "fdd-independent"
    FDD = "fdd"
    LO_CONTROL = "lo-control"


class Direction(Enum):
    """Switching directions, in the order sweeps list them."""

    RX_TO_TX = "rx-tx"
    TX_TO_RX = "tx-rx"


_PerBand = dict[Band, float]


def _per_band(b2g4: float, b5g: float) -> _PerBand:
    return {Band.B2G4: b2g4, Band.B5G: b5g}


def integer(name: str, value, bits: int | None = None) -> int:
    """`value`, an int or numpy integer (not a float, even 5.0), as a plain
    int; with `bits`, unsigned within that width. ValueError names `name`."""
    try:
        number = operator.index(value)
        if bits is None or 0 <= number < 1 << bits:
            return number
    except TypeError:
        pass
    fits = "" if bits is None else f" that fits {bits} bits"
    raise ValueError(f"{name} must be an integer{fits}, got {value!r}")


def _finite(name: str, value, where: str = "") -> None:
    """Raise ValueError, naming `name`, unless `value` is a finite real number."""
    try:
        if math.isfinite(value):
            return
    except TypeError:  # a string, None or other non-number
        raise ValueError(f"{name} must be a real number{where}, got {value!r}") from None
    raise ValueError(f"{name} must be finite{where}, got {value!r}")


@functools.cache
def _enum_names(kind) -> str | None:
    """How a message names an Enum type or an Enum | None union ("Band",
    "Band or None"); None for any other type."""
    members = kind.__args__ if isinstance(kind, types.UnionType) else (kind,)
    names = ["None" if m is types.NoneType else m.__name__ for m in members
             if m is types.NoneType or isinstance(m, type) and issubclass(m, Enum)]
    return " or ".join(names) if len(names) == len(members) else None


def check_fields(obj) -> None:
    """Check the fields of Record `obj` by declared type, each error
    naming its field first: `int` fields pass `integer` (bits from the
    field table) and are stored as plain ints, `float` values must be finite
    real numbers, per-band values a dict of such numbers keyed by exactly
    the Band members, `bool` fields must hold a bool, and an
    Enum field (or Enum | None) must hold a member (or None)."""
    for name, kind, bits in obj.fields:
        value = getattr(obj, name)
        if kind is int:
            obj.__dict__[name] = integer(name, value, bits)
        elif kind is bool and not isinstance(value, bool):
            raise ValueError(f"{name} must be a bool, got {value!r}")
        elif kind is float:
            _finite(name, value)
        elif kind == _PerBand:
            if not isinstance(value, dict) or set(value) != set(Band):
                raise ValueError(f"{name} must be a dict with one value per Band, got {value!r}")
            for band in Band:
                _finite(name, value[band], f" for band {band.value}")
        elif (names := _enum_names(kind)) and not isinstance(value, kind):
            raise ValueError(f"{name} must be a {names}, got {value!r}")


class ClockConfig(Record):
    """Clock tree settings that parameterize the timing formulas."""

    ref_clock_hz: int = 40_000_000
    adc_clock_hz: int = 160_000_000
    spi_clock_hz: int = 50_000_000
    # Lets what-if analyses push the SPI clock past the device ceiling.
    allow_spi_overclock: bool = False

    def __post_init__(self):
        check_fields(self)
        for name in (name for name, kind, _ in self.fields if kind is int):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.spi_clock_hz > SPI_MAX_HZ and not self.allow_spi_overclock:
            raise ValueError(
                f"spi_clock_hz {self.spi_clock_hz} exceeds the device maximum "
                f"{SPI_MAX_HZ}; set allow_spi_overclock to force"
            )


class TimingProfile(Record):
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
        check_fields(self)
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        for name in ("lo_div_powerup_ns", "lo_div_powerdown_ns"):
            if getattr(self, name) >= TIME_LIMIT_NS:
                raise ValueError(f"{name} must be below 2**53 ns, got {getattr(self, name)}")


class RfModelParams(Record):
    """Calibrated power levels, per band where leakage is band-dependent."""

    # Tx power step when the LO divider comes up, relative to LO-off.
    lo_on_delta_db: _PerBand = Field(factory=lambda: _per_band(30.0, 22.0))
    # Rx noise floor per switching strategy.
    base_rx_floor_db: _PerBand = Field(factory=lambda: _per_band(53.3, 53.7))
    fdd_rx_floor_db: _PerBand = Field(factory=lambda: _per_band(66.4, 58.0))
    locontrol_rx_floor_db: _PerBand = Field(factory=lambda: _per_band(53.0, 53.4))
    # Extra step at packet start; trace cosmetics only.
    packet_delta_db: float = 15.0
    # Manual AGC setting the floors were calibrated at; metadata only.
    agc_gain_db: float = 62.0

    def __post_init__(self):
        check_fields(self)
        for band in Band:
            if self.fdd_rx_floor_db[band] < self.locontrol_rx_floor_db[band]:
                raise ValueError(
                    f"fdd_rx_floor_db below locontrol_rx_floor_db for band {band.value}"
                )
            packet_db = self.lo_on_delta_db[band] + self.packet_delta_db  # the trace's level
            if not math.isfinite(packet_db):
                raise ValueError(f"lo_on_delta_db + packet_delta_db must be finite for band "
                                 f"{band.value}, got {packet_db}")


class CommandKind(Enum):
    LO_ON = "lo-on"
    LO_OFF = "lo-off"
    TX_PACKET_START = "tx-packet-start"
    TX_PACKET_END = "tx-packet-end"
    TRIGGER = "trigger"


# Column code of a command kind: its position in member order.
COMMAND_KINDS = tuple(CommandKind)
_CODE_BYTES = bytes(range(len(COMMAND_KINDS)))


def check_command_time(time_ns: int) -> None:
    """Raise ValueError unless `time_ns` is a valid command time."""
    if time_ns < 0:
        raise ValueError(f"command time must be non-negative, got {time_ns}")
    if time_ns >= TIME_LIMIT_NS:
        raise ValueError(f"command time must be below 2**53 ns, got {time_ns}")


def _column(values, typecode: str, name: str) -> array:
    """`values` as an array of `typecode`, copied unless already one."""
    if isinstance(values, array) and values.typecode == typecode:
        return values
    try:
        return array(typecode, values)
    except (TypeError, OverflowError) as exc:  # a value that is no such integer
        raise ValueError(f"{name} must hold integers of array type {typecode!r}: {exc}") from None


class Schedule:
    """A command schedule as two columns, one entry per command in
    schedule order: `times_ns`, an array('q') of command times in ns, and
    `kinds`, an array('b') of COMMAND_KINDS codes. Other integer sequences
    are copied into such arrays.

    Config text parses straight into the columns, with no object per
    command. Not a Record: the Record fields of a RunConfig are its
    settings sections.
    """

    __slots__ = ("times_ns", "kinds")

    def __init__(self, times_ns=(), kinds=()):
        times_ns = _column(times_ns, "q", "times_ns")
        kinds = _column(kinds, "b", "kinds")
        if len(times_ns) != len(kinds):
            raise ValueError(
                f"times_ns and kinds differ in length: {len(times_ns)} and {len(kinds)}"
            )
        if times_ns:
            check_command_time(min(times_ns))
            check_command_time(max(times_ns))
        if kinds.tobytes().translate(None, _CODE_BYTES):  # a byte that is no code
            raise ValueError(f"command kind codes must lie in 0..{len(COMMAND_KINDS) - 1}")
        self.times_ns = times_ns
        self.kinds = kinds

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.times_ns == other.times_ns and self.kinds == other.kinds

    def __repr__(self):
        return f"Schedule({self.times_ns!r}, {self.kinds!r})"

    def __len__(self):
        """The number of commands."""
        return len(self.times_ns)


def check_sampling(start_ns, end_ns, interval_ns, settling_tau_ns) -> None:
    """Raise ValueError unless the window, interval and tau can be sampled."""
    for name, value in (("start_ns", start_ns), ("end_ns", end_ns), ("interval_ns", interval_ns)):
        integer(name, value)
    if not 0 < interval_ns < TIME_LIMIT_NS:
        raise ValueError(f"interval_ns must be positive and below 2**53, got {interval_ns}")
    if end_ns < start_ns:
        raise ValueError(f"end_ns must not precede start_ns, got {start_ns}..{end_ns}")
    if not (-TIME_LIMIT_NS < start_ns and end_ns < TIME_LIMIT_NS):
        raise ValueError(
            f"start_ns and end_ns must lie within +/-2**53 ns, got {start_ns}..{end_ns}"
        )
    if not (settling_tau_ns >= 0 and math.isfinite(settling_tau_ns)):
        raise ValueError(
            f"settling_tau_ns must be non-negative and finite, got {settling_tau_ns}"
        )
