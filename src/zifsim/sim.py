"""Discrete-event timeline for LO switching and Tx power sampling.

A command schedule (register writes, packet markers, an optional trigger)
expands into timed events with the wire and power-up latencies applied,
and the event list can then be sampled onto a uniform grid the way a
signal analyzer in zero-span mode would see it. Traces are float64
arrays; sampling, step measurement and text rendering work on whole
columns.
"""

import bisect
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import attrgetter

import numpy as np

from .ensm import Direction
from .errors import MeasurementError, OverlappingSpiError, ScheduleError
from .params import ClockConfig, TimingProfile
from .rf import Band, RfModelParams
from .spi import frame_duration_ns


class CommandKind(Enum):
    LO_ON = "lo-on"
    LO_OFF = "lo-off"
    TX_PACKET_START = "tx-packet-start"
    TX_PACKET_END = "tx-packet-end"
    TRIGGER = "trigger"


@dataclass(frozen=True)
class Command:
    time_ns: int
    kind: CommandKind

    def __post_init__(self):
        if self.time_ns < 0:
            raise ValueError(f"command time must be non-negative, got {self.time_ns}")


class Effect(Enum):
    SPI_START = "spi-start"
    SPI_END = "spi-end"
    LO_POWERED_UP = "lo-powered-up"
    LO_POWERED_DOWN = "lo-powered-down"
    PACKET_ON = "packet-on"
    PACKET_OFF = "packet-off"


@dataclass(frozen=True)
class SimEvent:
    time_ns: int | Fraction
    effect: Effect
    power_after_dbr: float
    # set when the event is legal for the hardware but suspicious for the
    # protocol, e.g. a packet transmitted with the LO divider down
    warning: str | None = None


@dataclass(frozen=True)
class Timeline:
    """An expanded schedule: its events in time order and the power level
    in force before the first of them."""

    events: list[SimEvent]
    initial_dbr: float = 0.0

    def __len__(self):
        """The number of events."""
        return len(self.events)


def _level(lo_on: bool, packet_on: bool, band: Band, rf: RfModelParams) -> float:
    if not lo_on:
        return 0.0
    level = rf.lo_on_delta_db[band]
    if packet_on:
        level += rf.packet_delta_db
    return level


def _validate_schedule(commands):
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
                raise ScheduleError(
                    f"packet start at {cmd.time_ns} ns inside an open packet"
                )
            packet_open = True
        elif cmd.kind is CommandKind.TX_PACKET_END:
            if not packet_open:
                raise ScheduleError(
                    f"packet end at {cmd.time_ns} ns without a matching start"
                )
            packet_open = False
    if packet_open:
        raise ScheduleError("schedule leaves a packet open (missing end)")


def infer_initial_lo_on(commands) -> bool:
    """LO starts on exactly when the first LO command switches it off."""
    for cmd in commands:
        if cmd.kind is CommandKind.LO_ON:
            return False
        if cmd.kind is CommandKind.LO_OFF:
            return True
    return False


def expand_schedule(
    commands,
    clocks: ClockConfig,
    profile: TimingProfile,
    band: Band = Band.B2G4,
    rf: RfModelParams | None = None,
    initial_lo_on: bool | None = None,
) -> Timeline:
    """Expand commands into timed events with latencies applied.

    An LO command turns into the SPI frame (start, end after the wire time)
    followed by the divider state change after its power-up or power-down
    delay. A second LO command before the previous frame has left the wire
    is rejected. Trigger commands mark a measurement reference and produce
    no event. The LO state before the first command is `initial_lo_on`,
    inferred from the commands when None.
    """
    if rf is None:
        rf = RfModelParams()
    commands = list(commands)
    _validate_schedule(commands)
    if initial_lo_on is None:
        initial_lo_on = infer_initial_lo_on(commands)

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
                pending.append(
                    (end + profile.lo_div_powerdown_ns, Effect.LO_POWERED_DOWN)
                )
        elif cmd.kind is CommandKind.TX_PACKET_START:
            pending.append((cmd.time_ns, Effect.PACKET_ON))
        elif cmd.kind is CommandKind.TX_PACKET_END:
            pending.append((cmd.time_ns, Effect.PACKET_OFF))
        # TRIGGER: reference only

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
        events.append(
            SimEvent(
                time_ns=time_ns,
                effect=effect,
                power_after_dbr=_level(lo_on, packet_on, band, rf),
                warning=warning,
            )
        )
    return Timeline(events, _level(initial_lo_on, False, band, rf))


def find_trigger_ns(commands):
    """Measurement reference: the trigger command, else the first LO write."""
    for cmd in commands:
        if cmd.kind is CommandKind.TRIGGER:
            return cmd.time_ns
    for cmd in commands:
        if cmd.kind in (CommandKind.LO_ON, CommandKind.LO_OFF):
            return cmd.time_ns
    return None


_LO_EFFECTS = {
    CommandKind.LO_ON: Effect.LO_POWERED_UP,
    CommandKind.LO_OFF: Effect.LO_POWERED_DOWN,
}
_time = attrgetter("time_ns")


@dataclass(frozen=True)
class LoStep:
    """The LO step a trace measurement times.

    `level_dbr` is the power the LO event sets. The step has to cross its
    midpoint before `end_ns`, the next LO state change (None: no change
    follows).
    """

    trigger_ns: int
    direction: Direction
    level_dbr: float
    end_ns: int | Fraction | None = None


def find_step(commands, events) -> LoStep:
    """The first LO step at or after the trigger (see `find_trigger_ns`).

    The first LO command at or after the trigger gives the direction, and
    the divider event it causes gives the level. `events` is the expansion
    of `commands`. Raises MeasurementError when there is no such command.
    """
    trigger_ns = find_trigger_ns(commands)
    if trigger_ns is None:
        raise MeasurementError("no trigger and no LO command in the schedule")
    command = next(
        (cmd for cmd in commands if cmd.kind in _LO_EFFECTS and cmd.time_ns >= trigger_ns),
        None,
    )
    if command is None:
        raise MeasurementError(f"no LO command at or after the trigger at {trigger_ns} ns")
    effect = _LO_EFFECTS[command.kind]
    first = bisect.bisect_left(events, command.time_ns, key=_time)
    index = next((i for i in range(first, len(events)) if events[i].effect is effect), None)
    if index is None:
        raise MeasurementError(f"no divider event for the LO command at {command.time_ns} ns")
    end_ns = next(
        (events[i].time_ns for i in range(index + 1, len(events))
         if events[i].effect in _LO_EFFECTS.values()),
        None,
    )
    direction = Direction.RX_TO_TX if command.kind is CommandKind.LO_ON else Direction.TX_TO_RX
    return LoStep(trigger_ns, direction, events[index].power_after_dbr, end_ns)


@dataclass(frozen=True, eq=False)
class PowerTrace:
    """Power samples on a uniform grid: sample k is taken at
    start_ns + k * interval_ns. `samples` is a float64 array."""

    start_ns: int
    interval_ns: int
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))

    def __eq__(self, other):
        if not isinstance(other, PowerTrace):
            return NotImplemented
        return (
            (self.start_ns, self.interval_ns) == (other.start_ns, other.interval_ns)
            and np.array_equal(self.samples, other.samples)
        )

    def times_ns(self) -> np.ndarray:
        """Sample times in ns, as int64."""
        return self.start_ns + self.interval_ns * np.arange(self.samples.size, dtype=np.int64)


# Sample times and intervals stay below 2**53 ns (about 104 days) in
# magnitude: every such time has an exact float64 value, which keeps the
# rendered microseconds exact.
TIME_LIMIT_NS = 2**53


def check_sampling(start_ns, end_ns, interval_ns, settling_tau_ns) -> None:
    """Raise ValueError unless the window, interval and tau can be sampled."""
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


def sample_trace(
    timeline: Timeline,
    window,
    interval_ns: int = 50,
    settling_tau_ns: float = 0.0,
) -> PowerTrace:
    """Sample an expanded schedule onto a uniform grid over `window`.

    The model power is piecewise constant, starting from the timeline's
    initial level; a sample landing exactly on an event takes the
    post-event level. With settling_tau_ns > 0 each step relaxes
    exponentially toward its target instead of jumping, purely for plot
    realism.
    """
    start_ns, end_ns = window
    check_sampling(start_ns, end_ns, interval_ns, settling_tau_ns)

    count = int((end_ns - start_ns) // interval_ns) + 1
    times = start_ns + interval_ns * np.arange(count, dtype=np.int64)
    events = timeline.events
    # Every sample sees the events up to the window start and none after
    # its end. In between, an event at time e is seen by sample t exactly
    # when ceil(e) <= t, since t is an integer: Fraction times stay exact.
    first = bisect.bisect_right(events, start_ns, key=_time)
    last = bisect.bisect_right(events, int(times[-1]), key=_time, lo=first)
    keys = np.fromiter(
        (math.ceil(ev.time_ns) for ev in events[first:last]), np.int64, last - first
    )
    # each event is first seen by the first sample at or after it; a running
    # count over the grid gives the number of events each sample sees
    seen = first + np.cumsum(np.bincount(np.searchsorted(times, keys), minlength=count))
    # levels[j]: the power after the first j events
    levels = np.empty(last + 1)
    levels[0] = timeline.initial_dbr
    levels[1:] = [ev.power_after_dbr for ev in events[:last]]
    samples = levels[seen]
    if settling_tau_ns > 0:
        samples = _settle(samples, levels, events, seen, times, settling_tau_ns)
    return PowerTrace(start_ns=start_ns, interval_ns=interval_ns, samples=samples)


def _settle(targets, levels, events, seen, times, tau):
    """First-order settling of a sampled step trace.

    At each level change at time c the value restarts from where it was at
    c and relaxes toward the new level:
    target + (value_at_c - target) * exp(-(t - c) / tau), with the time
    difference exact before it is rounded to float and one math.exp per
    distinct difference.
    """
    changes = np.flatnonzero(levels[1:] != levels[:-1])  # event indices
    if not changes.size:
        return targets
    change_ns = [events[i].time_ns for i in changes.tolist()]
    # the value at each change, relaxed toward the level before it
    value_at_change = []
    for k, (when, level) in enumerate(zip(change_ns, levels[changes].tolist())):
        if k:
            dt = float(when - change_ns[k - 1])
            level = level + (value_at_change[-1] - level) * math.exp(-dt / tau)
        value_at_change.append(level)

    # the last change each sample has seen; -1 before the first
    rank = np.searchsorted(changes, seen) - 1
    settling = np.flatnonzero(rank >= 0)
    rank = rank[settling]
    # t - c over a common denominator, as exact integers
    den = math.lcm(*{Fraction(c).denominator for c in change_ns})
    scaled = [int(c * den) for c in change_ns]
    bound = max(abs(int(times[0])), abs(int(times[-1]))) * den + max(scaled)
    dtype = np.int64 if bound < 2**63 else object
    numer = times[settling].astype(dtype) * den - np.array(scaled, dtype=dtype)[rank]
    distinct, index = np.unique(numer, return_inverse=True)
    decay = np.array([math.exp(-(n / den) / tau) for n in distinct.tolist()])[index]

    out = targets.copy()
    target = targets[settling]
    out[settling] = target + (np.array(value_at_change)[rank] - target) * decay
    return out


def measure_turnaround(trace: PowerTrace, step: LoStep):
    """Time from the trigger to the first sample past the step midpoint.

    The pre level is the sample at or before the trigger and the post
    level the one the LO event sets; the crossing is the first sample
    after the trigger, and before the step's end, at or beyond their
    midpoint (rising for rx-to-tx, falling for tx-to-rx). Quantized to the
    sample grid by construction.
    """
    start, interval, n = trace.start_ns, trace.interval_ns, trace.samples.size
    at_trigger = (step.trigger_ns - start) // interval
    if not 0 <= at_trigger < n - 1:
        raise MeasurementError("trigger outside the sampled window")
    pre_level = float(trace.samples[at_trigger])
    rising = step.direction is Direction.RX_TO_TX
    name = "rising" if rising else "falling"
    if not (step.level_dbr > pre_level if rising else step.level_dbr < pre_level):
        raise MeasurementError(f"no {name} step after the trigger")
    stop = n
    if step.end_ns is not None:  # samples before the next LO state change
        stop = min(n, math.ceil(Fraction(step.end_ns - start) / interval))
    window = trace.samples[at_trigger + 1:stop]
    midpoint = (pre_level + step.level_dbr) / 2.0
    crossed = np.flatnonzero(window >= midpoint if rising else window <= midpoint)
    if not crossed.size:
        raise MeasurementError(f"no {name} crossing after the trigger")
    k = at_trigger + 1 + int(crossed[0])
    return start + k * interval - step.trigger_ns


# --- text rendering ---------------------------------------------------------
#
# Every format rounds time (us) and power (dB) to two decimals, as the
# per-row code it replaces did: csv writes f"{x:.2f}" with -0.00 shown as
# 0.00, the table f"{round(x, 2):.2f}" and json the float round(x, 2).
# Rows are assembled as byte matrices, one column block per field, a
# block of rows at a time so the temporaries stay small.

_CHUNK_ROWS = 1 << 16

_HEADER = {"csv": "time_us,power_db\n", "json": "[\n"}

# the fields of one row, in order; other items are literal text
_ROW = {
    "csv": ("time", ",", "power", "\n"),
    "table": ("time", "pad", "  ", "power", "\n"),
    "json": ('  {\n    "time_us": ', "time", ',\n    "power_db": ', "power", "\n  },\n"),
}


def _fmt2(value: float) -> str:
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _table_text(value: float) -> str:
    return f"{round(value, 2):.2f}"


_POWER_TEXT = {
    "csv": _fmt2,
    "table": _table_text,
    "json": lambda v: json.dumps(round(v, 2)),
}


def _texts(texts):
    """Left-aligned byte matrix of ASCII texts, and their lengths."""
    lengths = np.array([len(t) for t in texts])
    matrix = np.array(texts, dtype=f"S{lengths.max()}")
    return matrix.view(np.uint8).reshape(len(texts), -1), lengths


def _left(matrix, lengths):
    """A field of left-aligned bytes: the matrix and its keep mask."""
    return matrix, np.arange(matrix.shape[1]) < lengths[:, None]


def _time_field(times_ns, fmt):
    """The time column in microseconds: right-aligned bytes, keep mask and
    text lengths.

    t / 1000 rounds to the nearest hundredth (t + 5) // 10 unless
    t % 10 == 5; then the float quotient lies just above or below the tie
    and decides, so those rows take their hundredths from its text.
    """
    hundredths = (times_ns + 5) // 10
    ties = np.flatnonzero(times_ns % 10 == 5)
    hundredths[ties] = [
        int(f"{t / 1000.0:.2f}".replace(".", "")) for t in times_ns[ties].tolist()
    ]
    magnitude = np.abs(hundredths)
    whole = magnitude // 100
    sign = times_ns < 0
    if fmt == "csv":
        sign &= magnitude > 0
    width = len(str(int(whole.max()))) + 4  # sign, digits, point, two decimals
    digits = np.ones(times_ns.size, np.int64)
    for p in range(1, width - 4):
        digits += whole >= 10**p
    matrix = np.empty((times_ns.size, width), np.uint8, order="F")  # filled by column
    matrix[:, -1] = 48 + magnitude % 10
    matrix[:, -2] = 48 + magnitude // 10 % 10
    matrix[:, -3] = ord(".")
    for column in range(width - 4, -1, -1):
        matrix[:, column] = 48 + whole % 10
        whole //= 10
    negative = np.flatnonzero(sign)
    matrix[negative, width - 4 - digits[negative]] = ord("-")
    lengths = digits + 3 + sign
    keep = np.arange(width) >= width - lengths[:, None]
    if fmt == "json":  # repr drops a trailing zero: 2.5, 0.0
        keep[:, -1] &= magnitude % 10 != 0
    return matrix, keep, lengths


def _const(text):
    return np.frombuffer(text.encode("ascii"), np.uint8)[None, :], None


def _rows(times_ns, power_index, power_texts, fmt, width) -> str:
    """Text of a block of rows."""
    rows = times_ns.size
    time_bytes, time_keep, time_len = _time_field(times_ns, fmt)
    matrix, lengths = power_texts
    fields = {"time": (time_bytes, time_keep), "power": _left(matrix[power_index],
                                                             lengths[power_index])}
    if fmt == "table":  # the time column is padded to the widest cell
        pad = width - time_len
        fields["pad"] = _left(np.full((1, int(pad.max())), ord(" "), np.uint8), pad)
    parts = [fields[item] if item in fields else _const(item) for item in _ROW[fmt]]
    text = np.concatenate([np.broadcast_to(m, (rows, m.shape[1])) for m, _ in parts], axis=1)
    keep = np.concatenate(
        [np.ones((rows, m.shape[1]), bool) if k is None else k for m, k in parts], axis=1
    )
    return text[keep].tobytes().decode("ascii")


def render_trace(trace: PowerTrace, fmt: str) -> str:
    """The trace as csv, json or an aligned table: one row per sample with
    time_us and power_db, each rounded to two decimals."""
    if fmt not in _ROW:
        raise ValueError(f"unknown trace format {fmt!r}")
    rows = trace.samples.size
    if not rows:
        return {"csv": _HEADER["csv"], "table": "time_us  power_db\n", "json": "[]\n"}[fmt]
    times = trace.times_ns()
    # times increase, so the widest time cell is the first or the last
    width = max(len("time_us"), *(len(_table_text(int(t) / 1000.0)) for t in times[[0, -1]]))
    # distinct bit patterns, so -0.0 and 0.0 keep their own texts
    distinct, power_index = np.unique(trace.samples.view(np.int64), return_inverse=True)
    power_texts = _texts([_POWER_TEXT[fmt](v) for v in distinct.view(np.float64).tolist()])
    pieces = [_HEADER.get(fmt, f"{'time_us'.ljust(width)}  power_db\n")]
    for lo in range(0, rows, _CHUNK_ROWS):
        hi = lo + _CHUNK_ROWS
        pieces.append(_rows(times[lo:hi], power_index[lo:hi], power_texts, fmt, width))
    if fmt == "json":
        pieces[-1] = pieces[-1][:-2] + "\n]\n"
    return "".join(pieces)


def trace_to_csv(trace: PowerTrace) -> str:
    """CSV export: time in microseconds and power in dB, two decimals each."""
    return render_trace(trace, "csv")
