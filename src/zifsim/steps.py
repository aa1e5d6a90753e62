"""The trace rules both pipelines share, numpy's (`sim`) and the per-row
loops' (`looptrace`): the event effects, the power levels, the warning
and error texts, the text of a cell and of a row, the table's width, and
the step measurement itself (`find_step`, `measure_turnaround`), which
reads each pipeline's storage through its `step_event` and `first_past`
methods.

The module imports no numpy, and only `trace` loads it: the budget,
compliance, config and noise calls never compile these rules.
"""

import math
from enum import Enum

from .errors import MeasurementError
from .params import Band, Direction, Record, RfModelParams


class Effect(Enum):
    SPI_START = "spi-start"
    SPI_END = "spi-end"
    LO_POWERED_UP = "lo-powered-up"
    LO_POWERED_DOWN = "lo-powered-down"
    PACKET_ON = "packet-on"
    PACKET_OFF = "packet-off"


# Column code of an effect: its position in member order.
EFFECTS = tuple(Effect)

PACKET_WARNING = "packet transmitted while the LO divider is down"

# The errors a schedule expansion and a step measurement raise, as
# str.format templates.
NOT_SORTED = "schedule not sorted: {} at {} ns after {} ns"
PACKET_INSIDE = "packet start at {} ns inside an open packet"
PACKET_UNMATCHED = "packet end at {} ns without a matching start"
PACKET_OPEN = "schedule leaves a packet open (missing end)"
SPI_OVERLAP = "register write at {} ns overlaps the frame that ends at {} ns"
NO_REFERENCE = "no trigger and no LO command in the schedule"
NO_STEP_COMMAND = "no LO command at or after the trigger at {} ns"
NO_STATE_CHANGE = "the first LO command at or after the trigger at {} ns finds the LO already {}"
TRIGGER_OUTSIDE = "trigger outside the sampled window"
NO_STEP = "no {} step after the trigger"
NO_CROSSING = "no {} crossing after the trigger"


def trace_levels(rf: RfModelParams, band: Band) -> tuple:
    """The trace's power (dB) by LO and packet state, at index
    2 * lo_on + packet_on: the packet adds to the LO level."""
    lo_level = rf.lo_on_delta_db[band]
    return (0.0, 0.0, float(lo_level), float(lo_level + rf.packet_delta_db))


def cell_text(value: float, fmt: str) -> str:
    """One trace cell, a time (us) or a power (dB), as csv, table or json
    text: f"{v:.2f}" with -0.00 written as 0.00, f"{round(v, 2):.2f}" and
    repr(round(v, 2)), json.dumps only for Infinity and NaN.

    Both trace pipelines write most time cells from integers by one fact:
    for an integer t with |t| < 2**53 and t % 10 != 5, the cell of
    t / 1000.0 us is that of (t + 5) // 10 hundredths. t / 1000 lies at
    least 0.001 from a two-decimal tie, and the float quotient, below
    2**44 us, within half an ulp (at most 2**-10) of it, so each text
    rounds it as it rounds the exact quotient. At a tie (t % 10 == 5)
    each text rounds the float quotient, which may lie on either side of
    it, and a cell in (-0.005, 0) us takes a sign that differs by
    format."""
    if fmt != "json":
        text = f"{round(value, 2) if fmt == 'table' else value:.2f}"
        return "0.00" if fmt == "csv" and text == "-0.00" else text
    if math.isfinite(value):
        return repr(round(value, 2))
    import json  # only Infinity and NaN need it

    return json.dumps(value)


# A trace row in each format: lead + time cell + separator + power cell +
# end, the table's time cells padded to the widest. json's last row ends
# "\n  }\n", and "]\n" closes the list.
TRACE_ROW = {
    "csv": ("", ",", "\n"),
    "table": ("", "  ", "\n"),
    "json": ('  {\n    "time_us": ', ',\n    "power_db": ', "\n  },\n"),
}


def time_width(fmt: str, first_ns: int, last_ns: int) -> int:
    """The width the table pads its time cells to, 0 in the other formats:
    times increase, so the widest cell is "time_us", the first or the last."""
    if fmt != "table":
        return 0
    return max(len("time_us"), len(cell_text(first_ns / 1000.0, fmt)),
               len(cell_text(last_ns / 1000.0, fmt)))


def trace_header(fmt: str, width: int, rows: int) -> str:
    """The text ahead of a trace's rows, the table's time column `width`
    wide; with no rows, the whole text."""
    if fmt == "json":
        return "[\n" if rows else "[]\n"
    _, sep, end = TRACE_ROW[fmt]
    return f"{'time_us'.ljust(width)}{sep}power_db{end}"


class LoStep(Record):
    """The LO step a trace measurement times.

    `level_dbr` is the power the LO event sets. The step has to cross its
    midpoint before `end_ns`, the next LO state change (None: no change
    follows).
    """

    trigger_ns: int
    direction: Direction
    level_dbr: float
    end_ns: "int | Fraction | None" = None


def event_time_ns(floor_ns: int, plus_frac, frac_ns) -> "int | Fraction":
    """The exact time of an event stored as its floor and whether it adds
    the SPI frame's fractional part `frac_ns` (see `sim.Timeline`)."""
    return floor_ns + frac_ns if plus_frac else floor_ns


def first_sample_at(time_ns, start_ns: int, interval_ns: int) -> int:
    """The index k of the first grid time start_ns + k * interval_ns at or
    after the exact time `time_ns`, an int or a Fraction (k < 0 before
    start_ns): ceil((time_ns - start_ns) / interval_ns), exact since
    floor division of either by an int is."""
    return -((start_ns - time_ns) // interval_ns)


def find_step(timeline) -> LoStep:
    """The first LO step at or after either timeline's trigger, from the
    divider event of the first LO command at or after it (`step_index`).
    MeasurementError: no such command, or its event changes no LO state."""
    trigger_ns, index = timeline.trigger_ns, timeline.step_index
    if trigger_ns is None:
        raise MeasurementError(NO_REFERENCE)
    if index < 0:
        raise MeasurementError(NO_STEP_COMMAND.format(trigger_ns))
    rising, level, lo_change, end = timeline.step_event()
    if not lo_change:
        raise MeasurementError(NO_STATE_CHANGE.format(trigger_ns, "on" if rising else "off"))
    end_ns = None if end is None else event_time_ns(end >> 1, end & 1, timeline.frac_ns)
    return LoStep(trigger_ns, Direction.RX_TO_TX if rising else Direction.TX_TO_RX, level, end_ns)


def measure_turnaround(trace, step: LoStep):
    """Time from the trigger to the first sample past the step midpoint,
    on either trace: the pre level is the sample at or before the
    trigger, the post level the step's, and the crossing the trace's
    `first_past` of their midpoint after the trigger, before `end_ns`."""
    start, interval, n = trace.start_ns, trace.interval_ns, len(trace.samples)
    at_trigger = (step.trigger_ns - start) // interval
    if not 0 <= at_trigger < n - 1:
        raise MeasurementError(TRIGGER_OUTSIDE)
    pre_level = float(trace.samples[at_trigger])
    rising = step.direction is Direction.RX_TO_TX
    name = "rising" if rising else "falling"
    if not (step.level_dbr > pre_level if rising else step.level_dbr < pre_level):
        raise MeasurementError(NO_STEP.format(name))
    # the samples before the next LO state change
    stop = n if step.end_ns is None else min(n, first_sample_at(step.end_ns, start, interval))
    k = trace.first_past((pre_level + step.level_dbr) / 2.0, rising, at_trigger + 1, stop)
    if k < 0:
        raise MeasurementError(NO_CROSSING.format(name))
    return start + k * interval - step.trigger_ns
