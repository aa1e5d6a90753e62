"""Discrete-event timeline for LO switching and Tx power sampling.

A command schedule (register writes, packet markers, an optional trigger)
expands into timed events with the wire and power-up latencies applied,
and the events can then be sampled onto a uniform grid the way a signal
analyzer in zero-span mode would see it. The expanded events and the
traces are numpy columns; expansion, sampling and the crossing search
work on whole columns, and text rendering on a block of rows at a time.
`looptrace` does the same steps as per-row loops without numpy, for the
small traces that cost less that way. The facts both must agree on live
in `steps`, and so does the step measurement both bind (`find_step`,
`measure_turnaround`), reading `Timeline.step_event` and
`PowerTrace.first_past`.
"""

import math

import numpy as np

from .errors import OverlappingSpiError, ScheduleError
from .params import (
    COMMAND_KINDS,
    Band,
    ClockConfig,
    Record,
    RfModelParams,
    Schedule,
    TimingProfile,
    check_sampling,
    frame_duration_ns,
)
from .steps import (
    EFFECTS,
    NOT_SORTED,
    PACKET_INSIDE,
    PACKET_OPEN,
    PACKET_UNMATCHED,
    SPI_OVERLAP,
    TRACE_ROW,
    cell_text,
    event_time_ns,
    find_step,  # the step measurement of both pipelines, under sim's names
    measure_turnaround,
    time_width,
    trace_header,
    trace_levels,
)

# Column codes: a command kind or an effect is stored as its position in
# member order.
_LO_ON, _LO_OFF, _PACKET_START, _PACKET_END, _TRIGGER = range(len(COMMAND_KINDS))
_SPI_START, _SPI_END, _LO_UP, _LO_DOWN, _PACKET_ON, _PACKET_OFF = range(len(EFFECTS))


class Timeline(Record):
    """An expanded schedule as columns, one row per event in time order,
    the power level in force before the first event, and the step a
    measurement times.

    Event i happens at floor_ns[i], plus frac_ns when plus_frac[i] is set.
    An event happens at a command time or one SPI frame and a divider
    delay after it, so the frame's fractional part is the only one an
    event time can have. `effect` holds codes into EFFECTS, `warned`
    marks the events that carry PACKET_WARNING, and `lo_change` the
    divider events that change the LO state (a write that finds the LO
    already in the commanded state changes nothing). `trigger_ns` is the
    first trigger command's time, else the first LO command's (None:
    neither), and `step_index` the divider event of the first LO command
    at or after it (-1: none).
    """

    floor_ns: np.ndarray  # int64
    plus_frac: np.ndarray  # bool
    effect: np.ndarray  # int8
    power_after_dbr: np.ndarray  # float64
    warned: np.ndarray  # bool
    lo_change: np.ndarray  # bool
    frac_ns: "int | Fraction" = 0
    initial_dbr: float = 0.0
    trigger_ns: int | None = None
    step_index: int = -1

    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __len__(self):
        """The number of events."""
        return self.floor_ns.size

    def ceil_ns(self) -> np.ndarray:
        """The event times rounded up to whole ns, as int64."""
        return self.floor_ns + self.plus_frac

    def warning_times(self) -> list:
        """The exact times of the events that carry PACKET_WARNING."""
        return [event_time_ns(floor, plus, self.frac_ns) for floor, plus
                in zip(self.floor_ns[self.warned].tolist(), self.plus_frac[self.warned].tolist())]

    def step_event(self) -> tuple:
        """The event at step_index as `steps.find_step` reads it: whether
        it rises, the level after it, whether it changes the LO state, and
        the key 2 * floor_ns + plus_frac of the next LO state change (None:
        none follows)."""
        index = self.step_index
        changes = index + 1 + np.flatnonzero(self.lo_change[index + 1:])
        end = (2 * int(self.floor_ns[changes[0]]) + bool(self.plus_frac[changes[0]])
               if changes.size else None)
        return (bool(self.effect[index] == _LO_UP), float(self.power_after_dbr[index]),
                bool(self.lo_change[index]), end)


def _validate_schedule(times, kinds):
    """Raise ScheduleError for the first command, in schedule order, that
    comes before its predecessor or breaks the packet nesting."""
    unsorted = np.flatnonzero(times[1:] < times[:-1]) + 1
    # packet commands must alternate start, end, start, ...
    packets = np.flatnonzero((kinds == _PACKET_START) | (kinds == _PACKET_END))
    expected = np.where(np.arange(packets.size) % 2, _PACKET_END, _PACKET_START)
    misnested = packets[kinds[packets] != expected]
    if unsorted.size and not (misnested.size and misnested[0] < unsorted[0]):
        i = unsorted[0]
        raise ScheduleError(NOT_SORTED.format(COMMAND_KINDS[kinds[i]].value, times[i],
                                              times[i - 1]))
    if misnested.size:
        i = misnested[0]
        raise ScheduleError((PACKET_INSIDE if kinds[i] == _PACKET_START
                             else PACKET_UNMATCHED).format(times[i]))
    if packets.size % 2:
        raise ScheduleError(PACKET_OPEN)


def _check_spi_overlap(times, kinds, frame_ns):
    """Raise OverlappingSpiError for the first LO command that starts
    before the previous LO command's frame has left the wire."""
    lo_times = times[kinds <= _LO_OFF]
    # integer gaps: gap < frame_ns exactly when gap < ceil(frame_ns)
    overlaps = np.flatnonzero(np.diff(lo_times) < math.ceil(frame_ns))
    if overlaps.size:
        k = overlaps[0]
        raise OverlappingSpiError(SPI_OVERLAP.format(lo_times[k + 1], int(lo_times[k]) + frame_ns))


def _forward_fill(is_set, values, initial):
    """At each position the value at the last set position at or before
    it, or `initial` before the first."""
    last = np.maximum.accumulate(np.where(is_set, np.arange(is_set.size), -1))
    return np.where(last >= 0, values[last], initial)


def expand_schedule(
    schedule: Schedule,
    clocks: ClockConfig,
    profile: TimingProfile,
    band: Band = Band.B2G4,
    rf: RfModelParams | None = None,
) -> Timeline:
    """Expand a schedule into timed events with latencies applied.

    An LO command turns into the SPI frame (start, end after the wire time)
    followed by the divider state change after its power-up or power-down
    delay. A second LO command before the previous frame has left the wire
    is rejected. Trigger commands mark a measurement reference and produce
    no event. The LO starts on exactly when the first LO command switches
    it off. Simultaneous events keep schedule order.
    """
    if rf is None:
        rf = RfModelParams()
    # views of the schedule's columns, not copies
    times = np.frombuffer(schedule.times_ns, np.int64)
    kinds = np.frombuffer(schedule.kinds, np.int8)
    n = times.size
    _validate_schedule(times, kinds)
    lo_commands = np.flatnonzero(kinds <= _LO_OFF)
    lo_on_at_start = bool(lo_commands.size and kinds[lo_commands[0]] == _LO_OFF)
    references = np.flatnonzero(kinds == _TRIGGER)
    if not references.size:
        references = lo_commands
    trigger_ns = int(times[references[0]]) if references.size else None

    frame_ns = frame_duration_ns(clocks)
    _check_spi_overlap(times, kinds, frame_ns)
    frame_floor = math.floor(frame_ns)
    frac_ns = frame_ns - frame_floor
    # the events of each command kind, a row per kind in COMMAND_KINDS
    # order: how many, their effects and the offsets of their floors from
    # the command time; only the frame end and the divider event
    # (sub-index 1 and 2) add the frame's fraction
    per_kind = np.array([3, 3, 1, 1, 0])
    effects = np.array([[_SPI_START, _SPI_END, _LO_UP], [_SPI_START, _SPI_END, _LO_DOWN],
                        [_PACKET_ON, 0, 0], [_PACKET_OFF, 0, 0], [0, 0, 0]], np.int8)
    up, down = profile.lo_div_powerup_ns, profile.lo_div_powerdown_ns
    offsets = np.array([[0, frame_floor, frame_floor + up], [0, frame_floor, frame_floor + down],
                        [0, 0, 0], [0, 0, 0], [0, 0, 0]], np.int64)

    counts = per_kind[kinds]
    command = np.repeat(np.arange(n), counts)
    ends = np.cumsum(counts)  # one past each command's last row
    sub = np.arange(command.size) - np.repeat(ends - counts, counts)
    kind = kinds[command]
    floor_ns = times[command] + offsets[kind, sub]
    plus_frac = (sub > 0) & (frac_ns != 0)
    # a stable sort on the exact time keeps simultaneous events in
    # schedule order; floor_ns stays below 2**55, so the key fits int64
    order = np.argsort(2 * floor_ns + plus_frac, kind="stable")
    floor_ns, plus_frac, effect = floor_ns[order], plus_frac[order], effects[kind, sub][order]
    step_index = -1
    if references.size:  # the first LO command at or after the trigger
        stepping = lo_commands[times[lo_commands] >= trigger_ns]
        if stepping.size:  # its divider event is its last row
            step_index = int(np.flatnonzero(order == ends[stepping[0]] - 1)[0])

    lo_on = _forward_fill((effect == _LO_UP) | (effect == _LO_DOWN), effect == _LO_UP,
                          lo_on_at_start)
    lo_change = lo_on != np.concatenate(([lo_on_at_start], lo_on[:-1]))
    packet_on = _forward_fill((effect == _PACKET_ON) | (effect == _PACKET_OFF),
                              effect == _PACKET_ON, False)
    levels = np.array(trace_levels(rf, band))
    return Timeline(
        floor_ns=floor_ns,
        plus_frac=plus_frac,
        effect=effect,
        power_after_dbr=levels[2 * lo_on + packet_on],
        warned=(effect == _PACKET_ON) & ~lo_on,
        lo_change=lo_change,
        frac_ns=frac_ns,
        initial_dbr=float(levels[2 * lo_on_at_start]),
        trigger_ns=trigger_ns,
        step_index=step_index,
    )


class PowerTrace(Record):
    """Power samples on a uniform grid: sample k is taken at
    start_ns + k * interval_ns. `samples` is a float64 array."""

    start_ns: int
    interval_ns: int
    samples: np.ndarray

    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __post_init__(self):
        self.__dict__["samples"] = np.asarray(self.samples, dtype=np.float64)

    def times_ns(self) -> np.ndarray:
        """Sample times in ns, as int64."""
        return self.start_ns + self.interval_ns * np.arange(self.samples.size, dtype=np.int64)

    def first_past(self, midpoint: float, rising: bool, lo: int, hi: int) -> int:
        """The first sample index in [lo, hi) at or above `midpoint`
        (rising) or at or below it, else -1."""
        window = self.samples[lo:max(lo, hi)]
        crossed = np.flatnonzero(window >= midpoint if rising else window <= midpoint)
        return lo + int(crossed[0]) if crossed.size else -1


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
    # sample k, taken at the integer time start + k * interval, sees an
    # event at time e exactly when ceil(e) <= start + k * interval, so
    # each event's first sample is a ceiling division (Fraction times stay
    # exact); the times are sorted, so runs[j] samples have seen exactly
    # the first j events
    first = np.clip(-((start_ns - timeline.ceil_ns()) // interval_ns), 0, count)
    runs = np.diff(first, prepend=0, append=count)
    # levels[j]: the power after the first j events
    levels = np.concatenate(([timeline.initial_dbr], timeline.power_after_dbr))
    samples = np.repeat(levels, runs)
    if settling_tau_ns > 0:
        # the number of events each sample has seen, and the sample times
        seen = np.repeat(np.arange(levels.size), runs)
        times = start_ns + interval_ns * np.arange(count, dtype=np.int64)
        samples = _settle(samples, levels[:seen[-1] + 1], timeline, seen, times,
                          interval_ns, settling_tau_ns)
    return PowerTrace(start_ns=start_ns, interval_ns=interval_ns, samples=samples)


def _settle(targets, levels, timeline, seen, times, interval, tau):
    """First-order settling of a sampled step trace.

    At each level change at time c the value restarts from where it was at
    c and relaxes toward the new level:
    target + (value_at_c - target) * exp(-(t - c) / tau), with the time
    difference exact before it is rounded to float and one math.exp per
    distinct difference (the run the window opens in may repeat some).
    """
    changes = np.flatnonzero(levels[1:] != levels[:-1])  # event indices
    if not changes.size:
        return targets
    # change times over the frame's denominator, as exact integers
    frac = timeline.frac_ns  # an int or a Fraction
    den = frac.denominator
    floor_ns = timeline.floor_ns[changes]
    bound = (max(abs(int(times[0])), abs(int(times[-1]))) + int(floor_ns[-1]) + 1) * den
    dtype = np.int64 if bound < 2**63 else object
    scaled = floor_ns.astype(dtype) * den + np.where(
        timeline.plus_frac[changes], frac.numerator, 0).astype(dtype)
    # the value at each change, relaxed toward the level before it
    when = scaled.tolist()
    value_at_change = []
    for k, level in enumerate(levels[changes].tolist()):
        if k:
            dt = (when[k] - when[k - 1]) / den  # int / int rounds once, like float()
            level = level + (value_at_change[-1] - level) * math.exp(-dt / tau)
        value_at_change.append(level)

    # the runs of samples after each change (rank: the last change seen)
    rank = np.searchsorted(changes, seen) - 1
    first = int(np.searchsorted(rank, 0))
    rank = rank[first:]
    heads = np.flatnonzero(np.diff(rank, prepend=-1))
    runs = np.diff(heads, append=rank.size)
    # t - c over the common denominator steps by interval * den along a
    # run, so its distinct values start at the runs' distinct starts
    distinct, group = np.unique(times[first + heads].astype(dtype) * den - scaled[rank[heads]],
                                return_inverse=True)
    span = np.zeros(distinct.size, np.int64)
    np.maximum.at(span, group, runs)
    decay = np.array([math.exp(-((start + k * interval * den) / den) / tau) for start, count
                      in zip(distinct.tolist(), span.tolist()) for k in range(count)])
    decay = decay[np.repeat((np.cumsum(span) - span)[group] - heads, runs) + np.arange(rank.size)]

    out = targets.copy()
    target = targets[first:]
    out[first:] = target + (np.array(value_at_change)[rank] - target) * decay
    return out


# --- text rendering ---------------------------------------------------------
#
# Every format rounds time (us) and power (dB) to two decimals, as the
# per-row code it replaces did: csv writes f"{x:.2f}" with -0.00 shown as
# 0.00, the table f"{round(x, 2):.2f}" and json the float round(x, 2).
# Rows are written into a byte matrix of a block of rows, its literal
# columns written once per render; each block writes only its fields,
# each into columns of its own, so the temporaries stay small. Each field
# pads its cells with NUL, which no text holds, so one compaction drops
# every pad of a block.

_CHUNK_ROWS = 1 << 16

# k = 0..999 as 4-byte words: "d.dd", the last three digits of k hundredths,
# then without a trailing zero; for a group of three digits above them a
# NUL and the digits, zero-padded or, leading, right-aligned behind NUL
_k = np.arange(1000)[:, None]
_DIGITS = (48 + _k // [100, 10, 1] % 10).astype(np.uint8)
_LOW = np.insert(_DIGITS, 1, 46, axis=1)
_LOW = np.stack([_LOW, _LOW * (_k % 10 > [-1, -1, -1, 0])]).view(np.uint32)[..., 0]
_PADDED = np.insert(_DIGITS, 0, 0, axis=1).view(np.uint32)[:, 0]
_ALIGNED = np.insert(_DIGITS * (_k >= [100, 10, 1]), 0, 0, axis=1).view(np.uint32)[:, 0]


def _texts(texts):
    """Byte matrix of ASCII texts, a row each, NUL-padded on the right."""
    return np.array(texts, dtype="S").view(np.uint8).reshape(len(texts), -1)


def _template(rows, parts):
    """A byte matrix of `rows` rows laid out as `parts`, and a view of each
    field: a bytes part is a literal written in every row, an int part a
    field of that many columns."""
    row = b"".join(bytes(part) if isinstance(part, int) else part for part in parts)
    matrix = np.empty((rows, len(row)), np.uint8)
    matrix[:] = np.frombuffer(row, np.uint8)
    fields, column = [], 0
    for part in parts:
        if isinstance(part, int):
            fields.append(matrix[:, column:column + part])
        column += part if isinstance(part, int) else len(part)
    return matrix, fields


def _items(matrix):
    """A byte matrix as an array of one item per row, each its bytes."""
    return matrix.view(np.dtype((np.void, matrix.shape[1])))[:, 0]


def _field_width(high):
    """The columns of a digit field whose part above its last word is at
    most `high`: a word of NUL and three digits per group, and that word."""
    return 4 * -(-len(str(high)) // 3) + 4


def _group_words(high, words):
    """Write `high`, non-negative ints (consumed), into the uint32 columns
    `words` a group of three digits each, leading zeros NUL."""
    # in place: floor division by a constant is fast, divmod and % are not
    for column in range(words.shape[1] - 1, -1, -1):
        rest = high // 1000
        high -= 1000 * rest
        words[:, column] = np.where(rest > 0, np.take(_PADDED, high), np.take(_ALIGNED, high))
        high = rest


def _decimal_field(hundredths, negative, fmt, text=None):
    """Byte matrix of integer hundredths as two-decimal text, a row each:
    digits right-aligned behind NUL, "-" ahead of negative rows (csv: not
    on -0.00), and json drops a trailing zero as repr does (2.5, 0.0).
    Written into `text` when given, wide enough for every row."""
    units = np.abs(hundredths)
    high = units // 1000
    units -= 1000 * high
    if text is None:
        text = np.empty((high.size, _field_width(int(high.max()))), np.uint8)
    words = text.view(np.uint32)  # a word per group, then "d.dd"
    words[:, -1] = np.take(_LOW[int(fmt == "json")], units)
    _group_words(high, words[:, :-1])
    text[:, 0] = np.where(negative & ((hundredths != 0) | (fmt != "csv")), ord("-"), 0)
    return text


def _integer_field(values, text):
    """Non-negative ints as decimal text, written into the byte matrix
    `text` a row each, right-aligned behind NUL."""
    _group_words(values.copy(), text.view(np.uint32))
    text[values == 0, -1] = ord("0")


def _time_field(times_ns, fmt, text):
    """The time column in microseconds, written into the byte matrix
    `text`; returns its hundredths. t / 1000 rounds to (t + 5) // 10
    hundredths unless t % 10 == 5 (`steps.cell_text` says why); then
    q = fl(t / 1000) rounds as its text does, up, down or to even as
    q * 1000 - t is above, below or at 0. A Veltkamp split of q into
    26-bit halves makes that sign exact: each half times 1000 is exact,
    and (Sterbenz) so is high's minus t."""
    hundredths = (times_ns + 5) // 10
    ties = np.flatnonzero(10 * hundredths == times_ns + 5)
    q = times_ns[ties] / 1000.0
    high = q * 134217729.0  # 2**27 + 1
    high -= high - q  # q's upper 26 bits
    excess = (high * 1000.0 - times_ns[ties]) + (q - high) * 1000.0
    hundredths[ties] -= (excess < 0) | (excess == 0) & (hundredths[ties] % 2 == 1)
    _decimal_field(hundredths, times_ns < 0, fmt, text)
    return hundredths


def _power_field(values, fmt):
    """The power column of `values` (dB), as a byte matrix. v * 100 is
    within half an ulp of the exact product, so it rounds to the text's
    hundredths unless within |rint(v * 100)| * 2**-52 of a tie; such
    near-ties, magnitudes of 1e13 and above and non-finite values take
    the per-value text, once per distinct value."""
    scaled = np.where(np.abs(values) < 1e13, values, np.nan) * 100  # NaN: not finite or big
    hundredths = np.rint(scaled)
    scaled -= hundredths
    slow = np.flatnonzero(~(np.abs(scaled) < 0.5 - 2.0**-52 * np.abs(hundredths)))
    hundredths[slow] = 0
    text = _decimal_field(hundredths.astype(np.int64), np.signbit(values), fmt)
    if slow.size:
        distinct, index = np.unique(values[slow].view(np.int64), return_inverse=True)
        texts = _texts([cell_text(v, fmt) for v in distinct.view(np.float64).tolist()])
        text = np.pad(text, ((0, 0), (0, texts.shape[1])))
        text[slow] = np.pad(texts[index], ((0, 0), (text.shape[1] - texts.shape[1], 0)))
    return text


def render_blocks(trace: PowerTrace, fmt: str):
    """The trace as csv, json or an aligned table, in ASCII bytes: the
    header, then the rows a block of _CHUNK_ROWS at a time, each block
    ending with a whole row. One row per sample holds time_us and
    power_db, each rounded to two decimals."""
    if fmt not in TRACE_ROW:
        raise ValueError(f"unknown trace format {fmt!r}")
    rows = trace.samples.size
    if not rows:
        yield trace_header(fmt, 0, 0).encode("ascii")
        return
    start, interval = trace.start_ns, trace.interval_ns
    last = start + interval * (rows - 1)
    width = time_width(fmt, start, last)
    # the power of each run (samples of equal bits, so -0.0 and 0.0 keep
    # their own texts) found once and formatted a block at a time
    bits = trace.samples.view(np.int64)
    heads = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    lead, sep, end = (text.encode("ascii") for text in TRACE_ROW[fmt])
    # the row's fields: the time, wide enough for the first and the last
    # (the widest), the table's pad of a time cell of at least "0.00" to
    # `width`, and the power, as wide as the widest block's so far
    fields = [_field_width((max(-start, last) + 15) // 10_000)]
    if fmt == "table":
        pads = _texts([" " * k for k in range(width - 3)])
        fields.append(pads.shape[1])
    template = None
    yield trace_header(fmt, width, rows).encode("ascii")
    for lo in range(0, rows, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, rows)
        # the runs that overlap the block, the first one (the last head
        # at or before lo) cut to it
        first, stop = np.searchsorted(heads, (lo + 1, hi))
        cuts = np.maximum(heads[first - 1:stop], lo)
        power = _power_field(trace.samples[cuts], fmt)
        if template is None or power.shape[1] > power_cells.shape[1]:
            template, (time_cells, *pad_cells, power_cells) = _template(
                min(rows, _CHUNK_ROWS), [lead, *fields, sep, power.shape[1], end])
        n = hi - lo
        times = start + interval * np.arange(lo, hi, dtype=np.int64)
        hundredths = _time_field(times, fmt, time_cells[:n])
        if pad_cells:
            # the times increase, so a time text lengthens or shortens
            # only where its hundredths reach a power of ten, and at 0 ns
            # ("-" ahead): one pad per run of rows between those
            limits = 10 ** np.arange(3, len(str(max(-hundredths[0], hundredths[-1]))) + 1)
            edges = np.unique(np.concatenate((
                [0, n, np.searchsorted(times, 0)], np.searchsorted(hundredths, limits),
                np.searchsorted(hundredths, -limits, "right"))))
            for a, b in zip(edges[:-1], edges[1:]):
                pad_cells[0][a:b] = pads[width - np.count_nonzero(time_cells[a])]
        # right-aligned behind NUL, over any wider block's cells; a row's
        # cells copied as one item of their width
        power = np.pad(power, ((0, 0), (power_cells.shape[1] - power.shape[1], 0)))
        _items(power_cells[:n])[:] = np.take(
            _items(power), np.repeat(np.arange(cuts.size), np.diff(cuts, append=hi)))
        block = template[:n].tobytes().translate(None, b"\0")
        if fmt == "json" and hi == rows:  # the last row closes the list
            block = block[:-2] + b"\n]\n"
        yield block


def trace_to_csv(trace: PowerTrace) -> str:
    """CSV export: time in microseconds and power in dB, two decimals each."""
    return b"".join(render_blocks(trace, "csv")).decode("ascii")
