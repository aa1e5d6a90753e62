"""Receiver noise-floor model and I/Q capture analysis.

Power values are relative dB: the quiet receiver floor in a trace is 0 dBr
and capture powers are dB relative to unit sample power. The per-mode
noise-floor numbers are calibrated model parameters, chosen to reproduce
bench measurements of an AD9361-class front-end with orthogonal antennas
and 62 dB manual gain; they are regression targets, not physical claims.
"""

import importlib.util
import math
import mmap
import os
import sys

import numpy as np

from .errors import DataError, FilterRefusedError
from .params import Band, EnsmMode, Record, RfModelParams, check_fields

# perfbench/tracing.py reads sys.modules["zifsim.sim"] once the benchmark
# harness has imported `rf`. A lazy entry keeps it present: `sim` compiles
# and runs on the first read of one of its attributes, which a noise call
# never makes. A `sim` already imported stays, so its classes stay the only
# ones. Drop the entry once the tracer reads spans the program records.
if "zifsim.sim" not in sys.modules:
    _spec = importlib.util.find_spec("zifsim.sim")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules["zifsim.sim"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules["zifsim.sim"])
    del _spec

IQ_LIMIT = 32767  # samples are signed 16-bit
MAX_POWER = 2 * IQ_LIMIT**2  # the largest i*i + q*q, below 2**31 - 1
MAX_POWER_DB = 10.0 * math.log10(MAX_POWER)  # about 93.32
SYNTH_CHUNK = 1 << 18  # (i, q) pairs per normal draw in synthesize_capture
BLOCK = 1 << 16  # samples per pass of the noise report's power, edge and sum loops


def rx_noise_floor(mode: EnsmMode, band: Band, params: RfModelParams) -> float:
    """Average relative noise power at the receiver for one mode and band."""
    if mode in (EnsmMode.FDD, EnsmMode.FDD_INDEPENDENT):
        return params.fdd_rx_floor_db[band]
    if mode is EnsmMode.LO_CONTROL:
        return params.locontrol_rx_floor_db[band]
    # remaining modes are the TDD family: the Tx chain is truly off in Rx
    return params.base_rx_floor_db[band]


def noise_floor_delta(
    mode_a: EnsmMode, mode_b: EnsmMode, band: Band, params: RfModelParams
) -> float:
    return rx_noise_floor(mode_a, band, params) - rx_noise_floor(mode_b, band, params)


class IqCapture(Record, frozen=False):
    """Raw receiver samples: (i, q) pairs as signed 16-bit integers.

    Samples of any integer dtype are accepted when every value lies within
    +/-IQ_LIMIT; floats and bools are refused. An int16 array that is not
    writeable, such as a view of a file's bytes, is kept as given; any
    other input is copied.
    """

    samples: np.ndarray  # shape (n, 2)
    sample_rate_hz: int = 20_000_000
    band: Band | None = None
    mode: EnsmMode | None = None

    __eq__ = object.__eq__  # equal only to itself

    def __post_init__(self):
        check_fields(self)
        if self.sample_rate_hz < 1:  # load_capture maps this to the sidecar key
            raise ValueError(f"sample_rate_hz {self.sample_rate_hz} is not positive")
        samples = np.asarray(self.samples)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError(f"samples must have shape (n, 2), got {samples.shape}")
        if not np.issubdtype(samples.dtype, np.integer):  # bool is no integer here
            raise ValueError(f"samples must hold integers, got dtype {samples.dtype}")
        # an int16 sample is at most IQ_LIMIT, so only its minimum can fail
        if samples.size and (int(samples.min()) < -IQ_LIMIT or samples.dtype != np.int16
                             and int(samples.max()) > IQ_LIMIT):
            raise ValueError(f"sample magnitude exceeds {IQ_LIMIT}")
        if samples.dtype != np.int16 or samples.flags.writeable:
            samples = samples.astype(np.int16)
        self.samples = samples

    def __len__(self):
        return self.samples.shape[0]


def _power(samples: np.ndarray) -> np.ndarray:
    """Per-sample i*i + q*q as a contiguous int32 array.

    Exact: every value is an integer of at most MAX_POWER. Works in
    blocks of BLOCK samples through one int32 pair buffer, so the only
    array of the capture's length it makes is the result.
    """
    power = np.empty(len(samples), dtype=np.int32)
    pairs = np.empty((min(BLOCK, power.size), 2), dtype=np.int32)
    for start in range(0, power.size, BLOCK):
        block = pairs[:power.size - start]
        block[...] = samples[start:start + BLOCK]
        block *= block
        np.add(block[:, 0], block[:, 1], out=power[start:start + BLOCK])
    return power


def _to_db(power: np.ndarray, out=None) -> np.ndarray:
    """10*log10 of linear power, element-wise; zero maps to -inf."""
    with np.errstate(divide="ignore"):
        db = np.log10(power, out=out)
    db *= 10.0
    return db


def _mean_power_db(total: int, count: int) -> float:
    """10*log10 of the mean power, from the exact sum of `count` powers.

    Python's int / int is correctly rounded, so while the sum is below
    2**53 this equals np.mean of the float64 powers; above it, it is the
    exact mean rounded once.
    """
    if count == 0:
        raise DataError("cannot average an empty capture")
    if total == 0:
        raise DataError("all-zero capture has no finite power")
    return 10.0 * math.log10(total / count)


def average_power_db(capture: IqCapture) -> float:
    """10*log10 of mean(i^2 + q^2), relative dB."""
    power = _power(capture.samples)
    return _mean_power_db(int(power.sum(dtype=np.int64)), power.size)


def sample_power_db(capture: IqCapture) -> np.ndarray:
    """Per-sample power in dB; zero samples map to -inf."""
    power = _power(capture.samples).astype(np.float64)
    return _to_db(power, out=power)


class PacketFilterResult(Record, frozen=False):
    """A power series, which of its samples the burst filter keeps, and
    how many it removes."""

    series: np.ndarray  # the filtered power series
    keep_mask: np.ndarray  # bool, aligned with the series
    samples_filtered: int

    __eq__ = object.__eq__  # equal only to itself


def _median(series: np.ndarray) -> float:
    """np.median of a non-empty 1-D series, from one partition.

    np.median partitions at two or three positions (one for the NaN
    check) and is about 3x slower on 1e7 samples. Like np.median, this
    averages the two middle values of an even-length series with np.mean.
    A series that holds NaN has no median to filter by, and raises
    ValueError. Otherwise the result equals np.median's; only the sign of
    a zero median may differ, which no threshold test can see.
    """
    k = series.size // 2
    part = np.partition(series, k)
    if np.isnan(part[k:].max()):  # NaN sorts last
        raise ValueError("power series holds NaN")
    if series.size % 2:
        return part[k]
    return np.mean(np.array([part[:k].max(), part[k]]))


def _median_db(power: np.ndarray) -> float:
    """_median of the dB series of a non-empty int32 power array.

    dB is monotone in power, so the middle dB values are the dB of the
    middle powers; only those one or two values are converted.
    """
    k = power.size // 2
    part = np.partition(power, k)
    middle = [part[k]] if power.size % 2 else [part[:k].max(), part[k]]
    return np.mean(_to_db(np.array(middle, dtype=np.float64)))


def _min_power_above(level_db: float) -> int:
    """The smallest integer power whose _to_db exceeds level_db.

    MAX_POWER + 1 when none does. Bisection is exact because 10*log10 in
    float64 never decreases from one integer to the next in 0..2**31.
    """
    lo, hi = 0, MAX_POWER + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _to_db(np.array([mid], dtype=np.float64))[0] > level_db:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _check_filter_args(n: int, threshold_db_above_median: float, guard_samples: int):
    if n == 0:
        raise ValueError("power series is empty")
    if not (threshold_db_above_median > 0 and math.isfinite(threshold_db_above_median)):
        raise ValueError("threshold must be positive and finite")
    if guard_samples < 0:
        raise ValueError("guard_samples must be non-negative")


def _burst_edges(series: np.ndarray, above, limit):
    """Starts and ends (exclusive) of the maximal runs of a non-empty
    series where `above(sample, limit)`, a comparison ufunc, holds.

    Works in blocks of BLOCK samples, carrying the last flag of each block
    into the next, so no bool array of the series' length is made.
    """
    n = series.size
    flags = np.zeros(min(BLOCK, n) + 1, dtype=bool)  # the flag before the block, then its own
    changed = np.empty(flags.size - 1, dtype=bool)
    edges = []
    for start in range(0, n, BLOCK):
        block = series[start:start + BLOCK]
        hot = flags[1:block.size + 1]
        above(block, limit, out=hot)
        np.not_equal(hot, flags[:block.size], out=changed[:block.size])
        edges.append(np.flatnonzero(changed[:block.size]) + start)
        flags[0] = hot[-1]
    if flags[0]:  # the last run reaches the end
        edges.append([n])
    edges = np.concatenate(edges)
    return edges[::2], edges[1::2]


def _removed_runs(starts: np.ndarray, ends: np.ndarray, n: int, guard_samples: int):
    """The runs [start, end) of an n-sample series widened by guard_samples
    on each side, clamped.

    Returns the starts and ends of the removed runs, with runs that now
    touch or overlap merged, and the number of samples they hold. Works on
    run edges, so the cost is O(runs) whatever the guard width. Refuses
    when the runs cover more than 90% of the series, since the remainder
    would not be a trustworthy floor estimate.
    """
    # a guard of n already reaches both ends; a wider one overflows int64
    guard = min(guard_samples, n)
    starts = np.maximum(starts - guard, 0)
    ends = np.minimum(ends + guard, n)
    # a merged run begins at each start past the end before it; with no
    # runs all stay empty
    fresh = np.flatnonzero(starts[1:] > ends[:-1]) + 1
    starts = np.concatenate((starts[:1], starts[fresh]))
    ends = np.concatenate((ends[fresh - 1], ends[-1:]))

    n_removed = int((ends - starts).sum())
    if n_removed > 0.9 * n:
        raise FilterRefusedError(
            f"filter would remove {n_removed} of {n} samples; "
            "series is too noisy to estimate a floor"
        )
    return starts, ends, n_removed


def _keep_mask(starts: np.ndarray, ends: np.ndarray, n: int) -> np.ndarray:
    """False inside the runs [start, end), True elsewhere."""
    # stretches alternate kept, removed: [0, s0) [s0, e0) [e0, s1) ... [e, n)
    bounds = np.concatenate(([0], np.column_stack((starts, ends)).ravel(), [n]))
    kept = np.zeros(bounds.size - 1, dtype=bool)
    kept[::2] = True
    return np.repeat(kept, np.diff(bounds))


def _kept_sum(power: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> int:
    """The exact sum of power outside the runs [start, end), which are
    sorted, non-empty and apart, as _removed_runs returns them.

    Works block by block: reduceat sums an int64 copy of its input, which
    is then one block long.
    """
    total = 0
    for start in range(0, power.size, BLOCK):
        block = power[start:start + BLOCK]
        first = np.searchsorted(ends, start, "right")
        stop = np.searchsorted(starts, start + block.size)
        if first == stop:  # no run overlaps the block
            total += int(block.sum(dtype=np.int64))
            continue
        # the runs clipped to the block, after a 0 if a kept stretch comes
        # first; reduceat sums from each bound to the next, the last to the
        # end of the block, so kept and removed stretches alternate
        bounds = np.column_stack((starts[first:stop], ends[first:stop])).ravel() - start
        np.clip(bounds, 0, block.size, out=bounds)
        kept_first = bounds[0] > 0
        if kept_first:
            bounds = np.concatenate(([0], bounds))
        if bounds[-1] == block.size:
            bounds = bounds[:-1]
        sums = np.add.reduceat(block, bounds, dtype=np.int64)
        total += int(sums[0 if kept_first else 1::2].sum())
    return total


def filter_packets(
    power_series,
    threshold_db_above_median: float = 10.0,
    guard_samples: int = 16,
) -> PacketFilterResult:
    """Strip bursts (stray packets) from a per-sample power series.

    Every maximal run of samples more than the threshold above the series
    median is removed, together with guard_samples on each side of the run.
    Refuses when that would discard more than 90% of the series, since the
    remainder would not be a trustworthy floor estimate. The cost is O(n)
    whatever the guard width.
    """
    series = np.asarray(power_series, dtype=np.float64)
    _check_filter_args(series.size, threshold_db_above_median, guard_samples)
    starts, ends = _burst_edges(series, np.greater, _median(series) + threshold_db_above_median)
    starts, ends, n_removed = _removed_runs(starts, ends, series.size, guard_samples)
    return PacketFilterResult(
        series=series,
        keep_mask=_keep_mask(starts, ends, series.size),
        samples_filtered=n_removed,
    )


class NoiseFloorReport(Record, frozen=False):
    """The noise floor of a capture after burst filtering, with the counts
    and limit behind it."""

    average_power_db: float
    sample_count_used: int
    samples_filtered: int
    threshold_db: float  # the burst limit: median sample power in dB + threshold
    removed_runs: np.ndarray  # (k, 2) int64: start and length of each removed run

    __eq__ = object.__eq__  # equal only to itself


ZERO_MEDIAN_MESSAGE = (
    "median sample power is zero, so only zero-power samples are left after filtering"
)


def noise_floor_report(
    capture: IqCapture,
    threshold_db_above_median: float = 10.0,
    guard_samples: int = 16,
) -> NoiseFloorReport:
    """Full analysis pipeline: per-sample power, burst filter, average.

    Equals filter_packets on sample_power_db followed by average_power_db
    of the kept samples, but works on the int32 power alone: a sample is
    a burst when its power reaches the smallest integer power above the
    dB limit, and the average comes from the exact int64 sum of the kept
    power. No float64 or bool array of the capture's length is made. A
    median sample power of zero makes every nonzero sample a burst, which
    leaves nothing but zero power to average: DataError, unless no sample
    is kept.
    """
    power = _power(capture.samples)
    _check_filter_args(power.size, threshold_db_above_median, guard_samples)
    median_db = _median_db(power)
    threshold_db = median_db + threshold_db_above_median
    starts, ends = _burst_edges(power, np.greater_equal, _min_power_above(threshold_db))
    starts, ends, n_removed = _removed_runs(starts, ends, power.size, guard_samples)
    used = power.size - n_removed
    if used and median_db == -math.inf and power.any():
        # every nonzero sample lies above a limit over a -inf dB median
        raise DataError(ZERO_MEDIAN_MESSAGE)
    return NoiseFloorReport(
        average_power_db=_mean_power_db(_kept_sum(power, starts, ends), used),
        sample_count_used=used,
        samples_filtered=n_removed,
        threshold_db=float(threshold_db),
        removed_runs=np.column_stack((starts, ends - starts)),
    )


def save_capture(capture: IqCapture, path, agc_db: float | None = None) -> None:
    """Write a capture as little-endian interleaved int16 (i0,q0,i1,q1,...).

    Metadata goes to a `<path>.meta` sidecar as `key = value` lines with
    keys sample_rate_hz, band, mode, agc_db (band/mode/agc only if known).
    """
    if agc_db is not None and not math.isfinite(agc_db):
        raise ValueError(f"agc_db must be finite, got {agc_db}")
    with open(path, "wb") as fh:
        fh.write(capture.samples.astype("<i2").tobytes())
    lines = [f"sample_rate_hz = {capture.sample_rate_hz}"]
    if capture.band is not None:
        lines.append(f"band = {capture.band.value}")
    if capture.mode is not None:
        lines.append(f"mode = {capture.mode.value}")
    if agc_db is not None:
        lines.append(f"agc_db = {agc_db}")
    with open(f"{path}.meta", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sidecar(meta_path) -> dict:
    try:
        with open(meta_path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"sidecar {meta_path}: {exc}") from None
    entries = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"sidecar {meta_path}: malformed line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SIDECAR_KEYS:
            raise DataError(f"sidecar {meta_path}: unknown key {key!r}")
        if key in entries:
            raise DataError(f"sidecar {meta_path}: repeated key {key!r}")
        entries[key] = value.strip()
    return entries


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# sidecar key -> parser; each key but save_capture's metadata-only agc_db
# is also an IqCapture field, which checks the parsed value
_SIDECAR_KEYS = {"sample_rate_hz": int, "band": Band, "mode": EnsmMode, "agc_db": _finite_float}


def load_capture(path) -> IqCapture:
    """Read the binary capture format; sidecar metadata is used if present.

    A regular file is mapped read-only, not copied: the samples are a
    read-only view of its pages, so truncating the file while the capture
    is in use raises SIGBUS. What cannot be mapped, an empty file or a
    pipe, is read.
    """
    with open(path, "rb") as fh:
        try:
            blob = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty (ValueError) or not a regular file
            blob = fh.read()
    if not blob:
        raise DataError(f"capture file {path} is empty")
    if len(blob) % 4:
        raise DataError(
            f"capture file {path} is {len(blob)} bytes, not a whole number "
            "of int16 i/q pairs"
        )
    samples = np.frombuffer(blob, dtype="<i2").reshape(-1, 2)

    meta_path = f"{path}.meta"
    meta = read_sidecar(meta_path) if os.path.exists(meta_path) else {}

    def invalid(key):
        return DataError(f"sidecar {meta_path}: invalid {key} {meta[key]!r}")

    fields = {}
    for key, parse in _SIDECAR_KEYS.items():
        if key in meta:
            try:
                fields[key] = parse(meta[key])
            except ValueError:
                raise invalid(key) from None
    fields.pop("agc_db", None)
    try:
        return IqCapture(samples, **fields)
    except ValueError as exc:  # the message names the field first
        key = str(exc).partition(" ")[0]
        if key in meta:
            raise invalid(key) from None
        raise DataError(f"capture file {path}: {exc}") from None


def synthesize_capture(
    mode: EnsmMode,
    band: Band,
    params: RfModelParams,
    n_samples: int,
    seed: int,
) -> IqCapture:
    """Complex white noise whose average power matches the modeled floor.

    Deterministic for a given seed; i and q are drawn independently so the
    expected mean of i^2 + q^2 equals the floor converted out of dB.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    floor_db = rx_noise_floor(mode, band, params)
    if floor_db > MAX_POWER_DB:  # compared in dB: 10 ** (floor / 10) can overflow
        raise ValueError(f"{mode.value} floor for band {band.value} is {floor_db} dB, above "
                         f"the int16 full scale of {MAX_POWER_DB:.2f} dB")
    sigma = math.sqrt(10.0 ** (floor_db / 10.0) / 2.0)
    rng = np.random.default_rng(seed)
    # consecutive draws continue one stream, so drawing in chunks gives the
    # same samples as one (n, 2) draw without its float64 block. normal(0,
    # sigma) is 0.0 + sigma * z, which differs from sigma * z only by the
    # sign of a zero, and rint and the cast make both 0
    samples = np.empty((n_samples, 2), dtype=np.int16)
    chunk = np.empty((min(SYNTH_CHUNK, n_samples), 2))
    for start in range(0, n_samples, SYNTH_CHUNK):
        iq = chunk[:n_samples - start]
        rng.standard_normal(out=iq)
        iq *= sigma
        np.rint(iq, out=iq)
        np.clip(iq, -IQ_LIMIT, IQ_LIMIT, out=iq)
        samples[start:start + len(iq)] = iq
    samples.flags.writeable = False  # so the capture keeps it, not a copy
    return IqCapture(samples, band=band, mode=mode)
