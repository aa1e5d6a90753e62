"""Receiver noise-floor model and I/Q capture analysis.

Power values are relative dB: the quiet receiver floor in a trace is 0 dBr
and capture powers are dB relative to unit sample power. The per-mode
noise-floor numbers are calibrated model parameters, chosen to reproduce
bench measurements of an AD9361-class front-end with orthogonal antennas
and 62 dB manual gain; they are regression targets, not physical claims.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py reads sys.modules["zifsim.sim"] once the benchmark
# harness has imported `rf`; loading `sim` here keeps that entry present.
from . import sim  # noqa: F401
from .ensm import EnsmMode
from .errors import DataError, FilterRefusedError
from .params import Band, RfModelParams, check_integer

IQ_LIMIT = 32767  # samples are signed 16-bit
MAX_POWER = 2 * IQ_LIMIT**2  # the largest i*i + q*q, below 2**31 - 1
SYNTH_CHUNK = 1 << 18  # (i, q) pairs per normal draw in synthesize_capture


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


@dataclass
class IqCapture:
    """Raw receiver samples: (i, q) pairs as signed 16-bit integers.

    An int16 array that is not writeable, such as a view of a file's
    bytes, is kept as given; any other input is copied.
    """

    samples: np.ndarray  # shape (n, 2)
    sample_rate_hz: int = 20_000_000
    band: Band | None = None
    mode: EnsmMode | None = None

    def __post_init__(self):
        if self.sample_rate_hz < 1:  # load_capture maps this to the sidecar key
            raise ValueError(f"sample_rate_hz {self.sample_rate_hz} is not positive")
        check_integer("sample_rate_hz", self.sample_rate_hz)
        samples = np.asarray(self.samples)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError(f"samples must have shape (n, 2), got {samples.shape}")
        if samples.size:
            if samples.dtype == np.int16:
                # -32768 is the only int16 value beyond the limit
                out_of_range = int(samples.min()) < -IQ_LIMIT
            else:
                # check in int64 so abs() cannot wrap
                out_of_range = int(np.abs(samples.astype(np.int64)).max()) > IQ_LIMIT
            if out_of_range:
                raise ValueError(f"sample magnitude exceeds {IQ_LIMIT}")
        if samples.dtype != np.int16 or samples.flags.writeable:
            samples = samples.astype(np.int16)
        self.samples = samples

    def __len__(self):
        return self.samples.shape[0]


def _power(samples: np.ndarray) -> np.ndarray:
    """Per-sample i*i + q*q as a contiguous int32 array.

    Exact: every value is an integer of at most MAX_POWER.
    """
    i, q = samples[:, 0], samples[:, 1]
    power = np.multiply(i, i, dtype=np.int32)
    power += np.multiply(q, q, dtype=np.int32)
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


@dataclass
class PacketFilterResult:
    series: np.ndarray  # the filtered power series
    keep_mask: np.ndarray  # bool, aligned with the series
    samples_filtered: int

    @property
    def kept(self) -> np.ndarray:
        """The remaining power series, copied out on each read."""
        return self.series[self.keep_mask]


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


def _removed_runs(hot: np.ndarray, guard_samples: int):
    """Every run of True widened by guard_samples on each side, clamped.

    Returns the starts and ends (exclusive) of the removed runs, with runs
    that now touch or overlap merged, and the number of samples they hold.
    Works on run edges, so the cost is O(n) whatever the guard width.
    Refuses when the runs cover more than 90% of the series, since the
    remainder would not be a trustworthy floor estimate.
    """
    n = hot.size
    # a guard of n already reaches both ends; a wider one overflows int64
    guard = min(guard_samples, n)
    padded = np.concatenate(([False], hot, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    starts = np.maximum(edges[::2] - guard, 0)
    ends = np.minimum(edges[1::2] + guard, n)
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
    hot = series > _median(series) + threshold_db_above_median
    starts, ends, n_removed = _removed_runs(hot, guard_samples)
    return PacketFilterResult(
        series=series,
        keep_mask=_keep_mask(starts, ends, series.size),
        samples_filtered=n_removed,
    )


@dataclass
class NoiseFloorReport:
    average_power_db: float
    sample_count_used: int
    samples_filtered: int
    threshold_db: float  # the burst limit: median sample power in dB + threshold
    removed_runs: np.ndarray  # (k, 2) int64: start and length of each removed run


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
    power. No float64 array of the capture's length is made. A median
    sample power of zero makes every nonzero sample a burst, which leaves
    nothing but zero power to average: DataError, unless no sample is kept.
    """
    power = _power(capture.samples)
    _check_filter_args(power.size, threshold_db_above_median, guard_samples)
    median_db = _median_db(power)
    threshold_db = median_db + threshold_db_above_median
    hot = power >= _min_power_above(threshold_db)
    starts, ends, n_removed = _removed_runs(hot, guard_samples)
    keep = _keep_mask(starts, ends, power.size)
    used = power.size - n_removed
    if used and median_db == -math.inf and power.any():
        # every nonzero sample lies above a limit over a -inf dB median
        raise DataError(ZERO_MEDIAN_MESSAGE)
    return NoiseFloorReport(
        average_power_db=_mean_power_db(int(np.sum(power, dtype=np.int64, where=keep)), used),
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


# sidecar key -> parser; each key is also an IqCapture field, which checks
# the parsed value
_SIDECAR_FIELDS = {"sample_rate_hz": int, "band": Band, "mode": EnsmMode}
# keys a sidecar may hold: the fields, and save_capture's metadata-only agc_db
_SIDECAR_KEYS = {*_SIDECAR_FIELDS, "agc_db"}


def load_capture(path) -> IqCapture:
    """Read the binary capture format; sidecar metadata is used if present."""
    with open(path, "rb") as fh:
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
    for key, parse in _SIDECAR_FIELDS.items():
        if key in meta:
            try:
                fields[key] = parse(meta[key])
            except ValueError:
                raise invalid(key) from None
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
    target = 10.0 ** (rx_noise_floor(mode, band, params) / 10.0)
    sigma = math.sqrt(target / 2.0)
    rng = np.random.default_rng(seed)
    # consecutive draws continue one stream, so drawing in chunks gives the
    # same samples as one (n, 2) draw without its float64 block
    samples = np.empty((n_samples, 2), dtype=np.int16)
    for start in range(0, n_samples, SYNTH_CHUNK):
        iq = rng.normal(0.0, sigma, size=(min(SYNTH_CHUNK, n_samples - start), 2))
        np.rint(iq, out=iq)
        np.clip(iq, -IQ_LIMIT, IQ_LIMIT, out=iq)
        samples[start:start + len(iq)] = iq
    samples.flags.writeable = False  # so the capture keeps it, not a copy
    return IqCapture(samples, band=band, mode=mode)
