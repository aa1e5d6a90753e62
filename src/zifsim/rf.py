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
from .params import Band, RfModelParams

IQ_LIMIT = 32767  # samples are signed 16-bit


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
    """Raw receiver samples: (i, q) pairs as signed 16-bit integers."""

    samples: np.ndarray  # shape (n, 2)
    sample_rate_hz: int = 20_000_000
    band: Band | None = None
    mode: EnsmMode | None = None

    def __post_init__(self):
        if self.sample_rate_hz < 1:  # load_capture maps this to the sidecar key
            raise ValueError(f"sample_rate_hz {self.sample_rate_hz} is not positive")
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
        self.samples = samples.astype(np.int16)

    def __len__(self):
        return self.samples.shape[0]


def _linear_power(samples: np.ndarray) -> np.ndarray:
    """Per-sample i*i + q*q as float64.

    Exact: q*q fits int32 and every sum is an integer below 2**53.
    """
    i, q = samples[:, 0], samples[:, 1]
    power = np.multiply(i, i, dtype=np.float64)
    power += np.multiply(q, q, dtype=np.int32)
    return power


def _to_db(power: np.ndarray, out=None) -> np.ndarray:
    """10*log10 of linear power, element-wise; zero maps to -inf."""
    with np.errstate(divide="ignore"):
        db = np.log10(power, out=out)
    db *= 10.0
    return db


def _mean_power_db(power: np.ndarray) -> float:
    if power.size == 0:
        raise DataError("cannot average an empty capture")
    mean_power = float(np.mean(power))
    if mean_power == 0.0:
        raise DataError("all-zero capture has no finite power")
    return 10.0 * math.log10(mean_power)


def average_power_db(capture: IqCapture) -> float:
    """10*log10 of mean(i^2 + q^2), relative dB."""
    return _mean_power_db(_linear_power(capture.samples))


def sample_power_db(capture: IqCapture) -> np.ndarray:
    """Per-sample power in dB; zero samples map to -inf."""
    power = _linear_power(capture.samples)
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


def _dilate(hot: np.ndarray, guard: int) -> np.ndarray:
    """Widen every run of True by guard samples on each side, clamped.

    Works on run edges, so the cost is O(n) whatever the guard width.
    """
    n = hot.size
    padded = np.concatenate(([False], hot, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    starts = np.maximum(edges[::2] - guard, 0)
    ends = np.minimum(edges[1::2] + guard, n)
    # merge widened runs that now overlap: a merged run begins at each
    # start that clears the end before it; with no runs all stay empty
    fresh = np.flatnonzero(starts[1:] >= ends[:-1]) + 1
    starts = np.concatenate((starts[:1], starts[fresh]))
    ends = np.concatenate((ends[fresh - 1], ends[-1:]))
    # stretches alternate kept, removed: [0, s0) [s0, e0) [e0, s1) ... [e, n)
    bounds = np.concatenate(([0], np.column_stack((starts, ends)).ravel(), [n]))
    removed = np.zeros(bounds.size - 1, dtype=bool)
    removed[1::2] = True
    return np.repeat(removed, np.diff(bounds))


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
    if series.size == 0:
        raise ValueError("power series is empty")
    if not (threshold_db_above_median > 0 and math.isfinite(threshold_db_above_median)):
        raise ValueError("threshold must be positive and finite")
    if guard_samples < 0:
        raise ValueError("guard_samples must be non-negative")

    hot = series > _median(series) + threshold_db_above_median
    # a guard of n already reaches both ends; a wider one overflows int64
    removed = _dilate(hot, min(guard_samples, series.size))

    n_removed = int(np.count_nonzero(removed))
    if n_removed > 0.9 * series.size:
        raise FilterRefusedError(
            f"filter would remove {n_removed} of {series.size} samples; "
            "series is too noisy to estimate a floor"
        )
    return PacketFilterResult(series=series, keep_mask=~removed, samples_filtered=n_removed)


@dataclass
class NoiseFloorReport:
    average_power_db: float
    sample_count_used: int
    samples_filtered: int


def noise_floor_report(
    capture: IqCapture,
    threshold_db_above_median: float = 10.0,
    guard_samples: int = 16,
) -> NoiseFloorReport:
    """Full analysis pipeline: per-sample power, burst filter, average.

    Linear power is computed once; the filter sees its dB series and the
    average is taken over the kept linear values.
    """
    power = _linear_power(capture.samples)
    result = filter_packets(_to_db(power), threshold_db_above_median, guard_samples)
    keep_mask, n_filtered = result.keep_mask, result.samples_filtered
    del result  # frees the dB series before the kept power is copied out
    kept = power[keep_mask]
    return NoiseFloorReport(
        average_power_db=_mean_power_db(kept),
        sample_count_used=kept.size,
        samples_filtered=n_filtered,
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
    iq = rng.normal(0.0, sigma, size=(n_samples, 2))
    np.rint(iq, out=iq)
    np.clip(iq, -IQ_LIMIT, IQ_LIMIT, out=iq)
    return IqCapture(iq.astype(np.int16), band=band, mode=mode)
