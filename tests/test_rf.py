"""RF state mapping, capture analysis, burst filtering, capture files."""

import math
import os
import random
import re
import threading
import tracemalloc

import numpy as np
import pytest

from zifsim import (
    Band,
    DataError,
    EnsmMode,
    FilterRefusedError,
    IqCapture,
    RfModelParams,
    average_power_db,
    filter_packets,
    load_capture,
    noise_floor_delta,
    noise_floor_report,
    rx_noise_floor,
    sample_power_db,
    save_capture,
    synthesize_capture,
)

from zifsim.rf import BLOCK, SYNTH_CHUNK

from conftest import (
    brute_force_average_db,
    brute_force_keep_mask,
    make_burst_capture,
    make_burst_series,
    removed_mask,
)

TDD_MODES = (EnsmMode.STANDARD_ENSM_TDD, EnsmMode.STANDARD_TDD,
             EnsmMode.STANDARD_TDD_DUAL_SYNTH)


def test_noise_floor_lookup(rf):
    assert rx_noise_floor(EnsmMode.FDD, Band.B2G4, rf) == 66.4
    assert rx_noise_floor(EnsmMode.FDD, Band.B5G, rf) == 58.0
    assert rx_noise_floor(EnsmMode.FDD_INDEPENDENT, Band.B2G4, rf) == 66.4
    assert rx_noise_floor(EnsmMode.LO_CONTROL, Band.B2G4, rf) == 53.0
    assert rx_noise_floor(EnsmMode.LO_CONTROL, Band.B5G, rf) == 53.4
    for mode in TDD_MODES:
        assert rx_noise_floor(mode, Band.B2G4, rf) == 53.3
        assert rx_noise_floor(mode, Band.B5G, rf) == 53.7


def test_floor_ordering_per_band(rf):
    for band in Band:
        fdd = rx_noise_floor(EnsmMode.FDD, band, rf)
        tdd = rx_noise_floor(EnsmMode.STANDARD_ENSM_TDD, band, rf)
        lo = rx_noise_floor(EnsmMode.LO_CONTROL, band, rf)
        assert fdd >= tdd >= lo


def test_noise_floor_deltas(rf):
    assert noise_floor_delta(EnsmMode.FDD, EnsmMode.LO_CONTROL, Band.B2G4, rf) \
        == pytest.approx(13.4)
    assert noise_floor_delta(EnsmMode.FDD, EnsmMode.LO_CONTROL, Band.B5G, rf) \
        == pytest.approx(4.6)
    for mode in EnsmMode:
        assert noise_floor_delta(mode, mode, Band.B2G4, rf) == 0.0


def test_lo_on_deltas(rf):
    assert rf.lo_on_delta_db[Band.B2G4] == 30.0
    assert rf.lo_on_delta_db[Band.B5G] == 22.0


def test_params_validation():
    with pytest.raises(ValueError):
        RfModelParams(fdd_rx_floor_db={Band.B2G4: 50.0, Band.B5G: 58.0})
    with pytest.raises(ValueError):
        RfModelParams(lo_on_delta_db={Band.B2G4: float("nan"), Band.B5G: 22.0})


def test_capture_validation():
    with pytest.raises(ValueError):
        IqCapture(np.zeros((4, 3), dtype=np.int16))
    with pytest.raises(ValueError):
        IqCapture(np.array([[40_000, 0]], dtype=np.int32))
    # -32768 fits in int16 but exceeds the +/-32767 magnitude limit, as i or q
    for sample in ([-32768, 0], [0, -32768]):
        with pytest.raises(ValueError, match="^sample magnitude exceeds 32767$"):
            IqCapture(np.array([[1, 1], sample], dtype=np.int16))
    for rate in (0, -20_000_000):  # a sidecar could not hold it
        with pytest.raises(ValueError, match="sample_rate_hz"):
            IqCapture(np.zeros((1, 2), dtype=np.int16), sample_rate_hz=rate)
    capture = IqCapture(np.array([[1, -1], [2, -2]], dtype=np.int16))
    assert len(capture) == 2


@pytest.mark.parametrize("samples, message", [
    # floats were cast: NaN, inf and 1e30 became 0, 0.5 and 1.7 became 0 and 1
    (np.array([[np.nan, 0.0]]), "samples must hold integers, got dtype float64"),
    (np.array([[np.inf, 0.0]]), "samples must hold integers, got dtype float64"),
    (np.array([[1e30, 0.0]]), "samples must hold integers, got dtype float64"),
    (np.array([[0.5, 1.7]]), "samples must hold integers, got dtype float64"),
    (np.array([[True, False]]), "samples must hold integers, got dtype bool"),
    # abs(-2**63) wraps to itself in int64, and the cast to int16 made it 0
    (np.array([[-2**63, 0]], dtype=np.int64), "sample magnitude exceeds 32767"),
    (np.array([[2**64 - 1, 0]], dtype=np.uint64), "sample magnitude exceeds 32767"),
    (np.array([[0, 32768]], dtype=np.uint16), "sample magnitude exceeds 32767"),
])
def test_capture_refuses_samples_that_are_no_int16_value(samples, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        IqCapture(samples)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64, np.uint64])
def test_capture_takes_any_integer_dtype_within_range(dtype):
    capture = IqCapture(np.array([[0, 1], [2, 127]], dtype=dtype))
    assert capture.samples.dtype == np.int16
    assert capture.samples.tolist() == [[0, 1], [2, 127]]


@pytest.mark.parametrize("rate", [math.nan, 2.5])
def test_capture_refuses_a_nan_or_fractional_rate(rate):
    with pytest.raises(ValueError, match="sample_rate_hz"):
        IqCapture(np.zeros((1, 2), dtype=np.int16), sample_rate_hz=rate)


def test_capture_owns_its_samples():
    source = np.array([[1, -1], [2, -2]], dtype=np.int16)
    capture = IqCapture(source)
    source[0, 0] = -32768
    assert capture.samples.tolist() == [[1, -1], [2, -2]]


def test_capture_keeps_a_read_only_int16_array(tmp_path, rf):
    source = np.array([[1, -1], [2, -2]], dtype=np.int16)
    source.flags.writeable = False
    assert IqCapture(source).samples is source
    # synthesis and loading hand over read-only buffers, not copies
    capture = synthesize_capture(EnsmMode.FDD, Band.B2G4, rf, 8, seed=3)
    assert not capture.samples.flags.writeable
    path = tmp_path / "capture.iq"
    save_capture(capture, path)
    loaded = load_capture(path)
    assert not loaded.samples.flags.writeable
    assert np.array_equal(loaded.samples, capture.samples)


def test_average_power_known_values():
    ones = IqCapture(np.tile(np.array([[1, 0]], dtype=np.int16), (50, 1)))
    assert average_power_db(ones) == pytest.approx(0.0, abs=1e-12)
    tens = IqCapture(np.tile(np.array([[10, 0]], dtype=np.int16), (50, 1)))
    assert average_power_db(tens) == pytest.approx(20.0, abs=1e-12)


def test_average_power_error_cases():
    with pytest.raises(DataError):
        average_power_db(IqCapture(np.empty((0, 2), dtype=np.int16)))
    with pytest.raises(DataError):
        average_power_db(IqCapture(np.zeros((10, 2), dtype=np.int16)))


def test_average_power_matches_brute_force():
    rng = np.random.default_rng(42)
    samples = rng.integers(-3000, 3000, size=(500, 2)).astype(np.int16)
    samples[0] = (1, 1)  # guard against the all-zero case
    capture = IqCapture(samples)
    assert average_power_db(capture) == pytest.approx(
        brute_force_average_db(samples.tolist()), abs=1e-9
    )


def test_average_power_scale_covariance():
    rng = np.random.default_rng(7)
    base = rng.integers(-3000, 3000, size=(400, 2)).astype(np.int16)
    base[0] = (5, 5)
    scaled = (base.astype(np.int32) * 10).astype(np.int16)
    delta = average_power_db(IqCapture(scaled)) - average_power_db(IqCapture(base))
    assert delta == pytest.approx(20.0, abs=1e-9)


def test_sample_power_db_zero_maps_to_neg_inf():
    capture = IqCapture(np.array([[0, 0], [1, 0]], dtype=np.int16))
    power = sample_power_db(capture)
    assert power[0] == -math.inf
    assert power[1] == pytest.approx(0.0)


def test_filter_flat_series_removes_nothing():
    result = filter_packets([5.0] * 100)
    assert result.samples_filtered == 0
    assert result.series[result.keep_mask].size == 100


def test_filter_single_sample_retained():
    result = filter_packets([40.0])
    assert result.samples_filtered == 0
    assert list(result.series[result.keep_mask]) == [40.0]


def test_filter_injected_burst_exact_count():
    # 100-sample burst at +20 dB, guard 16 each side -> exactly 132 removed
    series = [0.0] * 1000
    for k in range(500, 600):
        series[k] = 20.0
    result = filter_packets(series, threshold_db_above_median=10.0,
                            guard_samples=16)
    assert result.samples_filtered == 132
    assert not result.keep_mask[484:616].any()
    assert result.keep_mask[:484].all() and result.keep_mask[616:].all()


def test_filter_burst_at_series_edge_clamps():
    series = [0.0] * 100
    series[0] = 25.0
    result = filter_packets(series, guard_samples=16)
    assert result.samples_filtered == 17  # sample 0 plus 16 to the right


def test_filter_series_shorter_than_guard_window():
    # a hot sample in a series shorter than the dilation window must
    # still yield a mask aligned with the series
    with pytest.raises(FilterRefusedError):
        filter_packets([0.0, 0.0, 25.0, 0.0], guard_samples=16)
    result = filter_packets([0.0, 25.0, 0.0] + [0.0] * 30, guard_samples=16)
    assert len(result.keep_mask) == 33
    assert list(result.keep_mask) == brute_force_keep_mask(
        [0.0, 25.0, 0.0] + [0.0] * 30, 10.0, 16
    )


def test_filter_matches_brute_force_oracle():
    rng = random.Random(13579)
    for _ in range(500):
        n = rng.randint(1, 400)
        series, _ = make_burst_series(rng, n)
        for _ in range(rng.randint(0, 3)):  # zero-power samples
            series[rng.randrange(n)] = -math.inf
        threshold = rng.choice((10.0, rng.uniform(0.5, 30.0)))
        guard = rng.choice((0, 1, 4, 16, rng.randint(0, n + 5)))
        oracle = brute_force_keep_mask(series, threshold, guard)
        try:
            result = filter_packets(series, threshold, guard)
        except FilterRefusedError:
            assert (len(series) - sum(oracle)) > 0.9 * len(series)
            continue
        assert list(result.keep_mask) == oracle
        assert result.samples_filtered == len(series) - sum(oracle)


def test_filter_idempotent_on_burst_fixtures():
    rng = random.Random(24680)
    for _ in range(100):
        series, _ = make_burst_series(rng, rng.randint(50, 400))
        try:
            first = filter_packets(series)
        except FilterRefusedError:
            continue
        second = filter_packets(list(first.series[first.keep_mask]))
        assert second.samples_filtered == 0


def test_filter_rejects_a_nan_sample():
    # a series holding NaN has no median, so no burst could be found
    burst = [1.0] * 8 + [50.0] + [1.0] * 9
    assert filter_packets(burst, guard_samples=0).samples_filtered == 1
    for series in ([math.nan] + burst, [0.0, 0.0, 50.0, math.nan], [0.0, 50.0, math.nan]):
        with pytest.raises(ValueError, match="NaN"):
            filter_packets(series, guard_samples=0)
    # zero power, -inf dB, is a valid sample
    assert filter_packets([-math.inf] + burst, guard_samples=0).samples_filtered == 1


def test_filter_infinite_median():
    # the median is -inf when the middle values are zero-power samples
    # (every finite sample is then above the cut), and NaN when the two
    # middle values of an even series are -inf and +inf (nothing is)
    result = filter_packets([-math.inf] * 5 + [1.0] * 5, guard_samples=0)
    assert result.keep_mask.tolist() == [True] * 5 + [False] * 5
    with np.errstate(invalid="ignore"):  # -inf + inf in the median
        assert filter_packets([-math.inf, math.inf]).samples_filtered == 0


def test_filter_refuses_when_too_much_would_go():
    series = [0.0] * 100
    for k in (0, 33, 66, 99):
        series[k] = 100.0
    with pytest.raises(FilterRefusedError):
        filter_packets(series, guard_samples=16)


def test_filter_validation():
    with pytest.raises(ValueError):
        filter_packets([])
    for threshold in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            filter_packets([1.0], threshold_db_above_median=threshold)
    with pytest.raises(ValueError):
        filter_packets([1.0], guard_samples=-1)


def test_synthesize_deterministic_and_calibrated(rf):
    one = synthesize_capture(EnsmMode.FDD, Band.B2G4, rf, 5000, seed=3)
    two = synthesize_capture(EnsmMode.FDD, Band.B2G4, rf, 5000, seed=3)
    assert np.array_equal(one.samples, two.samples)
    other = synthesize_capture(EnsmMode.FDD, Band.B2G4, rf, 5000, seed=4)
    assert not np.array_equal(one.samples, other.samples)
    assert len(one) == 5000
    assert one.band is Band.B2G4 and one.mode is EnsmMode.FDD

    big = synthesize_capture(EnsmMode.FDD, Band.B2G4, rf, 200_000, seed=3)
    assert average_power_db(big) == pytest.approx(66.4, abs=0.05)


def test_synthesize_analyze_closes_the_loop(rf):
    # full pipeline lands within 0.1 dB for every (mode, band) pair
    for mode in (EnsmMode.FDD, EnsmMode.STANDARD_TDD, EnsmMode.LO_CONTROL):
        for band in Band:
            capture = synthesize_capture(mode, band, rf, 100_000, seed=1)
            report = noise_floor_report(capture)
            assert report.average_power_db == pytest.approx(
                rx_noise_floor(mode, band, rf), abs=0.1
            )
            assert report.sample_count_used + report.samples_filtered == 100_000


def test_report_counts_injected_bursts(rf):
    samples = make_burst_capture()
    capture = IqCapture(samples)
    oracle = brute_force_keep_mask(
        list(sample_power_db(capture)), 10.0, 16
    )
    report = noise_floor_report(capture)
    assert report.samples_filtered == len(oracle) - sum(oracle)
    assert report.samples_filtered >= 65  # both bursts plus guards
    kept = [s for s, keep in zip(samples.tolist(), oracle) if keep]
    assert report.average_power_db == pytest.approx(
        brute_force_average_db(kept), abs=1e-9
    )


def test_report_removes_every_injected_burst(rf):
    # constant-envelope bursts 20 dB over a synthesized floor: every burst
    # sample must lie in one of the report's removed runs, whatever the guard
    rng = np.random.default_rng(2024)
    for trial in range(40):
        mode = (EnsmMode.FDD, EnsmMode.LO_CONTROL, EnsmMode.STANDARD_TDD)[trial % 3]
        band = list(Band)[trial % 2]
        n = int(rng.integers(1_000, 20_000))
        samples = synthesize_capture(mode, band, rf, n, seed=trial).samples.copy()
        amplitude = round(math.sqrt(10.0 ** ((rx_noise_floor(mode, band, rf) + 20.0) / 10.0) / 2.0))
        injected = np.zeros(n, dtype=bool)
        for _ in range(int(rng.integers(1, 6))):
            length = int(rng.integers(1, n // 20))
            start = int(rng.integers(0, n - length + 1))
            samples[start:start + length] = rng.choice((-amplitude, amplitude), size=(length, 2))
            injected[start:start + length] = True
        report = noise_floor_report(IqCapture(samples), guard_samples=int(rng.choice((0, 1, 16, 40))))
        removed = removed_mask(report.removed_runs, n)
        assert removed[injected].all()
        assert report.samples_filtered == np.count_nonzero(removed)


def test_report_merges_touching_runs():
    # hot samples at 10 and 13 with a guard of 1 widen to [9, 12) and
    # [12, 15); the report shows them as the one run they remove
    samples = np.full((40, 2), 10, dtype=np.int16)
    samples[[10, 13]] = 3000
    report = noise_floor_report(IqCapture(samples), guard_samples=1)
    assert report.removed_runs.tolist() == [[9, 6]]
    assert report.samples_filtered == 6


def report_outcome(capture, threshold_db, guard):
    """The report's fields, or the error it raises, as one value."""
    try:
        report = noise_floor_report(capture, threshold_db, guard)
    except (DataError, FilterRefusedError) as exc:
        return type(exc), str(exc)
    removed = removed_mask(report.removed_runs, len(capture))
    return report.average_power_db, report.sample_count_used, removed.tolist()


def oracle_outcome(capture, threshold_db, guard):
    """report_outcome from the dB path: filter_packets on sample_power_db,
    then average_power_db of the kept samples."""
    try:
        keep = filter_packets(sample_power_db(capture), threshold_db, guard).keep_mask
        kept = IqCapture(capture.samples[keep])
        return average_power_db(kept), len(kept), (~keep).tolist()
    except (DataError, FilterRefusedError) as exc:
        return type(exc), str(exc)


# Bursts placed against the report's block edges, as [start, stop) ranges
# of an n-sample capture, clipped to it.
BLOCK_LAYOUTS = {
    "starts at an edge": lambda n: [(BLOCK, BLOCK + 7)],
    "ends at an edge": lambda n: [(BLOCK - 7, BLOCK)],
    "spans an edge": lambda n: [(BLOCK - 3, BLOCK + 3)],
    "is a whole block": lambda n: [(BLOCK, 2 * BLOCK)],  # under half of 2 * BLOCK + 3
    "first and last hot": lambda n: [(0, 1), (n - 1, n)],
    "guards meet at an edge": lambda n: [(BLOCK - 17, BLOCK - 16), (BLOCK + 16, BLOCK + 17)],
}


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("layout", BLOCK_LAYOUTS)
@pytest.mark.parametrize("guard", [0, 16, "n", 10**9])
def test_report_across_block_edges_matches_db_path(n, layout, guard):
    rng = np.random.default_rng(n)
    samples = rng.integers(-40, 41, size=(n, 2)).astype(np.int16)
    for start, stop in BLOCK_LAYOUTS[layout](n):
        samples[max(start, 0):max(min(stop, n), 0)] = (3000, -3000)
    capture = IqCapture(samples)
    guard = n if guard == "n" else guard
    assert report_outcome(capture, 10.0, guard) == oracle_outcome(capture, 10.0, guard)


def test_full_scale_power_across_a_block_edge():
    # i*i + q*q of +/-32767 is 2**31 - 2**17 + 2, the largest int32 power
    samples = np.full((2 * BLOCK + 3, 2), 5, dtype=np.int16)
    samples[BLOCK - 2:BLOCK + 2] = [(32767, -32767), (-32767, 32767), (32767, 32767),
                                    (-32767, -32767)]
    samples[-1] = (-32767, 32767)
    capture = IqCapture(samples)
    power = (samples.astype(np.int64) ** 2).sum(axis=1)
    assert power.max() == 2 * 32767**2
    assert np.array_equal(sample_power_db(capture), 10.0 * np.log10(power.astype(np.float64)))
    assert average_power_db(capture) == pytest.approx(brute_force_average_db(samples.tolist()),
                                                      abs=1e-9)
    assert report_outcome(capture, 10.0, 16) == oracle_outcome(capture, 10.0, 16)


# Three consecutive integer powers, each as an (i, q) sample, from 8 up to
# where the int16 square still holds consecutive sums, and a floor sample
# well below them. (A zero-power median removes every nonzero sample, so
# the report refuses those captures; see
# test_report_refuses_a_zero_power_median.)
BOUNDARY_CASES = [
    (((2, 2), (3, 0), (3, 1)), (1, 0)),
    (((1984, 252), (1985, 244), (1971, 339)), (200, 0)),
    (((27132, 18372), (25280, 20847), (32503, 4151)), (3000, 0)),
    (((30904, 23344), (27828, 26937), (31427, 22635)), (3000, 0)),
]


def test_report_refuses_a_zero_power_median():
    # 100 zero samples and three of power 9: the median is zero, every
    # nonzero sample is a burst, and only zero power is left to average
    samples = np.zeros((103, 2), dtype=np.int16)
    samples[[25, 50, 75]] = (3, 0)
    with pytest.raises(DataError, match="^median sample power is zero, so only zero-power "
                                        "samples are left after filtering$"):
        noise_floor_report(IqCapture(samples))
    # a capture that is all zero keeps its own message
    with pytest.raises(DataError, match="^all-zero capture has no finite power$"):
        noise_floor_report(IqCapture(np.zeros((103, 2), dtype=np.int16)))


@pytest.mark.parametrize("triple, floor", BOUNDARY_CASES)
def test_burst_limit_boundary_matches_db_path(triple, floor):
    # the integer limit p_star, the smallest power above the dB limit, set
    # exactly on the middle sample: p_star - 1 stays, p_star and p_star + 1
    # go, as filter_packets decides on the dB series
    powers = [i * i + q * q for i, q in triple]
    assert powers == [powers[1] - 1, powers[1], powers[1] + 1]
    rows = [floor] * 100
    at = [25, 50, 75]
    for k, sample in zip(at, triple):
        rows[k] = sample
    capture = IqCapture(np.array(rows, dtype=np.int16))
    series = sample_power_db(capture)
    median = np.median(series)
    below, limit = series[at[0]], series[at[1]]
    # thresholds near the one whose limit lands in [dB(p_star - 1), dB(p_star))
    candidates = [below - median]
    for direction in (-math.inf, math.inf):
        threshold = candidates[0]
        for _ in range(3):
            threshold = np.nextafter(threshold, direction)
            candidates.append(threshold)
    checked = 0
    for threshold in candidates:
        cut = median + threshold
        if not (threshold > 0 and below <= cut < limit):
            continue
        report = noise_floor_report(capture, threshold, guard_samples=0)
        assert report.threshold_db == cut
        keep = filter_packets(series, threshold, guard_samples=0).keep_mask
        assert keep[at].tolist() == [True, False, False]
        assert np.array_equal(removed_mask(report.removed_runs, len(capture)), ~keep)
        checked += 1
    assert checked


def test_capture_roundtrip(tmp_path, rf):
    capture = synthesize_capture(EnsmMode.LO_CONTROL, Band.B5G, rf, 256, seed=9)
    path = tmp_path / "capture.iq"
    save_capture(capture, path, agc_db=62.0)

    blob = path.read_bytes()
    assert len(blob) == 256 * 4
    first_i = int.from_bytes(blob[0:2], "little", signed=True)
    first_q = int.from_bytes(blob[2:4], "little", signed=True)
    assert (first_i, first_q) == tuple(capture.samples[0])

    meta = (tmp_path / "capture.iq.meta").read_text()
    assert "sample_rate_hz = 20000000" in meta
    assert "band = 5g" in meta
    assert "mode = lo-control" in meta
    assert "agc_db = 62.0" in meta

    loaded = load_capture(path)
    assert np.array_equal(loaded.samples, capture.samples)
    assert loaded.band is Band.B5G
    assert loaded.mode is EnsmMode.LO_CONTROL
    assert loaded.sample_rate_hz == 20_000_000



@pytest.mark.parametrize("agc_db", [math.nan, math.inf, -math.inf])
def test_save_capture_refuses_a_non_finite_agc_db(tmp_path, agc_db):
    path = tmp_path / "capture.iq"
    with pytest.raises(ValueError, match="^agc_db must be finite"):
        save_capture(IqCapture(np.zeros((4, 2), np.int16)), path, agc_db=agc_db)
    assert list(tmp_path.iterdir()) == []  # refused before anything is written


def test_load_capture_without_sidecar(tmp_path):
    path = tmp_path / "bare.iq"
    path.write_bytes(b"\x01\x00\x02\x00")
    loaded = load_capture(path)
    assert loaded.band is None and loaded.mode is None
    assert loaded.samples.tolist() == [[1, 2]]


def test_load_capture_maps_a_regular_file(tmp_path):
    # a read-only view of the file's pages, not a copy: a later write
    # to the file shows through
    path = tmp_path / "cap.iq"
    path.write_bytes(b"\x01\x00\x02\x00\x03\x00\x04\x00")
    loaded = load_capture(path)
    assert not loaded.samples.flags.writeable
    with open(path, "r+b") as fh:
        fh.write(b"\x07\x00")
    assert loaded.samples.tolist() == [[7, 2], [3, 4]]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_capture_from_pipe(tmp_path):
    # a pipe has no size or file position up front
    fifo = tmp_path / "cap.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=fifo.write_bytes, args=(b"\x01\x00\x02\x00\x03\x00\x04\x00",),
        daemon=True,
    )
    writer.start()
    loaded = load_capture(fifo)
    writer.join(timeout=5)
    assert not writer.is_alive()
    assert loaded.samples.tolist() == [[1, 2], [3, 4]]


def test_load_capture_error_cases(tmp_path):
    empty = tmp_path / "empty.iq"
    empty.write_bytes(b"")
    with pytest.raises(DataError):
        load_capture(empty)
    odd = tmp_path / "odd.iq"
    odd.write_bytes(b"\x01\x00\x02")
    with pytest.raises(DataError):
        load_capture(odd)


@pytest.mark.parametrize("line,key", [
    ("sample_rate_hz = abc", "sample_rate_hz"),
    ("sample_rate_hz = 0", "sample_rate_hz"),
    ("band = 7g", "band"),
    ("mode = warp", "mode"),
    ("band 5g", "malformed"),
])
def test_load_capture_bad_sidecar_names_file_and_key(tmp_path, line, key):
    path = tmp_path / "cap.iq"
    path.write_bytes(b"\x01\x00\x02\x00")
    (tmp_path / "cap.iq.meta").write_text(line + "\n")
    with pytest.raises(DataError, match=key) as info:
        load_capture(path)
    assert f"{path}.meta" in str(info.value)


def test_synthesize_validation(rf):
    with pytest.raises(ValueError):
        synthesize_capture(EnsmMode.FDD, Band.B2G4, rf, 0, seed=1)


@pytest.mark.parametrize("floor_db", [400.0, 1e308])
def test_synthesize_refuses_a_floor_above_int16_full_scale(floor_db):
    # 400 dB would clip to full scale (93.32 dB); 1e308 overflowed 10 ** (floor / 10)
    rf = RfModelParams(fdd_rx_floor_db={Band.B2G4: floor_db, Band.B5G: 58.0})
    message = f"fdd floor for band 2g4 is {floor_db} dB, above the int16 full scale of 93.32 dB"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synthesize_capture(EnsmMode.FDD, Band.B2G4, rf, 8, seed=1)
    synthesize_capture(EnsmMode.FDD, Band.B5G, rf, 8, seed=1)  # the other band is fine


@pytest.mark.parametrize("n", [SYNTH_CHUNK - 1, SYNTH_CHUNK, SYNTH_CHUNK + 1, 2 * SYNTH_CHUNK + 3])
def test_synthesize_draws_one_stream_in_chunks(rf, n):
    # the chunked draws equal one (n, 2) draw, rounded, clipped and cast
    capture = synthesize_capture(EnsmMode.FDD, Band.B5G, rf, n, seed=11)
    sigma = math.sqrt(10.0 ** (rx_noise_floor(EnsmMode.FDD, Band.B5G, rf) / 10.0) / 2.0)
    iq = np.random.default_rng(11).normal(0.0, sigma, (n, 2))
    expected = np.clip(np.rint(iq), -32767, 32767).astype(np.int16)
    assert np.array_equal(capture.samples, expected)


def test_noise_path_memory_per_sample(rf):
    # numpy reports its buffers to tracemalloc; a float64 copy of the
    # capture's length would cost 8 bytes per sample on its own
    n = 1_000_000
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        capture = synthesize_capture(EnsmMode.FDD, Band.B2G4, rf, n, seed=5)
        synthesis = tracemalloc.get_traced_memory()[1] - start
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        noise_floor_report(capture)
        report = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert synthesis < 10 * n
    assert report < 12 * n
