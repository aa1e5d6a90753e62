"""Hypothesis properties of the noise layer.

The one-pass `noise_floor_report` must equal, bit for bit and error for
error, the plain composition of the public layer functions it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zifsim import (
    DataError,
    FilterRefusedError,
    IqCapture,
    average_power_db,
    filter_packets,
    load_capture,
    noise_floor_report,
    sample_power_db,
)

from zifsim.rf import ZERO_MEDIAN_MESSAGE

from conftest import removed_mask

# Deterministic and bounded so the tier-1 run stays fast and stable.
PROFILE = settings(derandomize=True, deadline=None, max_examples=100, database=None)

thresholds = st.floats(0.5, 30.0)


@st.composite
def burst_captures(draw):
    """int16 captures: a noise floor with zero runs and strong bursts,
    edges included, plus a guard from 0 to beyond the length.

    The floor amplitude spans the whole int16 range, so the integer burst
    limit lands anywhere in 0..2**31. Zero-power samples, drawn last, can
    fill half or more of the capture, so the median may be -inf dB at odd
    and even lengths.
    """
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitude = draw(st.integers(0, 300) | st.integers(0, 32_767))
    samples = rng.integers(-amplitude, amplitude + 1, size=(n, 2))
    for _ in range(draw(st.integers(0, 4))):
        width = draw(st.integers(1, n))
        start = draw(st.sampled_from((0, n - width)) | st.integers(0, n - width))
        level = draw(st.sampled_from((0, 2_000, 32_767)))
        samples[start:start + width] = rng.integers(-level, level + 1, size=(width, 2))
    zeros = draw(st.integers(0, n // 3) | st.sampled_from((n // 2, (n + 1) // 2, n)))
    samples[rng.permutation(n)[:zeros]] = 0
    guard = draw(st.integers(0, n + 20))
    return IqCapture(samples.astype(np.int16)), guard


def composed_report(capture, threshold, guard):
    """The report as separate layer calls: dB series, filter, rebuilt capture.

    A zero-power median makes every nonzero sample a burst; the report
    then names that cause rather than an all-zero capture.
    """
    series = sample_power_db(capture)
    result = filter_packets(series, threshold, guard)
    remaining = IqCapture(capture.samples[result.keep_mask])
    if len(remaining) and np.median(series) == -np.inf and np.isfinite(series).any():
        raise DataError(ZERO_MEDIAN_MESSAGE)
    return (average_power_db(remaining), len(remaining), result.samples_filtered)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, DataError) as exc:
        return type(exc), str(exc)


@PROFILE
@given(burst_captures(), thresholds)
def test_report_equals_layer_composition(case, threshold):
    capture, guard = case

    def report(*args):
        r = noise_floor_report(*args)
        return (r.average_power_db, r.sample_count_used, r.samples_filtered)

    expected = outcome(composed_report, capture, threshold, guard)
    assert outcome(report, capture, threshold, guard) == expected


@PROFILE
@given(burst_captures(), thresholds)
def test_report_shows_the_db_path_limit_and_runs(case, threshold):
    # the report's dB limit and removed runs are the dB path's median + the
    # threshold and the complement of filter_packets' keep mask
    capture, guard = case
    series = sample_power_db(capture)
    try:
        keep = filter_packets(series, threshold, guard).keep_mask
    except FilterRefusedError:
        return
    if np.isneginf(series[keep]).all():
        return  # nothing to average: the composition property pins the error
    report = noise_floor_report(capture, threshold, guard)
    assert report.threshold_db == np.median(series) + threshold
    assert np.array_equal(removed_mask(report.removed_runs, len(capture)), ~keep)
    starts, lengths = report.removed_runs.T
    assert (lengths > 0).all()
    assert (starts[1:] > starts[:-1] + lengths[:-1]).all()  # maximal runs


@pytest.fixture(scope="module")
def capture_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("captures")


@PROFILE
@given(st.binary(max_size=64))
def test_load_capture_rejects_partial_files(capture_dir, blob):
    path = capture_dir / "capture.iq"
    path.write_bytes(blob)
    if not blob or len(blob) % 4:
        with pytest.raises(DataError):
            load_capture(path)
        return
    expected = np.frombuffer(blob, dtype="<i2").reshape(-1, 2)
    if (expected == -32768).any():
        with pytest.raises(ValueError):
            load_capture(path)
        return
    assert np.array_equal(load_capture(path).samples, expected)
