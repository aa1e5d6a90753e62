"""End-to-end CLI behavior: outputs, formats, files, exit codes."""

import contextlib
import csv
import gc
import io
import json
from pathlib import Path

import numpy as np
import pytest

from zifsim import (
    BUILTIN_DEADLINES,
    FilterRefusedError,
    IqCapture,
    default_config,
    dump_config,
    filter_packets,
    sample_power_db,
    save_capture,
)
from zifsim import cli_trace
from zifsim.cli import main

from conftest import brute_force_keep_mask, make_burst_capture

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def typed(value):
    if value in ("true", "false"):
        return value == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def test_turnaround_all_sweep(capsys):
    code, out, err = run_cli(capsys, "turnaround", "--all", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 12
    by_key = {(r["mode"], r["direction"]): int(r["total_ns"]) for r in rows}
    assert by_key[("standard-ensm-tdd", "rx-tx")] == 55_000
    assert by_key[("standard-tdd", "rx-tx")] == 18_000
    assert by_key[("standard-tdd-dual-synth", "rx-tx")] == 18_000
    assert by_key[("fdd-independent", "rx-tx")] == 18_000
    assert by_key[("fdd", "rx-tx")] == 0
    assert by_key[("lo-control", "rx-tx")] == 640
    assert by_key[("lo-control", "tx-rx")] == 500


def test_turnaround_single_mode_itemized(capsys):
    code, out, err = run_cli(
        capsys, "turnaround", "--mode", "lo-control", "--dir", "rx-tx",
        "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert [(r["component"], r["stage"]) for r in rows] == [
        ("spi_frame", "0"), ("lo_div_powerup", "1"),
    ]
    assert all(r["total_ns"] == "640" for r in rows)
    assert "total 640 ns" in err


def test_turnaround_bogus_mode_exits_2(capsys):
    code, out, err = run_cli(capsys, "turnaround", "--mode", "bogus")
    assert code == 2


def test_turnaround_csv_json_parity(capsys):
    _, csv_out, _ = run_cli(capsys, "turnaround", "--all", "--format", "csv")
    _, json_out, _ = run_cli(capsys, "turnaround", "--all", "--format", "json")
    csv_rows = [{k: typed(v) for k, v in row.items()} for row in parse_csv(csv_out)]
    assert csv_rows == json.loads(json_out)


def test_trace_default_reports_650ns(capsys):
    code, out, err = run_cli(capsys, "trace", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "time_us,power_db"
    assert len(lines) == 102  # header + 101 samples
    assert lines[1] == "-2.50,0.00"
    assert lines[-1] == "2.50,30.00"
    assert "measured turnaround: 0.65 us (rx-tx)" in err


def test_trace_5g_band_step(capsys):
    code, out, err = run_cli(capsys, "trace", "--band", "5g", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "2.50,22.00"


def test_trace_lo_off_schedule(capsys, tmp_path):
    cfg = tmp_path / "off.cfg"
    cfg.write_text("schedule.0 = lo-off @ 0\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "trace", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "-2.50,30.00"
    assert lines[-1] == "2.50,0.00"
    assert "measured turnaround: 0.50 us (tx-rx)" in err


def test_trace_empty_schedule_is_flat_with_na(capsys, tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("schedule.empty = true\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "trace", "--format", "csv")
    assert code == 0
    body = out.splitlines()[1:]
    assert all(line.endswith(",0.00") for line in body)
    assert "measured turnaround: n/a" in err


@pytest.mark.parametrize("schedule,expected", [
    # the step after the trigger is measured up to the next LO state change
    (("lo-on @ 0", "lo-off @ 1500"), "0.65 us (rx-tx)"),
    # mid-schedule trigger: the direction comes from the LO command at it
    (("lo-on @ 0", "trigger @ 1000", "lo-off @ 1000"), "0.50 us (tx-rx)"),
])
def test_trace_measures_the_step_after_the_trigger(capsys, tmp_path, schedule, expected):
    cfg = tmp_path / "sched.cfg"
    cfg.write_text("".join(f"schedule.{i} = {c}\n" for i, c in enumerate(schedule)))
    code, out, err = run_cli(capsys, "-c", str(cfg), "trace", "--format", "csv")
    assert code == 0
    assert f"measured turnaround: {expected}" in err.splitlines()


@pytest.mark.parametrize("pipeline", ["loop", "array"])
def test_trace_step_window_ends_at_the_first_sample_after_the_next_change(
        capsys, monkeypatch, tmp_path, pipeline):
    # the step lands at 1080 ns and the lo-off's divider event at 1110 ns,
    # between grid samples: the window ends before the first sample at or
    # after 1110 ns (1150 ns), so the crossing sample at 1100 ns counts
    if pipeline == "array":
        monkeypatch.setattr(cli_trace, "LOOP_ROWS", 0)
    cfg = tmp_path / "short.cfg"
    cfg.write_text("profile.lo_div_powerup_ns = 600\nprofile.lo_div_powerdown_ns = 30\n"
                   "schedule.0 = lo-on @ 0\nschedule.1 = lo-off @ 600\n"
                   "trace.start_ns = -500\ntrace.end_ns = 3000\ntrace.interval_ns = 50\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "trace", "--format", "csv")
    assert (code, err) == (0, "measured turnaround: 1.10 us (rx-tx)\n")


def test_trace_without_lo_command_after_trigger_says_why(capsys, tmp_path):
    cfg = tmp_path / "late.cfg"
    cfg.write_text("schedule.0 = lo-on @ 0\nschedule.1 = trigger @ 1000\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "trace", "--format", "csv")
    assert code == 0
    assert "measured turnaround: n/a (no LO command at or after the trigger" in err


@pytest.mark.parametrize("lines, expected", [
    # the LO is already on: the packet edge at 2100 ns is no LO step
    (("trace.start_ns = -500", "trace.end_ns = 6000", "schedule.0 = lo-on @ 0",
      "schedule.1 = trigger @ 2000", "schedule.2 = lo-on @ 2000",
      "schedule.3 = tx-packet-start @ 2100", "schedule.4 = tx-packet-end @ 5000"),
     "n/a (the first LO command at or after the trigger at 2000 ns finds the LO already on)"),
    # the second lo-on changes nothing, so it does not cut the settling step short
    (("trace.end_ns = 10000", "trace.settling_tau_ns = 2000", "schedule.0 = lo-on @ 0",
      "schedule.1 = lo-on @ 480"),
     "2.05 us (rx-tx)"),
], ids=["lo-already-on", "no-op-keeps-the-window"])
def test_trace_no_op_lo_write_is_no_step(capsys, tmp_path, lines, expected):
    cfg = tmp_path / "noop.cfg"
    cfg.write_text("".join(line + "\n" for line in lines))
    code, out, err = run_cli(capsys, "-c", str(cfg), "trace", "--format", "csv")
    assert code == 0
    assert err.splitlines() == [f"measured turnaround: {expected}"]


@pytest.mark.parametrize("line", [
    "trace.settling_tau_ns = -5",
    "trace.settling_tau_ns = nan",
    "rf.packet_delta_db = nan",
    "deadlines.extra.foo = -3",
    "trace.end_ns = 9007199254740992",
    "output.path =",  # a configuration error, not a file that fails to open
])
def test_trace_bad_config_values_exit_2(capsys, tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "trace", "--format", "csv")
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trace_packet_level_overflow_exits_2(capsys, tmp_path, fmt):
    # an inf packet level would print as Infinity, which is not JSON
    cfg = tmp_path / "loud.cfg"
    cfg.write_text("rf.lo_on_delta_db.2g4 = 1e308\nrf.packet_delta_db = 1e308\n"
                   "schedule.0 = lo-on @ 0\nschedule.1 = tx-packet-start @ 1000\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "trace", "--format", fmt)
    assert code == 2
    assert out == "" and err.startswith("error: rf.lo_on_delta_db + packet_delta_db ")


def test_trace_overlapping_spi_exits_1(capsys, tmp_path):
    cfg = tmp_path / "overlap.cfg"
    cfg.write_text("schedule.0 = lo-on @ 0\nschedule.1 = lo-off @ 100\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "trace")
    assert code == 1
    assert "100" in err and "480" in err


def test_trace_packet_warning_surfaces(capsys, tmp_path):
    cfg = tmp_path / "warn.cfg"
    cfg.write_text(
        "schedule.0 = tx-packet-start @ 0\n"
        "schedule.1 = tx-packet-end @ 200\n"
        "schedule.2 = lo-on @ 300\n"
    )
    code, out, err = run_cli(capsys, "-c", str(cfg), "trace", "--format", "csv")
    assert code == 0
    assert "warning" in err


def test_trace_warning_lines_in_order(capsys, tmp_path):
    # At 7 MHz the frames end at Fraction times: the lo-on at 200 powers up
    # at 26520/7 (3788.57) ns and the lo-off at 4000 powers down at
    # 52140/7 (7448.57) ns, so the packets at 3788 and 7449 warn and those
    # at 3789 and 7448 do not.
    cfg = tmp_path / "warn.cfg"
    cfg.write_text(
        "clocks.spi_clock_hz = 7000000\n"
        "schedule.0 = tx-packet-start @ 0\n"
        "schedule.1 = tx-packet-end @ 100\n"
        "schedule.2 = lo-on @ 200\n"
        "schedule.3 = tx-packet-start @ 3788\n"
        "schedule.4 = tx-packet-end @ 3789\n"
        "schedule.5 = tx-packet-start @ 3789\n"
        "schedule.6 = tx-packet-end @ 4000\n"
        "schedule.7 = lo-off @ 4000\n"
        "schedule.8 = tx-packet-start @ 7448\n"
        "schedule.9 = tx-packet-end @ 7449\n"
        "schedule.10 = tx-packet-start @ 7449\n"
        "schedule.11 = tx-packet-end @ 7600\n"
    )
    code, out, err = run_cli(capsys, "-c", str(cfg), "trace", "--format", "csv")
    assert code == 0
    assert err.splitlines() == [
        "warning: packet transmitted while the LO divider is down (t=0 ns)",
        "warning: packet transmitted while the LO divider is down (t=3788 ns)",
        "warning: packet transmitted while the LO divider is down (t=7449 ns)",
        "measured turnaround: n/a (no rising crossing after the trigger)",
    ]


@pytest.mark.parametrize("line,key", [
    ("schedule.0 = lo-on @ 9007199254740992", "schedule.0"),
    ("schedule.3 = lo-on @ 100000000000000000000000", "schedule.3"),
    ("profile.lo_div_powerup_ns = 9007199254740992", "profile.lo_div_powerup_ns"),
    ("profile.lo_div_powerdown_ns = 9007199254740992", "profile.lo_div_powerdown_ns"),
])
def test_trace_times_beyond_2_53_ns_exit_2(capsys, tmp_path, line, key):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "trace", "--format", "csv")
    assert code == 2
    assert out == "" and err.startswith(f"error: {key}") and "2**53" in err


def test_noise_synthetic_row(capsys):
    code, out, err = run_cli(
        capsys, "noise", "--mode", "fdd", "--band", "2g4", "--format", "csv",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert row["mode"] == "fdd" and row["band"] == "2g4"
    assert int(row["samples_total"]) == 100_000
    assert int(row["samples_used"]) + int(row["samples_filtered"]) == 100_000
    assert abs(float(row["average_power_db"]) - 66.4) <= 0.1


def test_noise_requires_mode_and_band_or_capture(capsys):
    code, out, err = run_cli(capsys, "noise")
    assert code == 2
    code, out, err = run_cli(capsys, "noise", "--mode", "fdd")
    assert code == 2


def test_noise_capture_file_pipeline(capsys, tmp_path):
    samples = make_burst_capture()
    capture = IqCapture(samples)
    path = tmp_path / "fixture.iq"
    save_capture(capture, path)

    keep = brute_force_keep_mask(list(sample_power_db(capture)), 10.0, 16)
    expected_filtered = len(keep) - sum(keep)
    assert expected_filtered > 0

    code, out, err = run_cli(capsys, "noise", "--capture", str(path),
                             "--format", "csv")
    assert code == 0
    (row,) = parse_csv(out)
    assert int(row["samples_filtered"]) == expected_filtered
    assert int(row["samples_total"]) == len(samples)


def test_noise_zero_length_capture_exits_1(capsys, tmp_path):
    path = tmp_path / "empty.iq"
    path.write_bytes(b"")
    code, out, err = run_cli(capsys, "noise", "--capture", str(path))
    assert code == 1


@pytest.mark.parametrize("nonzero, message", [
    (3, "median sample power is zero, so only zero-power samples are left after filtering"),
    (0, "all-zero capture has no finite power"),
])
def test_noise_zero_power_capture_exits_1(capsys, tmp_path, nonzero, message):
    samples = np.zeros((103, 2), dtype=np.int16)
    samples[:nonzero] = (3, 0)
    path = tmp_path / "zeros.iq"
    save_capture(IqCapture(samples), path)
    code, out, err = run_cli(capsys, "noise", "--capture", str(path))
    assert code == 1
    assert message in err
    assert out == ""


@pytest.mark.parametrize("blob, message", [
    (b"\x00\x00\x00", "not a whole number"),
    (b"\x00\x80\x00\x00", "sample magnitude exceeds 32767"),  # i = -32768
    (b"\x01\x00\x00\x80", "sample magnitude exceeds 32767"),  # q = -32768
], ids=["odd-length", "out-of-range", "q-out-of-range"])
def test_noise_bad_capture_names_the_file(capsys, tmp_path, blob, message):
    path = tmp_path / "neg.iq"
    path.write_bytes(blob)
    code, out, err = run_cli(capsys, "noise", "--capture", str(path))
    assert code == 1
    assert str(path) in err and message in err


def test_noise_missing_capture_exits_1(capsys, tmp_path):
    code, out, err = run_cli(capsys, "noise", "--capture",
                             str(tmp_path / "nope.iq"))
    assert code == 1


@pytest.mark.parametrize("line,key", [
    ("sample_rate_hz = abc", "sample_rate_hz"),
    ("band = 7g", "band"),
    ("mode = warp", "mode"),
    ("sampel_rate = 7", "sampel_rate"),
    ("band = 2g4\nband = 5g", "band"),
    (b"band = 2g4\xff", "utf-8"),
    ("agc_db = banana", "invalid agc_db 'banana'"),
    ("agc_db = nan", "invalid agc_db 'nan'"),
    ("agc_db = inf", "invalid agc_db 'inf'"),
    ("agc_db =", "invalid agc_db ''"),
])
def test_noise_bad_sidecar_exits_1(capsys, tmp_path, line, key):
    path = tmp_path / "cap.iq"
    save_capture(IqCapture(make_burst_capture()), path)
    text = line if isinstance(line, bytes) else line.encode()
    (tmp_path / "cap.iq.meta").write_bytes(text + b"\n")
    code, out, err = run_cli(capsys, "noise", "--capture", str(path))
    assert code == 1
    assert f"{path}.meta" in err and key in err


@pytest.mark.parametrize("agc_db", ["62.0", "-3"])
def test_noise_sidecar_with_a_finite_agc_db_loads(capsys, tmp_path, agc_db):
    path = tmp_path / "cap.iq"
    save_capture(IqCapture(make_burst_capture()), path)
    (tmp_path / "cap.iq.meta").write_text(f"agc_db = {agc_db}\n")
    code, out, err = run_cli(capsys, "noise", "--capture", str(path), "--format", "csv")
    assert (code, err) == (0, "")
    assert parse_csv(out)[0]["samples_total"] == "4000"


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_noise_non_finite_threshold_exits_2(capsys, tmp_path, threshold):
    cfg = tmp_path / "thr.cfg"
    cfg.write_text(f"noise.filter_threshold_db = {threshold}\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "noise", "--mode", "fdd",
                             "--band", "2g4")
    assert code == 2
    assert "filter_threshold_db" in err


@pytest.mark.parametrize("n_flag", [("--n", "0"), ("--n=-3",)])
def test_noise_non_positive_n_exits_2(capsys, n_flag):
    code, out, err = run_cli(capsys, "noise", "--mode", "fdd", "--band", "2g4",
                             *n_flag)
    assert code == 2
    assert out == ""


def test_noise_negative_seed_exits_2(capsys):
    code, out, err = run_cli(capsys, "noise", "--mode", "fdd", "--band", "2g4",
                             "--seed", "-1")
    assert code == 2
    assert out == "" and "--seed" in err


@pytest.mark.parametrize("config_line, argv, message", [
    ("", ("--n", str(2**62)), f"--n must be an integer that fits 61 bits, got {2**62}"),
    ("", ("--n", str(2**61)), f"--n must be an integer that fits 61 bits, got {2**61}"),
    (f"noise.n_samples = {10**20}", (),
     f"noise.n_samples must be an integer that fits 61 bits, got {10**20}"),
])
def test_noise_length_no_array_can_shape_exits_2(capsys, tmp_path, config_line, argv, message):
    # an (n, 2) int16 capture takes 4n bytes, within intp only for n < 2**61
    cfg = tmp_path / "n.cfg"
    cfg.write_text(config_line + "\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "noise", "--mode", "fdd", "--band", "2g4",
                             *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_noise_guard_wider_than_int64_acts_as_guard_n(capsys, tmp_path):
    huge = 10**22
    cfg = tmp_path / "guard.cfg"
    cfg.write_text(f"noise.filter_guard_samples = {huge}\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "noise", "--mode", "fdd",
                             "--band", "2g4")
    assert code in (0, 1)
    assert "Traceback" not in err
    # any burst plus a guard of n or more removes every sample
    series = sample_power_db(IqCapture(make_burst_capture()))
    assert not any(brute_force_keep_mask(series, 10.0, huge))
    with pytest.raises(FilterRefusedError) as wide:
        filter_packets(series, 10.0, huge)
    with pytest.raises(FilterRefusedError) as exact:
        filter_packets(series, 10.0, series.size)
    assert str(wide.value) == str(exact.value)


def test_noise_refusal_exits_1(capsys, tmp_path):
    # alternating spikes: the guard dilation would remove everything
    i = np.zeros(100, dtype=np.int16)
    i[1::2] = 1
    i[::33] = 30_000  # spikes whose guard regions tile the whole series
    samples = np.stack([i, np.zeros(100, dtype=np.int16)], axis=1)
    path = tmp_path / "noisy.iq"
    save_capture(IqCapture(samples), path)
    code, out, err = run_cli(capsys, "noise", "--capture", str(path))
    assert code == 1
    assert "remove" in err


def test_comply_require_pass_and_fail(capsys):
    code, out, err = run_cli(capsys, "comply", "--require", "lo-control")
    assert code == 0
    assert "met" in err
    code, out, err = run_cli(capsys, "comply", "--require", "standard-ensm-tdd")
    assert code == 3
    code, out, err = run_cli(capsys, "comply", "--require", "standard-tdd")
    assert code == 3


def test_comply_deadline_selection(capsys):
    code, out, err = run_cli(capsys, "comply", "--deadline", "sifs-2g4",
                             "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 6
    assert {r["deadline"] for r in rows} == {"sifs-2g4"}
    code, out, err = run_cli(capsys, "comply", "--deadline", "bogus")
    assert code == 2


def test_comply_extra_deadline_with_a_builtin_name_exits_2(capsys, tmp_path):
    cfg = tmp_path / "reuse.cfg"
    cfg.write_text("deadlines.extra.sifs-2g4 = 5\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "comply")
    assert code == 2
    assert out == "" and err.startswith("error: deadlines.extra.sifs-2g4: ")
    cfg.write_text("deadlines.extra.sifs-2g4 = 5\ndeadlines.builtin = false\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "comply", "--deadline", "sifs-2g4",
                             "--format", "csv")
    assert code == 0
    assert {r["margin_ns"] for r in parse_csv(out) if r["mode"] == "fdd"} == {"5"}


def test_comply_empty_deadline_list_exits_2(capsys, tmp_path):
    cfg = tmp_path / "nodeadlines.cfg"
    cfg.write_text("deadlines.builtin = false\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "comply")
    assert code == 2


def test_comply_extra_deadline_from_config(capsys, tmp_path):
    cfg = tmp_path / "extra.cfg"
    cfg.write_text("deadlines.builtin = false\ndeadlines.extra.tight = 600\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "comply", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 6
    passed = {r["mode"]: r["pass"] for r in rows}
    assert passed["fdd"] == "true"
    assert passed["lo-control"] == "false"  # 640 > 600


def test_comply_csv_json_parity(capsys):
    _, csv_out, _ = run_cli(capsys, "comply", "--format", "csv")
    _, json_out, _ = run_cli(capsys, "comply", "--format", "json")
    csv_rows = [{k: typed(v) for k, v in row.items()} for row in parse_csv(csv_out)]
    assert csv_rows == json.loads(json_out)


def test_noise_csv_json_parity(capsys):
    args = ("noise", "--mode", "lo-control", "--band", "5g", "--n", "20000")
    _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    _, json_out, _ = run_cli(capsys, *args, "--format", "json")
    csv_rows = [{k: typed(v) for k, v in row.items()} for row in parse_csv(csv_out)]
    assert csv_rows == json.loads(json_out)


def test_trace_csv_json_parity(capsys):
    _, csv_out, _ = run_cli(capsys, "trace", "--format", "csv")
    _, json_out, _ = run_cli(capsys, "trace", "--format", "json")
    csv_rows = [{k: typed(v) for k, v in row.items()} for row in parse_csv(csv_out)]
    assert csv_rows == json.loads(json_out)


@pytest.mark.parametrize("fmt", ["csv", "table", "json"])
def test_trace_writes_the_same_text_to_stdout_and_to_a_file(tmp_path, fmt):
    # 2**16 + 6 rows: the header, then the rows in two blocks
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trace.start_ns = -3\ntrace.end_ns = 65538\ntrace.interval_ns = 1\n"
                   "trace.settling_tau_ns = 40\nschedule.0 = lo-on @ 0\n")
    out_path = tmp_path / f"trace.{fmt}"
    argv = ["-c", str(cfg), "trace", "--format", fmt]
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        assert main(argv) == 0
        assert main([*argv, "--out", str(out_path)]) == 0
    text = out_path.read_bytes().decode("ascii")
    status = "measured turnaround: 0.67 us (rx-tx)\n"
    assert stdout.getvalue() == text + status and err.getvalue() == status
    rows = 2**16 + 6
    assert text.count("\n") == (1 + rows if fmt != "json" else 4 * rows + 2)


def test_out_writes_file_and_status_to_stdout(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "turnaround", "--mode", "lo-control",
                             "--format", "csv", "--out", str(out_path))
    assert code == 0
    assert "total 640 ns" in out  # status moves to stdout when data goes to a file
    rows = parse_csv(out_path.read_text())
    assert len(rows) == 4  # both directions, two components each


KNOWN_DEADLINES = ", ".join(d.name for d in BUILTIN_DEADLINES)


@pytest.mark.parametrize("config_lines, argv, message", [
    ((), ("noise", "--mode", "fdd", "--band", "2g4", "--n", "0"),
     "--n must be at least 1"),
    ((), ("noise", "--mode", "fdd", "--band", "2g4", "--seed", "-1"),
     "--seed must be non-negative"),
    ((), ("noise", "--mode", "fdd"), "noise needs either --capture or --mode and --band"),
    ((), ("comply", "--deadline", "nope"),
     f"unknown deadline 'nope' (known: {KNOWN_DEADLINES})"),
    (("deadlines.builtin = false",), ("comply",), "no deadlines configured"),
    ((), ("config",), "nothing to do (use --dump)"),
    ((), ("noise", "--capture", "cap.iq", "--mode", "fdd"),
     "--capture cannot be combined with --mode"),
    ((), ("noise", "--capture", "cap.iq", "--band", "5g"),
     "--capture cannot be combined with --band"),
    ((), ("noise", "--capture", "cap.iq", "--n", "10"),
     "--capture cannot be combined with --n"),
    ((), ("noise", "--capture", "cap.iq", "--seed", "3"),
     "--capture cannot be combined with --seed"),
    ((), ("noise", "--capture", "cap.iq", "--mode", "fdd", "--band", "2g4", "--n", "1"),
     "--capture cannot be combined with --mode, --band, --n"),
    ((), ("turnaround", "--dir", "rx-tx"), "--dir needs --mode"),
    ((), ("turnaround", "--all", "--out", ""), "--out needs a path ('-' = stdout)"),
    ((), ("comply", "--deadline", "sifs-5g", "--deadline", "sifs-5g"),
     "deadline 'sifs-5g' given more than once"),
])
def test_usage_errors_go_to_stderr_when_data_goes_to_a_file(
    capsys, tmp_path, config_lines, argv, message
):
    # output.path is the config key behind --out; `config` has no --out flag
    out_path = tmp_path / "out.txt"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([f"output.path = {out_path}", *config_lines]) + "\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), *argv)
    assert code == 2
    assert (out, err) == ("", f"error: {message}\n")
    assert not out_path.exists()


def test_budget_rows_collapse_rationals(capsys, tmp_path):
    # exact durations print as ints when integral, else as floats
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("clocks.adc_clock_hz = 7000000\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "turnaround", "--mode",
                             "standard-tdd-dual-synth", "--dir", "tx-rx", "--format", "json")
    assert code == 0
    (flush,) = json.loads(out)
    assert flush["component"] == "flush"
    assert isinstance(flush["duration_ns"], float)
    assert flush["duration_ns"] == flush["total_ns"] == pytest.approx(384e9 / 7e6, abs=1e-6)
    assert '"duration_ns": 54857.142857142855' in out


def test_config_dump_matches_library(capsys):
    code, out, err = run_cli(capsys, "config", "--dump")
    assert code == 0
    assert out == dump_config(default_config())


def test_config_without_dump_exits_2(capsys):
    code, out, err = run_cli(capsys, "config")
    assert code == 2


def test_config_file_drives_subcommands(capsys, tmp_path):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("clocks.spi_clock_hz = 25000000\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "turnaround", "--mode",
                             "lo-control", "--dir", "rx-tx", "--format", "csv")
    assert code == 0
    (spi, lodiv) = parse_csv(out)
    assert spi["duration_ns"] == "960"
    assert spi["total_ns"] == "1120"


def test_bad_config_file_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "turnaround")
    assert code == 2
    code, out, err = run_cli(capsys, "-c", str(tmp_path / "missing.cfg"),
                             "turnaround")
    assert code == 2
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe\x00clocks")
    code, out, err = run_cli(capsys, "-c", str(binary), "comply")
    assert code == 2
    assert err.startswith(f"error: cannot read config file {binary}: ")


def test_long_schedule_index_exits_2(capsys, tmp_path):
    key = "schedule." + "7" * 5000
    cfg = tmp_path / "long.cfg"
    cfg.write_text(f"{key} = lo-on @ 0\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), "config", "--dump")
    assert code == 2
    assert out == "" and err == f"error: line 1: schedule index too long in '{key}'\n"


@pytest.mark.parametrize("argv", [
    ("turnaround", "--all"),
    ("trace",),
    ("noise", "--mode", "fdd", "--band", "2g4", "--n", "10"),
    ("comply",),
    ("config", "--dump"),
])
def test_overclocked_spi_exits_2_on_every_subcommand(capsys, tmp_path, argv):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("clocks.spi_clock_hz = 60000000\n")
    code, out, err = run_cli(capsys, "-c", str(cfg), *argv)
    assert code == 2
    assert out == ""
    assert err == ("error: clocks.spi_clock_hz 60000000 exceeds the device "
                   "maximum 50000000; set allow_spi_overclock to force\n")
    cfg.write_text("clocks.spi_clock_hz = 60000000\nclocks.allow_spi_overclock = true\n")
    assert run_cli(capsys, "-c", str(cfg), *argv)[0] == 0


def test_turnaround_all_and_mode_are_exclusive(capsys):
    code, out, err = run_cli(capsys, "turnaround", "--all", "--mode", "fdd")
    assert code == 2
    assert out == ""
    assert "--mode: not allowed with argument --all" in err


def test_table_format_is_default_and_aligned(capsys):
    code, out, err = run_cli(capsys, "turnaround", "--all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["mode", "direction", "total_ns"]
    assert len(lines) == 13


GOLDEN_CASES = [
    ("turnaround_all.csv", ("turnaround", "--all", "--format", "csv")),
    ("trace_default.csv", ("trace", "--format", "csv")),
    ("noise_fdd_2g4.csv", ("noise", "--mode", "fdd", "--band", "2g4",
                           "--format", "csv")),
    ("comply_default.csv", ("comply", "--format", "csv")),
    ("config_dump_default.cfg", ("config", "--dump")),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs(capsys, name, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", ["trace_settle.csv", "trace_settle.txt", "trace_settle.json"])
def test_golden_settling_traces(capsys, name):
    # a distinct settled level in most rows, negative times, times on the
    # two-decimal tie (t % 10 == 5) and a 685 5/7 ns SPI frame
    fmt = {".csv": "csv", ".txt": "table", ".json": "json"}[Path(name).suffix]
    code, out, err = run_cli(capsys, "-c", str(GOLDEN / "trace_settle.cfg"), "trace",
                             "--format", fmt)
    assert (code, err) == (0, "measured turnaround: 0.88 us (rx-tx)\n")
    assert out == (GOLDEN / name).read_text()


# (golden, config file or None, format, the status lines)
TRACE_GOLDENS = [
    *[(f"trace_default.{ext}", None, fmt, "measured turnaround: 0.65 us (rx-tx)\n")
      for ext, fmt in [("csv", "csv"), ("txt", "table"), ("json", "json")]],
    # a 3428 4/7 ns SPI frame, a packet before the LO is up, a trigger
    # mid-schedule and times on the two-decimal tie
    *[(f"trace_frac.{ext}", "trace_frac.cfg", fmt,
       "warning: packet transmitted while the LO divider is down (t=0 ns)\n"
       "measured turnaround: 3.60 us (rx-tx)\n")
      for ext, fmt in [("csv", "csv"), ("txt", "table"), ("json", "json")]],
]


@pytest.mark.parametrize("pipeline", ["loop", "array"])
@pytest.mark.parametrize("name, config, fmt, status", TRACE_GOLDENS,
                         ids=[c[0] for c in TRACE_GOLDENS])
def test_golden_traces_on_both_pipelines(capsys, monkeypatch, pipeline, name, config, fmt,
                                         status):
    # the bound 0 sends every trace to the array pipeline
    if pipeline == "array":
        monkeypatch.setattr(cli_trace, "LOOP_ROWS", 0)
    argv = ["-c", str(GOLDEN / config)] if config else []
    code, out, err = run_cli(capsys, *argv, "trace", "--format", fmt)
    assert (code, err) == (0, status)
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("argv", [c[1] for c in GOLDEN_CASES],
                         ids=["turnaround", "trace", "noise", "comply", "config"])
def test_subcommands_are_deterministic(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("argv", [c[1] for c in GOLDEN_CASES] + [("turnaround", "--bogus")],
                         ids=["turnaround", "trace", "noise", "comply", "config", "usage"])
def test_main_leaves_the_collector_unfrozen(capsys, argv):
    # only the process entry point (cli.run) disables the collector, and
    # freezes it after main returns
    frozen = gc.get_freeze_count()
    run_cli(capsys, *argv)
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()
