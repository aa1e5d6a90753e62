"""The process entry point: real `python -m zifsim.cli` subprocesses.

`cli.run` freezes the garbage collector after `main` returns and then
exits; these check that what a process writes, and its exit code, are
what `main` gives in process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zifsim

SRC = Path(zifsim.__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def zifsim_process(*argv, **env):
    """(exit code, stdout bytes, stderr text) of a fresh `python -m zifsim.cli`,
    with ENV added to its environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "zifsim.cli", *argv], capture_output=True,
        env={**os.environ, "PYTHONPATH": path, **env}, timeout=60,
    )
    return result.returncode, result.stdout, result.stderr.decode()


@pytest.mark.parametrize("name, argv", [
    ("turnaround_all.csv", ["turnaround", "--all", "--format", "csv"]),
    ("trace_default.csv", ["trace", "--format", "csv"]),
    ("noise_fdd_2g4.csv", ["noise", "--mode", "fdd", "--band", "2g4", "--format", "csv"]),
    ("comply_default.csv", ["comply", "--format", "csv"]),
    ("config_dump_default.cfg", ["config", "--dump"]),
    *[(f"{stem}.{ext}", ["-c", str(GOLDEN / f"{stem}.cfg"), "trace", "--format", fmt])
      for stem in ("trace_settle", "trace_frac")
      for ext, fmt in [("csv", "csv"), ("txt", "table"), ("json", "json")]],
    ("trace_default.txt", ["trace"]),
    ("trace_default.json", ["trace", "--format", "json"]),
])
def test_process_stdout_is_the_golden(name, argv):
    code, out, _ = zifsim_process(*argv)
    assert code == 0
    assert out == (GOLDEN / name).read_bytes()


def test_process_writes_the_file_and_its_status_line(tmp_path):
    out_file = tmp_path / "trace.csv"
    code, out, err = zifsim_process("trace", "--format", "csv", "--out", str(out_file))
    assert (code, err) == (0, "")
    assert out_file.read_bytes() == (GOLDEN / "trace_default.csv").read_bytes()
    assert out == b"measured turnaround: 0.65 us (rx-tx)\n"


def test_process_exit_codes_and_their_error_lines(tmp_path):
    capture = tmp_path / "empty.iq"
    capture.write_bytes(b"")
    config = tmp_path / "long.cfg"
    config.write_text("noise.n_samples = 100000000000000000000\n")
    cases = [
        (["comply", "--require", "standard-tdd"], 3,
         "requirement standard-tdd: NOT met (sifs-2g4, sifs-5g, nr-guard-120khz)\n"),
        (["noise", "--mode", "fdd"], 2,
         "error: noise needs either --capture or --mode and --band\n"),
        (["noise", "--capture", str(capture)], 1,
         f"error: capture file {capture} is empty\n"),
        # capture lengths no (n, 2) int16 array can shape
        (["noise", "--mode", "fdd", "--band", "2g4", "--n", "4611686018427387904"], 2,
         "error: --n must be an integer that fits 61 bits, got 4611686018427387904\n"),
        (["-c", str(config), "noise", "--mode", "fdd", "--band", "2g4"], 2,
         "error: noise.n_samples must be an integer that fits 61 bits, "
         "got 100000000000000000000\n"),
    ]
    for argv, expected_code, expected_err in cases:
        code, _, err = zifsim_process(*argv)
        assert (code, err) == (expected_code, expected_err), argv


# argparse's text, captured at 80 columns with stdout a pipe: help on
# stdout with exit code 0, a usage error on stderr with exit code 2
@pytest.mark.parametrize("name, argv", [
    ("help.txt", ["--help"]),
    *[(f"help_{command}.txt", [command, "--help"])
      for command in ("turnaround", "trace", "noise", "comply", "config")],
    ("usage_no_command.txt", []),
    ("usage_bad_choice.txt", ["turnaround", "--mode", "nope"]),
    ("usage_mode_with_all.txt", ["turnaround", "--mode", "fdd", "--all"]),
    ("usage_bad_int.txt", ["noise", "--n", "1e6"]),
    ("usage_config_after_command.txt", ["trace", "-c", "x.cfg"]),
    ("usage_config_without_value.txt", ["--config"]),
    ("usage_unrecognized.txt", ["turnaround", "--bogus"]),
])
def test_help_and_usage_errors_are_the_golden(name, argv):
    text = (GOLDEN / name).read_bytes()
    expected = (0, text, "") if name.startswith("help") else (2, b"", text.decode())
    assert zifsim_process(*argv, COLUMNS="80") == expected
