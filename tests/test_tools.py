"""Smoke tests of `tools/fresh_calls.py`, the fresh-call comparison of two
source trees."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fresh_calls.py"


def run_tool(*args):
    result = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                            timeout=120, check=True)
    return result.stdout


def test_one_round_of_the_same_tree_twice():
    summary = json.loads(run_tool("--rounds", "1", "--json", str(ROOT), str(ROOT), "--",
                                  "turnaround", "--all"))
    assert summary["argv"] == ["turnaround", "--all"]
    for side in ("base", "change"):
        assert summary[side]["failed"] == 0
        assert summary[side]["cpu_ms"] > 0 and summary[side]["max_rss_mb"] > 0
    assert summary["change_faster_rounds"] in ("0 of 1", "1 of 1")


def test_a_failing_call_is_counted():
    text = run_tool("--rounds", "1", str(ROOT), str(ROOT), "--", "turnaround", "--mode", "bogus")
    assert text.count("1 failed") == 2


def test_the_launcher_loads_neither_numpy_nor_zifsim():
    # so that a child's peak RSS, which carries the launcher's, is its own
    code = (f"import runpy, sys; sys.argv = ['fresh_calls', '--rounds', '1', {str(ROOT)!r}, "
            f"{str(ROOT)!r}, '--', 'config', '--dump']\n"
            f"try:\n    runpy.run_path({str(TOOL)!r}, run_name='__main__')\n"
            "except SystemExit:\n    pass\n"
            "print([m for m in sys.modules if m.split('.')[0] in ('numpy', 'zifsim')])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, check=True)
    assert result.stdout.splitlines()[-1] == "[]"
