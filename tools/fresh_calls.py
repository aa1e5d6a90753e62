"""Fresh-call CPU and peak RSS of `python -m zifsim.cli ARGV` in two source trees.

    python tools/fresh_calls.py [--rounds N] [--flag F ...] [--json] BASE CHANGE -- ARGV...

Each round runs the call once from each tree, in alternating order, as a
fresh child with `BASE/src` or `CHANGE/src` first on PYTHONPATH and its
output sent to /dev/null. The CPU of a call is the user plus system time
that `os.wait4` reports for its child, and its peak RSS that child's
`ru_maxrss`. Prints, for each tree, the median CPU and the largest peak
RSS, then the median of the paired differences (CHANGE minus BASE) and
the rounds CHANGE won. A call that exits with a code other than 0 is
reported as failed.

The script imports neither numpy nor zifsim: Linux carries the launcher's
peak RSS over into a child's `ru_maxrss`, so a small launcher keeps each
child's number its own.
"""

import argparse
import json
import os
import statistics
import sys


def fresh_call(tree, argv, flags=()):
    """(CPU seconds, peak RSS in MB, exit code) of one child run in TREE."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(tree, "src"),
                                                      env.get("PYTHONPATH")]))
    actions = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    pid = os.posix_spawn(sys.executable, [sys.executable, *flags, "-m", "zifsim.cli", *argv],
                         env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    cpu = usage.ru_utime + usage.ru_stime
    return cpu, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def compare(base, change, argv, rounds, flags=()):
    """The summary of ROUNDS alternating rounds of the call in both trees."""
    runs = {"base": [], "change": []}
    for k in range(rounds):
        for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
            runs[side].append(fresh_call(base if side == "base" else change, argv, flags))
    diffs = [c[0] - b[0] for b, c in zip(runs["base"], runs["change"])]
    summary = {side: {"cpu_ms": round(statistics.median(r[0] for r in calls) * 1e3, 2),
                      "max_rss_mb": round(max(r[1] for r in calls), 1),
                      "failed": sum(r[2] != 0 for r in calls)}
               for side, calls in runs.items()}
    summary["median_paired_diff_ms"] = round(statistics.median(diffs) * 1e3, 2)
    summary["change_faster_rounds"] = f"{sum(d < 0 for d in diffs)} of {rounds}"
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--flag", action="append", default=[],
                        help="an interpreter flag for every child, such as -S (repeatable)")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("call", nargs="+", metavar="ARGV", help="the zifsim arguments, after --")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    summary = compare(args.base, args.change, args.call, args.rounds, args.flag)
    if args.json:
        print(json.dumps({"argv": args.call, **summary}))
        return 0
    print(" ".join(args.call))
    for side in ("base", "change"):
        s = summary[side]
        print(f"  {side:6} {s['cpu_ms']:9.2f} ms CPU  {s['max_rss_mb']:7.1f} MB peak  "
              f"{s['failed']} failed")
    print(f"  change minus base {summary['median_paired_diff_ms']:+.2f} ms, "
          f"change faster in {summary['change_faster_rounds']} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
