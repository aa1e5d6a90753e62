"""zifsim benchmark: CLI call cost, IQ and trace throughput, layer trace.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S     # every workload, both modes
    python3 perfbench/run.py --write-spec             # rewrite BENCHMARK.json

Run it from anywhere; the program is taken from `src/` of the checkout
that holds this directory. Inputs are generated from the seed under
`.perfbench/` and removed when the run ends; the spans of a traced run
are kept there.

Untraced (`--trace 0`): one closed-loop client runs the workload's cycle
of `zifsim` invocations, each in a fresh interpreter, a number of whole
cycles that depends on `--seconds` only. Every output is checked; times
are the invocations' CPU times scaled to a reference interpreter run
beside each one. Traced (`--trace 1`): the same invocations run in-process
through `cli.main`, once plain and once with spans around each layer,
and the per-layer metrics come from the spans. The last line of output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("cli-small", "noise-capture", "trace-schedule")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json from the metric tables")
    args = parser.parse_args(argv)

    if not (SRC / "zifsim" / "cli.py").is_file():
        print(f"perfbench: no zifsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update({"OPENBLAS_NUM_THREADS": "1"})  # as harness.ONE_THREAD_ENV, before numpy
    import harness

    if args.write_spec:
        harness.SPEC.write_text(json.dumps(harness.spec(), indent=2) + "\n")
        return 0
    seconds = harness.RUN_SECONDS if args.seconds is None else args.seconds
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        for trace in [args.trace] if args.workload else (0, 1):
            result = harness.run_workload(workload, args.seed, seconds, trace)
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
