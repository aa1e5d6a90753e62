"""`zifsim trace`: a simulated Tx power trace and its measured step.

A trace of fewer rows than LOOP_ROWS from at most LOOP_COMMANDS commands
runs the per-row loop pipeline (`looptrace`), which loads no numpy; a
larger one the array pipeline (`sim`). Each bound is the largest power of
two below the measured fresh-call crossover of the two, in every output
format (README, "Power trace simulation"; BENCH_25.json, BENCH_26.json
and BENCH_28.json).
"""

from .config import RunConfig
from .errors import MeasurementError
from .params import PACKET_WARNING, Band, ns_value

LOOP_ROWS = 2**16
LOOP_COMMANDS = 2**15


def cmd_trace(args, config: RunConfig, emitter, fmt: str) -> int:
    settings = config.trace
    rows = (settings.end_ns - settings.start_ns) // settings.interval_ns + 1
    if rows < LOOP_ROWS and len(config.schedule) <= LOOP_COMMANDS:
        from . import looptrace as pipeline
    else:
        from . import sim as pipeline

    band = Band(args.band) if args.band else settings.band
    timeline = pipeline.expand_schedule(
        config.schedule, config.clocks, config.profile, band=band, rf=config.rf
    )
    for time_ns in timeline.warning_times():
        emitter.status(f"warning: {PACKET_WARNING} (t={ns_value(time_ns)} ns)")
    trace = pipeline.sample_trace(
        timeline,
        (settings.start_ns, settings.end_ns),
        interval_ns=settings.interval_ns,
        settling_tau_ns=settings.settling_tau_ns,
    )
    emitter.blocks(pipeline.render_blocks(trace, fmt))

    try:
        step = pipeline.find_step(timeline)
        measured = pipeline.measure_turnaround(trace, step)
    except MeasurementError as exc:
        emitter.status(f"measured turnaround: n/a ({exc})")
    else:
        emitter.status(
            f"measured turnaround: {measured / 1000.0:.2f} us ({step.direction.value})"
        )
    return 0
