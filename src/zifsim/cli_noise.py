"""`zifsim noise`: the receiver noise floor of a synthetic capture or a
capture file."""

from .cli_rows import render_rows
from .config import RunConfig
from .params import Band, EnsmMode


def cmd_noise(args, config: RunConfig, emitter, fmt: str) -> int:
    if args.capture:
        given = [flag for flag in ("mode", "band", "n", "seed")
                 if getattr(args, flag) is not None]
        if given:
            flags = ", ".join(f"--{flag}" for flag in given)
            return emitter.usage_error(f"--capture cannot be combined with {flags}")
    flags = {"n_samples": ("--n", args.n), "seed": ("--seed", args.seed)}
    try:  # the settings' own checks, whose messages name the field first
        noise = config.noise.replace(**{name: v for name, (_, v) in flags.items() if v is not None})
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        return emitter.usage_error(f"{flags[name][0]} {rest}")
    if not args.capture and not (args.mode and args.band):
        return emitter.usage_error("noise needs either --capture or --mode and --band")

    from .rf import load_capture, noise_floor_report, synthesize_capture

    if args.capture:
        capture = load_capture(args.capture)
    else:
        capture = synthesize_capture(EnsmMode(args.mode), Band(args.band), config.rf,
                                     noise.n_samples, noise.seed)
    report = noise_floor_report(capture, noise.filter_threshold_db, noise.filter_guard_samples)
    row = {
        "mode": capture.mode.value if capture.mode else "-",
        "band": capture.band.value if capture.band else "-",
        "samples_total": len(capture),
        "samples_used": report.sample_count_used,
        "samples_filtered": report.samples_filtered,
        "average_power_db": round(report.average_power_db, 2),
    }
    fields = list(row)
    emitter.data(render_rows(fields, [row], fmt))
    return 0
