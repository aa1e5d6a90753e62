"""`zifsim comply`: every mode against the configured deadlines, and an
exit code for one mode's requirement."""

from .cli_rows import render_rows
from .config import RunConfig
from .params import EnsmMode, ns_value


def cmd_comply(args, config: RunConfig, emitter, fmt: str) -> int:
    deadlines = config.deadlines
    if args.deadline:
        by_name = {d.name: d for d in deadlines}
        selected = {}
        for name in args.deadline:
            if name not in by_name:
                known = ", ".join(by_name) or "(none)"
                return emitter.usage_error(f"unknown deadline {name!r} (known: {known})")
            if name in selected:
                return emitter.usage_error(f"deadline {name!r} given more than once")
            selected[name] = by_name[name]
        deadlines = list(selected.values())
    if not deadlines:
        return emitter.usage_error("no deadlines configured")

    from .mac import compliance_matrix

    results = compliance_matrix(config.clocks, config.profile, deadlines)
    rows = [
        {
            "mode": res.mode.value,
            "deadline": res.deadline.name,
            "tt_ns": ns_value(res.tt_ns),
            "pass": res.passed,
            "margin_ns": ns_value(res.margin_ns),
        }
        for res in results
    ]
    fields = ["mode", "deadline", "tt_ns", "pass", "margin_ns"]
    emitter.data(render_rows(fields, rows, fmt))

    if args.require:
        mode = EnsmMode(args.require)
        failed = [r for r in results if r.mode is mode and not r.passed]
        if failed:
            names = ", ".join(r.deadline.name for r in failed)
            emitter.status(f"requirement {mode.value}: NOT met ({names})")
            return 3
        emitter.status(f"requirement {mode.value}: met")
    return 0
