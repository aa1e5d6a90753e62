"""`zifsim turnaround`: itemized switching budgets, one mode or all."""

from .cli_rows import render_rows
from .config import RunConfig
from .params import EnsmMode, ns_value


def _budget_rows(budgets):
    rows = []
    for budget in budgets:
        for comp in budget.components:
            rows.append(
                {
                    "mode": budget.mode.value,
                    "direction": budget.direction.value,
                    "stage": comp.stage,
                    "component": comp.name,
                    "duration_ns": ns_value(comp.duration_ns),
                    "total_ns": ns_value(budget.total_ns),
                }
            )
    return rows


def cmd_turnaround(args, config: RunConfig, emitter, fmt: str) -> int:
    if args.direction and not args.mode:
        return emitter.usage_error("--dir needs --mode")
    from .ensm import sweep_budgets

    if args.mode:
        budgets = sweep_budgets([EnsmMode(args.mode)], config.clocks, config.profile)
        if args.direction:
            budgets = [b for b in budgets if b.direction.value == args.direction]
        fields = ["mode", "direction", "stage", "component", "duration_ns", "total_ns"]
        emitter.data(render_rows(fields, _budget_rows(budgets), fmt))
        for budget in budgets:
            emitter.status(
                f"{budget.mode.value} {budget.direction.value}: "
                f"total {ns_value(budget.total_ns)} ns"
            )
        return 0

    budgets = sweep_budgets(list(EnsmMode), config.clocks, config.profile)
    rows = [
        {
            "mode": b.mode.value,
            "direction": b.direction.value,
            "total_ns": ns_value(b.total_ns),
        }
        for b in budgets
    ]
    emitter.data(render_rows(["mode", "direction", "total_ns"], rows, fmt))
    return 0
