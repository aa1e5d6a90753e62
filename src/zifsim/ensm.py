"""Itemized turnaround budgets of the enable-state-machine modes.

`EnsmMode` and `Direction` live in the numpy-free leaf `params`, so the
trace and noise paths name them without loading this module; they are
the same objects here.

A budget is a list of named components grouped into stages. Stages run
sequentially; components inside a stage run in parallel, so the total is
the sum over stages of the per-stage maximum. That structure captures,
for example, a synthesizer calibration that must finish before PLL lock,
DAC power-up, and data-path flushing start together.
"""

from .params import (
    ClockConfig,
    Direction,
    EnsmMode,
    Record,
    TimingProfile,
    cycles_to_ns,
    exact_ns,
    frame_duration_ns,
)


class BudgetComponent(Record):
    """One named delay of a budget, in exact ns, and its stage index."""

    name: str
    duration_ns: "int | Fraction"
    stage: int


class TurnaroundBudget(Record):
    """A mode's itemized switching budget in one direction; `total_ns` sums
    each stage's longest component."""

    mode: EnsmMode
    direction: Direction
    components: tuple[BudgetComponent, ...]
    total_ns: "int | Fraction"


def _stage_total(components):
    stages = {}
    for comp in components:
        prev = stages.get(comp.stage)
        if prev is None or comp.duration_ns > prev:
            stages[comp.stage] = comp.duration_ns
    return exact_ns(sum(stages[stage] for stage in sorted(stages)))


def flush_time_ns(clocks: ClockConfig, profile: TimingProfile):
    """Data-path flush duration: flush_cycles of the ADC clock, exact ns."""
    return cycles_to_ns(profile.flush_cycles, clocks.adc_clock_hz)


def _build(mode, direction, stages):
    components = []
    for stage_index, stage in enumerate(stages):
        for name, duration in stage:
            components.append(
                BudgetComponent(name=name, duration_ns=exact_ns(duration), stage=stage_index)
            )
    components = tuple(components)
    return TurnaroundBudget(
        mode=mode,
        direction=direction,
        components=components,
        total_ns=_stage_total(components),
    )


def turnaround_budget(
    mode: EnsmMode,
    direction: Direction,
    clocks: ClockConfig,
    profile: TimingProfile,
) -> TurnaroundBudget:
    """Itemized Rx/Tx switching budget for one mode and direction.

    Mode structure, switching into Tx:
      standard-ensm-tdd        VCO cal, then {PLL lock, DAC power-up, flush}
      standard-tdd             {PLL lock, DAC power-up, flush} (no cal)
      standard-tdd-dual-synth  {DAC power-up, flush} (synths always locked)
      fdd-independent          {DAC power-up}
      fdd                      nothing, both chains stay on
      lo-control               SPI write frame, then LO divider power-up

    Switching back to Rx drops the Tx-only DAC power-up; flushing (where the
    mode flushes at all) still applies. lo-control swaps the divider
    power-up for the faster power-down.
    """
    if not isinstance(mode, EnsmMode):
        raise ValueError(f"unknown mode: {mode!r}")
    if not isinstance(direction, Direction):
        raise ValueError(f"unknown direction: {direction!r}")

    to_tx = direction is Direction.RX_TO_TX
    flush = ("flush", flush_time_ns(clocks, profile))
    pll = ("pll_lock", profile.pll_lock_ns)
    dac = ("dac_powerup", profile.dac_powerup_ns)
    vco = ("vco_cal", profile.vco_cal_ns)

    if mode is EnsmMode.STANDARD_ENSM_TDD:
        parallel = [pll, dac, flush] if to_tx else [pll, flush]
        stages = [[vco], parallel]
    elif mode is EnsmMode.STANDARD_TDD:
        stages = [[pll, dac, flush] if to_tx else [pll, flush]]
    elif mode is EnsmMode.STANDARD_TDD_DUAL_SYNTH:
        stages = [[dac, flush] if to_tx else [flush]]
    elif mode is EnsmMode.FDD_INDEPENDENT:
        stages = [[dac]] if to_tx else []
    elif mode is EnsmMode.FDD:
        stages = []
    else:  # LO_CONTROL
        spi_write = ("spi_frame", frame_duration_ns(clocks))
        divider = (
            ("lo_div_powerup", profile.lo_div_powerup_ns)
            if to_tx
            else ("lo_div_powerdown", profile.lo_div_powerdown_ns)
        )
        stages = [[spi_write], [divider]]

    return _build(mode, direction, stages)


def sweep_budgets(modes, clocks: ClockConfig, profile: TimingProfile):
    """Budgets over modes x directions, rx-to-tx first within each mode."""
    return [turnaround_budget(mode, direction, clocks, profile)
            for mode in modes for direction in Direction]
