"""MAC-protocol deadline checks for turnaround budgets.

A turnaround complies with a deadline when it fits inside it; the matrix
judges each mode by the worse of its two switching directions, since a
protocol has to honor both. SIFS is treated as pure turnaround budget
here, ignoring PHY/MAC processing time that would eat into it on a real
stack.
"""

from dataclasses import dataclass
from fractions import Fraction

from .ensm import EnsmMode, sweep_budgets
from .params import ClockConfig, TimingProfile, check_fields


@dataclass(frozen=True)
class ProtocolDeadline:
    name: str
    deadline_ns: int
    source: str = ""

    def __post_init__(self):
        check_fields(self)
        if self.deadline_ns <= 0:
            raise ValueError(f"deadline_ns must be positive, got {self.deadline_ns}")


BUILTIN_DEADLINES = (
    ProtocolDeadline("sifs-2g4", 10_000, "802.11a/g/n SIFS, 2.4 GHz band"),
    ProtocolDeadline("sifs-5g", 16_000, "802.11a/g/n SIFS, 5 GHz bands"),
    ProtocolDeadline("nr-guard-120khz", 17_840, "5G NR DL-UL guard, 120 kHz SCS"),
)


@dataclass(frozen=True)
class ComplianceResult:
    mode: EnsmMode | None
    deadline: ProtocolDeadline
    tt_ns: int | Fraction
    passed: bool
    margin_ns: int | Fraction


def check(tt_ns, deadline: ProtocolDeadline, mode: EnsmMode | None = None):
    """Single compliance check; meeting the deadline exactly passes."""
    if not tt_ns >= 0:  # NaN too
        raise ValueError(f"tt_ns must be non-negative, got {tt_ns}")
    return ComplianceResult(
        mode=mode,
        deadline=deadline,
        tt_ns=tt_ns,
        passed=tt_ns <= deadline.deadline_ns,
        margin_ns=deadline.deadline_ns - tt_ns,
    )


def worst_case_tt_ns(mode: EnsmMode, clocks: ClockConfig, profile: TimingProfile):
    """The larger of the mode's two directional turnaround totals."""
    return max(budget.total_ns for budget in sweep_budgets([mode], clocks, profile))


def compliance_matrix(clocks: ClockConfig, profile: TimingProfile, deadlines):
    """Every mode against every deadline, worst direction per mode."""
    deadlines = list(deadlines)
    if not deadlines:
        raise ValueError("deadline list is empty")
    results = []
    for mode in EnsmMode:
        tt = worst_case_tt_ns(mode, clocks, profile)
        for deadline in deadlines:
            results.append(check(tt, deadline, mode=mode))
    return results
