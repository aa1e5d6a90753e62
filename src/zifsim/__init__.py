"""Turnaround-time and self-interference modeling for zero-IF SDR front-ends.

The package covers the switching behavior of an AD9361-class transceiver:
itemized turnaround budgets per duplexing mode, SPI command encoding for
direct LO divider control, discrete-event simulation of Tx power traces,
receiver noise-floor analysis, and MAC deadline compliance checks.
"""

import importlib

from .config import (
    NoiseSettings,
    RunConfig,
    TraceSettings,
    default_config,
    dump_config,
    load_config,
    parse_config,
)
from .ensm import (
    BudgetComponent,
    Direction,
    EnsmMode,
    TurnaroundBudget,
    budget_record,
    flush_time_ns,
    sweep_budgets,
    turnaround_budget,
)
from .errors import (
    ConfigError,
    DataError,
    FilterRefusedError,
    MalformedFrameError,
    MeasurementError,
    OverlappingSpiError,
    ScheduleError,
    ZifsimError,
)
from .mac import (
    BUILTIN_DEADLINES,
    ComplianceResult,
    ProtocolDeadline,
    check,
    compliance_matrix,
    matrix_to_csv,
    worst_case_tt_ns,
)
from .params import (
    Band,
    ClockConfig,
    Command,
    CommandKind,
    RfModelParams,
    TimingProfile,
    cycles_to_ns,
    ns_value,
)
from .spi import (
    BitSequence,
    Chain,
    LoDividerCommand,
    LoDividerConfig,
    SpiFrame,
    command_from_frame,
    decode_frame,
    encode_frame,
    frame_duration_ns,
    lo_divider_command,
)

__version__ = "0.1.0"

# The array layers load numpy, which costs more start-up CPU than the rest
# of the package. Their public names resolve on first use (PEP 562), so
# budget, compliance and config work never imports them.
_ARRAY_MODULES = ("rf", "sim")


def __getattr__(name):
    if name in _ARRAY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in __all__:
        for module_name in _ARRAY_MODULES:
            module = importlib.import_module(f"{__name__}.{module_name}")
            if hasattr(module, name):
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [
    "BUILTIN_DEADLINES",
    "Band",
    "BitSequence",
    "BudgetComponent",
    "Chain",
    "ClockConfig",
    "Command",
    "CommandKind",
    "ComplianceResult",
    "ConfigError",
    "DataError",
    "Direction",
    "EnsmMode",
    "FilterRefusedError",
    "IqCapture",
    "LoDividerCommand",
    "LoDividerConfig",
    "LoStep",
    "MalformedFrameError",
    "MeasurementError",
    "NoiseFloorReport",
    "NoiseSettings",
    "OverlappingSpiError",
    "PacketFilterResult",
    "PowerTrace",
    "ProtocolDeadline",
    "RfModelParams",
    "RunConfig",
    "ScheduleError",
    "SimEvent",
    "SpiFrame",
    "Timeline",
    "TimingProfile",
    "TraceSettings",
    "TurnaroundBudget",
    "ZifsimError",
    "average_power_db",
    "budget_record",
    "check",
    "command_from_frame",
    "compliance_matrix",
    "cycles_to_ns",
    "decode_frame",
    "default_config",
    "dump_config",
    "encode_frame",
    "expand_schedule",
    "filter_packets",
    "find_step",
    "find_trigger_ns",
    "flush_time_ns",
    "frame_duration_ns",
    "load_capture",
    "load_config",
    "lo_divider_command",
    "matrix_to_csv",
    "measure_turnaround",
    "noise_floor_delta",
    "noise_floor_report",
    "ns_value",
    "parse_config",
    "render_trace",
    "rx_noise_floor",
    "sample_power_db",
    "sample_trace",
    "save_capture",
    "sweep_budgets",
    "synthesize_capture",
    "trace_to_csv",
    "turnaround_budget",
    "worst_case_tt_ns",
]
