"""Turnaround-time and self-interference modeling for zero-IF SDR front-ends.

The package covers the switching behavior of an AD9361-class transceiver:
itemized turnaround budgets per duplexing mode, SPI command encoding for
direct LO divider control, discrete-event simulation of Tx power traces,
receiver noise-floor analysis, and MAC deadline compliance checks.
"""

import importlib

__version__ = "0.1.0"

# Every public name, once, under the module that defines it. `import zifsim`
# loads none of them: each resolves on first use (PEP 562), so budget,
# compliance and config work never imports the array layers (`rf`, `sim`)
# and numpy with them.
_PUBLIC = {
    "config": (
        "NoiseSettings",
        "RunConfig",
        "TraceSettings",
        "default_config",
        "dump_config",
        "load_config",
        "parse_config",
    ),
    "ensm": (
        "BudgetComponent",
        "TurnaroundBudget",
        "flush_time_ns",
        "sweep_budgets",
        "turnaround_budget",
    ),
    "errors": (
        "ConfigError",
        "DataError",
        "FilterRefusedError",
        "MalformedFrameError",
        "MeasurementError",
        "OverlappingSpiError",
        "ScheduleError",
        "ZifsimError",
    ),
    "mac": (
        "BUILTIN_DEADLINES",
        "ComplianceResult",
        "ProtocolDeadline",
        "check",
        "compliance_matrix",
        "worst_case_tt_ns",
    ),
    "params": (
        "Band",
        "ClockConfig",
        "CommandKind",
        "Direction",
        "EnsmMode",
        "Record",
        "RfModelParams",
        "Schedule",
        "TimingProfile",
        "cycles_to_ns",
        "frame_duration_ns",
        "ns_value",
    ),
    "rf": (
        "IqCapture",
        "NoiseFloorReport",
        "PacketFilterResult",
        "average_power_db",
        "filter_packets",
        "load_capture",
        "noise_floor_delta",
        "noise_floor_report",
        "rx_noise_floor",
        "sample_power_db",
        "save_capture",
        "synthesize_capture",
    ),
    "sim": (
        "PowerTrace",
        "Timeline",
        "expand_schedule",
        "sample_trace",
        "trace_to_csv",
    ),
    "spi": (
        "BitSequence",
        "LoDividerConfig",
        "SpiFrame",
        "command_from_frame",
        "decode_frame",
        "encode_frame",
        "lo_divider_command",
    ),
    "steps": (
        "LoStep",
        "find_step",
        "measure_turnaround",
    ),
}

_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        module = importlib.import_module(f"{__name__}.{_HOME[name]}")
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
