"""The Record base: construction, text, equality, hashing, freezing and
`replace`, checked the same way on every record type of the package."""

import math
import types

import numpy as np
import pytest

from zifsim import (
    BUILTIN_DEADLINES,
    BitSequence,
    BudgetComponent,
    ClockConfig,
    CommandKind,
    ComplianceResult,
    Direction,
    EnsmMode,
    IqCapture,
    LoDividerConfig,
    LoStep,
    NoiseFloorReport,
    NoiseSettings,
    PacketFilterResult,
    PowerTrace,
    ProtocolDeadline,
    Record,
    RfModelParams,
    RunConfig,
    SpiFrame,
    Timeline,
    TimingProfile,
    TraceSettings,
    TurnaroundBudget,
    default_config,
    expand_schedule,
    turnaround_budget,
)
from zifsim.looptrace import LoopTimeline, LoopTrace

from conftest import Command


def field_values(record) -> dict:
    return {name: getattr(record, name) for name, _, _ in record.fields}


READ_ONLY = np.zeros((4, 2), np.int16)
READ_ONLY.flags.writeable = False  # kept as given, so a rebuilt capture shares it
BUDGET = turnaround_budget(EnsmMode.LO_CONTROL, Direction.RX_TO_TX, ClockConfig(), TimingProfile())
TIMELINE = expand_schedule(default_config().schedule, ClockConfig(), TimingProfile())  # 6 columns
ARRAYS = np.array([1.0, 2.0]), np.array([True, False]), np.zeros((0, 2), np.int64)

# each record type: the arguments it requires, exactly, and a field value
# its checks refuse (None: it checks nothing)
RECORDS = (
    (ClockConfig, {}, ("spi_clock_hz", 0)),
    (TimingProfile, {}, ("vco_cal_ns", -1)),
    (RfModelParams, {}, ("packet_delta_db", math.nan)),
    (Command, {"time_ns": 5, "kind": CommandKind.LO_ON}, ("time_ns", -1)),
    (TraceSettings, {}, ("interval_ns", 0)),
    (NoiseSettings, {}, ("n_samples", 2**61)),
    (RunConfig, {}, None),
    (ProtocolDeadline, {"name": "tight", "deadline_ns": 600}, ("deadline_ns", 0)),
    (ComplianceResult, {"mode": None, "deadline": BUILTIN_DEADLINES[0], "tt_ns": 640,
                        "passed": True, "margin_ns": 9360}, None),
    (BudgetComponent, field_values(BUDGET.components[0]), None),
    (TurnaroundBudget, field_values(BUDGET), None),
    (SpiFrame, {}, ("data", 256)),
    (BitSequence, {"bits": (1, 0, 1, 1)}, ("bits", (2,))),
    (LoDividerConfig, {}, ("on_value", 1)),
    (Timeline, {name: getattr(TIMELINE, name) for name, _, _ in Timeline.fields[:5]}, None),
    (LoStep, {"trigger_ns": 0, "direction": Direction.RX_TO_TX, "level_dbr": 30.0}, None),
    (PowerTrace, {"start_ns": -50, "interval_ns": 50, "samples": [0.0, 30.0]}, None),
    (LoopTimeline, {"events": []}, None),
    (LoopTrace, {"start_ns": -50, "interval_ns": 50, "samples": [0.0, 30.0]}, None),
    (IqCapture, {"samples": READ_ONLY}, ("sample_rate_hz", 0)),
    (PacketFilterResult, dict(zip(("series", "keep_mask"), ARRAYS), samples_filtered=1), None),
    (NoiseFloorReport, {"average_power_db": 1.5, "sample_count_used": 2, "samples_filtered": 0,
                        "threshold_db": 11.5, "removed_runs": ARRAYS[2]}, None),
)
MUTABLE = {TraceSettings, NoiseSettings, RunConfig, IqCapture, PacketFilterResult,
           NoiseFloorReport}
# the records that hold arrays, each equal only to itself
HOLD_ARRAYS = {Timeline, PowerTrace, IqCapture, PacketFilterResult, NoiseFloorReport}


def test_the_table_covers_every_record_type():
    assert {cls for cls, _, _ in RECORDS} == set(Record.__subclasses__())
    assert HOLD_ARRAYS == {cls for cls in Record.__subclasses__()
                           if any(kind is np.ndarray for _, kind, _ in cls.fields)}


@pytest.mark.parametrize("cls, required, refused", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, required, refused):
    record = cls(**required)
    values = field_values(record)
    assert list(values) == [name for name, _, _ in cls.fields]

    # replace() rebuilds an equal record; one that holds arrays equals only itself
    copy = record.replace()
    assert type(copy) is cls and repr(copy) == repr(record)
    assert (copy == record) is (cls not in HOLD_ARRAYS)
    assert record == record
    if refused is not None:  # the constructor's checks run again, word for word
        name, value = refused
        with pytest.raises(ValueError) as built:
            cls(**{**required, name: value})
        with pytest.raises(ValueError) as replaced:
            record.replace(**{name: value})
        assert str(replaced.value) == str(built.value)

    # equality only within one class
    same_fields = types.SimpleNamespace(**values)
    assert record.__eq__(same_fields) is NotImplemented and record != same_fields

    first, value = next(iter(values.items()))
    if cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(record, first, value)
    else:
        for change in (lambda: setattr(record, first, value), lambda: delattr(record, first),
                       lambda: setattr(record, "other", 1)):
            with pytest.raises(AttributeError, match="frozen"):
                change()

    # missing, unknown and repeated arguments
    for name in required:
        with pytest.raises(TypeError, match=f"missing field '{name}'"):
            cls(**{key: v for key, v in required.items() if key != name})
    for args, kwargs in (((), {**required, "bogus": 1}), ((value,), {**required, first: value}),
                         ((*values.values(), None), {})):
        with pytest.raises(TypeError, match="at most once"):
            cls(*args, **kwargs)
    with pytest.raises(TypeError):
        record.replace(bogus=1)


def test_hashes_follow_the_fields_or_the_identity():
    assert hash(ClockConfig()) == hash(ClockConfig()) == hash(ClockConfig().replace())
    assert Command(5, CommandKind.LO_ON) in {Command(5, CommandKind.LO_ON)}
    assert hash(TIMELINE) == object.__hash__(TIMELINE)
    with pytest.raises(TypeError, match="unhashable"):
        hash(RunConfig())
    trace = PowerTrace(0, 1, [0.0])
    assert hash(trace) == object.__hash__(trace)


@pytest.mark.parametrize("cls, required", [pytest.param(cls, required, id=cls.__name__)
                                            for cls, required, _ in RECORDS
                                            if cls in HOLD_ARRAYS])
def test_records_holding_arrays_compare_by_identity(cls, required):
    # from distinct, equal, writeable arrays: == answers a bool and never
    # asks an array for its truth value
    def build():
        return cls(**{name: np.array(value) if isinstance(value, np.ndarray) else value
                      for name, value in required.items()})

    first, second = build(), build()
    arrays = [name for name, value in field_values(first).items()
              if isinstance(value, np.ndarray)]
    assert arrays
    for name in arrays:
        ours, theirs = getattr(first, name), getattr(second, name)
        assert ours is not theirs and ours.flags.writeable and np.array_equal(ours, theirs)
    assert (first == second) is False and (first != second) is True
    assert (first == first) is True and (second != second) is False


def test_fields_come_from_each_class_own_annotations():
    assert [name for name, _, _ in ClockConfig.fields] == [
        "ref_clock_hz", "adc_clock_hz", "spi_clock_hz", "allow_spi_overclock"]
    assert [kind for _, kind, _ in ClockConfig.fields] == [int, int, int, bool]
    assert all(cls.fields for cls in Record.__subclasses__())
    with pytest.raises(TypeError, match="missing field 'time_ns'"):
        Command()


def test_records_print_as_dataclasses_did():
    assert repr(ClockConfig()) == (
        "ClockConfig(ref_clock_hz=40000000, adc_clock_hz=160000000, spi_clock_hz=50000000, "
        "allow_spi_overclock=False)"
    )
    assert repr(TraceSettings()) == (
        "TraceSettings(band=<Band.B2G4: '2g4'>, start_ns=-2500, end_ns=2500, interval_ns=50, "
        "settling_tau_ns=0.0)"
    )


def test_default_factories_run_per_instance():
    first, second = RunConfig(), RunConfig()
    first.extra_deadlines.append(ProtocolDeadline("tight", 600))
    assert second.extra_deadlines == [] and first.trace is not second.trace
    assert RfModelParams().lo_on_delta_db is not RfModelParams().lo_on_delta_db
