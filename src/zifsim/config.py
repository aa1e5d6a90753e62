"""Run configuration: a flat key-value text format with dotted keys.

One `key = value` assignment per line, `#` comments, unknown keys are
rejected. Durations are integer nanoseconds and frequencies integer hertz
so timing arithmetic stays exact. Example:

    clocks.spi_clock_hz = 50000000
    rf.lo_on_delta_db.2g4 = 30.0
    schedule.0 = lo-on @ 0

Settings keys are `section.field`, or `section.field.<band>` for a per-band
field, read off the field tables of RunConfig's sections (clocks,
profile, rf, trace, noise), each a Record that checks its own values.

The built-in defaults reproduce the reference timing and noise numbers
with no file at all; a file only overrides what it names. The text
parser and writer live in `configtext`, which `parse_config`,
`load_config` and `dump_config` import on first call, so a call that
reads no config file and dumps none never compiles them.
"""

from .errors import ConfigError
from .params import (
    COMMAND_KINDS,
    Band,
    ClockConfig,
    CommandKind,
    Field,
    Record,
    RfModelParams,
    Schedule,
    TimingProfile,
    check_fields,
    check_sampling,
    integer,
)

OUTPUT_FORMATS = ("csv", "json", "table")


class TraceSettings(Record, frozen=False):
    """`trace` settings: band, sampling window and interval in ns, and the
    settling time constant (0 for instant steps)."""

    band: Band = Band.B2G4
    start_ns: int = -2500
    end_ns: int = 2500
    interval_ns: int = 50
    settling_tau_ns: float = 0.0

    def __post_init__(self):
        check_fields(self)
        check_sampling(self.start_ns, self.end_ns, self.interval_ns, self.settling_tau_ns)


class NoiseSettings(Record, frozen=False):
    """`noise` settings: synthetic capture length and seed, and the burst
    filter's threshold above the median (dB) and guard (samples)."""

    n_samples: int = Field(100_000, bits=61)  # n < 2**61: 4n bytes of (n, 2) int16 fit intp
    seed: int = 1
    filter_threshold_db: float = 10.0
    filter_guard_samples: int = 16

    def __post_init__(self):
        if integer("n_samples", self.n_samples) < 1:  # ahead of the width check
            raise ValueError("n_samples must be at least 1")
        check_fields(self)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.filter_threshold_db <= 0:
            raise ValueError("filter_threshold_db must be positive and finite")
        if self.filter_guard_samples < 0:
            raise ValueError("filter_guard_samples must be non-negative")


class RunConfig(Record, frozen=False):
    """Every setting of a run. The Record fields are the settings
    sections; the rest are the schedule, deadlines and output."""

    clocks: ClockConfig = Field(factory=ClockConfig)
    profile: TimingProfile = Field(factory=TimingProfile)
    rf: RfModelParams = Field(factory=RfModelParams)
    schedule: Schedule = Field(
        factory=lambda: Schedule([0], [COMMAND_KINDS.index(CommandKind.LO_ON)])
    )
    trace: TraceSettings = Field(factory=TraceSettings)
    noise: NoiseSettings = Field(factory=NoiseSettings)
    deadlines_builtin: bool = True
    extra_deadlines: list = Field(factory=list)
    output_format: str = "table"
    output_path: str = "-"

    @property
    def deadlines(self) -> list:
        from .mac import BUILTIN_DEADLINES

        resolved = list(BUILTIN_DEADLINES) if self.deadlines_builtin else []
        return resolved + list(self.extra_deadlines)


def default_config() -> RunConfig:
    return RunConfig()


def parse_config(text: str, numpy_above=None) -> RunConfig:
    """Parse config text into a RunConfig, on top of the defaults; a caller
    that runs numpy for a schedule of more than `numpy_above` commands
    says so, and such a schedule is read as numpy columns."""
    from .configtext import parse_text

    return parse_text(text, numpy_above)


def load_config(path, numpy_above=None) -> RunConfig:
    """parse_config of the text of the file at `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text, numpy_above)


def dump_config(config: RunConfig) -> str:
    """Render a RunConfig as config text; parse_config inverts it."""
    from .configtext import dump_text

    return dump_text(config)
