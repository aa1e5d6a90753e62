"""Config text parsing, validation, and dump/parse inversion."""

import tracemalloc

import pytest

from zifsim import (
    Band,
    CommandKind,
    ConfigError,
    NoiseSettings,
    Record,
    RunConfig,
    Schedule,
    TraceSettings,
    default_config,
    dump_config,
    load_config,
    parse_config,
)

from conftest import Command, from_commands


def test_empty_text_gives_defaults():
    config = parse_config("")
    default = default_config()
    assert config.clocks == default.clocks
    assert config.profile == default.profile
    assert config.rf == default.rf
    assert config.schedule == default.schedule
    assert config.deadlines_builtin
    assert config.output_format == "table"


def test_comments_and_blank_lines_ignored():
    config = parse_config("\n# comment\n\nclocks.spi_clock_hz = 25000000\n")
    assert config.clocks.spi_clock_hz == 25_000_000


def test_dump_parse_roundtrip():
    text = dump_config(default_config())
    assert dump_config(parse_config(text)) == text


def test_dump_parse_roundtrip_nondefault():
    config = parse_config(
        "clocks.spi_clock_hz = 10000000\n"
        "profile.vco_cal_ns = 40000\n"
        "rf.lo_on_delta_db.5g = 21.5\n"
        "trace.band = 5g\n"
        "noise.seed = 77\n"
        "schedule.0 = trigger @ 0\n"
        "schedule.1 = lo-on @ 100\n"
        "deadlines.extra.custom = 700\n"
        "output.format = csv\n"
    )
    text = dump_config(config)
    assert dump_config(parse_config(text)) == text
    assert "deadlines.extra.custom = 700" in text


def test_every_settings_field_dumps_and_parses_back():
    # walks the section records, so a new field needs no edit here
    default = default_config()
    dump = {line.partition(" = ")[0]: line for line in dump_config(default).splitlines()}
    for section, _, _ in RunConfig.fields:
        settings = getattr(default, section)
        if not isinstance(settings, Record):
            continue
        for name, _, _ in settings.fields:
            value = getattr(settings, name)
            if isinstance(value, dict):
                keys = [f"{section}.{name}.{band.value}" for band in value]
            else:
                keys = [f"{section}.{name}"]
            for key in keys:
                assert key in dump
                parsed = getattr(parse_config(dump[key] + "\n"), section)
                assert getattr(parsed, name) == value


def test_section_overrides():
    config = parse_config(
        "clocks.adc_clock_hz = 320000000\n"
        "profile.flush_cycles = 768\n"
        "rf.fdd_rx_floor_db.2g4 = 70.0\n"
        "rf.packet_delta_db = 12.5\n"
        "trace.interval_ns = 25\n"
        "noise.n_samples = 5000\n"
    )
    assert config.clocks.adc_clock_hz == 320_000_000
    assert config.profile.flush_cycles == 768
    assert config.rf.fdd_rx_floor_db[Band.B2G4] == 70.0
    assert config.rf.fdd_rx_floor_db[Band.B5G] == 58.0  # untouched
    assert config.rf.packet_delta_db == 12.5
    assert config.trace.interval_ns == 25
    assert config.noise.n_samples == 5000


def test_schedule_entries_replace_default():
    config = parse_config(
        "schedule.1 = lo-off @ 5000\nschedule.0 = lo-on @ 0\n"
    )
    assert config.schedule == from_commands(
        [Command(0, CommandKind.LO_ON), Command(5000, CommandKind.LO_OFF)]
    )


def test_schedule_empty():
    assert parse_config("schedule.empty = true\n").schedule == Schedule()
    with pytest.raises(ConfigError):
        parse_config("schedule.empty = true\nschedule.0 = lo-on @ 0\n")


@pytest.mark.parametrize("mark", ["\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029"])
def test_every_line_break_counts_for_line_numbers(mark):
    # str.splitlines breaks at each of these, the regular schedule lines'
    # fast path only at "\n"; both must count the same lines
    text = f"schedule.0 = lo-on @ 0\ntrace.band = 5g{mark}bogus = 1\nschedule.1 = lo-off @ 9\n"
    with pytest.raises(ConfigError, match="^line 3: unknown key 'bogus'$"):
        parse_config(text)


def test_deadline_controls():
    config = parse_config(
        "deadlines.builtin = false\ndeadlines.extra.tight = 600\n"
    )
    assert [d.name for d in config.deadlines] == ["tight"]
    assert config.deadlines[0].deadline_ns == 600
    assert config.deadlines[0].source == "config"


@pytest.mark.parametrize("builtin_line", ["", "deadlines.builtin = true\n"])
def test_extra_deadline_cannot_reuse_a_builtin_name(builtin_line):
    with pytest.raises(ConfigError, match="^deadlines.extra.sifs-2g4: sifs-2g4 is a built-in"):
        parse_config("deadlines.extra.sifs-2g4 = 5\n" + builtin_line)


def test_extra_deadline_may_take_a_builtin_name_when_builtins_are_off():
    # deadlines.builtin may follow the extra entry
    config = parse_config("deadlines.extra.sifs-2g4 = 5\ndeadlines.builtin = false\n")
    assert [(d.name, d.deadline_ns) for d in config.deadlines] == [("sifs-2g4", 5)]


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("clocks.spi_clock_hz = 1000000\nbogus.key = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("clocks.quantum_hz = 5\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("rf.lo_on_delta_db = 30.0\n")  # band suffix required


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("noise.seed = 1\nnoise.seed = 2\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("this is not an assignment\n")


def test_value_type_errors():
    with pytest.raises(ConfigError):
        parse_config("clocks.spi_clock_hz = fast\n")
    with pytest.raises(ConfigError):
        parse_config("clocks.allow_spi_overclock = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("rf.agc_gain_db = loud\n")
    with pytest.raises(ConfigError):
        parse_config("trace.band = 3g\n")


def test_schedule_value_errors():
    with pytest.raises(ConfigError):
        parse_config("schedule.0 = lo-on\n")  # missing @ time
    with pytest.raises(ConfigError):
        parse_config("schedule.0 = warp @ 0\n")
    with pytest.raises(ConfigError):
        parse_config("schedule.0 = lo-on @ -5\n")
    with pytest.raises(ConfigError):
        parse_config("schedule.first = lo-on @ 0\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("schedule.0 = lo-on @ 0\nschedule.00 = lo-off @ 5000\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("schedule.-1 = lo-on @ 0\n")


def test_schedule_index_beyond_the_int_digit_limit():
    key = "schedule." + "1" * 5000
    with pytest.raises(ConfigError, match=f"^line 2: schedule index too long in '{key}'$"):
        parse_config(f"# long index\n{key} = lo-on @ 0\n")


def test_semantic_validation():
    with pytest.raises(ConfigError):
        parse_config("trace.interval_ns = 0\n")
    with pytest.raises(ConfigError):
        parse_config("trace.start_ns = 100\ntrace.end_ns = 0\n")
    with pytest.raises(ConfigError):
        parse_config("noise.n_samples = 0\n")
    for threshold in ("0", "nan", "inf", "-inf"):
        with pytest.raises(ConfigError):
            parse_config(f"noise.filter_threshold_db = {threshold}\n")
    with pytest.raises(ConfigError):
        parse_config("noise.filter_guard_samples = -1\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("noise.seed = -1\n")
    with pytest.raises(ConfigError):
        parse_config("clocks.spi_clock_hz = 0\n")
    with pytest.raises(ConfigError):
        # violates the per-band floor ordering invariant
        parse_config("rf.fdd_rx_floor_db.2g4 = 10.0\n")
    for tau in ("-5", "nan", "inf"):
        with pytest.raises(ConfigError, match="settling_tau_ns"):
            parse_config(f"trace.settling_tau_ns = {tau}\n")
    for key in ("packet_delta_db", "agc_gain_db"):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"rf.{key} = nan\n")
    with pytest.raises(ConfigError, match="deadlines.extra.foo"):
        parse_config("deadlines.extra.foo = -3\n")
    for window in ("trace.start_ns = -9007199254740992", "trace.end_ns = 9007199254740992",
                   "trace.interval_ns = 9007199254740992"):
        with pytest.raises(ConfigError):
            parse_config(window + "\n")


def test_packet_level_must_be_finite():
    # the trace's packet level is lo_on_delta_db + packet_delta_db
    with pytest.raises(ConfigError, match=r"^rf\.lo_on_delta_db \+ packet_delta_db must be "
                                          "finite for band 5g, got inf$"):
        parse_config("rf.lo_on_delta_db.5g = 1e308\nrf.packet_delta_db = 1e308\n")
    config = parse_config("rf.lo_on_delta_db.5g = 1e308\nrf.packet_delta_db = -1e308\n")
    assert config.rf.lo_on_delta_db[Band.B5G] == 1e308


@pytest.mark.parametrize("settings, field, value", [
    (NoiseSettings, "n_samples", float("nan")),
    (NoiseSettings, "seed", float("nan")),
    (NoiseSettings, "filter_guard_samples", float("nan")),
    (NoiseSettings, "n_samples", 2.5),
    (TraceSettings, "interval_ns", 2.5),
])
def test_settings_refuse_nan_and_fractional_values(settings, field, value):
    with pytest.raises(ValueError, match=field):
        settings(**{field: value})


def test_output_controls():
    config = parse_config("output.format = json\noutput.path = out.json\n")
    assert config.output_format == "json"
    assert config.output_path == "out.json"
    with pytest.raises(ConfigError):
        parse_config("output.format = yaml\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("noise.seed = 123\n")
    assert load_config(path).noise.seed == 123


def test_parsed_schedule_memory_per_command():
    # a schedule keeps two array columns, 9 bytes a command; a Command
    # object per command and a list slot for it cost over 100
    n = 5000
    kinds = ["lo-on", "tx-packet-start", "tx-packet-end", "lo-off"]
    text = "".join(f"schedule.{i} = {kinds[i % 4]} @ {i * 1000}\n" for i in range(n))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        config = parse_config(text)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(config.schedule) == n
    assert kept < 24 * n
