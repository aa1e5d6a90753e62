"""Frame codec, wire timing, and the Tx LO divider write."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zifsim import (
    BitSequence,
    ClockConfig,
    ConfigError,
    LoDividerConfig,
    MalformedFrameError,
    SpiFrame,
    command_from_frame,
    decode_frame,
    encode_frame,
    frame_duration_ns,
    lo_divider_command,
)


def test_encode_all_zero_payload():
    bits = encode_frame(SpiFrame(write_flag=True, extra_byte_count=0,
                                 register_address=0, data=0))
    assert tuple(bits) == (1,) + (0,) * 23


def test_encode_all_ones_fields():
    bits = encode_frame(SpiFrame(write_flag=True, extra_byte_count=0,
                                 register_address=0x3FF, data=0xFF))
    assert tuple(bits) == (1, 0, 0, 0, 0, 0) + (1,) * 10 + (1,) * 8


def test_first_transmitted_bit_is_write_flag():
    assert encode_frame(SpiFrame(write_flag=True))[0] == 1
    assert encode_frame(SpiFrame(write_flag=False))[0] == 0


def test_field_bit_positions():
    # each field lands in its own bit range of [W:1][N:3][00:2][addr:10][data:8]
    assert encode_frame(SpiFrame(write_flag=False, extra_byte_count=0b101)).to_int() == 0b101 << 20
    assert encode_frame(SpiFrame(write_flag=False, register_address=1)).to_int() == 1 << 8
    assert encode_frame(SpiFrame(write_flag=False, data=1)).to_int() == 1


def test_encode_length_is_24():
    assert len(encode_frame(SpiFrame())) == 24


def test_hex_and_bytes_export():
    frame = SpiFrame(write_flag=True, register_address=0x005, data=0x00)
    bits = encode_frame(frame)
    assert bits.to_hex() == "800500"
    assert bits.to_bytes() == b"\x80\x05\x00"


def test_roundtrip_random_frames():
    rng = random.Random(20240817)
    for _ in range(2000):
        frame = SpiFrame(
            write_flag=rng.random() < 0.5,
            extra_byte_count=rng.randrange(8),
            register_address=rng.randrange(1024),
            data=rng.randrange(256),
        )
        assert decode_frame(encode_frame(frame)) == frame


def test_roundtrip_boundary_frames():
    for write in (False, True):
        for extra in (0, 7):
            for addr in (0, 1023):
                for data in (0, 255):
                    frame = SpiFrame(write, extra, addr, data)
                    assert decode_frame(encode_frame(frame)) == frame


def test_decode_rejects_wrong_length():
    with pytest.raises(MalformedFrameError):
        decode_frame(BitSequence((0,) * 23))
    with pytest.raises(MalformedFrameError):
        decode_frame(BitSequence((0,) * 25))
    with pytest.raises(MalformedFrameError):
        decode_frame(BitSequence(()))


def test_decode_rejects_reserved_bits():
    for reserved_bit in (18, 19):
        bits = [0] * 24
        bits[23 - reserved_bit] = 1  # bit index counted from the MSB end
        with pytest.raises(MalformedFrameError):
            decode_frame(BitSequence(tuple(bits)))


def test_frame_field_range_errors_name_the_field():
    with pytest.raises(ValueError, match="extra_byte_count"):
        SpiFrame(extra_byte_count=8)
    with pytest.raises(ValueError, match="register_address"):
        SpiFrame(register_address=1024)
    with pytest.raises(ValueError, match="register_address"):
        SpiFrame(register_address=-1)
    with pytest.raises(ValueError, match="data"):
        SpiFrame(data=256)
    # non-integers fail here, not later in encode_frame
    for value in (5.5, 5.0, "5", None):
        for name in ("extra_byte_count", "register_address", "data"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SpiFrame(**{name: value})


def test_frame_fields_take_any_integer_type():
    frame = SpiFrame(extra_byte_count=np.int8(1), register_address=np.int64(5), data=True)
    assert (frame.extra_byte_count, frame.register_address, frame.data) == (1, 5, 1)
    assert type(frame.register_address) is int
    assert frame == SpiFrame(extra_byte_count=1, register_address=5, data=1)
    assert encode_frame(frame).to_int() == (1 << 23) | (1 << 20) | (5 << 8) | 1


def test_bitsequence_validation_and_exports():
    with pytest.raises(ValueError):
        BitSequence((0, 2, 1))
    with pytest.raises(ValueError):
        BitSequence((1, 0, 1)).to_hex()  # not a multiple of 4
    with pytest.raises(ValueError):
        BitSequence((1, 0, 1, 0)).to_bytes()  # not a multiple of 8
    assert BitSequence((1, 0, 1, 1)).to_int() == 0b1011


def test_frame_duration_known_clocks():
    assert frame_duration_ns(ClockConfig()) == 480
    assert frame_duration_ns(ClockConfig(spi_clock_hz=25_000_000)) == 960
    assert frame_duration_ns(ClockConfig(spi_clock_hz=24_000_000)) == 1000


def test_frame_duration_exact_rational():
    duration = frame_duration_ns(ClockConfig(spi_clock_hz=7_000_000))
    assert duration == Fraction(24_000, 7)


def test_frame_duration_inverse_proportionality():
    # frame_duration(k * f) * k == frame_duration(f), exactly
    base = 10_000_000
    reference = frame_duration_ns(ClockConfig(spi_clock_hz=base))
    for k in (2, 3, 4, 5):
        scaled = frame_duration_ns(ClockConfig(spi_clock_hz=k * base))
        assert scaled * k == reference


def test_frame_duration_overclock_guard():
    fast = ClockConfig(spi_clock_hz=100_000_000, allow_spi_overclock=True)
    assert frame_duration_ns(fast) == 240
    with pytest.raises(ValueError, match="spi_clock_hz 100000000 exceeds"):
        ClockConfig(spi_clock_hz=100_000_000)


def test_lo_divider_command_frames():
    config = LoDividerConfig()
    on = lo_divider_command(True, config)
    off = lo_divider_command(False, config)
    assert on.write_flag and off.write_flag
    assert on.register_address == off.register_address == config.tx_register
    assert on.extra_byte_count == off.extra_byte_count == 0
    assert (on.data, off.data) == (config.on_value, config.off_value)
    # on/off differ only in the data byte
    assert on == SpiFrame(True, 0, off.register_address, config.on_value)


def test_lo_divider_command_roundtrip():
    config = LoDividerConfig(tx_register=0x3A0, on_value=0x12, off_value=0x34)
    for power_on in (False, True):
        frame = decode_frame(encode_frame(lo_divider_command(power_on, config)))
        assert command_from_frame(frame, config) is power_on


def test_command_from_frame_rejects_foreign_frames():
    config = LoDividerConfig()
    register = config.tx_register
    for frame in (
        SpiFrame(register_address=0x123, data=0x00),  # another register
        SpiFrame(register_address=register, data=0x55),  # neither on nor off
        SpiFrame(write_flag=False, register_address=register),  # a read
        SpiFrame(extra_byte_count=3, register_address=register),  # 4-byte transfer
    ):
        with pytest.raises(ConfigError, match="is not an LO divider write"):
            command_from_frame(frame, config)


@pytest.mark.parametrize("kwargs, message", [
    ({"tx_register": 1024}, "tx_register must be an integer that fits 10 bits"),
    ({"tx_register": 5000}, "tx_register must be an integer that fits 10 bits"),
    ({"tx_register": -1}, "tx_register must be an integer that fits 10 bits"),
    ({"tx_register": 5.5}, "tx_register must be an integer that fits 10 bits"),
    ({"on_value": 256}, "on_value must be an integer that fits 8 bits"),
    ({"off_value": -1}, "off_value must be an integer that fits 8 bits"),
    ({"on_value": 0, "off_value": 0}, "must differ"),
    ({"on_value": 0x7F, "off_value": 0x7F}, "must differ"),
    ({"tx_register": 5.0}, "tx_register must be an integer that fits 10 bits"),
])
def test_lo_divider_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        LoDividerConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"tx_register": 0, "on_value": 0, "off_value": 255},
    {"tx_register": 1023, "on_value": 255, "off_value": 0},
])
def test_lo_divider_config_accepts_field_extremes(kwargs):
    config = LoDividerConfig(**kwargs)
    assert command_from_frame(lo_divider_command(False, config), config) is False


divider_configs = st.tuples(
    st.integers(0, 1023), st.integers(0, 255), st.integers(0, 255)
).filter(lambda t: t[1] != t[2]).map(lambda t: LoDividerConfig(*t))


@st.composite
def config_and_frame(draw):
    """A valid config and a frame whose fields are often the config's, so
    that many drawn frames are divider writes and the rest differ from one
    in a single field."""
    config = draw(divider_configs)
    frame = SpiFrame(
        write_flag=draw(st.booleans()),
        extra_byte_count=draw(st.sampled_from([0, 0, 3]) | st.integers(0, 7)),
        register_address=draw(st.just(config.tx_register) | st.integers(0, 1023)),
        data=draw(st.sampled_from([config.on_value, config.off_value]) | st.integers(0, 255)),
    )
    return config, frame


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(config_and_frame())
@example((LoDividerConfig(), SpiFrame(write_flag=False, register_address=0x005, data=0x01)))
@example((LoDividerConfig(), SpiFrame(extra_byte_count=3, register_address=0x005, data=0x00)))
def test_command_from_frame_inverts_lo_divider_command(drawn):
    # every frame either decodes to the power state that encodes to it
    # exactly, or is refused
    config, frame = drawn
    try:
        power_on = command_from_frame(frame, config)
    except ConfigError:
        assert frame not in (lo_divider_command(p, config) for p in (False, True))
    else:
        assert type(power_on) is bool
        assert lo_divider_command(power_on, config) == frame
