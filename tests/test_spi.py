"""Frame codec, wire timing, and LO divider command mapping."""

import random
from fractions import Fraction

import pytest

from zifsim import (
    BitSequence,
    Chain,
    ClockConfig,
    ConfigError,
    LoDividerCommand,
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
    on = lo_divider_command(Chain.TX, True, config)
    off = lo_divider_command(Chain.TX, False, config)
    assert on.write_flag and off.write_flag
    assert on.register_address == off.register_address == config.tx_register
    assert on.extra_byte_count == off.extra_byte_count == 0
    assert (on.data, off.data) == (config.on_value, config.off_value)
    # on/off differ only in the data byte
    assert on == SpiFrame(True, 0, off.register_address, config.on_value)


def test_lo_divider_rx_chain_unconfigured():
    with pytest.raises(ConfigError):
        lo_divider_command(Chain.RX, True, LoDividerConfig())


def test_lo_divider_command_roundtrip():
    config = LoDividerConfig(tx_register=0x3A0, rx_register=0x1B2,
                             on_value=0x12, off_value=0x34)
    for chain in Chain:
        for power_on in (False, True):
            command = LoDividerCommand.from_config(chain, power_on, config)
            frame = decode_frame(encode_frame(command.to_frame()))
            assert command_from_frame(frame, config) == command


def test_command_from_frame_rejects_foreign_frames():
    config = LoDividerConfig()
    with pytest.raises(ConfigError):
        command_from_frame(SpiFrame(register_address=0x123, data=0x00), config)
    with pytest.raises(ConfigError):
        command_from_frame(
            SpiFrame(register_address=config.tx_register, data=0x55), config
        )
