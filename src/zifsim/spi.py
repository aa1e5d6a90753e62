"""Bit-exact codec for the 24-bit register-write transaction, and the Tx
LO-divider write built on it.

A single-register write is serialized MSB-first as

    [write:1][extra_bytes:3][reserved:2 = 00][address:10][data:8]

which is FRAME_BITS = 24 bits on the wire; `params.frame_duration_ns`
gives its wire time. The layout is a module constant; only the
total width is fixed by the device's instruction format, so the field
split is documented here and pinned by the tests rather than configurable.
"""

from dataclasses import dataclass, field

from .errors import ConfigError, MalformedFrameError
from .params import FRAME_BITS, check_fields

ADDRESS_BITS = 10
DATA_BITS = 8
EXTRA_COUNT_BITS = 3
RESERVED_BITS = 2


@dataclass(frozen=True)
class SpiFrame:
    """One single-register write; an extra_byte_count of 0 moves one byte."""

    write_flag: bool = True
    extra_byte_count: int = field(default=0, metadata={"bits": EXTRA_COUNT_BITS})
    register_address: int = field(default=0, metadata={"bits": ADDRESS_BITS})
    data: int = field(default=0, metadata={"bits": DATA_BITS})

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class BitSequence:
    """Bits in transmission order, most-significant bit first."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    def __len__(self):
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, index):
        return self.bits[index]

    def to_int(self) -> int:
        value = 0
        for bit in self.bits:
            value = (value << 1) | bit
        return value

    def to_hex(self) -> str:
        """Hex string, MSB first (6 digits for a 24-bit frame)."""
        if len(self.bits) % 4:
            raise ValueError("bit count must be a multiple of 4 for hex export")
        return format(self.to_int(), f"0{len(self.bits) // 4}x")

    def to_bytes(self) -> bytes:
        """Byte dump, big-endian bit order (3 bytes for a 24-bit frame)."""
        if len(self.bits) % 8:
            raise ValueError("bit count must be a multiple of 8 for byte export")
        return self.to_int().to_bytes(len(self.bits) // 8, "big")


def encode_frame(frame: SpiFrame) -> BitSequence:
    """Serialize a frame into its 24 wire bits, write flag first."""
    value = (
        (int(frame.write_flag) << 23)
        | (frame.extra_byte_count << 20)
        # bits 19..18 reserved, always zero
        | (frame.register_address << 8)
        | frame.data
    )
    bits = tuple((value >> shift) & 1 for shift in range(FRAME_BITS - 1, -1, -1))
    return BitSequence(bits)


def decode_frame(bits: BitSequence) -> SpiFrame:
    """Inverse of encode_frame. Rejects wrong lengths and reserved bits."""
    if len(bits) != FRAME_BITS:
        raise MalformedFrameError(
            f"frame length must be {FRAME_BITS} bits, got {len(bits)}"
        )
    value = BitSequence(tuple(bits)).to_int()
    reserved = (value >> 18) & 0b11
    if reserved:
        raise MalformedFrameError(f"reserved bits must be zero, got {reserved:#04b}")
    return SpiFrame(
        write_flag=bool((value >> 23) & 1),
        extra_byte_count=(value >> 20) & 0b111,
        register_address=(value >> 8) & 0x3FF,
        data=value & 0xFF,
    )


@dataclass(frozen=True)
class LoDividerConfig:
    """Register address and data bytes for Tx LO-divider power control.

    The real register map is device documentation that this model does not
    reproduce; these defaults are placeholders so the plumbing is testable.
    Override them with values from the actual register map before driving
    hardware.
    """

    tx_register: int = field(default=0x005, metadata={"bits": ADDRESS_BITS})
    on_value: int = field(default=0x00, metadata={"bits": DATA_BITS})
    off_value: int = field(default=0x01, metadata={"bits": DATA_BITS})

    def __post_init__(self):
        check_fields(self)
        if self.on_value == self.off_value:
            raise ValueError(f"on_value and off_value must differ, both are {self.on_value}")


def lo_divider_command(power_on: bool, config: LoDividerConfig) -> SpiFrame:
    """The single-byte write frame that powers the Tx divider on or off."""
    data = config.on_value if power_on else config.off_value
    return SpiFrame(write_flag=True, register_address=config.tx_register, data=data)


def command_from_frame(frame: SpiFrame, config: LoDividerConfig) -> bool:
    """The power state a divider frame commands (True: on), given the same
    config: the exact inverse of lo_divider_command.

    Raises ConfigError for any frame lo_divider_command cannot produce: a
    read, a multi-byte transfer, another register, or a data byte that is
    neither the on nor the off value.
    """
    for power_on in (False, True):
        if frame == lo_divider_command(power_on, config):
            return power_on
    raise ConfigError(f"{frame} is not an LO divider write under {config}")
