"""Bit-exact codec and timing for the 24-bit register-write transaction.

A single-register write is serialized MSB-first as

    [write:1][extra_bytes:3][reserved:2 = 00][address:10][data:8]

which is 24 bits on the wire. The layout is a module constant; only the
total width is fixed by the device's instruction format, so the field
split is documented here and pinned by the tests rather than configurable.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, MalformedFrameError
from .params import ClockConfig, cycles_to_ns

FRAME_BITS = 24
ADDRESS_BITS = 10
DATA_BITS = 8
EXTRA_COUNT_BITS = 3
RESERVED_BITS = 2


@dataclass(frozen=True)
class SpiFrame:
    """One single-register write instruction."""

    write_flag: bool = True
    extra_byte_count: int = 0  # 0 = single-byte transfer
    register_address: int = 0  # 10-bit
    data: int = 0  # 8-bit

    def __post_init__(self):
        if not 0 <= self.extra_byte_count < (1 << EXTRA_COUNT_BITS):
            raise ValueError(
                f"extra_byte_count out of range: {self.extra_byte_count} (0..7)"
            )
        if not 0 <= self.register_address < (1 << ADDRESS_BITS):
            raise ValueError(
                f"register_address out of range: {self.register_address} (0..1023)"
            )
        if not 0 <= self.data < (1 << DATA_BITS):
            raise ValueError(f"data out of range: {self.data} (0..255)")
        object.__setattr__(self, "write_flag", bool(self.write_flag))


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


def frame_duration_ns(clocks: ClockConfig):
    """Wire time of one 24-bit frame at the configured SPI clock, exact ns."""
    return cycles_to_ns(FRAME_BITS, clocks.spi_clock_hz)


class Chain(Enum):
    """Which mixer chain a divider command targets."""

    TX = "tx"
    RX = "rx"


@dataclass(frozen=True)
class LoDividerConfig:
    """Register addresses and data bytes for LO-divider power control.

    The real register map is device documentation that this model does not
    reproduce; these defaults are placeholders so the plumbing is testable.
    Override them with values from the actual register map before driving
    hardware. The Rx chain has no placeholder because only the Tx divider
    is exercised by the turnaround scheme modeled here.
    """

    tx_register: int | None = 0x005  # placeholder, not authoritative
    rx_register: int | None = None
    on_value: int = 0x00  # placeholder
    off_value: int = 0x01  # placeholder


@dataclass(frozen=True)
class LoDividerCommand:
    """A resolved divider power command bound to its configured encoding."""

    chain: Chain
    power_on: bool
    target_register: int
    on_value: int
    off_value: int

    @classmethod
    def from_config(cls, chain: Chain, power_on: bool, config: LoDividerConfig):
        register = config.tx_register if chain is Chain.TX else config.rx_register
        if register is None:
            raise ConfigError(
                f"no LO divider register configured for the {chain.value} chain"
            )
        return cls(
            chain=chain,
            power_on=bool(power_on),
            target_register=register,
            on_value=config.on_value,
            off_value=config.off_value,
        )

    def to_frame(self) -> SpiFrame:
        return SpiFrame(
            write_flag=True,
            extra_byte_count=0,
            register_address=self.target_register,
            data=self.on_value if self.power_on else self.off_value,
        )


def lo_divider_command(
    chain: Chain, power_on: bool, config: LoDividerConfig
) -> SpiFrame:
    """Build the single-byte write frame that powers a divider on or off."""
    return LoDividerCommand.from_config(chain, power_on, config).to_frame()


def command_from_frame(frame: SpiFrame, config: LoDividerConfig) -> LoDividerCommand:
    """Recover the divider command a frame encodes, given the same config.

    Raises ConfigError when the frame does not address a configured divider
    register or carries a data byte that is neither the on nor off pattern.
    """
    if frame.register_address == config.tx_register:
        chain = Chain.TX
    elif frame.register_address == config.rx_register:
        chain = Chain.RX
    else:
        raise ConfigError(
            f"register {frame.register_address:#05x} is not a configured "
            "LO divider register"
        )
    if frame.data == config.on_value:
        power_on = True
    elif frame.data == config.off_value:
        power_on = False
    else:
        raise ConfigError(f"data byte {frame.data:#04x} is neither on nor off value")
    return LoDividerCommand.from_config(chain, power_on, config)
