"""Seeded input generators for the benchmark.

Every generator takes its seed as an argument and is deterministic for a
given seed: the same seed writes byte-identical files. The program under
test only ever sees the files written here.

Sizes are fixed by the workload definitions; the seed varies content
(noise values, burst positions, packet placement, trigger position,
mode and band choices), so runs on different seeds do the same amount of
work and their timings are comparable.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from zifsim.ensm import Direction, EnsmMode, turnaround_budget
from zifsim.params import ClockConfig, TimingProfile
from zifsim.rf import Band, RfModelParams, rx_noise_floor

# Bursts sit this far above the modelled floor: twice the filter's default
# 10 dB cut, and still inside int16 for the loudest floor (fdd, 2g4).
BURST_DB_ABOVE_FLOOR = 20.0
_CHUNK_ROWS = 1 << 20

# Share of samples covered by injected bursts, per duty level.
BURST_DUTY = {"none": 0.0, "sparse": 0.005, "dense": 0.2}
# Burst lengths in samples; a dense capture is many medium bursts, so the
# filter's run handling and guard dilation both do real work.
_BURST_LEN = (64, 1024)

# Noise floor modes that captures are drawn from; fdd has the loudest floor.
CAPTURE_MODES = (EnsmMode.FDD, EnsmMode.LO_CONTROL, EnsmMode.STANDARD_TDD)


@dataclass
class Capture:
    path: Path
    n_samples: int
    mode: EnsmMode
    band: Band
    bursts: list  # (start, length) per injected burst, non-overlapping
    burst_samples: int


def write_capture(path, n_samples, duty, seed) -> Capture:
    """Complex Gaussian noise at a model floor plus constant-envelope bursts.

    Bursts are random-sign QPSK at BURST_DB_ABOVE_FLOOR over the floor, so
    every burst sample is above the filter's cut, not just most of them.
    Writes interleaved little-endian int16 and a `.meta` sidecar.
    """
    path = Path(path)
    rng = np.random.default_rng(seed)
    mode = CAPTURE_MODES[int(rng.integers(len(CAPTURE_MODES)))]
    band = list(Band)[int(rng.integers(len(Band)))]
    floor_db = rx_noise_floor(mode, band, RfModelParams())
    sigma = math.sqrt(10.0 ** (floor_db / 10.0) / 2.0)
    amplitude = round(math.sqrt(10.0 ** ((floor_db + BURST_DB_ABOVE_FLOOR) / 10.0) / 2.0))

    iq = np.empty((n_samples, 2), dtype=np.int16)
    for start in range(0, n_samples, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, n_samples - start)
        block = np.rint(rng.standard_normal((rows, 2)) * sigma)
        iq[start:start + rows] = np.clip(block, -32767, 32767)

    bursts = _burst_extents(rng, n_samples, BURST_DUTY[duty])
    for start, length in bursts:
        signs = rng.integers(0, 2, size=(length, 2), dtype=np.int16) * 2 - 1
        iq[start:start + length] = signs * amplitude

    iq.astype("<i2").tofile(path)
    Path(f"{path}.meta").write_text(
        f"sample_rate_hz = 20000000\nband = {band.value}\nmode = {mode.value}\n"
        "agc_db = 62.0\n"
    )
    return Capture(
        path=path,
        n_samples=n_samples,
        mode=mode,
        band=band,
        bursts=bursts,
        burst_samples=sum(length for _, length in bursts),
    )


def _burst_extents(rng, n_samples, duty):
    """Non-overlapping bursts covering about `duty` of the capture.

    Bursts are spread over equal slots with a random length and offset in
    each, and at least 64 quiet samples separate neighbours.
    """
    if duty <= 0:
        return []
    mean_len = sum(_BURST_LEN) / 2
    count = max(1, round(duty * n_samples / mean_len))
    slot = n_samples // count
    bursts = []
    for k in range(count):
        length = int(rng.integers(_BURST_LEN[0], min(_BURST_LEN[1], slot - 64) + 1))
        offset = int(rng.integers(0, slot - length - 64 + 1))
        bursts.append((k * slot + offset, length))
    return bursts


# --- schedules ----------------------------------------------------------

@dataclass(frozen=True)
class ScheduleCase:
    """One kind of command schedule, and why the workload has it."""

    name: str
    spi_clock_hz: int
    interval_ns: int
    settling_tau_ns: float
    trigger: str | None  # None, "lo-on" or "lo-off": trigger at a mid-schedule LO command
    why: str


# Each LO on/off cycle spans 40 sample intervals and holds four commands,
# so a schedule of N commands produces about 10 N trace samples.
SCHEDULE_CASES = {
    c.name: c
    for c in (
        ScheduleCase("int", 50_000_000, 50, 0.0, None,
                     "integral SPI clock: every event time is an int"),
        ScheduleCase("frac", 7_000_000, 250, 0.0, None,
                     "7 MHz SPI clock: frame ends are Fractions, the exact-timing path"),
        ScheduleCase("settle", 50_000_000, 50, 10.0, None,
                     "settling_tau_ns > 0: the exponential-settling sampling path"),
        ScheduleCase("trig-on", 50_000_000, 50, 0.0, "lo-on",
                     "trigger at a mid-schedule lo-on: rising step after the trigger"),
        ScheduleCase("trig-off", 7_000_000, 250, 0.0, "lo-off",
                     "trigger at a mid-schedule lo-off, Fraction times: falling step"),
    )
}


@dataclass
class Schedule:
    """What a trace of one schedule must look like."""

    path: Path | None  # None: the built-in default schedule
    name: str
    band: Band
    start_ns: int
    end_ns: int
    interval_ns: int
    settling_tau_ns: float
    trigger_ns: int
    direction: Direction
    budget_ns: int | Fraction

    @property
    def rows(self) -> int:
        return (self.end_ns - self.start_ns) // self.interval_ns + 1

    def levels(self) -> set:
        """Model power levels a sample of this schedule's trace may take."""
        rf = RfModelParams()
        lo = rf.lo_on_delta_db[self.band]
        return {0.0, lo, lo + rf.packet_delta_db}

    def expected_turnaround_ns(self):
        """Trigger to the first grid sample past the step midpoint.

        That is the lo-control budget of the LO command at or after the
        trigger, rounded up to the sample grid; with settling the step
        crosses its midpoint tau*ln(2) after the event.
        """
        earliest = self.trigger_ns + self.budget_ns - self.start_ns
        if self.settling_tau_ns > 0:
            earliest = float(earliest) + self.settling_tau_ns * math.log(2)
        k = math.ceil(Fraction(earliest) / self.interval_ns)
        return self.start_ns + k * self.interval_ns - self.trigger_ns


def default_schedule(band: Band) -> Schedule:
    """The trace the CLI draws with no schedule in its config."""
    return Schedule(
        path=None, name="default", band=band, start_ns=-2500,
        end_ns=2500, interval_ns=50, settling_tau_ns=0.0, trigger_ns=0,
        direction=Direction.RX_TO_TX,
        budget_ns=turnaround_budget(
            EnsmMode.LO_CONTROL, Direction.RX_TO_TX, ClockConfig(), TimingProfile()
        ).total_ns,
    )


def write_schedule(path, case: ScheduleCase, n_commands, seed) -> Schedule:
    """A series of LO on/off cycles with packets, as a config file.

    Each cycle is lo-on, packet start and end while the divider is up, then
    lo-off, with LO commands on the sample grid. Packet placement and
    length vary per cycle; one cycle in ten carries no packet.
    """
    path = Path(path)
    rng = np.random.default_rng(seed)
    band = list(Band)[int(rng.integers(len(Band)))]
    clocks = ClockConfig(spi_clock_hz=case.spi_clock_hz)
    profile = TimingProfile()
    interval = case.interval_ns
    period = 40 * interval
    on_len = 20 * interval  # lo-on to lo-off
    cycles = max(2, n_commands // 4)
    # earliest packet start: the divider is up after the frame and power-up
    up = math.ceil(
        turnaround_budget(EnsmMode.LO_CONTROL, Direction.RX_TO_TX, clocks, profile).total_ns
    )
    trigger_cycle = int(rng.integers(cycles // 3, 2 * cycles // 3)) if case.trigger else None

    lines = [
        f"# perfbench schedule: case {case.name}, {cycles} cycles",
        f"clocks.spi_clock_hz = {case.spi_clock_hz}",
        f"trace.band = {band.value}",
        f"trace.interval_ns = {interval}",
        f"trace.settling_tau_ns = {case.settling_tau_ns}",
    ]
    entries = []
    trigger_ns = None
    packet_starts = rng.integers(up + 1, up + 1 + (on_len - up) // 2, size=cycles)
    packet_lens = rng.integers(1, (on_len - up) // 2 - 1, size=cycles)
    no_packet = rng.random(cycles) < 0.1
    for c in range(cycles):
        t0 = c * period
        if c == trigger_cycle and case.trigger == "lo-on":
            trigger_ns = t0
            entries.append(f"trigger @ {t0}")
        entries.append(f"lo-on @ {t0}")
        if not no_packet[c]:
            ps = t0 + int(packet_starts[c])
            entries.append(f"tx-packet-start @ {ps}")
            entries.append(f"tx-packet-end @ {ps + int(packet_lens[c])}")
        if c == trigger_cycle and case.trigger == "lo-off":
            trigger_ns = t0 + on_len
            entries.append(f"trigger @ {t0 + on_len}")
        entries.append(f"lo-off @ {t0 + on_len}")
    lines.extend(f"schedule.{i} = {text}" for i, text in enumerate(entries))

    start_ns = -10 * interval
    end_ns = cycles * period
    lines.append(f"trace.start_ns = {start_ns}")
    lines.append(f"trace.end_ns = {end_ns}")
    text = "\n".join(lines) + "\n"
    path.write_text(text)

    if trigger_ns is None:  # the CLI then measures from the first LO write
        trigger_ns = 0
    direction = Direction.TX_TO_RX if case.trigger == "lo-off" else Direction.RX_TO_TX
    budget = turnaround_budget(EnsmMode.LO_CONTROL, direction, clocks, profile).total_ns
    return Schedule(
        path=path,
        name=case.name,
        band=band,
        start_ns=start_ns,
        end_ns=end_ns,
        interval_ns=interval,
        settling_tau_ns=case.settling_tau_ns,
        trigger_ns=trigger_ns,
        direction=direction,
        budget_ns=budget,
    )


# --- small config for the start-up dominated workload -------------------

def write_small_config(path, seed):
    """A short config that leaves budgets and deadlines at their defaults,
    so turnaround and comply output still match the golden files.

    Returns the config text and the trace band it sets.
    """
    rng = np.random.default_rng(seed)
    band = list(Band)[int(rng.integers(len(Band)))]
    text = (
        "# perfbench small config\n"
        f"noise.seed = {int(rng.integers(1, 1 << 30))}\n"
        "noise.filter_guard_samples = 16\n"
        f"trace.band = {band.value}\n"
        "deadlines.builtin = true\n"
    )
    Path(path).write_text(text)
    return text, band
