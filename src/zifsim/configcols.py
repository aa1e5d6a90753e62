"""The schedule of a config text read as numpy columns, for a call that
runs numpy for that schedule anyway: a `trace` of more commands than its
per-row loops take (`configtext.parse_text`'s `numpy_above`).

It reads the one contiguous block of `schedule.N = kind @ t` lines: the
numbers with one `bytes.translate` and `np.fromstring`, and the kinds from
the positions of "=" and "@" in the same translation. It accepts the
block only if those columns, written back as `dump_text` writes them
(indexes 0..n-1, the digits as `sim` writes a trace's), give the block
byte for byte; any other text it leaves to `configfast` and the per-line
parser, which then read it as they always do.
`tests/test_config_properties.py` pins all three to the same configs and
the same first errors.
"""

from array import array

import numpy as np

from .params import COMMAND_KINDS, TIME_LIMIT_NS, Schedule
from .sim import _field_width, _integer_field, _items, _template, _texts

# the digits of a line kept, "=" and "@" a tab, every other byte a space:
# whitespace between the numbers either way
_NUMBERS = bytes(c if 48 <= c <= 57 else 9 if c in b"=@" else 32 for c in range(256))
_KIND_TEXTS = _texts([kind.value for kind in COMMAND_KINDS])
# a kind code by the length of its text (-1: none); the write-back checks
# the text itself
_BY_LENGTH = np.full(_KIND_TEXTS.shape[1] + 2, -1, np.int8)
_BY_LENGTH[[len(kind.value) for kind in COMMAND_KINDS]] = range(len(COMMAND_KINDS))
_LINES = 1 << 12


def column_schedule(text):
    """The other non-empty lines of `text` with their line numbers, and the
    Schedule of its block of schedule lines, as `configfast.fast_schedule`
    gives them; None unless that block is as `dump_text` writes one, with
    "\\n" after its last line and times below 2**53."""
    first = 0 if text.startswith("schedule.") else text.find("\nschedule.") + 1
    end = text.find("\n", text.rfind("\nschedule.") + 1) + 1
    if not (first or text.startswith("schedule.")) or end <= first:
        return None
    try:
        block = text[first:end].encode("ascii")
    except UnicodeEncodeError:
        return None
    numbers = block.translate(_NUMBERS)
    marks = np.flatnonzero(np.frombuffer(numbers, np.uint8) == 9)  # "=" and "@" by turns
    equals, ats = marks[0::2], marks[1::2]
    numbers = np.fromstring(numbers, np.int64, sep=" ")
    n = ats.size  # a line each, if the write-back gives the block
    if not n or equals.size != n or numbers.size != 2 * n:
        return None
    times = numbers[1::2]
    latest = int(times.max())
    if latest >= TIME_LIMIT_NS:
        return None
    kinds = np.take(_BY_LENGTH, ats - equals - 3, mode="clip")
    # written back a few thousand lines at a time, which stay in the cache
    template, (index_cells, kind_cells, time_cells) = _template(min(n, _LINES), [
        b"schedule.", _field_width(n // 1000), b" = ", _KIND_TEXTS.shape[1], b" @ ",
        _field_width(latest // 1000), b"\n"])
    written = 0
    for lo in range(0, n, _LINES):
        rows = min(_LINES, n - lo)
        _integer_field(np.arange(lo, lo + rows), index_cells[:rows])
        _items(kind_cells[:rows])[:] = np.take(_items(_KIND_TEXTS), kinds[lo:lo + rows])
        _integer_field(times[lo:lo + rows], time_cells[:rows])
        piece = template[:rows].tobytes().translate(None, b"\0")
        if block[written:written + len(piece)] != piece:
            return None
        written += len(piece)
    if written != len(block):
        return None
    before = text[:first].splitlines()
    lines = [*enumerate(before, 1), *enumerate(text[end:].splitlines(), len(before) + n + 1)]
    return lines, Schedule(array("q", times.tobytes()), array("b", kinds.tobytes()))
