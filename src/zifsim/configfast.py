"""The fast path of the config text parser: schedule lines in the form
`dump_text` writes them, taken out of the text by a regex.

`configtext.parse_text` imports this module only for a text that holds
`schedule.`, so a file of settings alone compiles only the per-line
parser and loads no `re`. `tests/test_config_properties.py` pins both
paths to the same configs and the same first errors.
"""

import re
from array import array

from .configtext import _KIND_CODES
from .params import Schedule

# Schedule lines in the form dump_text writes them: single spaces, no
# leading zeros, a known kind and a time of at most 16 digits.
_REGULAR_LINE = r"(?m)^schedule\.(0|[1-9][0-9]{0,17}) = (%s) @ (0|[1-9][0-9]{0,15})$" % (
    "|".join(map(re.escape, _KIND_CODES)))
_BLOCK_CHARS = 1 << 16

# Line boundaries of str.splitlines other than "\n".
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def fast_schedule(text):
    """Take the regular schedule lines out of `text` with one regex split
    per block of lines.

    Returns the other non-empty lines with their line numbers and the
    Schedule the regular lines make, or None when the text breaks lines
    other than at "\n", or the regular lines repeat an index or hold a
    time of 2**53 or more: the per-line parser then reads it, and reports
    those errors where they are.
    """
    if any(mark in text for mark in _OTHER_BREAKS):
        return None
    split = re.compile(_REGULAR_LINE).split
    indexes, kinds, times, rest = [], array("b"), array("q"), []
    start = 0
    while start < len(text):  # whole lines, a block at a time: few temporaries
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        parts = split(text[start:end])  # text, index, kind, time, text, ...
        indexes += map(int, parts[1::4])
        kinds.extend(map(_KIND_CODES.__getitem__, parts[2::4]))
        times.extend(map(int, parts[3::4]))
        rest.append("".join(parts[0::4]))
        start = end
    if indexes != list(range(len(indexes))):
        if len(set(indexes)) < len(indexes):
            return None
        order = sorted(range(len(indexes)), key=indexes.__getitem__)
        kinds = array("b", [kinds[i] for i in order])
        times = array("q", [times[i] for i in order])
    try:
        schedule = Schedule(times, kinds)
    except ValueError:
        return None
    # the regular lines leave empty lines behind, so the line numbers hold
    rest = "".join(rest)
    lines = []
    lineno, offset = 1, 0
    for match in re.finditer(r"[^\n]+", rest):
        lineno += rest.count("\n", offset, match.start())
        offset = match.start()
        lines.append((lineno, match.group()))
    return lines, schedule
