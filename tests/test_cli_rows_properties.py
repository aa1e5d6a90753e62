"""Properties of the row text of `turnaround`, `comply` and `noise`.

`cli_rows.render_rows` writes json and csv without the stdlib modules,
and its text must be theirs byte for byte: `json.dumps(rows, indent=2)`
plus a newline, and what `csv.writer(buf, lineterminator="\\n")` makes of
the header and the cell texts. A deadline's name is a config key, so any
text can reach a row: the drawn texts hold astral and control
characters, lone surrogates, quotes, backslashes, commas, "\\r" and
"\\n", and the drawn numbers ±0.0, ±inf, NaN and subnormals.
"""

import csv
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zifsim.cli_rows import _cell_text, render_rows

PROFILE = settings(derandomize=True, deadline=None, max_examples=500, database=None)

SPECIAL = '",\\\r\n\t\b\f\x00\x1f\x7f\x80\xe9\u2028\U000103ff\U0001f600\U0010ffff '
texts = st.text(st.characters() | st.sampled_from(SPECIAL), max_size=8)
floats = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                        float("inf"), float("-inf"), float("nan")])
values = texts | st.integers() | st.booleans() | floats


@st.composite
def tables(draw, cells=values):
    """(fieldnames, rows): one to four distinct names, up to four rows
    holding each of them, as the subcommands make them."""
    names = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.lists(cells, min_size=len(names), max_size=len(names))
                         .map(lambda row: dict(zip(names, row))), max_size=4))
    return names, rows


def csv_text(fieldnames, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows([_cell_text(row[name]) for name in fieldnames] for row in rows)
    return buf.getvalue()


@PROFILE
@given(tables(values | st.none()))
@example((["mode"], []))
@example((["x\U0001f600"], [{"x\U0001f600": "\U0001f600\udc00"}]))
@example((["a"], [{"a": float("nan")}, {"a": -0.0}, {"a": float("-inf")}, {"a": 5e-324}]))
def test_json_rows_are_json_dumps(table):
    fieldnames, rows = table
    assert render_rows(fieldnames, rows, "json") == json.dumps(rows, indent=2) + "\n"


@PROFILE
@given(tables())
@example(([""], [{"": ""}]))
@example((["a", "b"], [{"a": "", "b": ""}]))
@example((["a"], [{"a": "x\ry"}, {"a": 'say "hi",\nthen'}]))
def test_csv_rows_are_the_csv_writers(table):
    fieldnames, rows = table
    assert render_rows(fieldnames, rows, "csv") == csv_text(fieldnames, rows)
