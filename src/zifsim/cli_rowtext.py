"""The json and csv text of the rows of `turnaround`, `comply` and `noise`,
byte for byte those of `json.dumps(rows, indent=2)` and of
`csv.writer(buf, lineterminator="\\n")`, so a call loads neither module,
nor the `re` that `json` imports. `cli_rows.render_rows` imports this
module only for those formats, so a `--format table` call never compiles
it. Any text can reach a cell (a deadline's name is a config key), and the
properties in `tests/test_cli_rows_properties.py` pin both texts to the
stdlib's.
"""

# json's short escapes; any other character outside ' '..'~' is written
# \uXXXX, and one beyond the BMP as a surrogate pair
_JSON_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n",
                 "\r": "\\r", "\t": "\\t"}
_INF = float("inf")


def _json_text(text: str) -> str:
    """`text` as a json string, ASCII only."""
    if text.isascii() and text.isprintable():
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    out = []
    for char in text:
        if " " <= char <= "~" or char in _JSON_ESCAPES:
            out.append(_JSON_ESCAPES.get(char, char))
            continue
        code = ord(char)
        if code > 0xFFFF:
            code -= 0x10000
            out.append(f"\\u{0xD800 | code >> 10:04x}")
            code = 0xDC00 | code & 0x3FF
        out.append(f"\\u{code:04x}")
    return '"' + "".join(out) + '"'


def _json_value(value) -> str:
    """A str, None, bool, int or float cell as json writes it."""
    if isinstance(value, str):
        return _json_text(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value != value:
        return "NaN"
    if value in (_INF, -_INF):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def json_rows(rows) -> str:
    """The rows, dicts of str, None, bool, int or float cells, as json."""
    items = ",\n".join(
        "  {\n" + ",\n".join(f"    {_json_text(name)}: {_json_value(value)}"
                             for name, value in row.items()) + "\n  }"
        for row in rows)
    return f"[\n{items}\n]\n" if rows else "[]\n"


def _csv_cell(text: str) -> str:
    """A csv cell, quoted (its quotes doubled) if it holds ',', '"' or "\\n"."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(cells) -> str:
    # csv writes a row of one empty cell quoted, to tell it from no cells
    return '""\n' if cells == [""] else ",".join(map(_csv_cell, cells)) + "\n"


def csv_rows(lines) -> str:
    """Lines of cell texts as csv."""
    return "".join(map(_csv_line, lines))
