"""The rows of `turnaround`, `comply` and `noise` as table, csv or json
text. `trace` writes its own text through its pipeline and never loads
this module. The json and csv writers live in `cli_rowtext`, which
`render_rows` imports only for those formats.
"""


def _cell_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_rows(fieldnames, rows, fmt) -> str:
    if fmt == "json":
        from .cli_rowtext import json_rows

        return json_rows(rows)
    texts = [[_cell_text(row[name]) for name in fieldnames] for row in rows]
    if fmt == "csv":
        from .cli_rowtext import csv_rows

        return csv_rows([list(fieldnames), *texts])
    # table
    widths = [
        max(len(name), *(len(t[i]) for t in texts)) if texts else len(name)
        for i, name in enumerate(fieldnames)
    ]
    numeric = [
        all(isinstance(row[name], (int, float)) and not isinstance(row[name], bool)
            for row in rows)
        if rows
        else False
        for name in fieldnames
    ]

    def line(cells):
        parts = []
        for i, cell in enumerate(cells):
            parts.append(cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    out = [line(list(fieldnames))]
    out.extend(line(t) for t in texts)
    return "\n".join(out) + "\n"
