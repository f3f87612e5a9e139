"""The text, JSON and CSV renderers for the CLI.

A table is a plain (title, columns, rows, notes) tuple: the title a
string, the columns and each row lists of strings, the notes a list of
lines printed under the rows.  Each renderer returns the whole document as
a string and takes every cell as given.  The commands print exact
rationals by str, as canonical 'p/q' strings; some of them run to
thousands of digits, so the command line raises the integer-to-string
guard for the duration of a run.  Float cells and their digit-tagged
column names come from braidinv.floats.

render_json writes the bytes of json.dumps(payload, indent=2) and
render_csv those of csv.writer(lineterminator="\n") (as of Python 3.11)
without loading either module: a string that is printable ASCII with no
quote or backslash is written between quotes as it is, and json loads
only to escape any other string; csv never loads.
"""


def render_text(tables) -> str:
    blocks = []
    for title, columns, rows, notes in tables:
        widths = [len(c) for c in columns]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [title, "-" * len(title)]
        lines.append("  ".join(c.ljust(widths[i])
                               for i, c in enumerate(columns)).rstrip())
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)).rstrip())
        lines += [f"note: {note}" for note in notes]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def render_json(tables) -> str:
    """json.dumps({"tables": [...]}, indent=2) + "\n", byte for byte."""
    parts = []
    _json_value({"tables": [{"title": title, "columns": columns,
                             "rows": rows, "notes": notes}
                            for title, columns, rows, notes in tables]},
                parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _json_value(value, parts, pad):
    """Append the JSON of a string, a list or a dict to parts, the items of
    a list or dict each on its own line, indented two spaces past pad."""
    if isinstance(value, str):
        parts.append(_json_string(value))
        return
    if not value:
        parts.append("{}" if isinstance(value, dict) else "[]")
        return
    inner = pad + "  "
    if isinstance(value, dict):
        parts.append("{")
        for index, (key, item) in enumerate(value.items()):
            parts += ["," + inner if index else inner, _json_string(key),
                      ": "]
            _json_value(item, parts, inner)
        parts.append(pad + "}")
    else:
        parts.append("[")
        for index, item in enumerate(value):
            parts.append("," + inner if index else inner)
            _json_value(item, parts, inner)
        parts.append(pad + "]")


def _json_string(text):
    """A JSON string; json escapes any text but printable ASCII."""
    if text.isascii() and text.isprintable() and '"' not in text \
            and "\\" not in text:
        return f'"{text}"'
    import json
    return json.dumps(text)


def render_csv(tables) -> str:
    """csv.writer(lineterminator="\n")'s document, byte for byte."""
    lines = []
    for index, (title, columns, rows, notes) in enumerate(tables):
        if index:
            lines.append("")
        lines += map(_csv_row, [["table", title], columns, *rows,
                                *(["note", note] for note in notes)])
    lines.append("")
    return "\n".join(lines)


def _csv_row(row):
    """One CSV record; a lone empty field prints as "" (quoted)."""
    if len(row) == 1 and not row[0]:
        return '""'
    return ",".join(map(_csv_field, row))


def _csv_field(field):
    """The field, quoted with its quotes doubled if it holds a comma, a quote
    or a newline; a carriage return alone is left unquoted, as csv does."""
    if "," in field or '"' in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field
