"""The --format csv document, without the csv module."""


def document(tables) -> str:
    """csv.writer(lineterminator="\n")'s document on Python 3.13, bytewise."""
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
    """The field, quoted with its quotes doubled if it holds a comma, a quote,
    a newline or a carriage return (RFC 4180)."""
    if "," in field or '"' in field or "\n" in field or "\r" in field:
        return '"' + field.replace('"', '""') + '"'
    return field
