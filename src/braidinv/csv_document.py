"""The --format csv document, without the csv module."""


def document(tables) -> str:
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
