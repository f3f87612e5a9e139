"""Table container and the text, JSON, and CSV emitters for the CLI.

Exact rationals render as canonical 'p/q' strings; some of them run to
thousands of digits, so the command line raises the integer-to-string
guard for the duration of a run.  Floating point cells are formatted at
the caller's chosen precision and appear only in columns whose names carry
a digit tag.
"""

from fractions import Fraction


class Table:
    def __init__(self, title: str, columns: list, rows: list,
                 notes: list = ()):
        self.title = title
        self.columns = columns
        self.rows = rows
        self.notes = list(notes)


def fmt_rational(x) -> str:
    return str(Fraction(x))


def fmt_float(x, digits: int) -> str:
    """An mpmath number, or an exact Fraction, to significant digits."""
    import mpmath
    with mpmath.workdps(digits):
        if isinstance(x, Fraction):
            x = mpmath.mpf(x.numerator) / x.denominator
        return mpmath.nstr(x, digits)


def float_column(name: str, digits: int) -> str:
    """Column label tagged with its precision."""
    return f"{name}[{digits}d]"


def render_text(tables) -> str:
    blocks = []
    for table in tables:
        widths = [len(c) for c in table.columns]
        for row in table.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [table.title, "-" * len(table.title)]
        lines.append("  ".join(c.ljust(widths[i])
                               for i, c in enumerate(table.columns)).rstrip())
        for row in table.rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)).rstrip())
        for note in table.notes:
            lines.append(f"note: {note}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def render_json(tables) -> str:
    import json
    payload = {"tables": [{"title": t.title,
                           "columns": list(t.columns),
                           "rows": [list(r) for r in t.rows],
                           "notes": list(t.notes)} for t in tables]}
    return json.dumps(payload, indent=2) + "\n"


def render_csv(tables) -> str:
    import csv
    import io
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for index, table in enumerate(tables):
        if index:
            writer.writerow([])
        writer.writerow(["table", table.title])
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow(row)
        for note in table.notes:
            writer.writerow(["note", note])
    return out.getvalue()
