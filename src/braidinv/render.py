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
without loading either module.  Each of the two calls a writer in a module
of its own (json_document, csv_document), so a request compiles only the
writer of its format.
"""

import math


def rational(num: int, den: int) -> str:
    """str(Fraction(num, den)) for a nonzero den: lowest terms, the sign on
    the numerator, and no denominator when it is 1."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    num, den = num // g, den // g
    return f"{num}/{den}" if den != 1 else str(num)


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
    from .json_document import document
    return document(tables)


def render_csv(tables) -> str:
    from .csv_document import document
    return document(tables)
