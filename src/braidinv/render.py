"""The text, JSON and CSV renderers for the CLI.

A table is a plain (title, columns, rows, notes) tuple: the title a
string, the columns and each row lists of strings, the notes a list of
lines printed under the rows.  Each renderer returns the whole document as
a string and takes every cell as given.  The commands print exact
rationals as str of a Fraction prints them, canonical 'p/q' strings, all
of them from integer pairs by rational and rationals; some of them run to
thousands of digits, so the command line raises the integer-to-string
guard for the duration of a run.  Float cells and their digit-tagged
column names come from braidinv.floats.

render_json writes the bytes of json.dumps(payload, indent=2) and
render_csv those of csv.writer(lineterminator="\n") of Python 3.13, which
quotes a bare carriage return, without loading either module.  Each of the
two calls a writer in a module of its own (json_document, csv_document),
so a request compiles only the writer of its format.
"""

import math

from .cli import DIGIT_LIMIT, INT_STR_DIGITS


def _reduced(num: int, den: int) -> tuple:
    """num / den in lowest terms, the denominator positive.

    The one reduction of the integer-pair paths: the lifts, the moment
    matrices, the expansions, the integral, the JSON reader, the
    regularized sums and the float cells' inputs.  It is
    private although they import it, since the bench tracer times every
    public call of a layer and this runs once per entry.
    """
    g = math.gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def rationals(pairs) -> list[str]:
    """str(Fraction(num, den)) of each pair already in lowest terms with
    den > 0, with no second gcd: no denominator when it is 1.

    A numerator or denominator of more than INT_STR_DIGITS digits is
    refused.  The guard that main sets does not suffice: from Python 3.12
    str() checks only an estimate of an int's size against it, and prints
    a few hundred digits past the limit.  Only a cell longer than the limit
    can hold such a number, so the common case stays one pass of len.
    """
    cells = [f"{num}/{den}" if den != 1 else str(num) for num, den in pairs]
    if cells and max(map(len, cells)) > INT_STR_DIGITS:
        for cell in cells:
            if len(cell) > INT_STR_DIGITS and max(
                    map(len, cell.lstrip("-").split("/"))) > INT_STR_DIGITS:
                raise ValueError(DIGIT_LIMIT)
    return cells


def rational(num: int, den: int) -> str:
    """str(Fraction(num, den)) for a nonzero den."""
    return rationals([_reduced(num, den)])[0]


def braid_text(cells) -> str:
    """A braid sum as text, e.g. '1*q^1 + -1*q^-1', from (exponent, printed
    coefficient) pairs: exponents decreasing, "0" cells left out."""
    return " + ".join(f"{c}*q^{n}" for n, c in sorted(cells, reverse=True)
                      if c != "0") or "0"


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
