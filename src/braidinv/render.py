"""The text, JSON and CSV renderers for the CLI.

A table is a plain (title, columns, rows, notes) tuple: the title a
string, the columns and each row lists of strings, the notes a list of
lines printed under the rows.  Each renderer returns the whole document as
a string and takes every cell as given.  The commands print exact
rationals by str, as canonical 'p/q' strings; some of them run to
thousands of digits, so the command line raises the integer-to-string
guard for the duration of a run.  Float cells and their digit-tagged
column names come from braidinv.floats.
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
    import json
    payload = {"tables": [{"title": title, "columns": list(columns),
                           "rows": [list(row) for row in rows],
                           "notes": list(notes)}
                          for title, columns, rows, notes in tables]}
    return json.dumps(payload, indent=2) + "\n"


def render_csv(tables) -> str:
    import csv
    import io
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for index, (title, columns, rows, notes) in enumerate(tables):
        if index:
            writer.writerow([])
        writer.writerow(["table", title])
        writer.writerow(columns)
        writer.writerows(rows)
        writer.writerows(["note", note] for note in notes)
    return out.getvalue()
