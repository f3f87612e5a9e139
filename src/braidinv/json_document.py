"""The --format json document, without the json module: a string that is
printable ASCII with no quote or backslash is written between quotes as it
is, and json loads only to escape any other string."""


def document(tables) -> str:
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
