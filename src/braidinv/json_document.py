"""The --format json document, without the json module: a string that is
printable ASCII with no quote or backslash is written between quotes as it
is, and any other string is escaped by _json's encode_basestring_ascii, the
function json.dumps runs for a string.  A list of such strings, a table
row, is written with one join."""


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
    elif set(map(type, value)) == {str} and _plain("".join(value)):
        parts.append(f'[{inner}"' + f'",{inner}"'.join(value) + f'"{pad}]')
    else:
        parts.append("[")
        for index, item in enumerate(value):
            parts.append("," + inner if index else inner)
            _json_value(item, parts, inner)
        parts.append(pad + "]")


def _plain(text):
    """Whether text is printable ASCII with no quote or backslash, which JSON
    writes as it is."""
    return text.isascii() and text.isprintable() and '"' not in text \
        and "\\" not in text


def _json_string(text):
    """A JSON string, as json.dumps writes it; json itself loads only where
    its C module, _json, is missing."""
    if _plain(text):
        return f'"{text}"'
    try:
        from _json import encode_basestring_ascii
    except ImportError:
        from json import dumps as encode_basestring_ascii
    return encode_basestring_ascii(text)
