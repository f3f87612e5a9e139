"""JSON input for the CLI: sequence files and JSON braids.

Only a trace of a sequence file and zmap with a JSON braid import this
module, so no other request compiles it.  A JSON number or a string
coefficient is an exact decimal, a reduced (numerator, denominator) pair:
0.1 is 1/10, 1e400 is 10^400, and NaN and Infinity are refused.  A JSON
object is read as a tuple of its (key, value) pairs, so that a key given
twice is seen rather than silently dropped, and a number with a point or
an exponent as a _Number, a pair told apart from it.  Every integer key
is plain ASCII decimal, as cli.integer checks.  Valid JSON is read by the
C scanner json.loads runs, so json, which compiles regular expressions at
import, loads only to report an error, and a sequence file is decoded
here, so the utf-8-sig codec never loads.
"""

from types import SimpleNamespace

from .braid_ring import BraidSum
from .cli import INT_STR_DIGITS, integer
from .power_series import common_denominator
from .render import _reduced


class _Number(tuple):
    """A JSON number with a point or an exponent, as its reduced pair."""
    __slots__ = ()


def _exact_decimal(text: str) -> tuple:
    """Fraction(text) as a reduced pair, read with the grammar and messages
    of Python 3.11's Fraction(str), but refusing a point followed only by d
    or D as 3.10's and 3.13's do, for a JSON number or a text past
    exponent_map's guards.  An exponent past INT_STR_DIGITS is refused
    first, decided by its first seven digits: 10^e is built in full."""
    exponent = text.lower().partition("e")[2].lstrip("+-").lstrip("0")
    if exponent.isdecimal() and int(exponent[:7]) > INT_STR_DIGITS:
        raise ValueError(f"decimal exponent beyond {INT_STR_DIGITS} in size")
    num, slash, den = text[text[:1] in ("-", "+"):].partition("/")
    decimal = exp = ""
    if slash:
        valid = num.isdecimal() and den.isdecimal()
    else:
        head, e, exp = num.replace("E", "e").partition("e")
        num, _, decimal = head.partition(".")
        valid = ((num or decimal[:1]).isdecimal()
                 and (decimal.isdecimal() or not decimal)
                 and (not e or exp[exp[:1] in ("-", "+"):].isdecimal()))
    if not valid:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    numerator, denominator = int(num or "0"), int(den or "1")
    if decimal:
        denominator = 10 ** len(decimal)
        numerator = numerator * denominator + int(decimal)
    power = int(exp or "0")
    numerator *= 10 ** max(power, 0)
    denominator *= 10 ** max(-power, 0)
    if text[:1] == "-":
        numerator = -numerator
    if not denominator:
        raise ZeroDivisionError(f"Fraction({numerator}, 0)")
    return _reduced(numerator, denominator)


_HOOKS = {"parse_float": lambda text: _Number(_exact_decimal(text)),
          "parse_constant": _exact_decimal, "object_pairs_hook": tuple}
_WHITESPACE = " \t\n\r"  # json's, and no other


def read_json(text: str):
    """The JSON value of text, read as above: scanned as json.loads scans
    it, and read by json.loads only for the error if the scan fails or
    stops short of the end.  Any failure counts, as on Python 3.10 and 3.11
    the scanner's errors are a SystemError unless json.decoder is loaded."""
    start = len(text) - len(text.lstrip(_WHITESPACE))
    try:
        from _json import make_scanner
        value, end = make_scanner(SimpleNamespace(
            strict=True, object_hook=None, parse_int=int, **_HOOKS))(
                text, start)
        if not text[end:].lstrip(_WHITESPACE):
            return value
    except Exception:
        pass
    import json
    try:
        return json.loads(text, **_HOOKS)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def exponent_map(raw) -> BraidSum:
    """A braid sum from a JSON object's pairs, exponents to rationals, read
    as integer pairs and put over their least common denominator."""
    terms = {}
    try:
        if type(raw) is not tuple:
            raise ValueError("expected a JSON object")
        for k, v in raw:
            n = integer(k, "exponent")
            if isinstance(v, bool) or not isinstance(v, (int, str, _Number)):
                raise ValueError(f"the coefficient of exponent {k} must be a "
                                 f"number or a string")
            # Fraction(str) also reads 1_0, full-width digits and padding
            if isinstance(v, str) and not (v.isascii() and "_" not in v
                                           and v == v.strip()):
                raise ValueError(f"coefficient {v!r} is not a plain number")
            if n in terms:
                raise ValueError(f"exponent {n} given twice")
            try:
                terms[n] = (_exact_decimal(v) if isinstance(v, str)
                            else (v, 1) if isinstance(v, int) else v)
            except ZeroDivisionError:
                raise ValueError(f"the coefficient {v!r} of exponent {k} has "
                                 f"a zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"bad exponent map: {exc}") from exc
    nums, den = common_denominator(terms.values())
    return BraidSum(dict(zip(terms, nums)), den)


def load_sequence(path: str) -> tuple:
    """(label, items) from a JSON file {"label": ..., "items": [maps]}; a
    leading UTF-8 byte order mark is skipped."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        # as utf-8-sig in text mode: part of a mark alone reads as empty,
        # positions count after the mark, and \r\n and \r become \n
        text = data[3 * b"\xef\xbb\xbf".startswith(data[:3]):].decode("utf-8")
        pairs = read_json(text.replace("\r\n", "\n").replace("\r", "\n"))
        payload = {}
        for key, value in pairs if type(pairs) is tuple else ():
            if key in payload:
                raise ValueError(f"key {key!r} given twice")
            payload[key] = value
        if not isinstance(payload.get("items"), list):
            raise ValueError("expected an object with an 'items' list")
        label = payload.get("label", path)
        if not isinstance(label, str):
            raise ValueError("the label must be a string")
        # JSON's "\ud800" is a lone surrogate, which UTF-8 cannot encode:
        # refused here, every format exits 1, not only text and csv; the
        # path default stays as the OS gives it
        if "label" in payload and \
                any("\ud800" <= c <= "\udfff" for c in label):
            raise ValueError("the label holds a lone surrogate")
        items = [exponent_map(item) for item in payload["items"]]
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load sequence from {path}: {exc}") from exc
    return label, items
