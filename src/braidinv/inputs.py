"""JSON input for the CLI: sequence files and JSON braids.

Only a trace of a sequence file and zmap with a JSON braid import this
module, so no other request compiles it.  JSON numbers are read as exact
decimals: 0.1 is 1/10, 1e400 is 10^400, and Fraction rejects NaN and
Infinity with a ValueError.  A JSON object is read as a tuple of its (key,
value) pairs, so that a key given twice is seen rather than silently
dropped.  Every integer key is plain ASCII decimal, as cli.integer checks.
"""

from fractions import Fraction

from .braid_ring import BraidSum
from .cli import INT_STR_DIGITS, integer
from .power_series import common_denominator


def _exact_decimal(text: str) -> Fraction:
    """Fraction(text), refused past a decimal exponent of INT_STR_DIGITS,
    which its first seven digits decide: Fraction builds 10^e in full."""
    exponent = text.lower().partition("e")[2].lstrip("+-").lstrip("0")
    if exponent.isdecimal() and int(exponent[:7]) > INT_STR_DIGITS:
        raise ValueError(f"decimal exponent beyond {INT_STR_DIGITS} in size")
    return Fraction(text)


def read_json(text: str):
    """The JSON value of text, read as above."""
    import json
    try:
        return json.loads(text, parse_float=_exact_decimal,
                          parse_constant=Fraction, object_pairs_hook=tuple)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def exponent_map(raw) -> BraidSum:
    """A braid sum from a JSON object's pairs, exponents to rationals: the
    one place where Fractions enter a BraidSum, over their least common
    denominator."""
    terms = {}
    try:
        if not isinstance(raw, tuple):
            raise ValueError("expected a JSON object")
        for k, v in raw:
            n = integer(k, "exponent")
            if isinstance(v, bool) or not isinstance(v, (int, str, Fraction)):
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
                            else Fraction(v))
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
        with open(path, encoding="utf-8-sig") as handle:
            pairs = read_json(handle.read())
        payload = {}
        for key, value in pairs if isinstance(pairs, tuple) else ():
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
