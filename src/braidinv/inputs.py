"""Braid and sequence input for the CLI: braid specs and sequence files.

Only zmap and a trace of a sequence file import this module, so no other
request compiles it.  JSON numbers are read as exact decimals: 0.1 is
1/10, 1e400 is 10^400, and Fraction rejects NaN and Infinity with a
ValueError.  A JSON object is read as a tuple of its (key, value) pairs, so
that a key given twice is seen rather than silently dropped.  Every integer
in a spec or a key is plain ASCII decimal, as cli.integer checks.
"""

from fractions import Fraction

from .braid_ring import BraidSum, pair, sigma_power, tau
from .cli import INT_STR_DIGITS, integer


def _exact_decimal(text: str) -> Fraction:
    """Fraction(text), refused past a decimal exponent of INT_STR_DIGITS,
    which its first seven digits decide: Fraction builds 10^e in full."""
    exponent = text.lower().partition("e")[2].lstrip("+-").lstrip("0")
    if exponent.isdecimal() and int(exponent[:7]) > INT_STR_DIGITS:
        raise ValueError(f"decimal exponent beyond {INT_STR_DIGITS} in size")
    return Fraction(text)


def _json(text: str):
    import json
    try:
        return json.loads(text, parse_float=_exact_decimal,
                          parse_constant=Fraction, object_pairs_hook=tuple)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def parse_braid(text: str) -> BraidSum:
    """Named elements, sigma^K, pair:N, or a JSON exponent map."""
    powers = {"sigma": 1, "sigmabar": -1, "e": 0, "identity": 0}
    if text == "tau":
        return tau()
    if text in powers:
        return sigma_power(powers[text])
    if text.startswith("pair:"):
        try:
            return pair(integer(text[5:], "index", signed=False))
        except ValueError as exc:
            raise ValueError(f"bad pair spec {text!r}: {exc}") from exc
    if text.startswith("sigma^"):
        try:
            return sigma_power(integer(text[6:], "power"))
        except ValueError as exc:
            raise ValueError(f"bad power spec {text!r}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            raw = _json(text)
        except ValueError as exc:
            raise ValueError(f"bad braid JSON: {exc}") from exc
        return _exponent_map(raw)
    raise ValueError(f"unknown braid {text!r}; use tau, sigma, sigmabar, e, "
                     f"pair:N, sigma^K, or a JSON exponent map")


def _exponent_map(raw) -> BraidSum:
    """A braid sum from a JSON object's pairs, exponents to rationals."""
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
    return BraidSum(terms)


def load_sequence(path: str) -> tuple:
    """(label, items) from a JSON file {"label": ..., "items": [maps]}."""
    try:
        with open(path, encoding="utf-8") as handle:
            pairs = _json(handle.read())
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
        items = [_exponent_map(item) for item in payload["items"]]
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load sequence from {path}: {exc}") from exc
    return label, items
