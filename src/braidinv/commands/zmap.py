"""braidinv zmap: the integral of a braid sum and its graded values."""

from ..braid_ring import pair, render, sigma_power, tau
from ..cli import integer
from ..kontsevich import Z, focus_order
from ..render import rationals


def run(args):
    b = parse_braid(args.braid)
    order = args.order
    jmax = args.jmax if args.jmax is not None else order
    if order < 0:
        raise ValueError("order must be nonnegative")
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    coeffs = Z(b, max(order, jmax))
    # each coefficient is printed once; both tables take a prefix
    rows = [[str(i), cell] for i, cell in enumerate(rationals(coeffs))]
    focused = focus_order(coeffs[:jmax + 1])
    note = (f"focussed at degree {focused} through {jmax}" if focused is not None
            else f"not focussed through degree {jmax}")
    return 0, [(f"integral of {render(b)} through degree {order}",
                ["degree", "coefficient"], rows[:order + 1], []),
               ("graded components", ["degree", "value"], rows[:jmax + 1],
                [note])]


def parse_braid(text: str):
    """The braid sum of a spec: a named element, sigma^K, pair:N, or a JSON
    exponent map."""
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
        from ..inputs import exponent_map, read_json
        try:
            raw = read_json(text)
        except ValueError as exc:
            raise ValueError(f"bad braid JSON: {exc}") from exc
        return exponent_map(raw)
    raise ValueError(f"unknown braid {text!r}; use tau, sigma, sigmabar, e, "
                     f"identity, pair:N, sigma^K, or a JSON exponent map")
