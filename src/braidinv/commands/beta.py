"""braidinv beta: the Leibniz check at s = 1, the residue relation above."""

from ..regularization import leibniz_partial, theta_value
from ..render import rational


def decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 1, without printing n (quadratic in CPython).

    k starts at most at the digit count of 2^(b-1) <= n, since log10(2) is
    taken to 15 digits rounded down, and rises until n < 10^k.
    """
    k = (n.bit_length() - 1) * 301029995663981 // 10 ** 15 + 1
    power = 10 ** k
    while n >= power:
        k += 1
        power *= 10
    return k


def run(args):
    s = args.s
    if s == 1:
        from .. import floats
        d = floats.requested_digits(args)
        p = floats.precision(d)
        pi = floats.pi(p)
        rows = []
        for r in (1, 10, 100, 1000, 10000):
            num, den = leibniz_partial(r)
            num *= 4  # den is odd, so 4 num/den stays reduced
            size = f"{decimal_digits(num)}/{decimal_digits(den)}"
            estimate = floats.quotient(floats.convert(num, den, p), pi, p)
            error = floats.absolute(floats.difference(estimate, (1, 0), p))
            rows.append([str(r), size, floats.nstr(estimate, d),
                         floats.nstr(error, d)])
        return 0, [("Leibniz partial sums, scaled by 4",
                    ["terms", "digits num/den", floats.column("over_pi", d),
                     floats.column("abs_error_to_1", d)],
                    rows,
                    ["partial sums are held as exact rationals; the column "
                     "shows their printed size",
                     "the alternating series bound keeps the error below "
                     "1/(2r+1)/pi"])]
    if s < 3 or s % 2 == 0:
        raise ValueError("--s must be 1 or an odd integer >= 3")
    # the relation's left side reduces exactly to this Abel value
    abel = theta_value(s - 2)
    verdict = "PASS" if abel[0] == 0 else "FAIL"
    cell = rational(*abel)
    rows = [[f"Abel value at exponent {s - 2}", cell],
            ["reduced relation left side", cell],
            ["verdict", verdict]]
    return 0 if verdict == "PASS" else 2, [
        (f"residue relation at s = {s}", ["what", "value"], rows,
         ["the left side reduces exactly to the Abel value of the "
          "alternating sum with exponent s-2; zero is expected"])]
