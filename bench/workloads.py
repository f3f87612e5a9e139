"""Seeded request lists for the four benchmark workloads.

Each workload is a list of CLI requests.  A request carries its CLI
arguments, the input properties it is reported with, and an independent
check of its stdout (checks.py).

The seed draws the small sizes, the subcommand variants, the output
formats, the sequence contents and the request order.  The larger sizes
sit on fixed rungs, and the rungs are laid out so that the requests around
the median and around the 75th percentile of a pass are several of equal
size: the reported percentiles then fall inside a group of like requests
instead of on the gap between two sizes, and do not jump from seed to seed.

Why these four workloads:

- lift-ladder: strengthening, the integral Z, braid multiplication and
  series reversion at odd orders from 7 to 153.  Dense, short braid sums;
  the basis solver never runs.
- basis-ladder: exact moment-matrix inverses up to r = 20 and the rendering
  of their large tables.  Almost no strengthening.
- trace-wide: finite-window diagnostics on sparse, wide braid sums, where
  the filtration order's dense division route dominates time and memory.
- readme-session: every README command in all three formats; short requests
  where interpreter start, import, argument parsing and rendering dominate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

import checks

FORMATS = ("text", "json", "csv")
PARSEABLE = ("json", "csv")
JMAX = 5


@dataclass
class Request:
    args: list
    check: Callable[[str], None]
    props: dict = field(default_factory=dict)


def _odd_near(rng, rung):
    return rung + 2 * rng.randint(-1, 1)


# ---------------------------------------------------------------------------

def lift_ladder(rng, workdir):
    out = []

    def lift_or_qexpand(order, power=1, method=None):
        f = rng.choice(FORMATS)
        if method or (power == 1 and rng.random() < 0.5):
            args = ["lift", "--order", str(order)]
            args += ["--method", method] if method else []
            check = partial(checks.check_lift, fmt=f, order=order)
            props = {"order": order}
        else:
            args = ["qexpand", "--order", str(order)]
            args += ["--power", str(power)] if power > 1 else []
            check = partial(checks.check_qexpand, fmt=f, order=order,
                            power=power)
            props = {"order": order, "power": power}
        out.append(Request(args + ["--format", f], check, props))

    def asymptotics(top):
        j, f = rng.choice((1, 3, 5)), rng.choice(FORMATS)
        orders = sorted(set(rng.sample(range(max(j, 3), top, 2), 2)) | {top})
        out.append(Request(["asymptotics", "--j", str(j), "--orders",
                            ",".join(map(str, orders)), "--format", f],
                           partial(checks.check_asymptotics, fmt=f, j=j,
                                   orders=orders),
                           {"order": top, "j": j}))

    # small orders, mostly process start-up
    for rung in (15, 21):
        lift_or_qexpand(_odd_near(rng, rung))
    for rung in (9, 13, 17):
        lift_or_qexpand(_odd_near(rng, rung), power=rng.choice((2, 3)))
    asymptotics(_odd_near(rng, 17))
    lift_or_qexpand(_odd_near(rng, 51), method="reversion")
    lift_or_qexpand(_odd_near(rng, 19))
    # the median group, then the 75th-percentile group
    for _ in range(5):
        lift_or_qexpand(27)
    for _ in range(4):
        lift_or_qexpand(41)
    # the largest requests
    asymptotics(49)
    lift_or_qexpand(51)
    lift_or_qexpand(151, method="reversion")
    return out


def basis_ladder(rng, workdir):
    out = []

    def basis(r, unbalanced=False, with_factorials=False, entry=True,
              solve_t=False):
        f = rng.choice(PARSEABLE)
        args = ["basis", "--r", str(r), "--format", f]
        args += ["--unbalanced"] if unbalanced else []
        args += ["--with-factorials"] if with_factorials else []
        args += ["--entry", "1,3"] if entry else []
        args += ["--solve-t"] if solve_t else []
        dim = r + 1 if unbalanced else 2 * r + 1
        out.append(Request(args, partial(checks.check_basis, fmt=f, r=r,
                                         unbalanced=unbalanced,
                                         with_factorials=with_factorials,
                                         entry=entry, solve_t=solve_t),
                           {"r": r, "dim": dim}))

    # small matrices, mostly process start-up
    for low in (2, 5):
        basis(low + rng.randint(0, 2), entry=False, solve_t=True)
    for rung in (8, 14, 20):
        basis(rung + rng.randint(-1, 1), unbalanced=True)
    basis(5 + rng.randint(-1, 1))
    basis(6 + rng.randint(-1, 1))
    basis(7 + rng.randint(-1, 1), with_factorials=True)
    # the median group, then the 75th-percentile group
    for _ in range(5):
        basis(10)
    for _ in range(4):
        basis(13)
    # the largest requests
    basis(16, with_factorials=True)
    basis(20)
    f = rng.choice(FORMATS)
    out.append(Request(["reproduce", "--table", "zeta2", "--table", "onefive",
                        "--format", f],
                       partial(checks.check_reproduce, fmt=f,
                               tables=["zeta2", "onefive"], flagged=1),
                       {"r": 9}))
    return out


def _pair_power(a, k):
    """(q^a - q^-a)^k by the binomial theorem."""
    return {a * (k - 2 * j): Fraction((-1) ** j * math.comb(k, j))
            for j in range(k + 1)}


def _partial_sums(pieces):
    items, acc = [], {}
    for piece in pieces:
        acc = dict(acc)
        for n, c in piece.items():
            acc[n] = acc.get(n, Fraction(0)) + c
        acc = {n: c for n, c in acc.items() if c}
        items.append(acc)
    return items


def _sequence_request(items, label, workdir, rng, difference_order):
    path = os.path.join(workdir, f"{label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"label": label,
                   "items": [{str(n): str(c) for n, c in item.items()}
                             for item in items]}, handle)
    f = rng.choice(FORMATS)
    exponents = sorted({n for item in items for n in item})
    return Request(["trace", "--sequence", path, "--window", str(len(items)),
                    "--format", f],
                   partial(checks.check_trace, fmt=f, items=items, label=label,
                           jmax=JMAX, difference_order=difference_order),
                   {"window": len(items),
                    "max_span": exponents[-1] - exponents[0],
                    "terms": len(items[-1])})


def _coefficient(rng):
    c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return -c if rng.random() < 0.5 else c


def trace_wide(rng, workdir):
    out = []
    # stock sequences: lift truncations satisfy (c); every difference of the
    # pair partial sums has order 1, of the harmonic multiples order 0
    stock = (("tauhat", checks.tauhat_items, "lift-truncations", None),
             ("pairs", checks.pairs_items, "pair-partials", 1),
             ("harmonic", checks.harmonic_items, "harmonic-sigma", 0))
    for name, build, label, difference_order in stock:
        window, f = rng.randint(7, 9), rng.choice(FORMATS)
        items = build(window)
        out.append(Request(["trace", "--sequence", name, "--window",
                            str(window), "--format", f],
                           partial(checks.check_trace, fmt=f, items=items,
                                   label=label, jmax=JMAX,
                                   difference_order=difference_order),
                           {"window": window, "terms": len(items[-1])}))
    # deep: b_i = sum_{k<=i} c_k (q^a_k - q^-a_k)^k, so that
    # order(b_i - b_j) = i + 1 for i < j and condition (c) holds; the top
    # power's a_5 = 300 is fixed, so every deep request has span 3000
    for d in range(14):
        pieces = []
        for k in range(1, 6):
            a, c = (rng.randint(20, 300) if k < 5 else 300), _coefficient(rng)
            pieces.append({n: c * b for n, b in _pair_power(a, k).items()})
        out.append(_sequence_request(_partial_sums(pieces), f"deep-{d}",
                                     workdir, rng, None))
    # shallow: sums of pairs with exponents up to the rung, so every
    # difference has order exactly 1 and (c) fails from i = 2 on
    for s, top in enumerate((10_000, 20_000, 40_000)):
        exps = sorted(rng.sample(range(top // 10, top), 2)) + [top]
        pieces = [{e: Fraction(1), -e: Fraction(-1)} for e in exps]
        out.append(_sequence_request(_partial_sums(pieces), f"shallow-{s}",
                                     workdir, rng, 1))
    return out


README_COMMANDS = (
    "lift --order 13",
    "zmap --braid pair:2 --order 4",
    "qexpand --order 11",
    "qexpand --order 5 --power 2",
    "asymptotics --j 3 --orders 9,25,49",
    "beta --s 1",
    "beta --s 7",
    "basis --r 2 --entry 1,3",
    "basis --r 3 --solve-t",
    "trace --sequence tauhat --window 8",
    "reproduce",
)
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "readme_digests.json")


def readme_requests():
    """(key, args) for every README command in every format."""
    return [(f"{cmd} --format {f}", cmd.split() + ["--format", f])
            for cmd in README_COMMANDS for f in FORMATS]


def _check_digest(out, expected, extra=None):
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    checks.expect(digest == expected, "stdout differs from the stored digest")
    if extra:
        extra(out)


def readme_session(rng, workdir):
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        digests = json.load(handle)
    out = []
    for key, args in readme_requests():
        extra = None
        if args[0] == "reproduce":
            extra = partial(checks.check_reproduce, fmt=args[-1],
                            tables=["lift", "pairs", "zeta2", "onefive", "beta"],
                            flagged=2)
        out.append(Request(args, partial(_check_digest, expected=digests[key],
                                         extra=extra)))
    return out


WORKLOADS = {
    "lift-ladder": lift_ladder,
    "basis-ladder": basis_ladder,
    "trace-wide": trace_wide,
    "readme-session": readme_session,
}


def build(name: str, seed: int, workdir: str) -> list[Request]:
    rng = random.Random(f"{name}:{seed}")
    requests = WORKLOADS[name](rng, workdir)
    rng.shuffle(requests)
    return requests
