"""The layers the traced run measures, and how its spans become metrics.

A layer is a braidinv module; its spans are calls into the module's public
functions and methods, wrapped from outside by traced_cli.py.  Besides
spans, the wrapper observes a few values at the call boundary (return-value
bit lengths, rendered bytes, whether a strengthening step changed the lift,
operand spans and matrix sizes); this module names them and aggregates
them per pass.
"""

from __future__ import annotations

from fractions import Fraction

MODULES = ("cli", "render", "inverse_engine", "kontsevich", "braid_ring",
           "power_series", "basis_solver", "regularization", "convergence")

# function-level metrics beyond the per-module calls/self_s/max_bits
FUNCTION_METRICS = {
    "inverse_engine.strengthen_step": ("calls", "self_s", "useful_ratio"),
    "inverse_engine.apply": ("self_s",),
    "kontsevich.Z": ("calls", "self_s"),
    "braid_ring.multiply": ("calls", "self_s"),
    "braid_ring.filtration_order": ("calls", "self_s", "max_span"),
    "power_series.mul": ("self_s",),
    "power_series.revert": ("self_s",),
    "basis_solver.invert": ("self_s", "max_dim"),
    "basis_solver.mat_mul": ("self_s",),
    "convergence.classify_trace": ("self_s",),
    "cli.load_sequence": ("self_s",),
}
RENDER_DOCUMENTS = ("render.render_text", "render.render_json",
                    "render.render_csv")

UNITS = {"calls": "count", "self_s": "s", "max_bits": "bits",
         "bytes": "bytes", "useful_ratio": "ratio", "max_span": "count",
         "max_dim": "count", "overhead_s": "s"}


def metric_names() -> list[str]:
    names = []
    for module in MODULES:
        last = "bytes" if module == "render" else "max_bits"
        names += [f"{module}.calls", f"{module}.self_s", f"{module}.{last}"]
    for fn, metrics in FUNCTION_METRICS.items():
        names += [f"{fn}.{m}" for m in metrics]
    return names + ["trace.overhead_s"]


def unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


# ---------------------------------------------------------------------------
# observations made in the traced child, at the call boundary

def max_bits(value, depth=0) -> int:
    """Largest numerator or denominator bit length inside a returned value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if depth > 4 or isinstance(value, (str, bytes, float)) or value is None:
        return 0
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = value
    elif type(value).__module__.startswith("braidinv."):
        slots = getattr(type(value), "__slots__", None)
        items = ([getattr(value, s) for s in slots] if slots is not None
                 else vars(value).values())
    else:
        return 0
    return max((max_bits(v, depth + 1) for v in items), default=0)


def observe(fid: str, args, result, stats: dict) -> None:
    """Fold one call's boundary values into the child's per-function stats."""
    s = stats.setdefault(fid, {})
    s["max_bits"] = max(s.get("max_bits", 0), max_bits(result))
    if fid in RENDER_DOCUMENTS:
        s["bytes"] = s.get("bytes", 0) + len(result.encode("utf-8"))
    elif fid == "inverse_engine.strengthen_step":
        s["useful"] = s.get("useful", 0) + (result.coeffs != args[0].coeffs)
    elif fid == "braid_ring.filtration_order" and args[0].terms:
        span = max(args[0].terms) - min(args[0].terms)
        s["max_span"] = max(s.get("max_span", 0), span)
    elif fid == "basis_solver.invert":
        s["max_dim"] = max(s.get("max_dim", 0), args[0].dim)


# ---------------------------------------------------------------------------
# aggregation in the benchmark process

def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover.

    spans are (fid, start, end, parent index or -1) in start order; calls
    run on one thread, so children nest inside their parent and do not
    overlap each other.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class LayerTotals:
    """Per-function sums over the traced requests of one or more passes."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.stats = {}
        self.in_process_s = 0.0
        self.accounted_s = 0.0

    def add_request(self, record: dict) -> None:
        names = record["names"]
        spans = [(names[f], s, e, p) for f, s, e, p in record["spans"]]
        for (fid, start, end, parent), own in zip(spans, self_times(spans)):
            self.calls[fid] = self.calls.get(fid, 0) + 1
            self.self_s[fid] = self.self_s.get(fid, 0.0) + own
            self.accounted_s += own
            if parent < 0:
                self.in_process_s += end - start
        for fid, s in record["stats"].items():
            mine = self.stats.setdefault(fid, {})
            for key, value in s.items():
                mine[key] = (mine.get(key, 0) + value
                             if key in ("bytes", "useful")
                             else max(mine.get(key, 0), value))

    def metrics(self, passes: int) -> dict:
        """Per-pass values of every per-layer metric except trace.overhead_s."""
        out = {}

        def module_sum(table, module):
            return sum(v for k, v in table.items()
                       if k.split(".", 1)[0] == module)

        def stat(fid, key):
            return self.stats.get(fid, {}).get(key, 0)

        for module in MODULES:
            out[f"{module}.calls"] = module_sum(self.calls, module) / passes
            out[f"{module}.self_s"] = module_sum(self.self_s, module) / passes
            if module == "render":
                out["render.bytes"] = sum(stat(fid, "bytes")
                                          for fid in RENDER_DOCUMENTS) / passes
            else:
                out[f"{module}.max_bits"] = max(
                    (s.get("max_bits", 0) for fid, s in self.stats.items()
                     if fid.split(".", 1)[0] == module), default=0)
        for fid, metrics in FUNCTION_METRICS.items():
            calls = self.calls.get(fid, 0)
            for m in metrics:
                if m == "calls":
                    value = calls / passes
                elif m == "self_s":
                    value = self.self_s.get(fid, 0.0) / passes
                elif m == "useful_ratio":
                    value = stat(fid, "useful") / calls if calls else 0.0
                else:
                    value = stat(fid, m)
                out[f"{fid}.{m}"] = value
        return out
