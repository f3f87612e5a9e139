"""End-to-end benchmark of the braidinv command line.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a closed loop: it spawns `python -m braidinv ...` for one
request, waits for the process to exit, checks its stdout against an
independent expectation (outside the timed interval), and only then sends
the next request.  Each request is timed from spawn to exit, and the child's
peak RSS comes from wait4.  The seed fixes the request list (workloads.py);
the run repeats that list for a number of passes fixed by --seconds, so both
sides of a comparison do the same work.

On a shared 2-core virtual machine the CPU speed was seen to drift by up
to 1.5x over tens of seconds, far more than any bound worth setting.  So a
fixed pure-Python reference script runs in a fresh interpreter before and
after every request, and request times are reported in units of the
reference script's time around them (unit "ref").  setup_s is measured the
same way and given in seconds at a fixed reference speed: the ratio times
REFERENCE_NOMINAL_S.  These are the end-to-end metrics the bounds in
BENCHMARK.json apply to; raw seconds and fail_frac are printed beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes whose requests run under traced_cli.py, and prints the
per-layer metrics (layers.py) and the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Without the braidinv sources under src/ the benchmark
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import select
import signal
import statistics
import sys
import tempfile
import time

import layers
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SOURCES = os.path.join(ROOT, "src", "braidinv")

# about the wall time of one pass at the first baseline; a run makes
# round(seconds / PASS_SECONDS) passes, the same number on every commit
PASS_SECONDS = 7.5
SETUP_SPAWNS = 12
REQUEST_TIMEOUT_S = 60.0
NO_NEW_PASS_AFTER_S = 120.0
TAIL_GRID = (99, 95, 90, 75, 50)
# setup_s is reported in seconds on a machine where the reference script
# takes this long (about its median time on the baseline machine)
REFERENCE_NOMINAL_S = 0.04
REFERENCE_SCRIPT = """
from fractions import Fraction
for _ in range(20):
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction((-1) ** k, 2 * k + 1)
"""


class Child:
    """Spawns one process at a time with stdout and stderr in files."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.stdin = os.path.join(workdir, "stdin")
        self.stdout = os.path.join(workdir, "stdout")
        self.stderr = os.path.join(workdir, "stderr")
        open(self.stdin, "w").close()
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("BRAIDINV_FLOAT_DIGITS", "PYTHONPATH")}
        self.env.update(PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0")

    def run(self, argv):
        """(wall seconds, exit code, peak RSS in MB, stdout, stderr)."""
        write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, self.stdin, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, self.stdout, write, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, self.stderr, write, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv],
                             self.env, file_actions=actions)
        try:
            pidfd = os.pidfd_open(pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], REQUEST_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        with open(self.stdout, encoding="utf-8", errors="replace") as handle:
            out = handle.read()
        with open(self.stderr, encoding="utf-8", errors="replace") as handle:
            err = handle.read()
        return (wall, os.waitstatus_to_exitcode(status),
                usage.ru_maxrss / 1024, out, err)


def judge(request, code, out, err, verified):
    """None when the request succeeded, else the reason it failed.

    A request succeeds on exit 0, no traceback and a passing check.
    verified remembers the stdout of a request that already passed its
    check; byte-identical repeats skip the (sometimes costly) check.
    """
    if code != 0 or "Traceback" in err:
        return f"exit code {code}: {err.strip()[-300:]}"
    if verified.get(id(request)) == out:
        return None
    try:
        request.check(out)
    except Exception as exc:  # any exception from a check fails the request
        return f"check failed: {exc!r}"
    verified[id(request)] = out
    return None


def tail(samples):
    """(percentile, value): the highest percentile with >= 10 samples beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    p = next((p for p in TAIL_GRID if n * (100 - p) / 100 >= 10), 50)
    return p, ordered[math.ceil(p * n / 100) - 1]


def reference_seconds(child) -> float:
    """Spawn-to-exit time of a fixed exact-arithmetic script, tens of ms.

    It runs in a fresh interpreter (isolated, no site) and exercises what a
    CLI request spends its time on: process start, bytecode, small-object
    allocation, Fraction and integer arithmetic.  So its duration tracks
    the machine's current speed for this kind of work.
    """
    wall, code, _, _, err = child.run(["-I", "-S", "-c", REFERENCE_SCRIPT])
    if code != 0:
        raise SystemExit(f"error: the reference script failed: {err}")
    return wall


def setup_seconds(child) -> float:
    """Spawn-to-exit time of `python -m braidinv --help`: interpreter start,
    import and argument-parser construction, with no computation."""
    wall, code, _, out, _ = child.run(["-m", "braidinv", "--help"])
    if code != 0 or not out.startswith("usage: braidinv"):
        raise SystemExit("error: `python -m braidinv --help` failed")
    return wall


class Run:
    def __init__(self, requests, child, setup_stride):
        self.requests = requests
        self.child = child
        self.setup_stride = setup_stride
        self.setup_s = []
        self.setup_refs = []
        self.verified = {}
        self.seconds = {id(r): [] for r in requests}
        self.refs = {id(r): [] for r in requests}
        self.pass_seconds = {False: [], True: []}
        self.pass_refs = []
        self.reference_s = []
        self.rss = []
        self.attempted = 0
        self.failed = 0
        self.layers = layers.LayerTotals()

    def one_pass(self, traced):
        spans_path = os.path.join(self.child.workdir, "spans.json")
        if traced:
            prefix = [os.path.join(BENCH, "traced_cli.py"), spans_path]
        else:
            prefix = ["-m", "braidinv"]
        total_s = total_ref = 0.0
        before = reference_seconds(self.child)
        for i, request in enumerate(self.requests):
            if self.setup_stride and not traced and i % self.setup_stride == 0:
                wall = setup_seconds(self.child)
                after = reference_seconds(self.child)
                self.setup_s.append(wall)
                self.setup_refs.append(wall / ((before + after) / 2))
                before = after
            wall, code, rss, out, err = self.child.run(prefix + request.args)
            after = reference_seconds(self.child)
            total_s += wall
            self.attempted += 1
            reason = judge(request, code, out, err, self.verified)
            if reason is not None:
                self.failed += 1
                print(f"failed: {describe(request)}: {reason}", file=sys.stderr)
            if traced:
                if reason is None:
                    with open(spans_path, encoding="utf-8") as handle:
                        self.layers.add_request(json.load(handle))
            else:
                ref = wall / ((before + after) / 2)
                total_ref += ref
                self.seconds[id(request)].append(wall)
                self.refs[id(request)].append(ref)
                self.reference_s += [before, after]
                self.rss.append(rss)
            before = after
        self.pass_seconds[traced].append(total_s)
        if not traced:
            self.pass_refs.append(total_ref)


def describe(request):
    props = " ".join(f"{k}={v}" for k, v in request.props.items())
    return " ".join(request.args).replace(ROOT + os.sep, "") + \
        (f"  [{props}]" if props else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception: the running child is killed and
    # reaped, and the temporary directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for name in ("__main__.py", "cli.py"):
        if not os.path.isfile(os.path.join(SOURCES, name)):
            print(f"error: {os.path.join('src', 'braidinv', name)} not found; "
                  "run from a braidinv checkout", file=sys.stderr)
            return 2
    os.chdir(ROOT)
    passes = max(1, round(args.seconds / PASS_SECONDS))
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        child = Child(work)
        requests = workloads.build(args.workload, args.seed, work)
        setup_seconds(child)  # warm-up: may compile bytecode
        # set-up spawns are spread over the untraced passes of a --trace 0
        # run, about SETUP_SPAWNS of them, so their median sees the run's
        # whole stretch of machine speed
        stride = (0 if args.trace else
                  max(1, round(len(requests) * passes / SETUP_SPAWNS)))
        run = Run(requests, child, stride)
        schedule = ([False] * passes if not args.trace
                    else [False, True] * max(1, passes // 2))
        for i, traced in enumerate(schedule):
            if i and time.perf_counter() - started > NO_NEW_PASS_AFTER_S:
                break
            run.one_pass(traced)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(requests)} requests per pass, passes "
          f"{len(run.pass_seconds[False])} untraced + "
          f"{len(run.pass_seconds[True])} traced, one client, closed loop")
    print("  #  median s  median ref  request [input properties]")
    for i, request in enumerate(requests):
        print(f"  {i:2d} {statistics.median(run.seconds[id(request)]):8.4f} "
              f"{statistics.median(run.refs[id(request)]):10.3f}  "
              f"{describe(request)}")
    seconds = [t for ts in run.seconds.values() for t in ts]
    refs = [t for ts in run.refs.values() for t in ts]
    p, tail_s = tail(seconds)
    print(f"reference script median {statistics.median(run.reference_s):.6f} s; "
          f"request tail is p{p} over {len(seconds)} untraced requests")
    print(f"raw seconds: wall_s {statistics.median(run.pass_seconds[False]):.4f}"
          f", request_p50_s {statistics.median(seconds):.4f}, "
          f"request_tail_s {tail_s:.4f}"
          + (f", setup_s {statistics.median(run.setup_s):.4f}"
             if run.setup_s else "")
          + f"; fail_frac "
          f"{run.failed / run.attempted:.4f} ({run.failed} of {run.attempted})")
    if args.trace:
        metrics = run.layers.metrics(len(run.pass_seconds[True]))
        metrics["trace.overhead_s"] = (
            statistics.median(run.pass_seconds[True])
            - statistics.median(run.pass_seconds[False]))
        print(f"traced in-process time {run.layers.in_process_s:.6f} s, "
              f"covered by layer self times {run.layers.accounted_s:.6f} s")
        result = {name: {"value": metrics[name], "unit": layers.unit(name)}
                  for name in layers.metric_names()}
    else:
        result = {
            "wall_ref": {"value": statistics.median(run.pass_refs),
                         "unit": "ref"},
            "request_p50_ref": {"value": statistics.median(refs), "unit": "ref"},
            "request_tail_ref": {"value": tail(refs)[1], "unit": "ref"},
            "peak_rss_mb": {"value": max(run.rss), "unit": "MB"},
            "setup_s": {"value": REFERENCE_NOMINAL_S
                        * statistics.median(run.setup_refs), "unit": "s"},
        }
    for name, m in result.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
