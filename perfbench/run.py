"""bqec benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sieve --seed 7 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
load is closed-loop: one client in this process sends one request at a
time through bqec.cli.main(argv) with stdout captured (or, for heights on
a general model, one library call).  The runner sends the workload's
cycles of requests (gen.py), each cycle whole and each with fresh inputs,
until --seconds have passed in them, then checks every output
(check.py).  The host's speed drifts, so a fixed kernel that shares no
code with bqec is timed around every request, and times are reported at
the reference speed (the table also prints them as measured).

--trace 0 reports the end-to-end metrics.  --trace 1 runs every request
twice back to back, untraced and with spans installed (spans.py), in an
order that alternates from one request to the next, for about the same
total time.  It reports the per-layer metrics plus the tracing overhead
(traced minus untraced time of the same requests).  The last stdout line
is the JSON result; the lines before it are a readable table with sample
counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import gen  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

SETUP_PROBES = 7
MIN_CYCLES = 3
# Host speed: SPEED_SLICES timings of a fixed kernel, run before and after
# every timed request and set-up.  A time is reported at the reference
# speed: measured / slowdown, where slowdown is the median slice time over
# the kernel's time on the reference machine (see NOTES.md).
SPEED_SLICES = 6
SPEED_MODULUS = 10**300 + 7
GCD_ARGS = (7**12000, 11**10000 + 2)  # about 10,000 digits each
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import bqec; "
         "from bqec.arith import factorize; factorize(30); print('ready', flush=True)")
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Result:
    req: gen.Request
    rc: int
    stdout: str
    latency: float
    slowdown: float = 0.0  # of the host around the request; 0 if not measured

    @property
    def scaled(self) -> float:
        """The latency at the reference speed."""
        return self.latency / self.slowdown


# ----------------------------------------------------------------------
# host speed

def loop_kernel() -> int:
    """A fixed slice of interpreted work (no bqec code) like most of the
    program's hot loops: Euler-criterion powers, products and small gcds."""
    total = 0
    for p in (1009, 1013):
        for a in range(1, 100):
            total += pow(a, (p - 1) // 2, p)
    x = 3**200
    for _ in range(50):
        x = (x * x + 1) % SPEED_MODULUS
        total += math.gcd(x, 123456789)
    return total


def gcd_kernel() -> int:
    """A fixed big-integer gcd, like canonical_height's.  It slows down with
    the host more than loop_kernel does, as height requests do."""
    return math.gcd(*GCD_ARGS)


def fraction_kernel() -> Fraction:
    """Fraction arithmetic in an interpreted loop, like the group law on
    small rationals behind curve and quad requests."""
    x, y, total = Fraction(3, 7), Fraction(-5, 11), Fraction(0)
    for i in range(1, 40):
        total += (x * i + y) / (i + x)
    return total


# kernel name -> (kernel, its time at the reference speed in s; see NOTES.md)
KERNELS = {"loop": (loop_kernel, 0.25e-3), "gcd": (gcd_kernel, 1.55e-3),
           "fraction": (fraction_kernel, 0.29e-3)}
# request kind -> the kernel whose slowdown its time follows; others: "loop"
KIND_KERNEL = {"height": "gcd", "regulator": "gcd", "curve": "fraction", "quad": "fraction"}


def kernel_of(req: gen.Request) -> str:
    return KIND_KERNEL.get(req.kind, "loop")


def speed_slices(kernel: str) -> list[float]:
    """SPEED_SLICES timings of the kernel, each over its reference time."""
    run_kernel, reference = KERNELS[kernel]
    times = []
    for _ in range(SPEED_SLICES):
        start = time.perf_counter()
        run_kernel()
        times.append((time.perf_counter() - start) / reference)
    return times


# ----------------------------------------------------------------------
# set-up

def import_bqec():
    """Import bqec from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    import bqec
    import bqec.cli  # noqa: F401  (the entry point the requests go through)
    from bqec.arith import factorize

    if Path(bqec.__file__).resolve().parent != (SRC / "bqec").resolve():
        raise ImportError(f"bqec imported from {bqec.__file__}, not from {SRC}")
    factorize(30)  # the lazy sympy import
    return bqec


def setup_times() -> list[tuple[float, float]]:
    """Process start to ready (import bqec, warm sympy), in fresh processes:
    (seconds, slowdown of the host around it) for each."""
    times = []
    for _ in range(SETUP_PROBES):
        before = speed_slices("loop")
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)], cwd=ROOT,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append((elapsed, statistics.median(before + speed_slices("loop"))))
    return times


def load_reference(workload: str) -> check.Reference:
    """Recorded outputs keyed by request (reference/<workload>.json); every
    request whose key is there is compared against it, on any seed."""
    data = json.loads((gen.REFERENCE / f"{workload}.json").read_text(encoding="utf-8"))
    return check.Reference(data["outputs"], data.get("hits", ""), data.get("hits_max_side", 0))


# ----------------------------------------------------------------------
# requests

class Runner:
    """Executes requests in this process, one at a time."""

    def __init__(self, bqec, workdir: Path):
        self.bqec = bqec
        self.workdir = workdir
        self.kfiles: dict[tuple[str, ...], str] = {}
        self.tracer = None

    def prepare(self, requests) -> None:
        """Write the k-files of sieve requests (untimed)."""
        for req in requests:
            if req.kfile and req.kfile not in self.kfiles:
                path = self.workdir / f"k{len(self.kfiles)}.txt"
                path.write_text("\n".join(req.kfile) + "\n", encoding="utf-8")
                self.kfiles[req.kfile] = str(path)

    def execute(self, req: gen.Request, root=None) -> Result:
        """Run one request; `root` wraps the timed call (the traced run's root span)."""
        if req.kind == "lib-height":
            return self._library(req, root)
        argv = [arg.replace("{kfile}", self.kfiles.get(req.kfile, "")) for arg in req.argv]
        out, err = io.StringIO(), io.StringIO()
        main = root(self.bqec.cli.main) if root else self.bqec.cli.main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed request
                rc = -1
                print(f"{type(exc).__name__}: {exc}", file=err)
            latency = time.perf_counter() - start
        return Result(req, rc, out.getvalue() if rc == 0 else out.getvalue() + err.getvalue(), latency)

    def _library(self, req: gen.Request, root=None) -> Result:
        bqec = self.bqec
        height = root(bqec.canonical_height) if root else bqec.canonical_height
        a2, a4, a6 = (Fraction(part) for part in req.argv[1].split(","))
        x, y = (Fraction(part) for part in req.argv[2].split(","))
        curve, point, doublings = bqec.Curve(a2=a2, a4=a4, a6=a6), bqec.Point(x, y), int(req.argv[3])
        start = time.perf_counter()
        try:
            result = height(curve, point, doublings)
        except Exception as exc:  # a crash is a failed request
            return Result(req, -1, f"{type(exc).__name__}: {exc}", time.perf_counter() - start)
        latency = time.perf_counter() - start
        text = json.dumps({"height": result.value, "doublings": result.doublings_used,
                           "error_bound": result.error_bound})
        return Result(req, 0, text + "\n", latency)

    def traced(self, req: gen.Request, request_id: int) -> Result:
        """Execute with spans installed; the root span "request" covers the
        same call as the latency timer."""
        tracer = self.tracer
        tracer.request = request_id
        tracer.install()
        try:
            return self.execute(req, root=lambda fn: tracer.wrap("request", fn))
        finally:
            tracer.uninstall()


def run_cycles(runner: Runner, stream: gen.Stream, seconds: float, min_cycles: int = 1):
    """Send whole cycles until `seconds` have passed in them and
    `min_cycles` cycles are done.  Making a cycle's inputs is not timed.

    Without a tracer, kernel slices just before and just after each
    request measure the host's slowdown meanwhile (slices between two
    requests of one kernel serve both).  With a tracer every request runs
    twice back to back, untraced and traced, so both see the same host
    speed; the order alternates, so neither side always finds the caches
    warm.  Returns (untraced results, traced results, elapsed seconds,
    cycles).
    """
    results, traced = [], []
    elapsed = 0.0
    last = ("", [])  # kernel and slices after the previous request
    while stream.cycles < min_cycles or elapsed < seconds:
        cycle = stream.next_cycle()
        runner.prepare(cycle)
        start = time.perf_counter()
        for req in cycle:
            if not runner.tracer:
                kernel = kernel_of(req)
                before = last[1] if last[0] == kernel else speed_slices(kernel)
                res = runner.execute(req)
                last = (kernel, speed_slices(kernel))
                res.slowdown = statistics.median(before + last[1])
                results.append(res)
            elif len(traced) % 2:
                traced.append(runner.traced(req, len(traced)))
                results.append(runner.execute(req))
            else:
                results.append(runner.execute(req))
                traced.append(runner.traced(req, len(traced)))
        elapsed += time.perf_counter() - start
    return results, traced, elapsed, stream.cycles


def check_all(results, reference) -> list[tuple[Result, list[str]]]:
    """(result, problems) for every result; identical outputs are checked once."""
    seen: dict[tuple, list[str]] = {}
    out = []
    for res in results:
        key = (res.req, res.rc, res.stdout)
        if key not in seen:
            seen[key] = check.check(res.req, res.rc, res.stdout, reference)
        out.append((res, seen[key]))
    return out


# ----------------------------------------------------------------------
# metrics

def percentile(sorted_values, level: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(level / 100 * len(sorted_values)) - 1)]


def quantiles(samples: list, m: int) -> list:
    """m of the samples, at the quantiles (i + 1/2) / m of their sorted order."""
    ranked = sorted(samples)
    return [ranked[int((i + 0.5) * len(ranked) / m)] for i in range(m)]


def tail_level(n: int) -> float:
    """The highest level in TAIL_LEVELS with at least 10 samples beyond it."""
    for level in TAIL_LEVELS:
        if n - math.ceil(level / 100 * n) >= 10:
            return level
    return 50.0


def items_of(res: Result) -> int:
    if res.req.kind != "sieve":
        return 1
    return sum(not obj.get("singular") for obj in check.parse_lines(res.stdout))


def end_to_end(results, checked, per_cycle: Counter, cycles: int, elapsed: float,
               setup: list[tuple[float, float]], rss_kb: int) -> dict:
    """The end-to-end metrics of a timed run.

    The host's speed drifts (up to 1.7x, over seconds to minutes), so
    every time is taken at the reference speed (Result.scaled): the
    kernel slices around it say how fast the host ran meanwhile.  The
    metrics describe one *typical cycle*: for each band with m slots a
    cycle, m of the band's requests in the run, at evenly spaced
    quantiles of its latencies (the median when m is 1).  Throughput is
    the typical cycle's items over the sum of its latencies, and the
    percentiles are over its requests, so the metrics do not depend on
    how many cycles ran, nor on which slots ran out of inputs.  The
    tail level is fixed by the cycle's length: the highest level with 10
    samples beyond it in MIN_CYCLES cycles.  The table also prints the
    unscaled (raw) figures.
    """
    samples: dict[str, list[tuple[float, int]]] = defaultdict(list)
    for res, problems in checked:
        samples[res.req.band].append((res.scaled, 0 if problems else items_of(res)))
    typical = [sample for band, runs in samples.items() for sample in quantiles(runs, per_cycle[band])]
    latencies = sorted(latency for latency, _ in typical)
    n = len(latencies)
    level = tail_level(n * MIN_CYCLES)
    done = sum(items for runs in samples.values() for _, items in runs)
    raw = sorted(res.latency for res in results)
    slowdown = statistics.median(res.slowdown for res in results)
    return {
        "setup_s": (statistics.median(t / s for t, s in setup), "s", len(setup),
                    f"median of fresh-process set-ups; raw {statistics.median(t for t, _ in setup):.4g}"),
        "items_per_s": (sum(items for _, items in typical) / sum(latencies), "1/s", len(results),
                        f"typical cycle of {n} of {cycles} cycles; raw {done / sum(raw):.4g}/s "
                        f"over {elapsed:.1f} s, host slowdown {slowdown:.3g}"),
        "op_p50_ms": (percentile(latencies, 50) * 1e3, "ms", len(results),
                      f"p50 of the typical cycle; raw {percentile(raw, 50) * 1e3:.4g}"),
        "op_tail_ms": (percentile(latencies, level) * 1e3, "ms", len(results),
                       f"p{level:g} of the typical cycle; raw {percentile(raw, level) * 1e3:.4g}"),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1, "ru_maxrss after the timed phase"),
    }


def per_layer(tracer, traced, untraced) -> dict:
    """Per-layer metrics from the spans of the traced requests.

    Times and counts are per traced request; ratios say what share of a
    layer's attempts was useful or wasted.
    """
    selfs = tracer.self_times()
    kinds = {i: res.req.kind for i, res in enumerate(traced)}
    n_req = len(traced)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    layer_s: Counter = Counter()
    info = defaultdict(list)
    per_kind_calls: Counter = Counter()
    for span, own in zip(tracer.spans, selfs):
        name, _, _, _, request, value = span
        calls[name] += 1
        self_s[name] += own
        layer_s[name.split(".")[0]] += own
        per_kind_calls[(name, kinds.get(request))] += 1
        if value is not None:
            info[name].append(value)
    kind_count = Counter(res.req.kind for res in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    points = info["curves.count_points"]
    residues = sum(p for p in points if p > 0)
    sieve_info = info["analysis.sieve"]
    records = sum(v[0] for v in sieve_info)
    torsion_spans = [i for i, s in enumerate(tracer.spans) if s[0] == "torsion.torsion_subgroup"]
    searched = set()
    for span in tracer.spans:
        if span[0] == "arith.divisors_bounded":
            parent = span[3]
            while parent >= 0 and tracer.spans[parent][0] != "torsion.torsion_subgroup":
                parent = tracer.spans[parent][3]
            searched.add(parent)
    rows = info["quad.search_quads_range"]
    candidates = sum(search_candidates(int(check.option(res.req, "max-side")))
                     for res in traced if res.req.kind == "search")
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for name in ("analysis.canonical_height", "analysis.mestre_nagao_sums", "curves.count_points",
                 "curves.add", "curves.integral_model", "torsion.torsion_subgroup",
                 "torsion.torsion_order_bound", "quad.search_quads_range", "quad.quad_to_point",
                 "family.subfamily", "arith.factorize", "arith.primes_up_to", "cli.main",
                 "cli.build_parser"):
        put(f"{name}.self_s", ratio(self_s[name], n_req), "s/req")
    for name in ("analysis.canonical_height", "curves.count_points", "curves.add",
                 "torsion.point_order", "arith.factorize", "arith.primes_up_to",
                 "arith.rational_sqrt"):
        put(f"{name}.calls", ratio(calls[name], n_req), "calls/req")
    for layer in ("request",) + LAYERS:
        put(f"{layer}.self_s", ratio(layer_s[layer], n_req), "s/req")
    put("analysis.canonical_height.calls_per_regulator",
        ratio(per_kind_calls[("analysis.canonical_height", "regulator")], kind_count["regulator"]),
        "calls/req")
    put("analysis.canonical_height.digits", max(info["analysis.canonical_height"], default=0.0), "digits")
    put("analysis.sieve.singular_ratio", ratio(sum(v[1] for v in sieve_info), records), "ratio")
    put("analysis.sieve.passed_ratio", ratio(sum(v[2] for v in sieve_info), records), "ratio")
    put("curves.count_points.residues", ratio(residues, n_req), "residues/req")
    put("curves.count_points.ns_per_residue", ratio(self_s["curves.count_points"] * 1e9, residues), "ns")
    put("curves.count_points.bad_reduction", ratio(sum(p < 0 for p in points), n_req), "calls/req")
    put("torsion.proven_ratio", ratio(sum(info["torsion.torsion_subgroup"]), len(torsion_spans)), "ratio")
    put("torsion.divisor_search_ratio", ratio(len(searched & set(torsion_spans)), len(torsion_spans)), "ratio")
    put("quad.search_quads_range.rows", ratio(sum(r for r, _ in rows), n_req), "rows/req")
    put("quad.search.candidates", ratio(candidates, kind_count["search"]), "count/search")
    put("quad.search.hit_ratio", ratio(sum(h for _, h in rows), candidates), "ratio")
    put("family.family_torsion_points.calls_per_curve",
        ratio(per_kind_calls[("family.family_torsion_points", "curve")], kind_count["curve"]),
        "calls/req")
    put("arith.rational_sqrt.hit_ratio", ratio(sum(info["arith.rational_sqrt"]), calls["arith.rational_sqrt"]), "ratio")
    put("arith.divisors_bounded.truncated", ratio(sum(info["arith.divisors_bounded"]), n_req), "count/req")
    put("cli.stdout_bytes", ratio(sum(len(res.stdout) for res in traced), n_req), "bytes/req")
    put("trace.spans", ratio(len(tracer.spans), n_req), "spans/req")
    traced_s = sum(res.latency for res in traced)
    untraced_s = sum(res.latency for res in untraced)
    put("trace.overhead_s", traced_s - untraced_s, "s")
    put("trace.overhead_ratio", ratio(traced_s - untraced_s, untraced_s), "ratio")
    put("trace.requests", n_req, "count")
    return metrics


def search_candidates(max_side: int) -> int:
    """(a, b, c) triples with a <= b, c <= M and a <= d = a + c - b <= M:
    for each a <= b the valid c are b..M."""
    return sum((max_side - a + 1) * (max_side - a + 2) // 2 for a in range(1, max_side + 1))


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setup = setup_times()
        bqec = import_bqec()
    except (ImportError, RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"cannot set up bqec from {SRC}: {exc}", file=sys.stderr)
        return 1

    try:
        reference = load_reference(args.workload)
        stream = gen.Stream(args.workload, args.seed)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load the reference outputs: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(bqec, workdir)
        anchors = []
        if args.workload == "heights":
            anchors = [runner.execute(gen.Request(argv[0], argv, band="anchor"))
                       for argv in gen.ANCHORS]
        if args.trace:
            runner.tracer = Tracer()
            results, traced, elapsed, cycles = run_cycles(runner, stream, args.seconds / 2)
            runner.tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz")
        else:
            results, traced, elapsed, cycles = run_cycles(runner, stream, args.seconds, MIN_CYCLES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the checker's imports

    checked = check_all(anchors + results + traced, reference)
    failures = [(res, problems) for res, problems in checked if problems]
    for res, problems in failures[:20]:
        print(f"FAILED {res.req.key[:160]}: {'; '.join(problems)[:400]}", file=sys.stderr)

    if args.trace:
        table = {name: (value, unit, len(traced), "") for name, (value, unit) in
                 per_layer(runner.tracer, traced, results).items()}
    else:
        table = end_to_end(results, checked[len(anchors):], stream.per_cycle, cycles, elapsed,
                           setup, rss_kb)
    attempted = len(checked)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} cycles={cycles} "
          f"requests={len(results)} elapsed={elapsed:.2f}s python={sys.version.split()[0]} "
          f"nproc={os.cpu_count()}")
    for res in anchors:
        print(f"# anchor {res.req.key[:60]}: {res.latency:.2f} s (untimed)")
    print(f"# failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for name, (value, unit, n, note) in table.items():
        print(f"# {name:48s} {value:14.6g} {unit:12s} n={n} {note}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
