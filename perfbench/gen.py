"""Seeded request generator for the three workloads.

Every input comes from the seed passed in; the same seed gives the same
requests.  A run is a stream of *cycles* (Stream).  Each cycle has the same
slots in the same order, and each slot belongs to a *band*, a named group
of requests of one cost; cycle i draws the values inside its slots from
(seed, i), and no input is drawn twice in a run.  For a band with m slots
a cycle, the runner takes m of the band's requests in the run, at evenly
spaced quantiles of their latencies; no request is ever repeated (a
program that memoises across calls gains nothing).  A slot whose inputs run out (search sizes and quadrilateral
hits after 16 cycles, points of small height after about 35) is left out
of later cycles.

Every CLI option is passed as ``--opt=value``: argparse rejects a negative
rational written as ``--a -7/3`` (exit 2, "expected one argument").
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import ecmath

DEFAULT_SEED = 1604
WORKLOADS = ("sieve", "heights", "catalog")
REFERENCE = Path(__file__).resolve().parent / "reference"

SIEVE_SUBFAMILIES = (1, 4, 5, 8)
# k-file sizes of one sieve cycle: mostly single-k spot checks, then a
# file of two and one whose size (drawn once per run) is SIEVE_BIG_FILE.
SIEVE_SIZES = (1,) * 12 + (2,)
SIEVE_BIG_FILE = (3, 4)

# Target canonical heights (+-2%) of one heights cycle.  Cost of a height
# at 8 doublings grows roughly as the square of the height.  The median
# and the p75 slot each fall in a group of alike slots (3.5 and 4.5).
HEIGHT_TARGETS = (2.5, 3.0, 3.5, 3.5, 3.5, 3.5, 3.5, 4.5, 4.5, 4.5)
REGULATOR_TARGETS = (2.5,)
# (multiple of (-38, 125), doublings) of the library calls.  Each call is
# on the auxiliary curve moved by a seeded x -> x + t, which keeps the
# canonical height and gives every call its own input.
LIBRARY_SLOTS = ((1, 8), (1, 7), (2, 6), (1, 6), (2, 6))
LIBRARY_SHIFT = 40
BAND = 0.02
POINT_TRIES = 20_000

# search-quads sizes: each cycle takes the next of a per-run permutation of
# each range, so a run has 16 cycles before the sizes run out.
CATALOG_BANDS = (range(120, 136), range(240, 256))
# Follow-up hits per cycle, drawn without repetition from the reference
# catalogue (every hit with sides <= HITS_MAX_SIDE, 167 of them).
HITS_PER_CYCLE = 10
HITS_MAX_SIDE = 400
# r = n/d with 20 <= |n|, d <= 60: product-torsion curves of one cost band,
# so the tail percentile falls inside a group of alike slots.
PRODUCT_CURVES_PER_SEARCH = 6

# Run once per heights run, before the timed phase: published values.
ANCHORS = (
    ("regulator", "--a=101/341", "--point=4,879360/116281",
     "--point=31684/116281,1907106240/13521270961"),
    ("height", "--A=10334", "--B=9150625", "--x=625", "--y=-100000"),
)
# (published value, tolerance) of each anchor
PUBLISHED = {ANCHORS[0]: (29.1615800873524, 5e-2), ANCHORS[1]: (2.34275900093414, 1e-3)}


@dataclass(frozen=True)
class Request:
    """One request: a CLI argv, or a library call when kind is "lib-height".

    kfile holds the lines of a sieve k-file, written out before the run;
    the argv names it as "{kfile}".  facts carry what the generator knows
    about the expected answer, for the oracles.  band names the group of
    requests of one cost that the request's slot belongs to.
    """

    kind: str
    argv: tuple[str, ...]
    kfile: tuple[str, ...] = ()
    facts: tuple = ()
    band: str = ""

    @property
    def key(self) -> str:
        text = " ".join(self.argv)
        if self.kfile:
            text = text.replace("{kfile}", "[" + ",".join(self.kfile) + "]")
        return text


def search_request(max_side: int, band: str = "") -> Request:
    return Request("search", ("search-quads", f"--max-side={max_side}"), band=band)


def hit_requests(sides) -> list[Request]:
    """The follow-up requests for one search-quads hit."""
    a = Fraction(sides[0], sides[3])
    return [Request("quad", ("quad", "--sides=" + ",".join(map(str, sides))), band="quad"),
            Request("curve", ("curve", f"--a={a}"), band="hit")]


def reference_hits() -> list[tuple[int, ...]]:
    """Sides of every hit in the recorded catalogue (reference/catalog.json)."""
    data = json.loads((REFERENCE / "catalog.json").read_text(encoding="utf-8"))
    return [tuple(json.loads(line)["sides"]) for line in data["hits"].splitlines()]


def _rational(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


class Stream:
    """The cycles of one run of a workload, in order."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed = workload, seed
        self.cycles = 0
        self.per_cycle: Counter = Counter()  # slots of each band in a cycle
        self.used: set = set()
        self.exhausted: set = set()  # height targets with no fresh points left
        layout = random.Random(f"{workload}:{seed}")  # once per run
        if workload == "sieve":
            self.sizes = SIEVE_SIZES + (layout.randint(*SIEVE_BIG_FILE),)
        if workload == "catalog":
            self.max_sides = [layout.sample(sizes, len(sizes)) for sizes in CATALOG_BANDS]
            hits = reference_hits()
            self.hits = layout.sample(hits, len(hits))

    def next_cycle(self) -> list[Request]:
        rng = random.Random(f"{self.workload}:{self.seed}:{self.cycles}")
        make = {"sieve": self._sieve, "heights": self._heights, "catalog": self._catalog}
        cycle = make[self.workload](rng)
        if not self.cycles:
            self.per_cycle = Counter(req.band for req in cycle)
        self.cycles += 1
        return cycle

    def _fresh(self, draw):
        """draw() until it gives a value (not None) not used before in this run."""
        while True:
            value = draw()
            if value is not None and value not in self.used:
                self.used.add(value)
                return value

    def _sieve(self, rng: random.Random) -> list[Request]:
        from bqec.family import singular_k_values, subfamily_parameter

        def valid_k(index):
            k = _rational(rng, 300, 300)
            try:
                subfamily_parameter(index, k)
            except ValueError:
                return None
            return index, k

        requests = []
        for size in self.sizes:
            index = rng.choice(SIEVE_SUBFAMILIES)
            ks = [self._fresh(lambda: valid_k(index))[1] for _ in range(size)]
            if size >= 3:  # a real k-file carries excluded values too
                ks[rng.randrange(size)] = rng.choice(singular_k_values(index))
            requests.append(Request(
                "sieve", ("sieve", f"--subfamily={index}", "--k-file={kfile}"),
                kfile=tuple(str(k) for k in ks), band=f"sieve{size}"))
        return requests

    def _subfamily_point(self, rng: random.Random, target: float):
        """A fresh point whose canonical height is near target, or None once
        POINT_TRIES draws have found none.  It is the guaranteed point of a
        subfamily member plus one of the curve's 8 torsion points (which
        keeps the height): few members have a point of small height."""
        from bqec import subfamily

        if target in self.exhausted:
            return None
        for _ in range(POINT_TRIES):
            index, k = rng.randint(1, 8), _rational(rng, 60, 60)
            try:
                # the points in the band have a of naive height 0.7 to 1.4 times the target
                if not 0.65 <= ecmath.naive_height(ecmath.subfamily_a(index, k)) / target <= 1.45:
                    continue
                inst = subfamily(index, k)
            except (ValueError, ZeroDivisionError):
                continue
            model = ecmath.family_model(inst.a)
            P = (inst.point.x, inst.point.y)
            if abs(ecmath.height_estimate(model, P[0], 4) - target) > BAND * target:
                continue
            P = ecmath.add(model, P, rng.choice([None] + ecmath.family_torsion(inst.a)))
            if (inst.a, P) not in self.used:
                self.used.add((inst.a, P))
                return inst.a, model, P
        self.exhausted.add(target)
        return None

    def _heights(self, rng: random.Random) -> list[Request]:
        requests = []
        for target in HEIGHT_TARGETS:
            if found := self._subfamily_point(rng, target):
                a, _, (x, y) = found
                requests.append(Request("height", ("height", f"--a={a}", f"--x={x}", f"--y={y}"),
                                        band=f"height{target}"))
        for target in REGULATOR_TARGETS:
            if not (found := self._subfamily_point(rng, target)):
                continue
            a, model, P = found
            # T - P for a torsion point T: a dependent pair, regulator 0
            Q = ecmath.add(model, rng.choice(ecmath.family_torsion(a)), ecmath.negate(P))
            if not ecmath.on_curve(model, Q):
                raise RuntimeError(f"generated point {Q} is off the curve at a = {a}")
            requests.append(Request(
                "regulator",
                ("regulator", f"--a={a}", f"--point={P[0]},{P[1]}", f"--point={Q[0]},{Q[1]}"),
                facts=("dependent",), band=f"regulator{target}"))
        for multiple, doublings in LIBRARY_SLOTS:
            m, t = self._fresh(lambda: (multiple * rng.choice((1, -1)),
                                        rng.randint(-LIBRARY_SHIFT, LIBRARY_SHIFT)))
            x, y = ecmath.multiply(ecmath.AUX_MODEL, m, ecmath.AUX_GENERATOR)
            model = ecmath.shift(ecmath.AUX_MODEL, t)
            requests.append(Request(
                "lib-height", ("canonical_height", ",".join(map(str, model)), f"{x - t},{y}",
                               str(doublings)), band=f"lib{multiple}x{doublings}"))
        return requests

    def _catalog(self, rng: random.Random) -> list[Request]:
        i = self.cycles
        hits = self.hits[i * HITS_PER_CYCLE:(i + 1) * HITS_PER_CYCLE]
        half = HITS_PER_CYCLE // 2
        requests = []
        for part, sizes in enumerate(self.max_sides):
            if i < len(sizes):
                requests.append(search_request(sizes[i], f"search{part}"))
            for sides in hits[part * half:(part + 1) * half]:
                quad, curve = hit_requests(sides)
                requests.append(quad)
                if Fraction(sides[0], sides[3]) not in self.used:  # hits can share a curve
                    self.used.add(Fraction(sides[0], sides[3]))
                    requests.append(curve)
            for _ in range(PRODUCT_CURVES_PER_SEARCH):
                a = self._fresh(lambda: _product_parameter(rng))
                requests.append(Request("curve", ("curve", f"--a={a}"), facts=("product-torsion",),
                                        band="product"))
        return requests


def _product_parameter(rng: random.Random) -> Fraction:
    """a = -(r+1)/(r(r-1)), whose curve has torsion Z/2 x Z/8."""
    r = Fraction(1)
    while r in (1, -1):
        r = Fraction(rng.choice((1, -1)) * rng.randint(20, 60), rng.randint(20, 60))
    return -(r + 1) / (r * (r - 1))


def generate(workload: str, seed: int, cycles: int = 1) -> list[Request]:
    """The first `cycles` cycles of a run of the workload, concatenated."""
    stream = Stream(workload, seed)
    return [req for _ in range(cycles) for req in stream.next_cycle()]
