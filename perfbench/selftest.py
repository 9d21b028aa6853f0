"""Self-tests of the benchmark itself (not of bqec).

    python3 perfbench/selftest.py

The generator is deterministic in its seed and sends no input twice in a
run, a corrupted output is counted as failed, the end-to-end metrics do
not move with the host's speed, and the per-request self times of a
trace add up to the request's wall time.
"""

from __future__ import annotations

import shutil
import tempfile
import unittest
from collections import Counter
from fractions import Fraction
from pathlib import Path

import check
import gen
import run
from spans import Tracer

BQEC = run.import_bqec()
REPEATS = 5  # runs of each request per side in the trace test
ROOT_SLACK = 1e-4  # s between the latency timer and the root span it encloses
MAX_OVERHEAD = 0.25  # tracing may slow the traced requests by at most this share


def _flip_digit(text: str, start: int) -> str:
    """Change the first digit at or after `start`."""
    i = next(i for i in range(start, len(text)) if text[i].isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


class Runs(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
        self.runner = run.Runner(BQEC, self.workdir)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for workload in gen.WORKLOADS:
            first = gen.generate(workload, 5, cycles=2)
            self.assertEqual(first, gen.generate(workload, 5, cycles=2))
            self.assertNotEqual(first, gen.generate(workload, 6, cycles=2))

    def test_no_input_twice_in_a_run(self):
        from bqec.family import singular_k_values

        for workload, cycles in (("sieve", 20), ("heights", 12), ("catalog", 20)):
            requests = gen.generate(workload, 5, cycles)
            keys = [req.key for req in requests]
            self.assertEqual(len(keys), len(set(keys)), workload)
        scored = [(req.argv[1], k) for req in gen.generate("sieve", 5, 20) for k in req.kfile
                  if Fraction(k) not in singular_k_values(int(check.option(req, "subfamily")))]
        self.assertEqual(len(scored), len(set(scored)), "a scored k repeats")

    def test_bands_keep_their_kind(self):
        for workload in gen.WORKLOADS:
            kinds = {}
            for req in gen.generate(workload, 5, cycles=3):
                self.assertEqual(kinds.setdefault(req.band, req.kind), req.kind, req.band)

    def test_options_are_attached(self):
        # argparse rejects "--a -7/3"; every option must read --opt=value
        for workload in gen.WORKLOADS:
            for req in gen.generate(workload, gen.DEFAULT_SEED):
                if req.kind != "lib-height":
                    self.assertTrue(all(arg.startswith("--") and "=" in arg for arg in req.argv[1:]), req.argv)


class CheckerTest(Runs):
    def _pinned(self, workload, kind):
        reference = run.load_reference(workload)
        req = next(r for r in gen.generate(workload, gen.DEFAULT_SEED) if r.kind == kind)
        self.runner.prepare([req])
        self.assertIsNotNone(reference.lookup(req))
        return req, reference

    def _assert_caught(self, req, res, corrupted, reference):
        clean = run.check_all([res], reference)
        self.assertEqual([p for _, p in clean], [[]])
        bad = run.Result(req, res.rc, corrupted, res.latency)
        failed = [problems for _, problems in run.check_all([res, bad], reference) if problems]
        self.assertEqual(len(failed), 1)
        # the oracles alone catch it too (most requests of a seed have no reference)
        self.assertTrue(check.check(req, bad.rc, bad.stdout, None))

    def test_flipped_digit_in_exact_field(self):
        req, reference = self._pinned("catalog", "curve")
        res = self.runner.execute(req)
        self._assert_caught(req, res, _flip_digit(res.stdout, res.stdout.index('"A"')), reference)

    def test_flipped_digit_in_search_hit(self):
        req, reference = self._pinned("catalog", "search")
        res = self.runner.execute(req)
        self._assert_caught(req, res, _flip_digit(res.stdout, res.stdout.index('"N"')), reference)

    def test_flipped_digit_in_float_field(self):
        req, reference = self._pinned("sieve", "sieve")
        res = self.runner.execute(req)
        # the units digit of a sum: far outside the 1e-9 relative tolerance
        for field in ('"S523"', '"S1979"'):
            self._assert_caught(req, res, _flip_digit(res.stdout, res.stdout.index(field)), reference)

    def test_missing_search_hit(self):
        req = gen.search_request(121)  # not recorded itself: checked against the catalogue
        reference = run.load_reference("catalog")
        res = self.runner.execute(req)
        lines = res.stdout.splitlines(keepends=True)
        self.assertGreater(len(lines), 10)
        self.assertEqual(run.check_all([res], reference)[0][1], [])
        dropped = run.Result(req, res.rc, "".join(lines[:5] + lines[6:]), res.latency)
        self.assertTrue(run.check_all([dropped], reference)[0][1])

    def test_failed_exit_counts(self):
        req = gen.Request("curve", ("curve", "--a", "-7/3"))  # the argparse defect: exit 2
        res = self.runner.execute(req)
        self.assertEqual(res.rc, 2)
        self.assertTrue(check.check(req, res.rc, res.stdout, None))


class MetricsTest(unittest.TestCase):
    def test_typical_cycle_quantiles(self):
        self.assertEqual(run.quantiles([5, 1, 3], 1), [3])
        self.assertEqual(run.quantiles(list(range(12)), 3), [2, 6, 10])

    def test_kernel_follows_the_request(self):
        self.assertEqual(run.kernel_of(gen.Request("height", gen.ANCHORS[1])), "gcd")
        self.assertEqual(run.kernel_of(gen.search_request(40)), "loop")
        self.assertEqual(run.kernel_of(gen.hit_requests((1, 2, 3, 2))[1]), "fraction")

    def test_metrics_do_not_move_with_host_speed(self):
        # a host at 1/factor of the speed stretches latencies and kernel slices alike
        requests = [gen.Request("curve", ("curve", f"--a={i}"), band=f"b{i % 3}") for i in range(30)]
        per_cycle = Counter(b0=2, b1=1, b2=1)

        def metrics(factor):
            results = [run.Result(req, 0, "", (1 + i % 7) * 1e-3 * factor, slowdown=factor)
                       for i, req in enumerate(requests)]
            table = run.end_to_end(results, [(res, []) for res in results], per_cycle, 10,
                                   1.0, [(0.4 * factor, factor)] * 3, 1024)
            return {name: value for name, (value, *_) in table.items()}

        for name, value in metrics(1.7).items():
            self.assertAlmostEqual(value, metrics(1.0)[name], msg=name)


class TraceTest(Runs):
    def test_self_times_add_up_to_wall_time(self):
        # span-dense requests, so the overhead stands out from the host's noise
        requests = [r for r in gen.generate("catalog", 3) if r.band == "product"][:6]
        requests += [gen.search_request(40), gen.Request("height", gen.ANCHORS[1])]
        requests += [r for r in gen.generate("heights", 3) if r.band == "lib1x6"]
        tracer = self.runner.tracer = Tracer()
        untraced, traced = [], []
        for i, req in enumerate(requests * REPEATS):  # alternate the order, as run.py does
            if i % 2:
                traced.append(self.runner.traced(req, i))
            untraced.append(self.runner.execute(req))
            if not i % 2:
                traced.append(self.runner.traced(req, i))
        self.assertIs(BQEC.cli.canonical_height, BQEC.analysis.canonical_height)  # uninstalled
        selfs = tracer.self_times()
        for i, res in enumerate(traced):
            own = sum(s for span, s in zip(tracer.spans, selfs) if span[4] == i)
            (root,) = [span for span in tracer.spans if span[4] == i and span[3] == -1]
            self.assertEqual(root[0], "request")
            self.assertAlmostEqual(own, root[2] - root[1], delta=1e-9)
            # the latency timer encloses the root span and nothing else of note
            self.assertLessEqual(own, res.latency)
            self.assertLess(res.latency - own, ROOT_SLACK)
        # the traced time exceeds the untraced time by the tracing overhead:
        # best traced minus best untraced time of each request
        n = len(requests)
        best_untraced = [min(res.latency for res in untraced[j::n]) for j in range(n)]
        overhead = sum(min(res.latency for res in traced[j::n]) for j in range(n)) - sum(best_untraced)
        self.assertLess(abs(overhead), MAX_OVERHEAD * sum(best_untraced))
        for name, start, end, parent, request, _ in tracer.spans:
            if parent >= 0:
                outer = tracer.spans[parent]
                self.assertEqual(outer[4], request)
                self.assertTrue(outer[1] <= start <= end <= outer[2], name)
        names = {span[0] for span in tracer.spans}
        self.assertTrue({"cli.main", "torsion.torsion_subgroup", "curves.add", "arith.factorize",
                         "analysis.canonical_height", "quad.search_quads_range"} <= names)


if __name__ == "__main__":
    unittest.main()
