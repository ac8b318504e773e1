"""Tests of the benchmark itself (stdlib unittest).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import json
import signal
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

LIB = wl.load_library(bench.ROOT)


def cheap(jobs, limit=16):
    """The jobs of a pass at order <= limit, to keep the tests quick."""
    return [j for j in jobs if j.inputs["order"] <= limit]


def digests(work, jobs):
    return [wl.digest(work.canonical(j, work.run(LIB, j))) for j in jobs]


class Inputs(unittest.TestCase):

    def test_same_seed_gives_same_inputs_and_digests(self):
        for name, cls in wl.WORKLOADS.items():
            with self.subTest(workload=name):
                a, b = cls().make_jobs(7, 0), cls().make_jobs(7, 0)
                self.assertEqual([j.inputs for j in a], [j.inputs for j in b])
                self.assertEqual(digests(cls(), cheap(a)), digests(cls(), cheap(b)))

    def test_different_seed_or_pass_gives_different_inputs(self):
        for name, cls in wl.WORKLOADS.items():
            with self.subTest(workload=name):
                base = [j.inputs for j in cls().make_jobs(7, 0)]
                self.assertNotEqual(base, [j.inputs for j in cls().make_jobs(8, 0)])
                self.assertNotEqual(base, [j.inputs for j in cls().make_jobs(7, 1)])

    def test_members_never_repeat_a_weight_series(self):
        work = wl.Members()
        seen = [tuple(j.inputs["b"]) for p in range(3) for j in work.make_jobs(7, p)]
        self.assertEqual(len(seen), len(set(seen)))

    def test_reference_digests_match_on_the_default_seed(self):
        ref = json.loads((HERE / "reference.json").read_text())
        for name, cls in wl.WORKLOADS.items():
            with self.subTest(workload=name):
                work = cls()
                jobs = cheap(work.make_jobs(bench.DEFAULT_SEED, 0))
                want = [ref[name]["digests"][j.shape] for j in jobs]
                self.assertEqual(digests(work, jobs), want)

    def test_poly_text_round_trips_through_the_expression_parser(self):
        cs = [Fraction(3, 5), Fraction(0), Fraction(-7, 2), Fraction(1), Fraction(-1)]
        s = LIB.exprs.series_from_text(wl.poly_text(cs), 6)
        self.assertEqual(list(s.coeffs), cs + [0, 0])


def _bumped(value):
    """``value`` with its last coefficient raised by one, or None."""
    if isinstance(value, list):
        return value[:-1] + [value[-1] + 1]
    if hasattr(value, "rows"):
        rows = [list(r) for r in value.rows]
        rows[-1][-1] += 1
        return type(value)(rows)
    if hasattr(value, "param"):
        cs = list(value.coeffs)
        cs[-1] += 1
        return type(value)(value.param, cs)
    if hasattr(value, "order"):
        cs = list(value.coeffs)
        cs[-1] += 1
        return type(value)(cs, value.order)
    return None


def corrupt(out):
    """The same output with one coefficient changed."""
    if hasattr(out, "status"):          # a CLI CommandResult: bump the last digit
        text = out.output
        i = max(k for k, ch in enumerate(text) if ch.isdigit())
        return type(out)(out.status, text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:])
    for key, value in vars(out).items():
        bumped = _bumped(value)
        if bumped is not None:
            return SimpleNamespace(**{**vars(out), key: bumped})
    raise AssertionError("nothing to corrupt in %r" % (out,))


class Checks(unittest.TestCase):

    def test_a_corrupted_coefficient_counts_as_a_failure(self):
        for name, cls in wl.WORKLOADS.items():
            for seed in (bench.DEFAULT_SEED, 5):
                with self.subTest(workload=name, seed=seed):
                    work = cls()
                    jobs = cheap(work.make_jobs(seed, 0), 12)
                    honest = bench.Run(work, seed, LIB, bench.load_reference(name))
                    honest.one_pass(jobs, 0, [])
                    self.assertEqual(honest.failures, [])
                    real_run = work.run
                    work.run = lambda lib, job: corrupt(real_run(lib, job))
                    run = bench.Run(work, seed, LIB, bench.load_reference(name))
                    run.one_pass(jobs, 0, [])
                    self.assertEqual(len(run.failures), len(jobs), run.failures)

    def test_a_job_that_raises_or_exits_counts_as_a_failure(self):
        work = wl.Triangles()
        job = work.make_jobs(5, 0)[0]
        job.inputs["argv"] = ["bcomp", "matrix", "--no-such-flag"]
        run = bench.Run(work, 5, LIB, {})
        run.one_pass([job], 0, [])
        self.assertEqual(run.attempted, 1)
        self.assertEqual(len(run.failures), 1)


class Tracing(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        out = bench.run_workload("members", 3, 0.01, trace=True)
        cls.members = {k: v["value"] for k, v in out["result"]["metrics"].items()}

    def test_members_is_a_control_for_triangles_and_cli(self):
        for metric in ("riordan.tri_mul.calls", "riordan.tri_log.calls",
                       "riordan.pow_binomial.calls", "combinat.partitions.yielded",
                       "cli.run.busy_s"):
            self.assertEqual(self.members[metric], 0, metric)
        self.assertGreater(self.members["pseudo.g_from_b.calls"], 0)
        self.assertGreater(self.members["series.mul.coeff_products"], 0)

    def test_every_per_layer_metric_is_reported(self):
        self.assertEqual(set(self.members), set(bench.PER_LAYER))

    def test_self_times_sum_to_at_most_the_traced_total(self):
        work = wl.Triangles()
        jobs = cheap(work.make_jobs(3, 0), 20)
        tracer = Tracer()
        tracer.install(LIB, list(vars(LIB).values()))
        try:
            run = bench.Run(work, 3, LIB, {})
            run.one_pass(jobs, 0, [], tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(run.failures, [])
        summ = tracer.summary()
        layers = {k: v for k, v in summ["layer_self_ns"].items() if k != "bench"}
        self.assertEqual(set(layers) - set(wl.LAYERS), set())
        self.assertTrue(all(v >= 0 for v in layers.values()))
        self.assertLessEqual(sum(layers.values()), summ["job_ns"])
        self.assertGreater(layers["combinat"], 0)
        self.assertGreater(layers["cli"], 0)

    def test_uninstall_restores_the_library(self):
        mul = LIB.series.Series.__mul__
        g_from_b = LIB.cli.g_from_b
        tracer = Tracer()
        tracer.install(LIB, [LIB.cli, LIB.pseudo])
        self.assertIsNot(LIB.cli.g_from_b, g_from_b)
        self.assertIsNot(LIB.series.Series.__mul__, mul)
        tracer.uninstall()
        self.assertIs(LIB.cli.g_from_b, g_from_b)
        self.assertIs(LIB.series.Series.__mul__, mul)


class Clock(unittest.TestCase):

    def test_scaled_time_of_the_kernel_is_its_nominal_time(self):
        handler = signal.getsignal(signal.SIGPROF)
        calls = 0
        with speed.ScaledClock() as clock:
            t0 = speed.cpu_now()
            while speed.cpu_now() - t0 < 0.2:
                speed._cal_kernel()
                calls += 1
        self.assertIs(signal.getsignal(signal.SIGPROF), handler)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))
        self.assertGreater(len(clock.rates), 2 * speed.BRACKET)
        self.assertGreater(clock._spent, 0)
        ratio = clock.scaled / (calls * speed.CAL_NOMINAL_S)
        self.assertTrue(0.5 < ratio < 2, ratio)

    def test_no_probe_inside_the_stretch_when_asked(self):
        with speed.ScaledClock(in_stretch=False) as clock:
            t0 = speed.cpu_now()
            while speed.cpu_now() - t0 < 0.05:
                speed._cal_kernel()
        self.assertEqual(len(clock.rates), 2 * speed.BRACKET)
        self.assertEqual(clock._spent, 0)


class Contract(unittest.TestCase):

    def test_benchmark_json_names_the_metrics_the_runner_prints(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [name for name, _unit in bench.END_TO_END])
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(bench.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
