"""Exact-arithmetic benchmark of riordan_lab: one workload per process.

    python3 perfbench/run.py --workload members --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run sets up several times (fresh import of ``riordan_lab`` from ``src/``,
input generation, reference load, warm-up) and reports the median as
``setup_s``.  It then runs *passes* over the workload's fixed job list, one
job after another in this single thread, with fresh inputs each pass, until
the jobs have used ``--seconds`` of CPU time and at least 100 jobs ran.
Every job is timed by process CPU time (self plus reaped children) and its
output is checked exactly, untimed.  The shared host changes speed by up to
a factor of two, within a fraction of a second, and CPU time slows with
it, so every time is scaled to a nominal speed by calibration probes that
run during the job (``speed.py``; see ``perfbench/NOTES.md``).  With
``--trace 1`` half the budget runs untraced and half with spans around
every public library call; only per-layer metrics are printed then.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs each workload in a child process and
prints every table.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from speed import ScaledClock  # noqa: E402
from tracer import Tracer  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 15
MIN_JOBS = 100       # so that at least 10 jobs lie beyond job_p90_ms
REFERENCE = HERE / "reference.json"
TRACE_DIR = HERE / "out"

END_TO_END = (("setup_s", "s"), ("cpu_s", "s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = tuple(
    ["series.%s.%s" % (op, stat)
     for op in ("mul", "inverse", "compose", "revert", "sqrt", "log", "exp", "pow_param")
     for stat in ("calls", "self_s")]
    + ["series.mul.coeff_products", "series.self_s",
       "series.poly_mul.calls", "series.poly_mul.self_s", "series.poly_coeff_share",
       "pseudo.g_from_b.calls", "pseudo.g_from_b.busy_s", "pseudo.g_from_b.self_s",
       "pseudo.g_from_b.series_mul_calls", "pseudo.b_from_g.busy_s",
       "pseudo.sqrt_decompose.busy_s", "pseudo.self_s"]
    + ["riordan.%s.%s" % (op, stat)
       for op in ("tri_mul", "tri_log", "pow_binomial", "pair_matrix", "pair_inv")
       for stat in ("calls", "self_s")]
    + ["riordan.self_s",
       "combinat.partitions.yielded", "combinat.odd_partitions.yielded",
       "combinat.compositions.yielded", "combinat.odd_partitions.useful_ratio",
       "combinat.self_s",
       "pseudo.b_expansion.calls", "pseudo.b_expansion.busy_s",
       "bcomp.u_matrix.busy_s", "bcomp.u_entry.calls", "bcomp.u_entry.self_s",
       "bcomp.self_s"]
    + ["flow.%s.busy_s" % f
       for f in ("l_matrix", "bell_log_generator", "bell_power_series", "c_poly")]
    + ["flow.self_s"]
    + ["alphabeta.%s.busy_s" % f
       for f in ("alpha_weights", "beta_weights", "log_generator",
                 "substitution_power", "composition_poly")]
    + ["alphabeta.self_s",
       "exprs.parse.busy_s", "exprs.eval_series.busy_s", "exprs.self_s",
       "cli.run.busy_s", "cli.self_s",
       "run.wall_s", "run.descheduled_share", "trace.overhead_share", "fail_share"])

RATIOS = {"series.poly_coeff_share", "combinat.odd_partitions.useful_ratio",
          "run.descheduled_share", "trace.overhead_share", "fail_share"}


def per_layer_unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    return "s" if name.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------

def load_reference(name: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh).get(name, {})


def set_up(work: wl.Workload, seed: int):
    """Import, generate the first pass's inputs, load the reference, warm up."""
    lib = wl.load_library(ROOT)
    jobs = work.make_jobs(seed, 0)
    ref = load_reference(work.name)
    work.warm_up(lib)
    return lib, jobs, ref


class Run:
    """Everything one benchmark process measured."""

    def __init__(self, work: wl.Workload, seed: int, lib, ref: dict):
        self.work, self.seed, self.lib, self.ref = work, seed, lib, ref
        self.attempted = 0
        self.failures: list[str] = []
        self.pass0_digests: list[str] = []
        self.ref_mismatch = 0

    def one_pass(self, jobs, pass_no: int, timed: list, tracer: Tracer | None = None):
        """Run ``jobs`` once; append (shape, scaled cpu_s, wall_s, cpu_s,
        cpu_s with the probes) per job to ``timed``."""
        work, lib = self.work, self.lib
        for job in jobs:
            self.attempted += 1
            error = None
            gc.collect()    # every job starts from the same heap state
            try:
                with ScaledClock(in_stretch=tracer is None) as clock:
                    if tracer is None:
                        out = work.run(lib, job)
                    else:
                        out = tracer.run_job(self.attempted, work.run, lib, job)
            except (Exception, SystemExit) as exc:  # counted, not fatal;
                # SystemExit is how argparse inside cli.run rejects an argv
                error = "%s: %s" % (type(exc).__name__, exc)
            timed.append((job.shape, clock.scaled, clock.wall, clock.cpu, clock.busy))
            if error is None:
                error = self.verify(job, out, pass_no)
            if error is not None:
                self.failures.append("%s (pass %d): %s" % (job.label, pass_no, error))

    def verify(self, job, out, pass_no: int) -> str | None:
        try:
            dig = wl.digest(self.work.canonical(job, out))
            reason = self.work.check(self.lib, job, out)
        except Exception as exc:  # a malformed output is a failed job
            return "check raised %s: %s" % (type(exc).__name__, exc)
        if pass_no == 0:
            self.pass0_digests.append(dig)
            want = self.ref.get("digests") if self.seed == DEFAULT_SEED else None
            if want is not None and want[job.shape] != dig:
                self.ref_mismatch += 1
                return reason or "digest %s differs from the reference %s" % (
                    dig, want[job.shape])
        return reason

    def passes(self, budget: float, first: int, min_jobs: int = 0,
               tracer: Tracer | None = None):
        """Whole passes until the timed jobs used ``budget`` CPU seconds and
        at least ``min_jobs`` jobs ran."""
        timed: list = []
        pass_no = first
        while True:
            jobs = self.work.make_jobs(self.seed, pass_no)
            self.one_pass(jobs, pass_no, timed, tracer)
            pass_no += 1
            if sum(t[3] for t in timed) >= budget and len(timed) >= min_jobs:
                return timed, pass_no - first

    def run_digest(self) -> str:
        return wl.digest(self.pass0_digests)


def cpu_per_job_list(timed) -> float:
    """Scaled CPU to finish the job list once: the sum over the schedule's
    shapes of each shape's median over the passes, so that a job that a
    stray interrupt inflated moves nothing."""
    by_shape: dict = {}
    for shape, cpu, *_rest in timed:
        by_shape.setdefault(shape, []).append(cpu)
    return sum(statistics.median(v) for v in by_shape.values())


def end_to_end(setup_s: float, timed) -> dict:
    ms = sorted(t[1] * 1e3 for t in timed)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": setup_s, "cpu_s": cpu_per_job_list(timed),
            "job_p50_ms": statistics.median(ms), "job_p90_ms": p90,
            "peak_rss_mb": rss}


def per_layer(tracer: Tracer, untimed, traced, n_traced: int,
              fail_share: float) -> dict:
    summ = tracer.summary()
    spans, layer_self, yields = summ["spans"], summ["layer_self_ns"], summ["yields"]
    k = float(n_traced)

    def span(name, stat):
        return spans.get(name, {}).get(stat, 0)

    def yielded(name, parent=None):
        return sum(c for (n, p), c in yields.items()
                   if n == name and (parent is None or p == parent))

    out = {}
    for metric in PER_LAYER:
        if "." not in metric:
            continue
        head, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = span(head, "calls") / k
        elif stat == "busy_s":
            out[metric] = span(head, "busy_ns") / 1e9 / k
        elif stat == "self_s":
            ns = layer_self.get(head, 0) if "." not in head else span(head, "self_ns")
            out[metric] = ns / 1e9 / k
        elif stat == "yielded":
            out[metric] = yielded(head) / k
    mul_calls = span("series.mul", "calls")
    enumerated = yielded("combinat.partitions", "combinat.odd_partitions")
    wall = sum(t[2] for t in untimed)
    busy = sum(t[4] for t in untimed)
    out.update({
        "series.mul.coeff_products": summ["counters"].get("series.mul.coeff_products", 0) / k,
        "series.poly_coeff_share": (summ["counters"].get("series.mul.poly", 0) / mul_calls
                                    if mul_calls else 0.0),
        "pseudo.g_from_b.series_mul_calls":
            tracer.under("series.mul", "pseudo.g_from_b") / k,
        "combinat.odd_partitions.useful_ratio":
            yielded("combinat.odd_partitions") / enumerated if enumerated else 0.0,
        "run.wall_s": wall,
        "run.descheduled_share": 1 - busy / wall if wall else 0.0,
        "trace.overhead_share": cpu_per_job_list(traced) / cpu_per_job_list(untimed) - 1,
        "fail_share": fail_share,
    })
    return out


def series_mul_hook(poly_cls, series_cls):
    """Counts for ``Series.__mul__``: coefficient products and Poly operands."""
    def hook(counters, args):
        a, b = args
        if isinstance(b, series_cls):
            n = min(a.order, b.order)
            counters["series.mul.coeff_products"] += (n + 1) * (n + 2) // 2
            coeffs = a.coeffs + b.coeffs
        else:
            coeffs = a.coeffs + (b,)
        if any(isinstance(c, poly_cls) for c in coeffs):
            counters["series.mul.poly"] += 1
    return hook


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 record: bool = False) -> dict:
    """One workload in this process; returns the result object."""
    work = wl.WORKLOADS[name]()
    setups = []
    for _ in range(SETUP_REPEATS):
        with ScaledClock() as clock:
            lib, _jobs, ref = set_up(work, seed)
        setups.append(clock.scaled)
    run = Run(work, seed, lib, {} if record else ref)
    budget = seconds / 2 if trace else seconds
    untimed, n_passes = run.passes(budget, 0, 0 if trace else MIN_JOBS)
    e2e = end_to_end(statistics.median(setups), untimed)
    lines = ["workload %s  seed %d  passes %d  jobs %d  run digest %s"
             % (name, seed, n_passes, len(untimed), run.run_digest())]
    if record:
        if run.failures:
            raise RuntimeError("not recording digests of a failing run: %s"
                               % run.failures[0])
        write_reference(name, run)
    fail_share = len(run.failures) / run.attempted
    if trace:
        tracer = Tracer()
        S = lib.series
        modules = [m for n, m in sys.modules.items()
                   if n == "riordan_lab" or n.startswith("riordan_lab.")]
        tracer.install(lib, modules, {"series.mul": series_mul_hook(S.Poly, S.Series)})
        try:
            traced, t_passes = run.passes(budget, n_passes, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.dump(TRACE_DIR / ("trace-%s-seed%d.json" % (name, seed)))
        fail_share = len(run.failures) / run.attempted
        metrics = per_layer(tracer, untimed, traced, t_passes, fail_share)
        units = {m: per_layer_unit(m) for m in PER_LAYER}
        lines.append("traced passes %d  spans %d" % (t_passes, len(tracer.name)))
    else:
        metrics = e2e
        units = dict(END_TO_END)
    if seed == DEFAULT_SEED and run.ref and not record:
        lines.append("reference digests: %s"
                     % ("match" if run.ref_mismatch == 0 else
                        "%d differ" % run.ref_mismatch))
    for m, v in metrics.items():
        lines.append("  %-42s %14.6g %s" % (m, v, units[m]))
    if "fail_share" not in metrics:
        lines.append("  %-42s %14.6g %s" % ("fail_share", fail_share, "ratio"))
    for failure in run.failures[:10]:
        print("FAIL " + failure, file=sys.stderr)
    return {"lines": lines,
            "result": {"correct": not run.failures, "attempted": run.attempted,
                       "failed": len(run.failures),
                       "metrics": {m: {"value": v, "unit": units[m]}
                                   for m, v in metrics.items()}}}


def write_reference(name: str, run: Run) -> None:
    data = {}
    if REFERENCE.is_file():
        with open(REFERENCE) as fh:
            data = json.load(fh)
    data[name] = {"seed": DEFAULT_SEED, "digests": run.pass0_digests,
                  "run_digest": run.run_digest()}
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("workload %s exited with %d" % (name, proc.returncode), file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for m, v in res["metrics"].items():
            total["metrics"]["%s.%s" % (name, m)] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(wl.WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store the first pass's digests for the default seed")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.record_reference and args.seed != DEFAULT_SEED:
        ap.error("reference digests are stored for seed %d only" % DEFAULT_SEED)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.record_reference)
    except wl.LibraryMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
