"""One benchmark run of one workload, in a fresh process (started by run.py).

Prints one JSON object on its last stdout line.  Timings are normalised by
fixed pure-Python reference kernels that run between jobs: a figure is
``raw time * REF_MS / (median reference time near it)``, i.e. the time the
work would take on a host that runs the reference kernel in REF_MS.
Set-up times are scaled in two parts: interpreter start and import by a
reference process timed between the set-up processes, the set-up proper by
the median kernel time of the whole job phase.  The raw figures go to
stderr beside the reported ones.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracer as trc  # noqa: E402
import workloads as wl  # noqa: E402
from cold_setup import MODULES  # noqa: E402

COLD_SETUP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cold_setup.py")
MIN_JOBS = 100  # latency_p90_ms needs at least ten samples above it
SETUP_REPS = {"witt-arith": 15, "hensel-digits": 15, "tables": 7, "cli-requests": 15}
TRACE_ROUNDS = {"witt-arith": 40, "hensel-digits": 8, "tables": 40, "cli-requests": 20}
REF_WINDOW = 7  # reference samples on each side of a job
# what each reference takes on the host the figures are scaled to
REF_MS = {"interp": 1.5, "bigint": 0.8, "proc": 110.0}
# the reference process: a fresh interpreter importing a fixed set of
# standard-library modules.  It follows the host's speed at starting
# processes and importing, which the kernels below do not
REF_PROC = (sys.executable, "-c",
            "import argparse, dataclasses, fractions, hashlib, json, random, re, tempfile")
# the interpreter kernel: a sparse product of two fixed 12-term polynomials
# with Fraction exponent pairs as keys, the kind of work wittforge's lift
# rings do.  It follows the host's speed changes on the workloads much more
# closely than a plain dict-and-int loop did
_REF_A = tuple(((Fraction(i, 9), Fraction(-i, 3)), (i * 7) % 27) for i in range(1, 13))
_REF_B = tuple(((Fraction(2 * i, 27), Fraction(i, 9)), (i * 5) % 27) for i in range(1, 13))


def reference_loop():
    """The two kernels, timed apart: Fraction-keyed polynomial product and
    big-integer products.

    Returns {kernel: seconds}.  Jobs dominated by big-integer arithmetic are
    scaled by the second kernel, everything else by the first (the host's
    slowdowns hit the two kinds of work by different amounts).
    """
    gc_was = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    out: dict = {}
    for ka, ca in _REF_A:
        for kb, cb in _REF_B:
            k = (ka[0] + kb[0], ka[1] + kb[1])
            v = (out.get(k, 0) + ca * cb) % 27
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    t1 = time.perf_counter()
    acc = 0
    a, b = 9, -8
    for _ in range(8):
        for i in range(1, 50):
            acc += i * a ** (i + 70) * b ** (125 - i) * a ** 25
    t2 = time.perf_counter()
    if gc_was:
        gc.enable()
    return {"interp": t1 - t0, "bigint": t2 - t1}


class Wf:
    """The freshly imported wittforge modules, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"wittforge.{name}"))


def purge():
    for name in [m for m in sys.modules if m == "wittforge" or m.startswith("wittforge.")]:
        del sys.modules[name]
    gc.collect()


def cold_setup(name, seed, src, cache_dir):
    """One set-up in a fresh interpreter (cold_setup.py), from an empty cache.

    Returns raw seconds (interpreter start and package import, set-up
    proper); the child's drawing of the benchmark's inputs between the two
    is left out.
    """
    os.makedirs(cache_dir)
    env = dict(os.environ, WITTFORGE_CACHE=cache_dir, PYTHONPATH=src)
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, COLD_SETUP, name, str(seed)], env=env,
                          stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    t_import, t0, t1 = json.loads(proc.stdout.splitlines()[-1])
    return t_import - t_spawn, t1 - t0


def ref_process() -> float:
    t0 = time.monotonic()
    subprocess.run(REF_PROC, check=True, timeout=120)
    return time.monotonic() - t0


def warm_setup(workload, inputs, tr, cache_dir):
    """Import and set up in this process, untimed: the state the jobs run on."""
    purge()
    os.makedirs(cache_dir)
    os.environ["WITTFORGE_CACHE"] = cache_dir
    wf = Wf()
    return wf, workload[1](wf, inputs, tr)


def warm_up(jobs, tr):
    """One untimed, unchecked round that fills the module memos."""
    was = tr.enabled
    tr.enabled = False
    run_rounds(jobs, math.inf, 0, 1, tr, check_first=False)
    tr.enabled = was


def run_rounds(jobs, deadline, min_jobs, max_rounds, tr, check_first=True):
    """Whole rounds until the deadline and min_jobs are both reached.

    Returns per-job (raw seconds, reference kernel seconds, ok, kernel used
    to scale the job) and check messages.
    """
    samples = []
    problems = []
    keys = {}
    rounds = 0
    while True:
        for idx, job in enumerate(jobs):
            ref = reference_loop()
            t0 = time.perf_counter()
            try:
                ok, out = job.run()
            except Exception as exc:  # a failed operation, counted in `failed`
                ok, out = False, exc
            dt = time.perf_counter() - t0
            samples.append((dt, ref, ok, job.ref))
            if not ok:
                continue
            was = tr.enabled
            tr.enabled = False
            try:
                if rounds == 0 and check_first:
                    msg = job.check(out)
                    if msg:
                        problems.append(f"{job.label}: {msg}")
                    keys[idx] = job.key(out)
                elif idx in keys and job.key(out) != keys[idx]:
                    problems.append(f"{job.label}: output differs from round 1")
            except Exception as exc:
                problems.append(f"{job.label}: check raised {exc!r}")
            finally:
                tr.enabled = was
        rounds += 1
        if rounds >= max_rounds or (time.perf_counter() >= deadline
                                    and len(samples) >= min_jobs):
            return samples, problems


def normalised(samples):
    """Per-job seconds scaled by the median reference time around each job."""
    out = []
    for i, (dt, _, ok, kind) in enumerate(samples):
        near = samples[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
        ref = statistics.median(s[1][kind] for s in near)
        out.append((dt * REF_MS[kind] / (1000 * ref), ok))
    return out


def per_job_medians(norm, n):
    """Median time of each of the n jobs of a round over the rounds run."""
    return [statistics.median(t for t, _ in norm[j::n]) for j in range(n)]


def latency_metrics(times):
    q = statistics.quantiles(times, n=10)
    return statistics.median(times) * 1000, q[8] * 1000


def jobs_per_s(samples, n):
    """Completed jobs per second of the median round (rounds have n jobs)."""
    rounds = [samples[i:i + n] for i in range(0, len(samples), n)]
    done = sum(1 for _, ok in rounds[0] if ok)
    return done / statistics.median(sum(t for t, _ in r) for r in rounds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    workload = wl.WORKLOADS[args.workload]
    inputs = workload[0](args.seed)
    tr = trc.Tracer()
    cache_root = os.path.join(args.tmp, "cache")

    if args.trace:
        # two copies of the package side by side: one plain, one wrapped.
        # Their rounds alternate, so host drift hits both alike; the counts
        # depend on the inputs only, never on the run length
        plain = trc.Tracer()  # never enabled
        _, state_a = warm_setup(workload, inputs, plain,
                                os.path.join(cache_root, "plain"))
        jobs_a = workload[2](state_a)
        purge()
        os.makedirs(os.path.join(cache_root, "traced"))
        os.environ["WITTFORGE_CACHE"] = os.path.join(cache_root, "traced")
        wf = Wf()
        tr.install()
        tr.enabled = True
        jobs_b = workload[2](workload[1](wf, inputs, tr))
        warm_up(jobs_a, plain)
        warm_up(jobs_b, tr)
        base, samples, problems = [], [], []
        for r in range(TRACE_ROUNDS[args.workload]):
            base += run_rounds(jobs_a, math.inf, 0, 1, plain, False)[0]
            s, p = run_rounds(jobs_b, math.inf, 0, 1, tr, check_first=r == 0)
            samples += s
            problems += p
        wl.probe(wf, tr)
        tr.enabled = False
        n = len(jobs_b)
        overhead = sum(per_job_medians(normalised(samples), n)) / sum(
            per_job_medians(normalised(base), n)) - 1.0
        metrics = tr.metrics(100.0 * overhead)
    else:
        # the first set-up fills the private bytecode cache and is not timed:
        # timed ones load bytecode, as an installed package does
        cold_setup(args.workload, args.seed, args.src, os.path.join(cache_root, "warm"))
        ref_process()
        setups, procs = [], [ref_process()]
        for k in range(SETUP_REPS[args.workload]):
            setups.append(cold_setup(args.workload, args.seed, args.src,
                                     os.path.join(cache_root, str(k))))
            procs.append(ref_process())
        _, state = warm_setup(workload, inputs, tr, os.path.join(cache_root, "run"))
        jobs = workload[2](state)
        warm_up(jobs, tr)
        gc.collect()
        deadline = time.perf_counter() + args.seconds
        samples, problems = run_rounds(jobs, deadline, MIN_JOBS, 10 ** 9, tr)
        norm = normalised(samples)
        raw = [(dt, ok) for dt, _, ok, _ in samples]
        p50, p90 = latency_metrics([t for t, ok in norm if ok])
        r50, r90 = latency_metrics([t for t, ok in raw if ok])
        ref = {k: statistics.median(r[k] for _, r, _, _ in samples)
               for k in ("interp", "bigint")}
        ref["proc"] = statistics.median(procs)
        # the set-up proper is scaled by the kernel time of the whole job
        # phase: kernels timed back to back between set-up processes ran
        # faster than between jobs, and by varying amounts
        setup_s = statistics.median(
            i * REF_MS["proc"] / (1000 * ref["proc"])
            + s * REF_MS["interp"] / (1000 * ref["interp"]) for i, s in setups)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": jobs_per_s(norm, len(jobs)), "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "latency_p90_ms": {"value": p90, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        raw_line = {
            "raw_setup_s": statistics.median(i + s for i, s in setups),
            "raw_import_s": statistics.median(i for i, _ in setups),
            "raw_jobs_per_s": jobs_per_s(raw, len(jobs)), "raw_latency_p50_ms": r50,
            "raw_latency_p90_ms": r90,
            **{f"ref_{k}_ms": 1000 * v for k, v in ref.items()},
            "jobs": len(samples), "worker_s": time.perf_counter() - T_START,
        }
        print("raw: " + json.dumps(raw_line), file=sys.stderr)
    for msg in problems[:5]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": sum(1 for _, _, ok, _ in samples if not ok),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
