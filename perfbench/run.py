"""Benchmark runner for llinf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one caller in this process, for
``S`` seconds of job time and at least ``MIN_JOBS`` jobs, rounded up to
whole passes over the seeded inputs, checking every job's output against
an independent reference outside the timed region.  The timing metrics
take each distinct job at its fastest repetition, read against a
reference loop timed between jobs (:class:`HostGauge`).  ``--trace 0`` reports
the end-to-end metrics listed in ``BENCHMARK.json``; ``--trace 1``
installs the span tracer and reports the per-layer ones instead.  ``--workload all`` runs each workload in a
fresh child process, one after the other.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A readable
table goes before it, and a result file goes to ``perfbench/out/``.
The exit code is 0 when every output was right (failures in a job's
declared known-defect category are counted, not fatal), 1 when one was
wrong, and 2 when the run could not start.  See ``perfbench/README.md``.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("stream_eval", "stream_decode", "analyse", "suites")
SETUP_REPEATS = 5
MIN_JOBS = 100
LOOP_CAP_S = 120.0        # wall-clock cap on the loop, so a run ends < 180 s
DETERMINISTIC = ("reduction.steps", "wellform.check.states",
                 "walk.reduction.redex_scan")


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    src = ROOT / "src"
    if not (src / "llinf" / "__init__.py").is_file():
        _die(f"no llinf sources under {src}")
    sys.path.insert(0, str(src))
    import llinf
    if Path(llinf.__file__).resolve().parent != (src / "llinf").resolve():
        _die(f"imported llinf from {llinf.__file__}, not from {src}")


def _manifest():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _die("BENCHMARK.json is missing")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _src_files():
    return sorted((ROOT / "src" / "llinf").glob("*.py"))


def _src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in _src_files())


def _code_hash():
    h = hashlib.sha256()
    for p in _src_files() + sorted(BENCH.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# one job

def _time_job(job):
    t0 = time.perf_counter()
    try:
        out, exc = job.run(), None
    except Exception as e:  # every failure is counted, none aborts the run
        out, exc = None, e
    return time.perf_counter() - t0, out, exc


def _categorise(job, out, exc):
    """None for a right answer, else ``(category, detail)``."""
    from llinf.errors import BudgetExceededError, EncodingError
    if exc is None:
        return job.check(out)
    if isinstance(exc, RecursionError):
        return ("RecursionError", str(exc))
    if isinstance(exc, BudgetExceededError):
        return ("BudgetExceededError", str(exc))
    if isinstance(exc, EncodingError) and "fuel exhausted" in str(exc):
        return ("fuel", str(exc))
    return ("exception", f"{type(exc).__name__}: {exc}")


class Tally:
    """Failure accounting by category; a failure outside the job's
    declared known-defect category makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.by_category = {}
        self.unexpected = []

    def add(self, job, verdict):
        self.attempted += 1
        if verdict is None:
            return
        category, detail = verdict
        self.by_category[category] = self.by_category.get(category, 0) + 1
        if category != job.known_failure and len(self.unexpected) < 20:
            self.unexpected.append(f"{job.key}: {category}: {detail[:300]}")

    @property
    def failed(self):
        return sum(self.by_category.values())


class HostGauge:
    """Samples of a fixed pure-Python reference loop, taken between jobs.

    On a shared host the speed a process gets drifts by tens of percent
    for seconds to minutes at a time, and whole runs can fall into a slow
    phase, which no statistic over the run's own job times removes.  The
    loop runs no ``llinf`` code, so its time tracks only the host: a job's
    time is read against the loop's time at the moment the job ran
    (:meth:`corrected`), scaled to a nominal host on which one loop takes
    ``NOMINAL_S``.  A change to the program moves the job times and not
    the loop, so it shows in full."""

    LOOPS = 20_000
    NOMINAL_S = 0.001        # the loop's time on the nominal host
    EVERY_S = 0.05           # at most one sample per this much wall time
    NEAR = 2                 # samples on each side of a job that count

    def __init__(self):
        self.at = []         # perf_counter() when each sample was taken
        self.took = []

    def sample(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.LOOPS):
            acc += i * i % 7
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def maybe_sample(self):
        if not self.at or time.perf_counter() - self.at[-1] >= self.EVERY_S:
            self.sample()

    def corrected(self, t0, dt):
        """``dt`` seconds measured from ``t0``, as they would read on the
        nominal host.  The loop's local time is the fastest of the
        ``NEAR`` samples on each side, as a job's time is its fastest
        repetition: both then read the host at its best nearby moment.
        (The median of the samples, tried too, over-corrects the short
        ``analyse`` and ``suites`` jobs in noisy phases.)"""
        k = bisect.bisect_left(self.at, t0)
        local = min(self.took[max(0, k - self.NEAR):k + self.NEAR])
        return dt * self.NOMINAL_S / local

    def ms(self):
        return [1000 * min(self.took), 1000 * statistics.median(self.took)]


def _p90(values):
    """Nearest-rank 90th percentile."""
    s = sorted(values)
    return s[max(0, -(-9 * len(s) // 10) - 1)]


def _quantile(values, p, steps=32):
    """Harrell-Davis estimate of the ``p``-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution over
    their ranks.  On 15 stream jobs the nearest-rank p90 is one job, so a
    slow phase that catches that job moves the metric by its whole size;
    this estimate spreads the weight over the jobs around the rank.  The
    weights are the Beta density integrated over each rank's interval by
    the midpoint rule, in logs so that large ``n`` does not underflow."""
    s = sorted(values)
    n = len(s)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = []
    for i in range(n):
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            logs.append((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    top = max(logs)
    w = [sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps])
         for i in range(n)]
    return sum(wi * si for wi, si in zip(w, s)) / sum(w)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def _build_untraced(workloads, name, seed, gauge):
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        gauge.sample()
        t0 = time.perf_counter()
        jobs = workloads.BUILDERS[name](seed)
        dt = time.perf_counter() - t0
        gauge.sample()
        raw.append(dt)
        times.append(gauge.corrected(t0, dt))
    return jobs, statistics.median(times), statistics.median(raw)


def run_untraced(workloads, name, seed, seconds, gauge, import_t):
    jobs, build_s, raw_build_s = _build_untraced(workloads, name, seed, gauge)
    import_s = gauge.corrected(*import_t)
    tally = Tally()
    reps = []               # (job index, start, wall seconds)
    spent = 0.0
    loop_t0 = time.perf_counter()
    # whole passes only, so every job is repeated as often as the others
    while (spent < seconds or len(reps) < MIN_JOBS
           or len(reps) % len(jobs)) \
            and time.perf_counter() - loop_t0 < LOOP_CAP_S:
        j = len(reps) % len(jobs)
        job = jobs[j]
        gauge.maybe_sample()
        t0 = time.perf_counter()
        dt, out, exc = _time_job(job)
        reps.append((j, t0, dt))
        spent += dt
        tally.add(job, _categorise(job, out, exc))
    gauge.sample()
    # Each job's time is its fastest repetition read against the host's
    # speed when it ran (HostGauge): the fastest repetition drops the
    # sub-second stalls, the gauge the slow phases that outlast a run.
    best = {}
    for j, t0, dt in reps:
        c = gauge.corrected(t0, dt)
        best[j] = min(best.get(j, c), c)
    fastest = list(best.values())
    durations = [dt for _, _, dt in reps]
    metrics = {
        "setup_s": import_s + build_s,
        "jobs_per_s": len(fastest) / sum(fastest),
        "job_ms.p50": 1000 * _quantile(fastest, 0.5),
        "job_ms.p90": 1000 * _quantile(fastest, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - tally.failed / tally.attempted,
    }
    info = {"samples": len(durations), "distinct_jobs": len(jobs),
            "passes": len(durations) / len(jobs), "job_seconds": spent,
            "wall_jobs_per_s": len(durations) / spent,
            "wall_job_ms.p50": 1000 * statistics.median(durations),
            "wall_job_ms.p90": 1000 * _p90(durations),
            "wall_setup_s": import_t[1] + raw_build_s,
            "import_s": import_s, "build_s": build_s,
            "gauge_samples": len(gauge.took),
            "machine_gauge_ms": gauge.ms(),
            "fail_ratio": tally.failed / tally.attempted}
    return metrics, info, tally


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def _diff(after, before):
    out = {}
    for key in ("self_s", "total_s", "calls", "count"):
        a, b = after[key], before[key]
        out[key] = {k: a[k] - b.get(k, 0) for k in a}
    out["graph_defs_max"] = after["graph_defs_max"]
    out["gc_s"] = after["gc_s"] - before["gc_s"]
    out["gc_runs"] = after["gc_runs"] - before["gc_runs"]
    return out


SETUP_SPANS = ("generate.random_term", "encodings.scott_encode")
COUNTS = ("surface.format.chars", "terms.graph_init.validated_calls",
          "terms.project_depth.nodes", "wellform.check.states",
          "reduction.steps", "encodings.scott_decode.constructors")


def _layer_metrics(setup, snap, extra):
    """Per-layer metrics over one pass of the jobs (set-up layers over
    the set-up).  ``*.ms`` is self time: span time minus child spans."""
    from tracer import PROPERTY_CASES, SPAN_NAMES

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in SPAN_NAMES:
        src = setup if name in SETUP_SPANS else snap
        m[f"{name}.calls"] = src["calls"].get(name, 0)
        m[f"{name}.ms"] = 1000 * src["self_s"].get(name, 0.0)
    for suite in PROPERTY_CASES.values():
        m[f"properties.{suite}.cases"] = m[f"properties.{suite}.calls"]
    k = snap["count"]
    m.update({key: k.get(key, 0) for key in COUNTS})
    m.update({
        "surface.parse.chars_per_ms": ratio(k.get("surface.parse.chars", 0),
                                            m["surface.parse.ms"]),
        "terms.pruned.useful_ratio": ratio(k.get("terms.pruned.useful", 0),
                                           m["terms.pruned.calls"]),
        "terms.graph_defs.max": snap["graph_defs_max"],
        "reduction.redex_scan.nodes": k.get("walk.reduction.redex_scan", 0),
        "reduction.redex_scan.hit_ratio": ratio(
            k.get("reduction.redex_scan.hits", 0),
            m["reduction.redex_scan.calls"]),
        "generate.random_term.useful_ratio": ratio(
            m["generate.random_term.calls"],
            setup["count"].get("TermGen.term", 0)),
        "properties.useful_ratio": ratio(k.get("properties.useful", 0),
                                         k.get("properties.cases", 0)),
        "runtime.gc.collections": snap["gc_runs"],
        "runtime.gc.ms": 1000 * snap["gc_s"],
    })
    m.update(extra)
    return m


def _step_cost_growth(per_job):
    """Mean contract time per step on the deepest quarter of the jobs
    over the shallowest quarter; ``per_job`` is (size, ms, steps)."""
    rows = sorted((size, ms / steps) for size, ms, steps in per_job if steps)
    q = len(rows) // 4
    if q == 0:
        return 0.0, 0.0, 0.0
    shallow = statistics.mean(v for _, v in rows[:q])
    deep = statistics.mean(v for _, v in rows[-q:])
    return deep / shallow, deep, shallow


def _cross_run_check(name, seed, counts):
    """Compare the deterministic counts with the last traced run of the
    same workload, seed and code; returns the names that differ."""
    path = OUT / "counts.json"
    try:
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    except (OSError, ValueError):
        seen = {}
    key = f"{name}:{seed}:{_code_hash()}"
    before = seen.get(key)
    seen[key] = counts
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    if before is None:
        return []
    return sorted(k for k in counts if before.get(k) != counts[k])


def run_traced(workloads, name, seed, seconds):
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    jobs = workloads.BUILDERS[name](seed)
    tracer.uninstall()
    setup = tracer.snapshot()
    tracer.graph_defs_max = 0

    tally = Tally()
    plain, traced = [], []
    first_counts = {}
    mismatches = []
    per_job = []
    pass1 = None
    spent = 0.0
    loop_t0 = time.perf_counter()
    done = 0
    while pass1 is None or spent < seconds:
        if time.perf_counter() - loop_t0 > LOOP_CAP_S:
            mismatches.append("the first pass did not finish within the loop cap")
            pass1 = tracer.snapshot()
            break
        j = done % len(jobs)
        job = jobs[j]
        # alternate which twin runs first, so neither always finds warm caches
        for with_trace in ((True, False) if done % 2 else (False, True)):
            if with_trace:
                tracer.job = j
                before = tracer.snapshot()
                tracer.install()
                dt, out, exc = _time_job(job)
                tracer.uninstall()
                d = _diff(tracer.snapshot(), before)
                counts = tuple(d["count"].get(k, 0) for k in DETERMINISTIC)
                if j not in first_counts:
                    first_counts[j] = counts
                    per_job.append((job.size,
                                    1000 * d["total_s"].get("reduction.contract", 0.0),
                                    d["calls"].get("reduction.contract", 0)))
                elif counts != first_counts[j]:
                    mismatches.append(f"job {job.key}: {counts} != {first_counts[j]}")
                traced.append(dt)
            else:
                dt, out, exc = _time_job(job)
                plain.append(dt)
            spent += dt
            tally.add(job, _categorise(job, out, exc))
        done += 1
        if done == len(jobs):
            pass1 = tracer.snapshot()

    snap = _diff(pass1, setup)
    growth, deep, shallow = _step_cost_growth(per_job)
    totals = {k: sum(c[i] for c in first_counts.values())
              for i, k in enumerate(DETERMINISTIC)}
    cross = _cross_run_check(name, seed, totals)
    mismatches += [f"{k} differs from the last run of this code" for k in cross]
    extra = {
        "reduction.step_cost_growth": growth,
        "reduction.step_cost_growth.deep_ms": deep,
        "reduction.step_cost_growth.shallow_ms": shallow,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
        "trace.count_mismatches": len(mismatches),
    }
    metrics = _layer_metrics(setup, snap, extra)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl.gz")
    info = {"samples": len(traced), "untraced_samples": len(plain),
            "distinct_jobs": len(jobs), "passes": done / len(jobs),
            "job_seconds": spent,
            "spans": len(tracer.spans), "tracer_hook_s": tracer.hook_s,
            "deterministic_counts": totals, "determinism_flags": mismatches,
            "fail_ratio": tally.failed / tally.attempted}
    for flag in mismatches:
        print(f"perfbench: determinism flag: {flag}", file=sys.stderr)
    return metrics, info, tally


# ---------------------------------------------------------------------------

def run_all(args):
    """Each workload in its own fresh process, one after the other."""
    summary, worst = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        try:
            summary[name] = json.loads(lines.pop())
        except ValueError:
            summary[name] = None
        if lines:
            print("\n".join(lines))
        worst = max(worst, proc.returncode)
    print(json.dumps(summary))
    return worst


HASH_SEED = "0"


def _pin_hash_seed():
    """Re-execute this process with string hashing fixed.  Set iteration
    order follows the hash seed, and ``llinf`` iterates sets of names, so
    under Python's per-process random seed the same inputs cost up to
    ~10% more or less from one process to the next (``analyse``, seed
    61: jobs_per_s 227..275 over three hash seeds, 248..256 over three
    runs at one).  Fixed, the runs of one commit repeat, and a parent and
    a change are measured under the same hash order."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})


def main():
    _pin_hash_seed()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="default: default_seed in perfbench/manifest.json")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    manifest = _manifest()
    if args.seconds is None:
        args.seconds = manifest["run_seconds"]
    if args.seed is None:
        with open(BENCH / "manifest.json", encoding="utf-8") as fh:
            args.seed = json.load(fh)["default_seed"]
    if args.workload == "all":
        return run_all(args)

    gauge = HostGauge()
    for _ in range(3):
        gauge.sample()
    t0 = time.perf_counter()
    _import_program()
    import workloads
    import_t = (t0, time.perf_counter() - t0)

    if args.trace:
        values, info, tally = run_traced(workloads, args.workload, args.seed,
                                         args.seconds)
        wanted = manifest["per_layer"]
    else:
        values, info, tally = run_untraced(workloads, args.workload, args.seed,
                                           args.seconds, gauge, import_t)
        wanted = manifest["end_to_end"]
    problems = list(tally.unexpected)
    problems += workloads.final_checks(args.workload)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        _die(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": not problems, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}

    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, src_lines=_src_lines(),
                failures_by_category=tally.by_category, problems=problems)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**info, "metrics": metrics, "correct": result["correct"]},
                  fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {info['samples']}  distinct jobs {info['distinct_jobs']}  "
          f"src_lines {info['src_lines']}")
    if "machine_gauge_ms" in info:
        print("reference loop fastest/median (ms): "
              + " ".join(f"{v:.2f}" for v in info["machine_gauge_ms"]))
    print(f"attempted {tally.attempted}  failed {tally.failed}  "
          f"fail_ratio {info['fail_ratio']:.4f}  by category {tally.by_category}")
    for problem in problems:
        print(f"WRONG: {problem}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
