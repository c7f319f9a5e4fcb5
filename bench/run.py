"""flipkit benchmark: one workload per run, as a closed loop with one caller.

Run from the root of a checkout (the script changes into it regardless):

    python3 bench/run.py --workload metric|search|sweep --seed N --seconds S --trace 0|1

A run measures passes over the workload's job list for ``--seconds``
seconds.  Each pass starts from a fresh set-up (flipkit imported anew from
the checkout's ``src/``, the job inputs built anew, warm-up) and runs the
jobs in its own seeded order, so nothing a pass leaves in flipkit's modules
or in the job inputs can serve a later pass.  Every job output is checked
against the digest recorded for it in ``bench/digests.json``; a job that
raises or differs counts as failed.  The last line of stdout is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
``wall_s`` is the median over the passes of a pass's time (the sum of its
job latencies).  ``job_p50_ms`` is the median of every job latency of every
pass: the jobs are dense there, so it averages the host's moment-to-moment
noise over many of them.  ``job_p90_ms`` is taken over each job's median
latency across the passes, by the Harrell-Davis estimator (a weighted mean
of all order statistics): the jobs are sparse there, and a percentile over
every latency would let the few latencies of short jobs that load from
other programs stretches crowd in.
``setup_s`` is the median of ``SETUP_REPS`` set-ups spread evenly over the
run: the one before each pass and more in between (numpy is imported once,
before them).
``failed_frac`` is ``failed / attempted`` of that line.

Times are given at a fixed host speed.  The benchmark shares its cores with
other programs, whose load changes the speed of the same code by 10-30%
from one minute to the next, and even the best of several passes follows
it.  So the run also times a fixed calibration task (plain Python, small
numpy calls and a batched boolean matmul, no flipkit): once between jobs
whenever ``CAL_EVERY_S`` has passed, and ``CAL_BURST`` times after every
set-up.
Each pass's latencies are scaled by ``CAL_NOMINAL_S`` over the median of
the task's times in that pass, and each set-up by the same ratio for the
burst that follows it.  A change to flipkit moves the job times and not
the task, so it shows in full; the host's speed moves both and cancels.
The unscaled numbers and the factors go to the run's record.

With ``--trace 1`` half the time goes to untraced passes, then one set-up
and one pass run traced, and the metrics are the per-layer ones of the
traced pass (``setup.generators.gnp.self_s`` is of the traced set-up); the
spans, set-up included, go to ``bench/out/<workload>.spans.npz``.  Every
run also writes its full record, environment included, to
``bench/out/<workload>.trace<0|1>.json``.

Other modes: ``--size tiny`` runs the first few jobs only (the self-test
uses it), ``--corrupt`` alters one job output inside the checker, and
``--record`` rewrites this workload's digests from the current code.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = ("graphs", "flips", "metrics", "vc", "conversion", "breaksep",
           "generators", "fileio", "verify", "cli")

#: The default seed and the held-out seed the digests are recorded under.
RECORD_SEEDS = (0, 7)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 31

#: Order index of the traced pass, fixed so its counts repeat exactly.
TRACED_PASS = 1000

#: Jobs per workload at full and at self-test size.
SIZES = {"full": {"metric": 100, "search": 100, "sweep": 300},
         "tiny": {"metric": 12, "search": 12, "sweep": 20}}

#: Cheap jobs run once during set-up, so lazy costs are paid before timing.
#: They are the jobs at these offsets past the end of the list, which no
#: pass runs: a pass never meets an input the warm-up has already seen.
WARM_UP = {"metric": (1, 3, 5), "search": (3, 9), "sweep": (1, 2, 4, 7)}

#: Calibration: samples after every set-up, the least time between two
#: samples in a pass, and the median time of the task that reported times
#: are scaled to (typical of the 2-core Intel Xeon VM the baseline was
#: measured on).
CAL_BURST = 25
CAL_EVERY_S = 0.05
CAL_NOMINAL_S = 0.003

_CAL_ADJ = np.random.default_rng(0).random((256, 9, 9)) < 0.3
_CAL_ONE = _CAL_ADJ[0]
_CAL_EYE = np.eye(9, dtype=bool)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupError(RuntimeError):
    pass


def load_flipkit() -> types.SimpleNamespace:
    """A fresh import of flipkit from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "flipkit" / "__init__.py").is_file():
        raise SetupError(f"no flipkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "flipkit" or m.startswith("flipkit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("flipkit")
    if Path(pkg.__file__).resolve().parent != (src / "flipkit").resolve():
        raise SetupError(f"imported flipkit from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"flipkit.{m}") for m in MODULES})


def build_jobs(lib, workload: str, seed: int, count: int) -> list:
    """The first ``count`` jobs of the workload; their inputs do not depend
    on how many are built."""
    if workload == "metric":
        return workloads.metric_jobs(lib, seed, count)
    if workload == "search":
        return workloads.search_jobs(lib, count)
    return workloads.sweep_jobs(lib, workloads.write_sweep_instances(lib, ROOT), count)


def setup(workload: str, seed: int, count: int, lib=None):
    """Import (unless ``lib`` is given), build the inputs, warm up."""
    t0 = time.perf_counter()
    if lib is None:
        lib = load_flipkit()
    jobs = build_jobs(lib, workload, seed, count + max(WARM_UP[workload]) + 1)
    for i in WARM_UP[workload]:
        try:
            jobs[count + i].run()
        except Exception:  # a warm-up job is not checked
            pass
    return time.perf_counter() - t0, lib, jobs[:count]


def _calibration_task() -> int:
    """Interpreter work, many numpy calls on one small matrix (as a search
    makes per flip) and a batched matmul (as the metric kernel makes)."""
    d: dict[int, int] = {}
    for i in range(4000):
        d[i & 255] = d.get(i & 255, 0) + i
    for _ in range(60):
        r = _CAL_ONE | _CAL_EYE
        r = (r @ _CAL_ONE) | r
        (r & ~_CAL_ONE).any()
        np.full((9, 9), -1, dtype=np.int64)[r] = 1
    r = _CAL_ADJ | _CAL_EYE
    for _ in range(3):
        r = (r @ _CAL_ADJ) | r
    return int(r.sum()) + len(d)


def calibrate(reps: int) -> list[float]:
    """Times of ``reps`` runs of the calibration task."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _calibration_task()
        times.append(time.perf_counter() - t0)
    return times


def scaled_setup(workload: str, seed: int, count: int):
    """A set-up after a full collection, so that neither its time nor peak
    RSS depends on when the collector last ran (the caller drops the last
    set-up's flipkit, inputs and outputs first); its time is also given
    scaled by the calibration burst that follows it."""
    gc.collect()
    dt, lib, jobs = setup(workload, seed, count)
    return dt, dt * CAL_NOMINAL_S / statistics.median(calibrate(CAL_BURST)), lib, jobs


def harrell_davis(values, q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile of ``values``."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    # Beta(a, b) cdf at i/n, by the trapezoid rule on a fine grid.
    t = np.linspace(0, 1, 200 * n + 1)[1:-1]
    pdf = np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t))
    cdf = np.concatenate([[0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def run_pass(jobs, order, tracer=None, cal=None):
    """Run the jobs in ``order``; the next starts when the previous returns.
    With a ``cal`` list, a calibration time is appended to it before a job
    whenever ``CAL_EVERY_S`` has passed since the last one."""
    latencies, outputs = [], []
    t0 = time.perf_counter()
    last = -CAL_EVERY_S
    for i in order:
        ts = time.perf_counter()
        if cal is not None and ts - last >= CAL_EVERY_S:
            cal += calibrate(1)
            last = ts = time.perf_counter()
        try:
            out = (True, jobs[i].run())
        except Exception as exc:  # a failing job is counted, not fatal
            out = (False, repr(exc))
        latencies.append(time.perf_counter() - ts)
        outputs.append(out)
        if tracer is not None:
            tracer.end_job()
    return time.perf_counter() - t0, latencies, outputs


def digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"), sort_keys=True, default=int)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def output_digests(jobs, order, outputs, corrupt=False) -> dict:
    """Job key -> digest of its canonical output (None for a raised job).
    With ``corrupt``, the first job's output is altered before digesting."""
    out = {}
    for n, (i, (ok, value)) in enumerate(zip(order, outputs)):
        job = jobs[i]
        canon = job.canon(value) if ok else None
        if corrupt and n == 0:
            canon = ["corrupted", canon]
        out[job.key] = digest(canon) if ok else None
    return out


def count_failed(got: dict, expected: dict) -> int:
    return sum(1 for key, d in got.items() if d is None or d != expected.get(key))


def environment() -> dict:
    model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def pass_order(seed: int, index: int, n: int) -> list[int]:
    order = list(range(n))
    random.Random(f"{seed}/{index}").shuffle(order)
    return order


def record_digests(workload: str, count: int) -> None:
    """Rewrite this workload's digests; both record seeds must agree."""
    seen = []
    for seed in RECORD_SEEDS:
        _, _, jobs = setup(workload, seed, count)
        order = pass_order(seed, 0, len(jobs))
        _, _, outputs = run_pass(jobs, order)
        got = output_digests(jobs, order, outputs)
        if None in got.values():
            raise SystemExit(f"record: a {workload} job raised under seed {seed}")
        seen.append(got)
    if seen[0] != seen[1]:
        bad = sorted(k for k in seen[0] if seen[0][k] != seen[1].get(k))
        raise SystemExit(f"record: seeds {RECORD_SEEDS} disagree on {bad[:5]}")
    path = BENCH / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    table[workload] = dict(sorted(seen[0].items()))
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(seen[0])} {workload} digests")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("metric", "search", "sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    count = SIZES[args.size][args.workload]
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, cpus, rows, pass_scales = [], [], [], []
    setups, setups_unscaled = [], []
    attempted = failed = 0
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.record:
            record_digests(args.workload, count)
            return 0
        expected = json.loads((BENCH / "digests.json").read_text())[args.workload]
        calibrate(CAL_BURST)
        t_start = time.perf_counter()
        while True:
            # The pass's own set-up, then more while the clock says they are
            # due, so that the set-ups spread evenly over the run.
            while True:
                lib = jobs = outputs = None
                dt, scaled, lib, jobs = scaled_setup(args.workload, args.seed, count)
                setups_unscaled.append(dt)
                setups.append(scaled)
                spent = time.perf_counter() - t_start
                if len(setups) >= min(SETUP_REPS * spent / budget, SETUP_REPS):
                    break
            order = pass_order(args.seed, len(walls), len(jobs))
            c0 = time.process_time()
            cal = []
            wall, lat, outputs = run_pass(jobs, order, cal=cal)
            cpus.append(time.process_time() - c0)
            walls.append(wall)
            pass_scales.append(CAL_NOMINAL_S / statistics.median(cal))
            row = np.empty(len(jobs))
            row[order] = lat
            rows.append(row)
            attempted += len(order)
            failed += count_failed(output_digests(jobs, order, outputs, args.corrupt), expected)
            spent = time.perf_counter() - t_start
            if spent + statistics.median(walls) + statistics.median(setups) > budget:
                break
        while len(setups) < SETUP_REPS:
            lib = jobs = outputs = None
            dt, scaled, lib, jobs = scaled_setup(args.workload, args.seed, count)
            setups_unscaled.append(dt)
            setups.append(scaled)
    except (SetupError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"bench: set-up failed: {exc!r}", file=sys.stderr)
        return 2

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": environment(),
        "jobs_per_pass": len(jobs), "passes": len(walls), "pass_wall_s": walls,
        "pass_scales": pass_scales, "setup_runs_s": setups,
        "setup_runs_unscaled_s": setups_unscaled,
    }
    if args.trace:
        lib = load_flipkit()
        tracer = Tracer()
        tracer.install(lib)
        try:
            setup_start = time.perf_counter()
            _, _, jobs = setup(args.workload, args.seed, count, lib=lib)
            order = pass_order(args.seed, TRACED_PASS, len(jobs))
            tracer.reset_counts()
            pass_start = time.perf_counter()
            traced_wall, _, outputs = run_pass(jobs, order, tracer)
            pass_end = time.perf_counter()
        finally:
            tracer.uninstall()
        attempted += len(order)
        failed += count_failed(output_digests(jobs, order, outputs, args.corrupt), expected)
        values = tracer.metrics(pass_start, pass_end)
        set_up = tracer.metrics(setup_start, pass_start)
        values["setup.generators.gnp.self_s"] = set_up.get("generators.gnp.self_s", 0.0)
        values["process.cpu_s"] = statistics.median(cpus)
        values["trace.overhead"] = traced_wall / float(np.median(np.sum(rows, axis=1)))
        tracer.dump(OUT / f"{args.workload}.spans.npz")
        wanted = spec["per_layer"]
        report["traced_pass_s"] = traced_wall
    else:
        scaled = np.array(rows) * np.array(pass_scales)[:, None]
        values = {
            "wall_s": float(np.median(scaled.sum(axis=1))),
            "job_p50_ms": float(np.median(scaled)) * 1000,
            "job_p90_ms": harrell_davis(np.median(scaled, axis=0), 0.9) * 1000,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        if m["name"] not in values:
            absent.append(m["name"])
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report.update(failed_frac=failed / attempted, absent=absent,
                   all_values=values, result=result)
    if args.trace:
        report["absent_functions"] = tracer.absent
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str) + "\n"
    )
    print(f"# {args.workload} seed={args.seed} passes={len(walls)} jobs/pass={len(jobs)} "
          f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.4f}")
    print(f"# time scale per pass {min(pass_scales):.3f}-{max(pass_scales):.3f}, "
          f"median pass wall {statistics.median(walls):.3f} s")
    print("# env " + json.dumps(report["environment"], sort_keys=True))
    if absent:
        print("# absent " + " ".join(absent))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
