"""Job lists for the three benchmark workloads.

Every workload is a fixed list of base jobs built from ``POOL_SEED``, so
each job's output is known at this commit and recorded in
``digests.json``.  The run seed acts on the inputs without changing what a
correct answer is: on ``metric`` it relabels the vertices of every instance
(outputs are mapped back before they are checked), and on every workload
it picks the order of the jobs in each pass.  The cost of a pass therefore
does not depend on the seed, and neither does the check.

Jobs reach flipkit only through ``lib.<module>.<function>`` looked up at
call time, so the tracer's wrappers on those module attributes see every
call.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Seed of the base instances; the run seed never changes them.
POOL_SEED = 20250516

#: Where the ``sweep`` workload writes its instance files, relative to the
#: checkout root.  The CLI echoes these paths, so they are part of the
#: recorded stdout and must not depend on where the checkout lives.
SWEEP_DIR = Path("bench/out/sweep")


@dataclass
class Job:
    key: str
    run: Callable[[], Any]
    #: Maps the output of ``run`` to plain ints and lists: the form digested.
    canon: Callable[[Any], Any]


def _matrix(d) -> list:
    return np.asarray(d, dtype=np.int64).tolist()


def _pairs(spec) -> list:
    return sorted(list(pair) for pair in spec.pairs)


def _parts(p) -> list:
    return [list(part) for part in p.parts]


# ---------------------------------------------------------------------------
# metric: all-pairs flip metrics and balls
# ---------------------------------------------------------------------------


def _relabel(lib, g0, sigma):
    """``g0`` with old vertex v renamed sigma[v]."""
    inv = np.argsort(sigma)
    return lib.graphs.Graph(g0.adj[np.ix_(inv, inv)])


def _definable_set(lib, g, rng, parts_ok):
    """A defining set of size 1-2 whose partition has an allowed part
    count, or None when a bounded number of draws finds none."""
    for _ in range(100):
        s = tuple(sorted(rng.sample(range(g.n), rng.choice((1, 2, 2)))))
        if len(lib.flips.definable_partition(g, s).parts) in parts_ok:
            return s
    return None


def _definable_instance(lib, rng, kind, n, part_counts):
    """A gnp graph with one or two defining sets of the wanted part counts."""
    while True:
        g0 = lib.generators.gnp(n, rng.choice((0.3, 0.4, 0.5)), seed=rng.randrange(1 << 30))
        sets0 = [_definable_set(lib, g0, rng, part_counts)]
        if kind != "def" and rng.random() < 0.7:
            sets0.append(_definable_set(lib, g0, rng, (3, 4)))
        if None not in sets0:
            return g0, sets0


#: One entry per slot of ten: (kind, vertex counts, part counts).  Raw
#: partitions ("part", "ball_part") have no singleton part; defining sets
#: bring their own singletons.  Six slots are 5-part (32,768 flips, two
#: chunks of 16,384) and four are 4-part (1,024 flips, under one chunk).
#: The median job falls among the forty 5-part jobs on n = 8 and the 90th
#: percentile among the twenty on n = 9, each well inside its class, so
#: both time two-chunk jobs.  This follows the measured prototype of the
#: workload: a median job of ~105 ms and a 90th percentile of ~195 ms.
_METRIC_SLOTS = (
    ("part", (8,), (5,)),
    ("part", (8, 9, 10), (4,)),
    ("def", (8,), (5,)),
    ("def", (8, 9, 10), (4,)),
    ("fam", (9,), (5,)),
    ("fam", (8, 9, 10), (4,)),
    ("ball_part", (8,), (5,)),
    ("ball_part", (8, 9, 10), (4,)),
    ("ball_fam", (8,), (5,)),
    ("part", (9,), (5,)),
)


def metric_jobs(lib, seed: int, count: int = 100) -> list[Job]:
    """All-pairs metric and ball jobs on gnp(8-10) over 4-5 part partitions.

    Half the slots use raw partitions, half use defining sets of size 1-2,
    alone or as a family of two.
    """
    relabel_rng = random.Random(seed)
    jobs = []
    for i in range(count):
        rng = random.Random(POOL_SEED * 1000 + i)
        kind, sizes, part_counts = _METRIC_SLOTS[i % len(_METRIC_SLOTS)]
        n = rng.choice(sizes)
        if kind in ("part", "ball_part"):
            g0 = lib.generators.gnp(n, rng.choice((0.3, 0.4, 0.5)), seed=rng.randrange(1 << 30))
        else:
            g0, sets0 = _definable_instance(lib, rng, kind, n, part_counts)
        sigma = list(range(n))
        relabel_rng.shuffle(sigma)
        sigma = np.array(sigma)
        inv = np.argsort(sigma)
        g = _relabel(lib, g0, sigma)
        vs = [int(sigma[v]) for v in rng.sample(range(n), rng.randint(1, 3))]
        r = rng.choice((1, 2))

        def back(d, sigma=sigma):
            return _matrix(np.asarray(d)[np.ix_(sigma, sigma)])

        def ball_back(b, inv=inv):
            return sorted(int(inv[v]) for v in b)

        if kind in ("part", "ball_part"):
            k = part_counts[0]
            labels = [v % k for v in range(n)]
            rng.shuffle(labels)
            p = lib.flips.Partition(
                n, [[int(sigma[v]) for v in range(n) if labels[v] == j] for j in range(k)]
            )
            if kind == "part":
                run = lambda g=g, p=p: lib.metrics.dist_partition_matrix(g, p, max_parts=5)
            else:
                run = lambda g=g, p=p, vs=vs, r=r: lib.metrics.ball_partition(
                    g, p, vs, r, max_parts=5
                )
        else:
            sets = [[int(sigma[v]) for v in s] for s in sets0]
            fam = lib.metrics.SetFamily(sets)
            if kind == "def":
                run = lambda g=g, s=sets[0]: lib.metrics.dist_definable_matrix(g, s, max_parts=5)
            elif kind == "fam":
                run = lambda g=g, fam=fam: lib.metrics.dist_family_matrix(g, fam, max_parts=5)
            else:
                run = lambda g=g, fam=fam, vs=vs, r=r: lib.metrics.ball_family(
                    g, fam, vs, r, max_parts=5
                )
        canon = ball_back if kind.startswith("ball") else back
        jobs.append(Job(f"metric/{i:03d}/{kind}", run, canon))
    return jobs


# ---------------------------------------------------------------------------
# search: budgeted searches
# ---------------------------------------------------------------------------


def _break_canon(res) -> list:
    return [_witness(res.witness), res.flips_tried, res.sets_tried, res.sets_skipped]


def _witness(w) -> list | None:
    if w is None:
        return None
    ds = list(w.defining_set) if w.defining_set is not None else None
    return [_parts(w.partition), _pairs(w.spec), ds, list(w.a1), list(w.a2), w.radius, w.m]


def _sep_canon(res) -> list:
    found = [_parts(res.partition), _pairs(res.spec)] if res.partition is not None else None
    return [found, res.partitions_tried, res.flips_tried]


def _emul_canon(res) -> list:
    w = res.witness
    found = None
    if w is not None:
        found = [list(w.defining_set), _pairs(w.spec), w.flipped.edges()]
    return [found, res.sets_tried, res.sets_skipped, res.flips_tried]


def _pipe_canon(res) -> list:
    return [_witness(res.witness), _sep_canon(res.separability)]


def _small_canon(res) -> list:
    def fam(f):
        return None if f is None else [list(s) for s in f.sets]

    step = None if res.failed_step is None else [str(x) for x in res.failed_step]
    return [fam(res.kept), fam(res.defining), res.selected_group, step, res.breakability_calls]


#: small_balls_orchestrate instances: (graph kind, params, set size t, 1/eps).
_SMALL_BALLS = [
    ("path", (12,), 1, 2), ("path", (12,), 1, 3), ("path", (12,), 2, 2),
    ("grid", (3, 4), 1, 2), ("grid", (3, 4), 1, 3), ("path", (16,), 1, 2),
    ("path", (16,), 1, 3), ("grid", (4, 4), 1, 2), ("path", (10,), 1, 2),
    ("grid", (3, 3), 1, 2),
]


def search_jobs(lib, count: int = 100) -> list[Job]:
    """Separability, breakability, definable emulation, the separability
    to breakability pipeline and small-balls orchestration.

    The run seed only orders the passes: a relabeled instance would change
    the candidate order, and with it the witness and every counter.
    """
    bs = lib.breaksep
    jobs = []
    for i in range(count):
        rng = random.Random(POOL_SEED * 2000 + i)
        slot = i % 10
        if slot in (0, 1, 2):
            kind = "separate"
            n = rng.choice((7, 8))
            k_max = 3 if (n == 7 and rng.random() < 0.35) else 2
            g = lib.generators.gnp(n, rng.choice((0.25, 0.35, 0.5)), seed=rng.randrange(1 << 30))
            w = bs.WeightFn([rng.randint(1, 5) for _ in range(n)])
            r = rng.choice((1, 2))
            eps = rng.choice((Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)))
            run = lambda g=g, w=w, r=r, eps=eps, k=k_max: lib.breaksep.separability_search(
                g, w, r, eps, k
            )
            canon = _sep_canon
        elif slot in (3, 4, 5):
            raw = slot == 5
            kind = "break_raw" if raw else "break_def"
            n = rng.choice((6, 7)) if raw else rng.choice((8, 9, 10))
            g = lib.generators.gnp(n, rng.choice((0.3, 0.5)), seed=rng.randrange(1 << 30))
            probes = sorted(rng.sample(range(n), rng.choice((4, 5, 6))))
            budget = bs.SearchBudget(
                s_max=rng.choice((1, 2)), part_cap=3 if raw else 4, raw_partitions=raw
            )
            r = rng.choice((1, 2))
            run = lambda g=g, W=probes, r=r, b=budget: lib.breaksep.breakability_search(
                g, W, r, 2, b
            )
            canon = _break_canon
        elif slot in (6, 7):
            kind = "emulate"
            n = rng.choice((7, 8, 9))
            g = lib.generators.gnp(n, rng.choice((0.3, 0.5)), seed=rng.randrange(1 << 30))
            if slot == 6:
                # the conversion's own flip: usually emulated within a few flips
                p = lib.flips.Partition.from_labels([rng.randrange(2) for _ in range(n)])
                target = lib.conversion.convert(g, p).flipped
                r_max, s_max = rng.choice((1, 2)), rng.choice((1, 2))
            else:
                # an unrelated sparse graph: the search mostly exhausts
                target = lib.generators.gnp(n, 0.2, seed=rng.randrange(1 << 30))
                r_max, s_max = rng.choice((1, 2)), 1
            run = lambda g=g, t=target, a=r_max, b=s_max: (
                lib.conversion.search_definable_emulation(g, t, a, b)
            )
            canon = _emul_canon
        elif slot == 8:
            kind = "sep2break"
            n = rng.choice((8, 9, 10))
            g = lib.generators.gnp(n, rng.choice((0.3, 0.5)), seed=rng.randrange(1 << 30))
            probes = sorted(rng.sample(range(n), 4))
            run = lambda g=g, W=probes: lib.breaksep.sep_then_break(g, W, 1, k_max=2)
            canon = _pipe_canon
        else:
            kind = "small_balls"
            gkind, params, t, inv_eps = _SMALL_BALLS[(i // 10) % len(_SMALL_BALLS)]
            g = getattr(lib.generators, gkind)(*params)
            sets = [tuple(range(j, j + t)) for j in range(0, g.n - t + 1, t)]
            fam = lib.metrics.SetFamily(sets, uniform_size=t)
            w = bs.WeightFn.uniform(g.n)
            budget = bs.SearchBudget(s_max=1, part_cap=5)
            run = lambda g=g, w=w, f=fam, e=Fraction(1, inv_eps), b=budget: (
                lib.breaksep.small_balls_orchestrate(g, w, f, 1, e, b)
            )
            canon = _small_canon
        jobs.append(Job(f"search/{i:03d}/{kind}", run, canon))
    return jobs


# ---------------------------------------------------------------------------
# sweep: in-process CLI calls
# ---------------------------------------------------------------------------


def write_sweep_instances(lib, root: Path) -> list[dict]:
    """Write the instance files the file-based CLI commands read.

    Returns the relative paths (and the vertex count) per instance.  Partitions have at most
    three parts, so every partition metric fits in one chunk.
    """
    out = root / SWEEP_DIR
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(POOL_SEED * 3000)
    fio = lib.fileio
    slots = []
    for j in range(12):
        n = rng.choice((6, 7, 8, 9))
        g = lib.generators.gnp(n, rng.choice((0.3, 0.45, 0.6)), seed=rng.randrange(1 << 30))
        k = rng.choice((2, 3))
        labels = [v % k for v in range(n)]
        rng.shuffle(labels)
        p = lib.flips.Partition.from_labels(labels)
        names = {key: SWEEP_DIR / f"{key}{j:02d}.txt" for key in ("g", "p", "w", "W", "Q", "f")}
        files = {
            "g": fio.dumps_graph(g),
            "p": fio.dumps_partition(p),
            "w": fio.dumps_weights([rng.randint(1, 4) for _ in range(n)]),
            "W": " ".join(map(str, sorted(rng.sample(range(n), rng.choice((4, 5)))))) + "\n",
            "Q": " ".join(map(str, sorted(rng.sample(range(n), 4)))) + "\n",
            "f": fio.dumps_family([sorted(rng.sample(range(n), 1)) for _ in range(2)]),
        }
        for key, text in files.items():
            (root / names[key]).write_text(text)
        slots.append({key: str(path) for key, path in names.items()} | {"n": n})
    return slots


def _sweep_argv(i: int, rng: random.Random, instances: list[dict]) -> list[str]:
    kind = _SWEEP_KINDS[i % len(_SWEEP_KINDS)]
    s = instances[rng.randrange(len(instances))]
    n = s["n"]
    u, v = rng.sample(range(n), 2)
    table = {
        "conversion": ["verify", "conversion", "--random", "3"],
        "metric-axioms": ["verify", "metric-axioms", "--random", "2"],
        "sauer-shelah": ["verify", "sauer-shelah", "--random", "4"],
        "aggregation": ["verify", "aggregation", "--random", "1"],
        "diam-complement": ["verify", "diam-complement", "--exhaustive", "5"],
        "bipartite-classification": ["verify", "bipartite-classification", "--exhaustive", "2"],
        "diam": ["diam", s["g"]],
        "vcdim": ["vcdim", s["g"]],
        "dist-partition": ["dist", s["g"], "--partition", s["p"], "--all-pairs"],
        "dist-set": ["dist", s["g"], str(u), str(v), "--set", str(u)],
        "dist-family": ["dist", s["g"], "--family", s["f"], "--all-pairs"],
        "convert": ["convert", s["g"], "--partition", s["p"]],
        "break": ["break", s["g"], "--W", s["W"], "-r", "1", "-m", "2", "--s-max", "1"],
        "separate": ["separate", s["g"], "--weights", s["w"], "-r", "1", "--eps", "1/2",
                     "--k-max", "2"],
        "sep2break": ["sep2break", s["g"], "--W", s["Q"], "-r", "1"],
    }
    return table[kind]


_SWEEP_KINDS = (
    "conversion", "diam", "dist-partition", "metric-axioms", "vcdim", "break",
    "sauer-shelah", "dist-set", "convert", "aggregation", "dist-family", "separate",
    "diam-complement", "sep2break", "bipartite-classification", "diam", "dist-partition",
    "convert", "vcdim", "conversion",
)


def _cli_call(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def sweep_jobs(lib, instances: list[dict], count: int = 300) -> list[Job]:
    """~300 CLI calls of ~1-50 ms, each with its own ``--seed``; the run
    seed only orders the passes."""
    jobs = []
    for i in range(count):
        rng = random.Random(POOL_SEED * 4000 + i)
        argv = ["--seed", str(rng.randrange(1 << 20))] + _sweep_argv(i, rng, instances)
        kind = argv[2] if argv[2] != "verify" else argv[3]
        jobs.append(
            Job(
                f"sweep/{i:03d}/{kind}",
                lambda argv=argv: _cli_call(lib, argv),
                lambda res: [res[0], res[1]],
            )
        )
    return jobs
