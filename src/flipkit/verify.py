"""Exhaustive and randomized verification sweeps.

Each sweep asserts one of the structural guarantees the library is built
on, over either every labeled graph up to a size cap or a seeded stream of
random instances, and returns a reproducible report.  ``_sweep`` is the
one loop that fills and ends a report: the first counterexample ends the
sweep with outcome ``fail``, its payload carries the counterexample, and
the counter counts what was checked up to it.  None is ever expected.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, product
from math import inf

import numpy as np

from .conversion import BipartiteCaseTag, _classify, classify_bipartite, convert
from .flips import Partition, apply_flip, definable_partition
from .generators import gnp
from .graphs import (
    UNREACHED,
    Bipartite,
    Graph,
    _check_cap,
    _check_int,
    batched_distance_matrices,
    diameters,
    distance_matrix,
    within,
)
from .metrics import dist_definable_matrix, dist_partition_matrix
from .vc import vc_dimension

_EXHAUSTIVE_N_CAP = 6
_BIPARTITE_SIDE_CAP = 3


@dataclass
class RunReport:
    """Outcome of one command: deterministic given the command and seed,
    so repeated runs with one seed produce byte-identical reports."""

    command: str
    parameters: dict
    outcome: str  # pass | fail | witness | refused
    counters: dict = field(default_factory=dict)
    payload: dict | None = None

    def serialize(self) -> str:
        body = {
            "command": self.command,
            "parameters": self.parameters,
            "outcome": self.outcome,
            "counters": self.counters,
            "payload": self.payload,
        }
        return json.dumps(body, sort_keys=True, indent=2) + "\n"

    @property
    def exit_code(self) -> int:
        if self.outcome in ("pass", "witness"):
            return 0
        if self.outcome == "fail":
            return 1
        return 2


def _sweep(lemma: str, parameters: dict, counter: str, items) -> RunReport:
    """The one loop that fills and ends a sweep's report: ``items`` yields
    (instances checked, failure payload or None), the counts add up under
    ``counter``, and the first payload ends the sweep as a failure."""
    report = RunReport(
        command="verify", parameters={"lemma": lemma, **parameters}, outcome="pass",
        counters={counter: 0},
    )
    for checked, payload in items:
        report.counters[counter] += checked
        if payload is not None:
            report.outcome, report.payload = "fail", payload
            break
    return report


# ---------------------------------------------------------------------------
# Exhaustive sweeps
# ---------------------------------------------------------------------------


def _graph_stack(n: int, cells) -> np.ndarray:
    """(2^len(cells), n, n) boolean stack of every graph on n vertices whose
    edges lie in ``cells``, (u, v) pairs: graph i has cell t iff bit t of i
    is set.  So graph count-1-i is graph i with every cell complemented,
    and the last graph has every cell."""
    iu, iv = np.array(list(cells), dtype=np.intp).reshape(-1, 2).T
    count = 1 << len(iu)
    bits = (
        (np.arange(count, dtype=np.uint64)[:, None] >> np.arange(len(iu), dtype=np.uint64))
        & 1
    ).astype(bool)
    adjs = np.zeros((count, n, n), dtype=bool)
    adjs[:, iu, iv] = bits
    adjs[:, iv, iu] = bits
    return adjs


def _diam_at_most(dist: np.ndarray, bound: int) -> np.ndarray:
    """Per matrix of a distance stack: connected with diameter <= bound."""
    return within(diameters(dist), bound)


def _first_failure(adjs: np.ndarray, ok: np.ndarray, **payload) -> dict | None:
    """The first graph of a stack that is not ``ok``, as a failure payload."""
    bad = np.flatnonzero(~ok)
    return {**payload, "edges": Graph(adjs[bad[0]]).edges()} if bad.size else None


def verify_diam_complement(n: int) -> RunReport:
    """Every labeled n-vertex graph has diameter <= 3 or a complement with
    diameter <= 3; exhaustive for n up to 6."""
    _check_int(n, "the diameter sweep's n", 1)
    _check_cap(n, _EXHAUSTIVE_N_CAP, "the diameter sweep's n")
    adjs = _graph_stack(n, combinations(range(n), 2))
    ok = _diam_at_most(batched_distance_matrices(adjs), 3)
    ok |= ok[::-1]  # the complement stack is adjs[::-1]
    items = [(len(adjs), _first_failure(adjs, ok, n=n))]
    return _sweep("diam-complement", {"exhaustive": n}, "graphs_checked", items)


def _bipartite_stacks(max_side: int):
    """((a, b), the stack of every bipartite graph between sides 0..a-1 and
    a..a+b-1) for all sides up to ``max_side``; the cap is checked at the
    call, before any stack is built."""
    _check_int(max_side, "the bipartite sweep's max_side", 1)
    _check_cap(max_side, _BIPARTITE_SIDE_CAP, "the bipartite sweep's max_side")
    return (
        ((a, b), _graph_stack(a + b, product(range(a), range(a, a + b))))
        for a, b in product(range(1, max_side + 1), repeat=2)
    )


def verify_bipartite_trichotomy(max_side: int = _BIPARTITE_SIDE_CAP) -> RunReport:
    """Every bipartite graph has diameter <= 6, a bipartite complement with
    diameter <= 6, or both disconnected; exhaustive for sides up to 3."""
    stacks = _bipartite_stacks(max_side)

    def items():
        for (a, b), adjs in stacks:
            # the bipartite complement of graph i is graph count-1-i
            d = batched_distance_matrices(adjs)
            small, connected = _diam_at_most(d, 6), _diam_at_most(d, a + b)
            ok = small | small[::-1] | ~(connected | connected[::-1])
            yield len(adjs), _first_failure(adjs, ok, sides=[a, b])

    return _sweep("bipartite-trichotomy", {"max_side": max_side}, "graphs_checked", items())


def _case_matches(b: Bipartite, case) -> bool:
    """Whether a degenerate case record describes ``b``: checked on the
    graph's structure, apart from the classifier."""
    if case.tag is BipartiteCaseTag.ISOLATED_AND_DOMINATING:
        side = b.right if case.side == "right" else b.left
        other = b.left if case.side == "right" else b.right
        return (
            case.v_minus in side
            and case.v_plus in side
            and b.graph.degree(case.v_minus) == 0
            and all(b.graph.adj[case.v_plus, u] for u in other)
            and case.chosen_u == (min(other) if other else None)
        )
    (u1, v1), (u2, v2) = case.blocks
    if set(u1) | set(u2) != set(b.left) or set(v1) | set(v2) != set(b.right):
        return False
    for ui, vi in ((u1, v1), (u2, v2)):
        if not ui or not vi:
            return False
        if not b.graph.adj[np.ix_(list(ui), list(vi))].all():
            return False
    # no edges between the two bicliques
    return not (
        b.graph.adj[np.ix_(list(u1), list(v2))].any()
        or b.graph.adj[np.ix_(list(u2), list(v1))].any()
    )


def verify_bipartite_classification(max_side: int = _BIPARTITE_SIDE_CAP) -> RunReport:
    """When a bipartite graph and its complement are both disconnected, the
    classifier returns a structurally verified case; otherwise it returns
    the trivial tag, checked on the connectivity of both as vertex 0's row
    of their distances reads it, apart from the diameters the classifier
    decided on."""
    stacks = _bipartite_stacks(max_side)
    degenerate = 0

    def items():
        nonlocal degenerate
        for (a, b), adjs in stacks:
            # one BFS per stack, read for diameters and, apart, for
            # connectivity; the bipartite complement of graph i is graph count-1-i
            dist = batched_distance_matrices(adjs)
            diam = diameters(dist).tolist()
            connected = (dist[:, 0] != UNREACHED).all(-1)
            vs, left, right = tuple(range(a + b)), tuple(range(a)), tuple(range(a, a + b))
            for i, adj in enumerate(adjs):
                case = _classify(adj, vs, left, right, diam[i], diam[-1 - i])
                if case.tag is BipartiteCaseTag.CONNECTED_OR_COMPLEMENT:
                    ok = connected[i] or connected[-1 - i]
                else:
                    # checked on its structure, and against the public
                    # classifier, which runs its own BFS of the graph
                    degenerate += 1
                    bip = Bipartite(Graph(adj), left, right)
                    ok = _case_matches(bip, case) and classify_bipartite(bip) == case
                if ok:
                    yield 1, None
                else:
                    yield 1, {"sides": [a, b], "edges": Graph(adj).edges(), "tag": case.tag.value}

    report = _sweep("bipartite-classification", {"max_side": max_side}, "graphs_checked", items())
    report.counters["degenerate_cases"] = degenerate
    return report


# ---------------------------------------------------------------------------
# Randomized sweeps
# ---------------------------------------------------------------------------


def _random_instance(rng: random.Random):
    n = rng.randint(2, 10)
    g = gnp(n, rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]), seed=rng.randrange(1 << 30))
    k = rng.randint(1, min(3, n))
    labels = [rng.randrange(k) for _ in range(n)]
    labels[: k] = list(range(k))  # every part nonempty
    return g, Partition.from_labels(labels)


def _as_float(dist: np.ndarray) -> np.ndarray:
    out = dist.astype(float)
    out[dist == UNREACHED] = inf
    return out


def _random_sweep(lemma: str, count: int, seed: int, check) -> RunReport:
    """Run ``check(rng)`` on ``count`` instances drawn from one seeded rng;
    the first failure payload it returns ends the sweep as a failure.  A
    count below 1 is a DomainError: no instance would pass."""
    _check_int(count, "the random sweep's count", 1)
    rng = random.Random(seed)

    def items():
        for index in range(count):
            payload = check(rng)
            yield 1, None if payload is None else {"instance": index, **payload}

    return _sweep(lemma, {"random": count, "seed": seed}, "instances_checked", items())


def _problems_payload(g: Graph, p: Partition, problems: list[str]) -> dict | None:
    if not problems:
        return None
    return {"edges": g.edges(), "parts": [list(part) for part in p.parts], "problems": problems}


def verify_conversion(count: int, seed: int) -> RunReport:
    """Conversion soundness on random instances: 6 * flip distance bounds
    the partition distance (full flip enumeration), plus the refinement
    contract and the size bound."""
    max_ratio = 0.0

    def check(rng):
        nonlocal max_ratio
        g, p = _random_instance(rng)
        result = convert(g, p)
        problems = []
        if not result.refined.refines(p):
            problems.append("refined partition does not refine the input")
        if len(result.refined.parts) > len(p.parts) * (1 << len(p.parts)):
            problems.append("refinement size bound violated")
        if apply_flip(g, result.refined, result.refined_spec) != result.flipped:
            problems.append("replayed spec does not reproduce the flip")
        dp = _as_float(dist_partition_matrix(g, p))
        dg = _as_float(distance_matrix(result.flipped))
        finite = np.isfinite(dg) & (dg > 0)
        if not (dp[finite] <= 6 * dg[finite]).all() or not np.isfinite(dp[finite]).all():
            problems.append("partition distance exceeds 6x flip distance")
        elif finite.any():
            max_ratio = max(max_ratio, float((dp[finite] / dg[finite]).max()))
        return _problems_payload(g, p, problems)

    report = _random_sweep("conversion", count, seed, check)
    report.counters["max_ratio_times_100"] = int(round(max_ratio * 100))
    return report


def verify_metric_axioms(count: int, seed: int) -> RunReport:
    """Partition distances are symmetric, zero exactly on the diagonal, at
    least 2 off it, satisfy the triangle inequality, and grow under
    refinement."""

    def check(rng):
        g, p = _random_instance(rng)
        d = _as_float(dist_partition_matrix(g, p))
        problems = []
        if not np.array_equal(d, d.T):
            problems.append("not symmetric")
        if (np.diag(d) != 0).any():
            problems.append("nonzero on the diagonal")
        off = ~np.eye(g.n, dtype=bool)
        if (d[off] < 2).any():
            problems.append("off-diagonal distance below 2")
        through = (d[:, :, None] + d[None, :, :]).min(axis=1)
        if (d > through + 1e-9).any():
            problems.append("triangle inequality violated")
        splittable = [i for i, part in enumerate(p.parts) if len(part) > 1]
        if splittable and len(p.parts) < 4:
            i = rng.choice(splittable)
            part = list(p.parts[i])
            cut = rng.randint(1, len(part) - 1)
            finer_parts = [list(q) for j, q in enumerate(p.parts) if j != i]
            finer_parts += [part[:cut], part[cut:]]
            finer = Partition(g.n, finer_parts)
            d_fine = _as_float(dist_partition_matrix(g, finer))
            if (d_fine < d - 1e-9).any():
                problems.append("refinement decreased the metric")
        return _problems_payload(g, p, problems)

    return _random_sweep("metric-axioms", count, seed, check)


def verify_aggregation(count: int, seed: int) -> RunReport:
    """Joining two defining sets never shrinks the metric: the union's
    distance dominates the pointwise max of the members'."""

    def check(rng):
        for _ in range(40):
            n = rng.randint(3, 8)
            g = gnp(n, rng.choice([0.2, 0.4, 0.6]), seed=rng.randrange(1 << 30))
            a, b = rng.sample(range(n), 2)
            union_parts = len(definable_partition(g, [a, b]).parts)
            if union_parts <= 5:
                break
        d_a = _as_float(dist_definable_matrix(g, [a]))
        d_b = _as_float(dist_definable_matrix(g, [b]))
        d_union = _as_float(dist_definable_matrix(g, [a, b], max_parts=6))
        if (d_union < np.maximum(d_a, d_b) - 1e-9).any():
            return {"edges": g.edges(), "sets": [[a], [b]]}
        return None

    return _random_sweep("aggregation", count, seed, check)


def verify_sauer_shelah(count: int, seed: int) -> RunReport:
    """Computed trace counts never exceed the binomial-sum bound at the
    computed VC-dimension: ``vc_dimension`` checks that bound (and its
    witness) itself, and the error it raises is the failure payload."""

    def check(rng):
        n = rng.randint(1, 12)
        g = gnp(n, rng.random(), seed=rng.randrange(1 << 30))
        try:
            vc_dimension(g)
        except RuntimeError as exc:
            return {"edges": g.edges(), "error": str(exc)}
        return None

    return _random_sweep("sauer-shelah", count, seed, check)


LEMMA_SWEEPS = {
    "diam-complement": ("exhaustive", verify_diam_complement),
    "bipartite-trichotomy": ("exhaustive", verify_bipartite_trichotomy),
    "bipartite-classification": ("exhaustive", verify_bipartite_classification),
    "conversion": ("random", verify_conversion),
    "aggregation": ("random", verify_aggregation),
    "sauer-shelah": ("random", verify_sauer_shelah),
    "metric-axioms": ("random", verify_metric_axioms),
}
