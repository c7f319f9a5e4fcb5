"""Budgeted breakability and separability searches over flips.

Breakability asks for two large subsets of a probe set whose radius-r balls
become disjoint after some bounded flip; separability asks for one flip
after which every r-ball around a light vertex carries at most an
epsilon-fraction of the total weight.  Both are exhaustive searches under
explicit budgets: running out of budget is a reported outcome, not an
error, and every returned witness is re-verified before it leaves.

The module also carries the constructive bridge from separability to
breakability (probe sets of size 4m^2 always split), greedy sunflower
extraction, and the orchestrator that thins a uniform set family until the
kept sets have light family-metric balls.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import DomainError
from .flips import (
    FlipSpec,
    Partition,
    apply_flip,
    candidate_packs,
    check_part_cap,
    definable_candidates,
    first_flip,
    raw_packs,
    resolve_max_parts,
)
from .graphs import (
    Graph, _check_cap, _check_int, _vertex_array, component_labels, distance_matrix, within,
)
from .metrics import SetFamily, _family_partitions, _flip_metric

_FLOAT_TOL = 1e-9

DEFAULT_PARTITION_ENUM_CAP = 10

_N_CAP_WHAT = "the vertex count of an exhaustive partition search"


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


class WeightFn:
    """Finite nonnegative per-vertex weights with a cached, finite total.

    Epsilon comparisons are exact rational arithmetic when all weights are
    integers, of any size (numpy integers are converted to ``int``; bools
    are refused); otherwise floats are compared with absolute tolerance
    1e-9, and a total beyond the float range is refused.
    """

    __slots__ = ("weights", "total", "integral")

    def __init__(self, weights) -> None:
        ws = tuple(weights)
        for v, w in enumerate(ws):
            if isinstance(w, (bool, np.bool_)):
                raise DomainError(f"weight of vertex {v} is a bool: {w}")
            if w != w or abs(w) == math.inf:
                raise DomainError(f"weight of vertex {v} is not finite: {w}")
            if w < 0:
                raise DomainError(f"weight of vertex {v} is negative: {w}")
        self.weights = ws = tuple(int(w) if isinstance(w, numbers.Integral) else w for w in ws)
        self.integral = all(isinstance(w, int) for w in ws)
        try:
            self.total = sum(ws)
        except OverflowError:  # an int beyond float range met a float
            self.total = math.inf
        if self.total == math.inf:
            raise DomainError("the total weight overflows the float range")

    @classmethod
    def uniform(cls, n: int) -> "WeightFn":
        return cls([1] * n)

    @classmethod
    def indicator(cls, n: int, support) -> "WeightFn":
        inside = set(_vertex_array(n, support, ascending=True, where=lambda i: "support ").tolist())
        return cls([1 if v in inside else 0 for v in range(n)])

    def __len__(self) -> int:
        return len(self.weights)

    def of(self, vertices) -> int | float:
        return sum(self.weights[v] for v in vertices)

    def within_eps(self, value, eps) -> bool:
        """Whether ``value <= min(eps, 1) * total`` under the comparison rules."""
        eps = min(eps, 1)
        if self.integral:
            return Fraction(value) <= Fraction(eps) * Fraction(self.total)
        return value <= eps * self.total + _FLOAT_TOL

    def small_vertices(self, eps) -> list[int]:
        """Vertices whose own weight is at most eps * total."""
        return [v for v, w in enumerate(self.weights) if self.within_eps(w, eps)]


# ---------------------------------------------------------------------------
# Sunflowers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SunflowerResult:
    subfamily: SetFamily
    core: tuple[int, ...]


def _greedy_sunflower(sets: list[tuple[int, ...]], m: int):
    if m == 0:
        return [], frozenset()
    if not sets:
        return None
    disjoint: list[tuple[int, ...]] = []
    used: set[int] = set()
    for s in sets:
        if not used.intersection(s):
            disjoint.append(s)
            used.update(s)
    if len(disjoint) >= m:
        return disjoint[:m], frozenset()
    if len(sets[0]) == 0:
        return None
    freq = Counter(v for s in sets for v in s)
    x = min(freq, key=lambda v: (-freq[v], v))
    reduced = sorted(tuple(u for u in s if u != x) for s in sets if x in s)
    outcome = _greedy_sunflower(reduced, m)
    if outcome is None:
        return None
    subfamily, core = outcome
    return [tuple(sorted(s + (x,))) for s in subfamily], core | {x}


def sunflower_extract(f: SetFamily, m: int) -> SunflowerResult | None:
    """Greedy extraction of an m-set sunflower from a t-uniform family.

    Guaranteed to succeed once the family reaches t!*(m-1)^t + 1 distinct
    sets; below that, failure means the greedy recursion found nothing, not
    that no sunflower exists.
    """
    sizes = {len(s) for s in f.sets}
    if len(sizes) > 1:
        raise DomainError(f"family is not uniform: set sizes {sorted(sizes)}")
    if f.uniform_size is not None and sizes and sizes != {f.uniform_size}:
        raise DomainError("family sizes disagree with the declared uniformity")
    _check_int(m, "target size m")
    outcome = _greedy_sunflower(list(f.sets), m)
    if outcome is None:
        return None
    subfamily, core = outcome
    core_t = tuple(sorted(core))
    for a, b in combinations(subfamily, 2):
        if set(a) & set(b) != core:
            raise RuntimeError(f"greedy sunflower is inconsistent: {a} & {b} != {core_t}")
    t = f.uniform_size if f.uniform_size is not None else (sizes.pop() if sizes else 0)
    return SunflowerResult(
        subfamily=SetFamily(subfamily, uniform_size=t), core=core_t
    )


# ---------------------------------------------------------------------------
# Breakability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    """Explicit budgets replacing the theory's unspecified margins;
    ``part_cap`` None is the default cap of ``flips.resolve_max_parts``."""

    s_max: int = 1
    part_cap: int | None = None
    raw_partitions: bool = False
    #: target subset size per breakability call inside the orchestrator
    m_keep: int = 1
    #: sunflower petals per group inside the orchestrator (defaults to m_keep)
    group_size: int | None = None


@dataclass(frozen=True)
class BreakWitness:
    """A flip plus two probe subsets whose r-balls it makes disjoint."""

    partition: Partition
    spec: FlipSpec
    defining_set: tuple[int, ...] | None
    a1: tuple[int, ...]
    a2: tuple[int, ...]
    radius: int
    m: int


def _balls(h: Graph, vertices, r: int) -> np.ndarray:
    """(n, n) mask whose row v is the r-ball of v in ``h``, from one BFS.
    As with ``graphs.ball``, a negative radius or a centre in ``vertices``
    outside ``h`` is a DomainError."""
    _check_int(r, "radius")
    _vertex_array(h.n, vertices)
    return within(distance_matrix(h), r)


def verify_break_witness(g: Graph, w: BreakWitness) -> bool:
    """Recompute the flip and check the witness contract from scratch."""
    _check_int(w.m, "target size m")
    if set(w.a1) & set(w.a2):
        return False
    if len(w.a1) < w.m or len(w.a2) < w.m:
        return False
    balls = _balls(apply_flip(g, w.partition, w.spec), (*w.a1, *w.a2), w.radius)
    return not (balls[list(w.a1)].any(axis=0) & balls[list(w.a2)].any(axis=0)).any()


@dataclass
class BreakSearchResult:
    witness: BreakWitness | None
    flips_tried: int = 0
    sets_tried: int = 0
    sets_skipped: int = 0

    def __bool__(self) -> bool:
        return self.witness is not None


def _splits(
    dists: np.ndarray, idx: np.ndarray, in1: np.ndarray, in2: np.ndarray, r: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic two-stage greedy for two size-m probe subsets with no
    cross conflict (hence disjoint r-balls), on each matrix of a (F, n, n)
    distance stack: (F, k) masks a1, a2 over the sorted probes ``idx`` (of
    W1 where ``in1``, of W2 where ``in2``), and ok.  Only ``within(., 2r)``
    is read, so a stack BFS'd to depth 2r splits as its full matrices do.

    Two probes conflict when their centres are within 2r.  Stage one
    assigns whole conflict components, by minimum member, to the currently
    smaller side: its W1 members to a1 if |a1| <= |a2|, else its W2 members
    to a2.  Where that fails (a single component can still admit a split,
    as on a path where balls are intervals), stage two anchors a1 on the
    first m probes of W1 and takes the first m probes of W2 that are not
    anchors and meet no anchor.
    """
    f, k = len(dists), len(idx)
    if m == 0 or k == 0:
        none = np.zeros((f, k), dtype=bool)
        return none, none, np.full(f, m == 0)
    meets = within(dists[:, idx[:, None], idx], 2 * r)
    labels = component_labels(meets)
    a1 = np.zeros((f, k), dtype=bool)
    a2 = np.zeros((f, k), dtype=bool)
    for c in range(k):
        comp = labels == c
        to1 = (a1.sum(1) <= a2.sum(1))[:, None]
        a1 |= comp & in1 & to1
        a2 |= comp & in2 & ~to1
    ok = (a1.sum(1) >= m) & (a2.sum(1) >= m)
    anchor = in1 & (np.cumsum(in1) <= m)
    other = in2 & ~anchor & ~meets[:, anchor].any(1)
    other &= np.cumsum(other, axis=1) <= m
    fallback = ~ok & (anchor.sum() == m) & (other.sum(1) == m)
    a1[fallback] = anchor
    a2[fallback] = other[fallback]
    return a1, a2, ok | fallback


def breakability_search(
    g: Graph,
    w_set,
    r: int,
    m: int,
    budget: SearchBudget = SearchBudget(),
    *,
    w2_set=None,
    n_cap: int = DEFAULT_PARTITION_ENUM_CAP,
) -> BreakSearchResult:
    """First flip (defining sets ascending, specs in counter order) whose
    radius-r balls admit two size-m probe subsets with disjoint balls.

    With ``w2_set``, the two subsets are drawn from the two probe sets
    separately.  A miss on one flip just moves the search to the next
    candidate, and exhausting the budget returns an empty result with
    statistics.  Raw partitions are refused on more than ``n_cap``
    vertices, as in ``separability_search``.
    """
    w1 = g._vertices(w_set)
    w2 = g._vertices(w2_set) if w2_set is not None else None
    _check_int(r, "radius")
    _check_int(m, "target size m")
    idx = np.array(sorted(set(w1) | set(w2 or [])), dtype=int)
    in1 = np.isin(idx, w1)
    in2 = np.isin(idx, w1 if w2 is None else w2)
    cap = resolve_max_parts(budget.part_cap)
    if budget.raw_partitions:
        _check_cap(g.n, n_cap, _N_CAP_WHAT, "n_cap")
        packs = raw_packs(g.n, cap)
    else:
        packs = candidate_packs(g.n, definable_candidates(g, budget.s_max, cap))
    split = {}  # the hit's a1 and a2, from the pass that found it

    def first_split(dists: np.ndarray) -> int | None:
        a1, a2, ok = _splits(dists, idx, in1, in2, r, m)
        hits = np.flatnonzero(ok)
        if not hits.size:
            return None
        split.update(a1=tuple(idx[a1[hits[0]]].tolist()), a2=tuple(idx[a2[hits[0]]].tolist()))
        return int(hits[0])

    sets, skipped, specs, hit = first_flip(g, packs, first_split, 2 * r)
    result = BreakSearchResult(witness=None, flips_tried=specs, sets_tried=sets,
                               sets_skipped=skipped)
    if hit is None:
        return result
    s, p, spec, _ = hit
    result.witness = BreakWitness(p, spec, s, radius=r, m=m, **split)
    if not verify_break_witness(g, result.witness):
        raise RuntimeError("greedy split produced an invalid witness")
    return result


# ---------------------------------------------------------------------------
# Separability
# ---------------------------------------------------------------------------


@dataclass
class SeparabilityResult:
    partition: Partition | None
    spec: FlipSpec | None
    partitions_tried: int = 0
    flips_tried: int = 0

    def __bool__(self) -> bool:
        return self.partition is not None


def _check_eps(eps) -> Fraction:
    """Refuse an eps that is not a positive finite number, and return it as
    a Fraction capped at 1: no ball weighs more than the total."""
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if eps == math.inf:
        raise DomainError(f"eps must be finite, got {eps}")
    return min(Fraction(eps), 1)


def separability_search(
    g: Graph,
    w: WeightFn,
    r: int,
    eps,
    k_max: int,
    *,
    n_cap: int = DEFAULT_PARTITION_ENUM_CAP,
    max_parts: int | None = None,
) -> SeparabilityResult:
    """First flip, over all partitions into at most ``k_max`` parts, after
    which every light vertex has an r-ball of weight at most eps * total.

    Partitions are enumerated as restricted growth strings, so the trivial
    partition (hence the identity flip) is probed first.
    """
    if len(w.weights) != g.n:
        raise DomainError(f"weights cover {len(w.weights)} vertices, graph has {g.n}")
    _check_int(k_max, "k_max", 1)
    check_part_cap(k_max, max_parts, "k_max")
    _check_cap(g.n, n_cap, _N_CAP_WHAT, "n_cap")
    _check_int(r, "radius")
    eps = _check_eps(eps)
    small = w.small_vertices(eps)
    # Screen, then let the exact comparison decide.  Integer ball weights are
    # summed exactly (int64 while the total fits) against the largest integer
    # within eps * total, at most the total since eps <= 1.  Float ball
    # weights are skipped only beyond the float64 rounding of either side.
    if w.integral:
        weights_arr = np.array(w.weights, dtype=np.int64 if w.total < 2**63 else object)
        limit = math.floor(eps * w.total)
    else:
        weights_arr = np.array(w.weights, dtype=float)
        bound = float(eps) * w.total
        limit = bound + bound * 1e-9 + _FLOAT_TOL

    def light(balls: np.ndarray) -> bool:
        """Whether every ball, a row of the mask ``balls``, is light."""
        return all(w.within_eps(w.of(np.flatnonzero(row).tolist()), eps) for row in balls)

    def first_light(dists: np.ndarray) -> int | None:
        reach = within(dists[:, small], r)
        screened = ~((reach @ weights_arr) > limit).any(axis=1)
        for i in np.flatnonzero(screened).tolist():
            if light(reach[i]):
                return i
        return None

    tried, _, specs, hit = first_flip(g, raw_packs(g.n, k_max), first_light, r)
    if hit is None:
        return SeparabilityResult(None, None, tried, specs)
    _, p, spec, h = hit
    if not light(_balls(h, small, r)[small]):
        raise RuntimeError("separability witness failed re-verification")
    return SeparabilityResult(p, spec, tried, specs)


# ---------------------------------------------------------------------------
# Separability => breakability
# ---------------------------------------------------------------------------


def greedy_scattered(g_flipped: Graph, w_set, d: int) -> tuple[int, ...]:
    """Maximal subset of the probes pairwise at distance > d, greedily in
    ascending vertex order."""
    _check_int(d, "distance d")
    probes = sorted(set(w_set))
    return _scattered(_balls(g_flipped, probes, d), probes)


def _scattered(balls: np.ndarray, probes) -> tuple[int, ...]:
    """``greedy_scattered`` over a mask whose row v is the d-ball of v."""
    chosen: list[int] = []
    covered = np.zeros(len(balls), dtype=bool)
    for v in probes:
        if not covered[v]:
            chosen.append(v)
            covered |= balls[v]
    return tuple(chosen)


def _probe_contract(g: Graph, w_set) -> tuple[list[int], int]:
    """The probes, through ``Graph._vertices``, and the m >= 1 with |W| = 4m^2."""
    probes = g._vertices(w_set)
    m = math.isqrt(len(probes) // 4)
    if m < 1 or len(probes) != 4 * m * m:
        raise DomainError(f"probe set size {len(probes)} is not of the form 4m^2 "
                          "for integer m >= 1")
    return probes, m


def break_from_sep(
    g: Graph, w_set, r: int, h: tuple[Partition, FlipSpec]
) -> BreakWitness:
    """Turn a flip with light 4r-balls into a breakability witness.

    The probe set must have size exactly 4m^2 for the target m.  Either
    some vertex gathers at least 2m probes within 2r (its 2r-ball against
    the probes outside its 4r-ball split the set), or a greedy 2r-scattered
    subset has at least 2m members and its first and second m-blocks do.
    """
    _check_int(r, "radius")
    probes, m = _probe_contract(g, w_set)
    partition, spec = h
    flipped = apply_flip(g, partition, spec)
    dist = distance_matrix(flipped)
    probe_arr = np.array(probes)
    in_r4 = within(dist[:, probe_arr], 4 * r)
    counts4 = in_r4.sum(axis=1)
    if (counts4 > len(probes) // 2).any():
        bad = int(np.flatnonzero(counts4 > len(probes) // 2)[0])
        raise DomainError(
            f"vertex {bad} has {int(counts4[bad])} probes within distance {4 * r}, "
            f"above the required bound {len(probes) // 2}"
        )

    in_r2 = within(dist[:, probe_arr], 2 * r)
    counts2 = in_r2.sum(axis=1)
    heavy = np.flatnonzero(counts2 >= 2 * m)
    if heavy.size:
        v = int(heavy[0])
        a1 = tuple(probe_arr[in_r2[v]].tolist())
        a2 = tuple(probe_arr[~in_r4[v]].tolist())
    else:
        scattered = _scattered(within(dist, 2 * r), probes)
        if len(scattered) < 2 * m:
            raise RuntimeError(
                "scattered set too small although no vertex covers 2m probes; "
                "the two cases should cover everything"
            )
        a1 = scattered[:m]
        a2 = scattered[m : 2 * m]
    witness = BreakWitness(
        partition=partition,
        spec=spec,
        defining_set=None,
        a1=a1,
        a2=a2,
        radius=r,
        m=m,
    )
    if not verify_break_witness(g, witness):
        raise RuntimeError("constructed witness failed re-verification")
    return witness


@dataclass
class PipelineResult:
    witness: BreakWitness | None
    separability: SeparabilityResult

    def __bool__(self) -> bool:
        return self.witness is not None


def sep_then_break(
    g: Graph,
    w_set,
    r: int,
    *,
    k_max: int = 1,
    n_cap: int | None = None,
    max_parts: int | None = None,
) -> PipelineResult:
    """Full pipeline: separability at radius 4r with eps = 1/2 over the
    probe-indicator weights, then the witness construction on success."""
    _check_int(r, "radius")
    probes, _ = _probe_contract(g, w_set)
    weights = WeightFn.indicator(g.n, probes)
    sep = separability_search(
        g,
        weights,
        4 * r,
        Fraction(1, 2),
        k_max,
        n_cap=max(g.n, 1) if n_cap is None else n_cap,
        max_parts=max_parts,
    )
    if not sep:
        return PipelineResult(witness=None, separability=sep)
    witness = break_from_sep(g, probes, r, (sep.partition, sep.spec))
    return PipelineResult(witness=witness, separability=sep)


# ---------------------------------------------------------------------------
# Small-balls orchestration over a uniform family
# ---------------------------------------------------------------------------


@dataclass
class SmallBallsOutcome:
    kept: SetFamily | None
    defining: SetFamily | None
    selected_group: int | None
    failed_step: tuple | None
    breakability_calls: int = 0

    def __bool__(self) -> bool:
        return self.kept is not None


def _pad_to_size(s: tuple[int, ...], t: int, n: int) -> tuple[int, ...]:
    """Extend a set to size t with the lowest-index vertices not in it."""
    padded = list(s)
    present = set(s)
    v = 0
    while len(padded) < t:
        if v >= n:
            raise DomainError(f"cannot pad {s} to size {t} with only {n} vertices")
        if v not in present:
            padded.append(v)
            present.add(v)
        v += 1
    return tuple(sorted(padded))


def small_balls_orchestrate(
    g: Graph,
    w: WeightFn,
    f: SetFamily,
    r: int,
    eps,
    budget: SearchBudget = SearchBudget(),
) -> SmallBallsOutcome:
    """Thin a t-uniform family until its kept sets have light family-balls.

    A sunflower is extracted and its petals split into ceil(1/eps) groups;
    repeated budgeted breakability calls, one per group pair and coordinate
    pair, separate the groups in an accumulated family metric.  The group
    whose family-ball has minimum weight is kept (core added back), and the
    output inequality is re-verified by exact ball computation.  Any failing
    breakability call aborts with a trace of the failing step.
    """
    if len(w.weights) != g.n:
        raise DomainError(f"weights cover {len(w.weights)} vertices, graph has {g.n}")
    _check_int(r, "radius")
    sizes = {len(s) for s in f.sets}
    if len(sizes) != 1:
        raise DomainError(f"family must be uniform, got sizes {sorted(sizes)}")
    t = sizes.pop()
    if t == 0:
        raise DomainError("0-uniform families carry no vertices to separate")
    eps = _check_eps(eps)
    p = math.ceil(1 / eps)
    _check_int(budget.m_keep, "m_keep", 1)
    group_size = budget.m_keep if budget.group_size is None else budget.group_size
    _check_int(group_size, "group_size", 1)
    outcome = SmallBallsOutcome(
        kept=None, defining=None, selected_group=None, failed_step=None
    )

    sun = sunflower_extract(f, p * group_size)
    if sun is None:
        outcome.failed_step = ("sunflower", p * group_size)
        return outcome
    core = sun.core
    core_set = set(core)
    petals = [tuple(v for v in s if v not in core_set) for s in sun.subfamily]
    t_prime = t - len(core)
    groups: list[list[tuple[int, ...]]] = [
        petals[q * group_size : (q + 1) * group_size] for q in range(p)
    ]

    inner_budget = replace(budget, raw_partitions=False)
    accumulated: list[tuple[int, ...]] = [core]
    for q in range(p):
        for q2 in range(q + 1, p):
            for i in range(t_prime):
                for j in range(t_prime):
                    w1 = sorted(petal[i] for petal in groups[q])
                    w2 = sorted(petal[j] for petal in groups[q2])
                    outcome.breakability_calls += 1
                    found = breakability_search(
                        g, w1, r, budget.m_keep, inner_budget, w2_set=w2
                    )
                    if not found:
                        outcome.failed_step = (q, q2, i, j)
                        return outcome
                    witness = found.witness
                    accumulated.append(witness.defining_set)
                    kept1 = set(witness.a1)
                    kept2 = set(witness.a2)
                    groups[q] = [petal for petal in groups[q] if petal[i] in kept1]
                    groups[q2] = [petal for petal in groups[q2] if petal[j] in kept2]

    padded = [_pad_to_size(s, t, g.n) if len(s) < t else s for s in accumulated]
    uniform = t if all(len(s) == t for s in padded) else None
    defining = SetFamily(padded, uniform_size=uniform)

    # The rows read, to depth r: each residue vertex below is a petal vertex.
    rows = sorted({v for group in groups for petal in group for v in petal})
    dist = _flip_metric(g, _family_partitions(g, defining, budget.part_cap), rows, max(r, 1))
    union_defining = defining.union()
    group_weights = []
    for q in range(p):
        vertices = sorted({v for petal in groups[q] for v in petal})
        reach = within(dist[np.searchsorted(rows, vertices)], r).any(axis=0)
        group_weights.append(w.of(np.flatnonzero(reach).tolist()))
    selected = min(range(p), key=lambda q: (group_weights[q], q))

    kept_sets = [tuple(sorted(petal + core)) for petal in groups[selected]]
    kept = SetFamily(kept_sets, uniform_size=t)
    for s in kept:
        residue = [v for v in s if v not in union_defining]
        reach = within(dist[np.searchsorted(rows, residue)], r).any(axis=0)
        weight = w.of(np.flatnonzero(reach).tolist())
        if not w.within_eps(weight, eps):
            raise RuntimeError(
                f"kept set {s} has family-ball weight {weight}, above the bound; "
                "group separation must be broken"
            )
    outcome.kept = kept
    outcome.defining = defining
    outcome.selected_group = selected
    return outcome
