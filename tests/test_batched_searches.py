"""The batched searches against a per-flip reference loop.

Each reference below walks the same candidates as the library search, but
flip by flip through ``enumerate_flips``, the way the searches worked before
they ran on the batched flip kernel; the breakability reference decides
each flip with the pure-Python split of ``oracle.greedy_split``.  Witnesses
and every counter must agree, also when the kernel's chunks are tiny, so
that a witness or a miss falls across chunk boundaries.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from flipkit import (
    SearchBudget,
    WeightFn,
    ball,
    breakability_search,
    convert,
    definable_partition,
    enumerate_flips,
    enumerate_partitions,
    flips,
    is_connected,
    search_definable_emulation,
    separability_search,
)
from flipkit.breaksep import _splits
from flipkit.conversion import ball_containment_ok
from flipkit.flips import Partition, distinct_flip_codes, partition_labels
from flipkit.graphs import batched_distance_matrices
from conftest import random_graph, random_partition_labels
from oracle import edges_of, greedy_split


def _candidates(g, s_max, cap, raw, counts):
    if raw:
        for p in enumerate_partitions(g.n, cap):
            counts["sets_tried"] += 1
            yield None, p
        return
    for size in range(min(s_max, g.n) + 1):
        for s in combinations(range(g.n), size):
            p = definable_partition(g, s)
            if len(p.parts) > cap:
                counts["sets_skipped"] += 1
                continue
            counts["sets_tried"] += 1
            yield s, p


def reference_break(g, w1, w2, r, m, budget):
    counts = Counter(flips_tried=0, sets_tried=0, sets_skipped=0)
    probes = sorted(set(w1) | set(w2))
    cands = _candidates(g, budget.s_max, budget.part_cap, budget.raw_partitions, counts)
    for s, p in cands:
        for spec, h in enumerate_flips(g, p, max_parts=budget.part_cap):
            counts["flips_tried"] += 1
            split = greedy_split(g.n, edges_of(h), probes, r, m, set(w1), set(w2))
            if split is not None:
                return (p, spec, s) + split, counts
    return None, counts


def reference_separability(g, w, r, eps, k_max):
    counts = Counter(partitions_tried=0, flips_tried=0)
    small = w.small_vertices(eps)
    for p in enumerate_partitions(g.n, k_max):
        counts["partitions_tried"] += 1
        for spec, h in enumerate_flips(g, p, max_parts=k_max):
            counts["flips_tried"] += 1
            if all(w.within_eps(w.of(sorted(ball(h, v, r))), eps) for v in small):
                return (p, spec), counts
    return None, counts


def reference_emulation(g, gprime, r_max, s_max, cap):
    counts = Counter(flips_tried=0, sets_tried=0, sets_skipped=0)
    for s, p in _candidates(g, s_max, cap, False, counts):
        for spec, h in enumerate_flips(g, p, max_parts=cap):
            counts["flips_tried"] += 1
            if ball_containment_ok(h, gprime, r_max):
                return (s, spec, h), counts
    return None, counts


def _instances(count=20):
    rng = random.Random(20251018)
    for _ in range(count):
        n = rng.randint(3, 6)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        yield rng, n, g


@pytest.fixture(params=[None, 3], ids=["chunk-default", "chunk-3"])
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(flips, "CHUNK", request.param)
    return request.param


def test_breakability_matches_reference(chunk):
    found = 0
    for rng, n, g in _instances():
        w1 = sorted(rng.sample(range(n), rng.randint(2, n)))
        w2 = sorted(rng.sample(range(n), rng.randint(2, n))) if rng.random() < 0.3 else None
        r, m = rng.randint(1, 2), rng.randint(1, 2)
        for raw in (False, True):
            budget = SearchBudget(s_max=rng.randint(0, 2), part_cap=rng.randint(2, 3),
                                  raw_partitions=raw)
            got = breakability_search(g, w1, r, m, budget, w2_set=w2)
            want, counts = reference_break(g, w1, w2 if w2 is not None else w1, r, m, budget)
            assert (got.flips_tried, got.sets_tried, got.sets_skipped) == (
                counts["flips_tried"], counts["sets_tried"], counts["sets_skipped"]
            )
            if want is None:
                assert got.witness is None
                continue
            found += 1
            wit = got.witness
            assert (wit.partition, wit.spec, wit.defining_set, wit.a1, wit.a2) == want
    assert found >= 10


def test_separability_matches_reference(chunk):
    found = 0
    for rng, n, g in _instances():
        w = WeightFn([rng.randint(0, 4) for _ in range(n)])
        r = rng.randint(1, 2)
        eps = Fraction(rng.randint(1, 3), rng.randint(3, 6))
        k_max = rng.randint(1, 3)
        got = separability_search(g, w, r, eps, k_max)
        want, counts = reference_separability(g, w, r, eps, k_max)
        assert (got.partitions_tried, got.flips_tried) == (
            counts["partitions_tried"], counts["flips_tried"]
        )
        assert (got.partition, got.spec) == (want if want is not None else (None, None))
        found += want is not None
    assert 5 <= found < 20


def test_emulation_matches_reference(chunk):
    found = 0
    for rng, n, g in _instances():
        if rng.random() < 0.5:
            gprime = convert(g, Partition.from_labels(random_partition_labels(rng, n, 2))).flipped
        else:
            gprime = random_graph(rng, n, 0.3)
        r_max, s_max, cap = rng.randint(1, 2), rng.randint(0, 2), rng.randint(2, 3)
        got = search_definable_emulation(g, gprime, r_max, s_max, max_parts=cap)
        want, counts = reference_emulation(g, gprime, r_max, s_max, cap)
        assert (got.flips_tried, got.sets_tried, got.sets_skipped) == (
            counts["flips_tried"], counts["sets_tried"], counts["sets_skipped"]
        )
        if want is None:
            assert got.witness is None
            continue
        found += 1
        wit = got.witness
        assert (wit.defining_set, wit.spec, wit.flipped) == want
    assert 5 <= found < 20


@pytest.mark.parametrize("w2_kind", ["absent", "disjoint", "overlapping"])
def test_splits_match_the_oracle_matrix_by_matrix(w2_kind):
    """The stack split against ``oracle.greedy_split`` on each matrix of
    random stacks, disconnected graphs, empty and one-probe sets, m = 0 and
    W1 shorter than m included."""
    rng = random.Random(f"splits-{w2_kind}")
    seen = Counter()
    for _ in range(150):
        n = rng.randint(1, 7)
        graphs = [random_graph(rng, n, rng.choice([0.0, 0.2, 0.4, 0.7]))
                  for _ in range(rng.randint(1, 5))]
        w1 = rng.sample(range(n), rng.randint(w2_kind == "overlapping", n))
        rest = [v for v in range(n) if v not in w1]
        if w2_kind == "absent":
            w2 = w1
        elif w2_kind == "disjoint":
            w2 = rng.sample(rest, rng.randint(0, len(rest)))
        else:
            w2 = w1[: rng.randint(1, len(w1))] + rest[: rng.randint(0, len(rest))]
        probes = sorted(set(w1) | set(w2))
        r, m = rng.randint(0, 2), rng.randint(0, 3)
        stack = batched_distance_matrices(np.stack([h.adj for h in graphs]))
        a1, a2, ok = _splits(stack, probes, r, m, set(w1), set(w2))
        assert a1.shape == a2.shape == (len(graphs), len(probes))
        names = np.array(probes, dtype=int)
        for i, h in enumerate(graphs):
            want = greedy_split(n, edges_of(h), probes, r, m, set(w1), set(w2))
            got = (tuple(names[a1[i]].tolist()), tuple(names[a2[i]].tolist())) if ok[i] else None
            assert got == want, (h.edges(), w1, w2, r, m)
            seen["split" if want else "miss"] += 1
            seen["disconnected"] += not is_connected(h)
        seen["m=0"] += m == 0
        seen["short W1"] += len(w1) < m
        seen[f"{min(len(probes), 2)} probes"] += 1
    wanted = ["split", "miss", "disconnected", "m=0", "short W1", "1 probes", "2 probes"]
    if w2_kind != "overlapping":
        wanted.append("0 probes")
    assert all(seen[key] >= 5 for key in wanted), seen


def test_searches_build_no_dead_bit_flips(chunk, monkeypatch):
    """No search builds a spec that sets the self pair of a singleton part,
    which builds the same graph as the spec without it.  The searches build
    their stacks as packs, which hold flips of several partitions and never
    more than CHUNK flips."""
    built = []
    real = flips.flip_adjacency_pack

    def spy(g, pieces):
        built.append(pieces)
        return real(g, pieces)

    monkeypatch.setattr(flips, "flip_adjacency_pack", spy)
    for rng, n, g in _instances(8):
        w1 = sorted(rng.sample(range(n), rng.randint(2, n)))
        for raw in (False, True):
            budget = SearchBudget(s_max=2, part_cap=3, raw_partitions=raw)
            breakability_search(g, w1, 1, 2, budget)
        w = WeightFn([rng.randint(0, 4) for _ in range(n)])
        separability_search(g, w, 1, Fraction(1, 4), 3)
        search_definable_emulation(g, random_graph(rng, n, 0.3), 1, 2, max_parts=3)
    singleton_stacks = 0
    for pieces in built:
        singleton = False
        for labels, codes in pieces:
            p = Partition.from_labels(labels.tolist())
            order = flips.canonical_pairs(len(p.parts))
            dead = sum(1 << t for t, (i, j) in enumerate(order) if i == j and len(p.parts[i]) == 1)
            singleton |= dead != 0
            assert not (np.asarray(codes, dtype=np.uint64) & np.uint64(dead)).any(), (p, codes)
        singleton_stacks += singleton
    assert singleton_stacks >= 20
    assert max(len({labels.tobytes() for labels, _ in pieces}) for pieces in built) >= 2
    assert max(sum(len(codes) for _, codes in pieces) for pieces in built) <= flips.CHUNK


def test_raw_searches_build_no_flip_twice(chunk, monkeypatch):
    """Separability and raw breakability skip the merge repeats, so no flip
    they build equals one they built before: a flip that is also a flip of
    the partition merging two parts was judged with that coarser partition,
    earlier in the stream.  Raw breakability with m = n always misses, so
    it builds the whole stream, less what it skipped."""
    built = []
    real = flips.flip_adjacency_pack
    monkeypatch.setattr(flips, "flip_adjacency_pack",
                        lambda g, pieces: built.append(real(g, pieces)) or built[-1])
    skipped = misses = 0
    for rng, n, g in _instances(6):
        for raw_break in (True, False):
            built.clear()
            if raw_break:
                budget = SearchBudget(part_cap=3, raw_partitions=True)
                assert not breakability_search(g, range(n), 1, n, budget)
            else:
                # balls of weight at most 1/n: a hit flips g to the empty graph
                misses += not separability_search(g, WeightFn.uniform(n), 1, Fraction(1, n), 3)
            flat = np.concatenate(built).reshape(-1, n * n)
            assert len(np.unique(flat, axis=0)) == len(flat)
            if raw_break:
                stream = sum(len(c) for p in partition_labels(n, 3) for c in distinct_flip_codes(p))
                skipped += stream - len(flat)
    assert skipped and misses
