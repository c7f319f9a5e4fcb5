"""The batched searches against a per-flip reference loop.

Each reference below walks the same candidates as the library search, but
flip by flip through ``enumerate_flips``, the way the searches worked before
they ran on the batched flip kernel; the breakability reference decides
each flip with the pure-Python split of ``oracle.greedy_split``.  Witnesses
and every counter must agree, also when the kernel's chunks are tiny, so
that a witness or a miss falls across chunk boundaries.
"""

import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest

from flipkit import (
    SearchBudget,
    INF,
    WeightFn,
    ball,
    breakability_search,
    convert,
    definable_partition,
    diameter,
    enumerate_flips,
    enumerate_partitions,
    flips,
    search_definable_emulation,
    separability_search,
)
from flipkit.breaksep import _splits
from flipkit.conversion import ball_containment_ok
from flipkit.errors import CapExceeded
from flipkit.flips import Partition, distinct_flip_codes, partition_labels
from flipkit.generators import cycle, path
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
        names = np.array(probes, dtype=int)
        a1, a2, ok = _splits(stack, names, np.isin(names, w1), np.isin(names, w2), r, m)
        assert a1.shape == a2.shape == (len(graphs), len(probes))
        for i, h in enumerate(graphs):
            want = greedy_split(n, edges_of(h), probes, r, m, set(w1), set(w2))
            got = (tuple(names[a1[i]].tolist()), tuple(names[a2[i]].tolist())) if ok[i] else None
            assert got == want, (h.edges(), w1, w2, r, m)
            seen["split" if want else "miss"] += 1
            seen["disconnected"] += diameter(h) == INF
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
    more than CHUNK flips.  The raw-stream cache starts empty, so every raw
    profile is built here at least once."""
    built = []
    real = flips.flip_adjacency_pack

    def spy(g, pieces):
        built.append(pieces)
        return real(g, pieces)

    monkeypatch.setattr(flips, "flip_adjacency_pack", spy)
    monkeypatch.setattr(flips, "_RAW", {})
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


def test_searches_bfs_each_pack_to_the_radius_they_read(monkeypatch):
    """Each search runs the BFS of its packs only as deep as its predicate
    reads through ``within``: separability to r, breakability to 2r and
    the emulation search to r_max.  On path(10), whose flips a full BFS
    runs up to 9 levels, a pack takes at most depth - 1 frontier products."""
    judged, products = [], []
    real_bfs, real_matmul = flips.batched_distance_matrices, np.matmul

    def bfs(adjs, depth=None):
        before = len(products)
        out = real_bfs(adjs, depth)
        judged.append((depth, len(products) - before))
        return out

    monkeypatch.setattr(flips, "batched_distance_matrices", bfs)
    monkeypatch.setattr(np, "matmul", lambda *a, **kw: products.append(1) or real_matmul(*a, **kw))
    g = path(10)
    searches = (
        (lambda: separability_search(g, WeightFn.uniform(10), 2, Fraction(1, 100), 2), 2),
        (lambda: breakability_search(g, range(10), 2, 10, SearchBudget(s_max=1)), 4),
        (lambda: search_definable_emulation(g, cycle(10), 3, 1), 3),
    )
    for search, depth in searches:
        judged.clear()
        search()
        assert judged and {d for d, _ in judged} == {depth}
        assert max(levels for _, levels in judged) == depth - 1


def test_raw_searches_build_no_flip_twice(chunk, monkeypatch):
    """Separability and raw breakability skip the merge repeats, so no flip
    they build equals one they built before: a flip that is also a flip of
    the partition merging two parts was judged with that coarser partition,
    earlier in the stream.  Raw breakability with m = n always misses, so
    it builds the whole stream, less what it skipped.  Each search starts
    from an empty raw-stream cache, so it builds every flip it judges."""
    built = []
    real = flips.flip_adjacency_pack
    monkeypatch.setattr(flips, "flip_adjacency_pack",
                        lambda n, pieces: built.append(real(n, pieces)) or built[-1])
    monkeypatch.setattr(flips, "_RAW", {})
    skipped = misses = 0
    for rng, n, g in _instances(6):
        for raw_break in (True, False):
            built.clear()
            flips._RAW.clear()
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


def _raw_searches(n):
    """Separability and raw breakability searches of the one profile (n, 3)
    on different graphs: hits, misses, and a breakability search with
    m = n, which misses on the whole stream."""
    rng = random.Random(n)
    budget = SearchBudget(part_cap=3, raw_partitions=True)
    searches = []
    for _ in range(3):
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        w = WeightFn([rng.randint(1, 3) for _ in range(n)])
        eps = Fraction(rng.randint(1, 3), 2 * n)
        w1 = sorted(rng.sample(range(n), rng.randint(2, n)))
        searches += [lambda g=g, w=w, eps=eps: separability_search(g, w, 1, eps, 3),
                     lambda g=g, w1=w1: breakability_search(g, w1, 1, 2, budget),
                     lambda g=g: breakability_search(g, range(n), 1, n, budget)]
    return searches


def _fresh(searches):
    """The result of each search from an empty raw-stream cache."""
    results = []
    for search in searches:
        flips._RAW.clear()
        results.append(search())
    return results


def test_raw_cache_keeps_no_graph_state(chunk, monkeypatch):
    """Searches of one (n, parts) profile on different graphs, in either
    order, return what each returns from an empty raw-stream cache; each
    search continues the stream where the last one stopped, so every flip
    is built once, and once a miss has read the whole stream, no search of
    the profile builds a mask."""
    monkeypatch.setattr(flips, "_RAW", {})
    searches = _raw_searches(6)
    fresh = _fresh(searches)
    assert 0 < sum(map(bool, fresh)) < len(fresh) - 3
    for order in (slice(None), slice(None, None, -1)):
        flips._RAW.clear()
        assert [search() for search in searches[order]] == fresh[order]
    built = []
    real = flips.flip_adjacency_pack
    monkeypatch.setattr(flips, "flip_adjacency_pack",
                        lambda n, pieces: built.append(pieces) or real(n, pieces))
    flips._RAW.clear()
    hits_first = sorted(range(len(searches)), key=lambda i: not fresh[i])
    assert [searches[i]() for i in hits_first] == [fresh[i] for i in hits_first]
    stream = sum(len(c) for p in partition_labels(6, 3) for c in distinct_flip_codes(p, raw=True))
    assert sum(len(codes) for pieces in built for _, codes in pieces) == stream
    built.clear()
    assert [search() for search in searches] == fresh
    assert not built


def test_raw_cache_replays_a_refusal(monkeypatch):
    """A refusal met while drawing a raw stream, here ``_pair_count``
    refusing two parts, is raised where it is met, and again for every
    later search of the profile that reads that far, where a spent stream
    would end it as a miss."""
    monkeypatch.setattr(flips, "_RAW", {})
    monkeypatch.setattr(flips, "_WHOLE", {})
    real_count = flips._pair_count

    def capped(k):
        if k > 1:
            raise CapExceeded(f"{k} parts refused")
        return real_count(k)

    monkeypatch.setattr(flips, "_pair_count", capped)
    budget = SearchBudget(part_cap=2, raw_partitions=True)
    for search in (lambda: separability_search(path(4), WeightFn.uniform(4), 1, Fraction(1, 4), 2),
                   lambda: separability_search(cycle(4), WeightFn.uniform(4), 1, Fraction(1, 4), 2),
                   lambda: breakability_search(path(4), range(4), 1, 4, budget)):
        with pytest.raises(CapExceeded, match="2 parts refused"):
            search()


def _stored_bytes() -> int:
    return sum(bits.nbytes + sum(labels.nbytes + codes.nbytes for _, labels, codes in pieces)
               for packs, _, _ in flips._RAW.values() for bits, pieces in packs
               if bits is not None)


def test_raw_cache_stays_within_its_budget(monkeypatch):
    """Under a byte budget that holds only the first packs of the stream,
    every search returns what it returns from an empty cache, the stored
    packs never exceed the budget, and a search that misses on the whole
    stream judges each of its flips once, past the stored packs too."""
    monkeypatch.setattr(flips, "_RAW", {})
    searches = _raw_searches(6)
    fresh = _fresh(searches)
    flips._RAW.clear()
    monkeypatch.setattr(flips, "_RAW_BUDGET", 3000)
    judged = []
    real = flips.batched_distance_matrices
    monkeypatch.setattr(flips, "batched_distance_matrices",
                        lambda adjs, depth=None: judged.append(len(adjs)) or real(adjs, depth))
    stream = sum(len(c) for p in partition_labels(6, 3) for c in distinct_flip_codes(p, raw=True))
    for i, (search, want) in enumerate(zip(searches, fresh)):
        judged.clear()
        assert search() == want
        assert 0 < _stored_bytes() <= 3000
        assert i % 3 != 2 or sum(judged) == stream
    (packs, _, _), = flips._RAW.values()
    assert packs[-1][0] is not None, "the budget held the whole stream"


@pytest.mark.parametrize("chunks", [(None, 3), (3, None)], ids=["default-then-3", "3-then-default"])
def test_raw_cache_is_per_chunk(monkeypatch, chunks):
    """A search under one CHUNK never reads the packs stored under another,
    in either order: its stacks start at min(64, CHUNK) flips and never
    exceed CHUNK."""
    monkeypatch.setattr(flips, "_RAW", {})
    sizes = []
    real = flips.batched_distance_matrices
    monkeypatch.setattr(flips, "batched_distance_matrices",
                        lambda adjs, depth=None: sizes.append(len(adjs)) or real(adjs, depth))
    default = flips.CHUNK
    search = _raw_searches(6)[2]
    results = []
    for chunk in chunks:
        monkeypatch.setattr(flips, "CHUNK", chunk or default)
        sizes.clear()
        results.append(search())
        assert sizes[0] == min(64, flips.CHUNK) and max(sizes) <= flips.CHUNK
    assert results[0] == results[1] and not results[0]


def test_raw_cache_under_threads(monkeypatch):
    """Threads that search one profile at once, each in its own order, with
    a short switch interval and a budget that holds only part of the
    stream, all get the results of an empty cache, and the stored packs
    are the first packs of the stream, in order."""
    monkeypatch.setattr(flips, "_RAW", {})
    searches = _raw_searches(6)
    fresh = _fresh(searches)
    flips._RAW.clear()
    monkeypatch.setattr(flips, "_RAW_BUDGET", 6000)
    got, errors = {}, []

    def work(seed):
        order = random.Random(seed).sample(range(len(searches)), len(searches))
        try:
            for i in order * 2:
                got.setdefault(seed, []).append((i, searches[i]()))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    assert all(result == fresh[i] for runs in got.values() for i, result in runs)
    assert sum(map(len, got.values())) == 4 * 2 * len(searches)
    (packs, size, _), = flips._RAW.values()
    assert 0 < _stored_bytes() == size[0] <= 6000 and packs[-1][0] is not None
    stream = flips.candidate_packs(6, ((None, p) for p in partition_labels(6, 3)), True)
    def plain(packs):
        return [[(info, labels.tolist(), codes.tolist()) for info, labels, codes in pieces]
                for _, pieces in packs]

    assert plain(packs) == plain(islice(stream, len(packs)))
