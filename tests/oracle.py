"""Independent reference implementations used to check the library.

Everything here works on plain edge sets and dict-of-sets adjacency with
no numpy and no shared code with the package, so agreement between the two
is meaningful.  Exponential blowups are accepted: these run at test scale
only.
"""

from collections import deque
from itertools import combinations, product

INF = float("inf")


def edges_of(graph) -> frozenset:
    """Edge set of a flipkit Graph as frozenset of frozenset pairs."""
    return frozenset(frozenset(e) for e in graph.edges())


def adjacency(n: int, edges) -> dict[int, set[int]]:
    adj = {v: set() for v in range(n)}
    for e in edges:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs(n: int, edges, src: int) -> dict[int, float]:
    adj = adjacency(n, edges)
    dist = {v: INF for v in range(n)}
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] == INF:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def all_pairs(n: int, edges) -> dict[tuple[int, int], float]:
    out = {}
    for src in range(n):
        d = bfs(n, edges, src)
        for v in range(n):
            out[src, v] = d[v]
    return out


def diameter(n: int, edges) -> float:
    if n == 0:
        raise ValueError("no diameter for the empty graph")
    return max(all_pairs(n, edges).values())


def ball(n: int, edges, v: int, r: int) -> set[int]:
    d = bfs(n, edges, v)
    return {u for u in range(n) if d[u] <= r}


def complement_edges(n: int, edges) -> frozenset:
    all_edges = {frozenset((u, v)) for u, v in combinations(range(n), 2)}
    return frozenset(all_edges - set(edges))


def flip_edges(n: int, edges, parts, spec_pairs) -> frozenset:
    """Apply a flip by explicit symmetric difference on crossing pairs."""
    toggled = set()
    for i, j in spec_pairs:
        for a in parts[i]:
            for b in parts[j]:
                if a != b:
                    toggled.add(frozenset((a, b)))
    return frozenset(set(edges) ^ toggled)


def all_flips(n: int, edges, parts):
    """Every flip of the partition as (spec pair set, edge set)."""
    k = len(parts)
    pair_order = [(i, j) for i in range(k) for j in range(i, k)]
    for chosen in product([False, True], repeat=len(pair_order)):
        spec = [p for p, used in zip(pair_order, chosen) if used]
        yield frozenset(spec), flip_edges(n, edges, parts, spec)


def dist_partition(n: int, edges, parts, u: int, v: int) -> float:
    best = 0
    for _, flipped in all_flips(n, edges, parts):
        d = bfs(n, flipped, u)[v]
        best = max(best, d)
        if best == INF:
            return INF
    return best


def definable_parts(n: int, edges, s) -> list[tuple[int, ...]]:
    adj = adjacency(n, edges)
    s_sorted = sorted(set(s))
    parts = [(v,) for v in s_sorted]
    classes = {}
    for v in range(n):
        if v in set(s_sorted):
            continue
        key = frozenset(adj[v] & set(s_sorted))
        classes.setdefault(key, []).append(v)
    parts.extend(tuple(sorted(vs)) for vs in classes.values())
    parts.sort(key=lambda p: p[0])
    return parts


def best_traces(n: int, edges, size: int) -> tuple[int, tuple[int, ...]]:
    """Max trace count on size-``size`` sets, and the first set in
    lexicographic order that reaches it."""
    if size == 0:
        return 1, ()
    adj = adjacency(n, edges)
    best, first = 0, None
    for subset in combinations(range(n), size):
        count = len({frozenset(adj[v] & set(subset)) for v in range(n)})
        if count > best:
            best, first = count, subset
    return best, first


def shatter(n: int, edges, size: int) -> int:
    return best_traces(n, edges, size)[0]


def vcdim(n: int, edges) -> int:
    d = 0
    while d + 1 <= n and shatter(n, edges, d + 1) == 1 << (d + 1):
        d += 1
    return d


def balls_disjoint(n: int, edges, a1, a2, r: int) -> bool:
    covered = set()
    for v in a1:
        covered |= ball(n, edges, v, r)
    return all(not (ball(n, edges, v, r) & covered) for v in a2)


def ball_containment(n: int, inner_edges, outer_edges, r_max: int, factor: int) -> bool:
    """Every r-ball of the inner graph within the factor*r ball outside."""
    for v in range(n):
        d_in = bfs(n, inner_edges, v)
        d_out = bfs(n, outer_edges, v)
        for r in range(r_max + 1):
            for u in range(n):
                if d_in[u] <= r and d_out[u] > factor * r:
                    return False
    return True


def greedy_split(n: int, edges, probes, r: int, m: int, w1, w2):
    """The breakability predicate's two-stage greedy, or None.

    Probes conflict when their r-balls meet (distance at most 2r).  Stage
    one gives whole conflict components, in order of their minimum member,
    to the currently smaller side: W1 members to A1 when |A1| <= |A2|, else
    W2 members to A2.  Stage two anchors A1 on the first m probes of W1 and
    takes the first m probes of W2 that are not anchors and meet no anchor.
    """
    if m == 0:
        return (), ()
    probes = sorted(set(probes))
    dist = all_pairs(n, edges)

    def meets(a, b):
        return dist[a, b] <= 2 * r

    a1, a2, seen = [], [], set()
    for v in probes:
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            a = stack.pop()
            fresh = [b for b in probes if b not in comp and meets(a, b)]
            comp.update(fresh)
            stack.extend(fresh)
        seen |= comp
        if len(a1) <= len(a2):
            a1 += [u for u in comp if u in w1]
        else:
            a2 += [u for u in comp if u in w2]
    if len(a1) >= m and len(a2) >= m:
        return tuple(sorted(a1)), tuple(sorted(a2))
    anchor = [v for v in probes if v in w1][:m]
    other = [v for v in probes
             if v in w2 and v not in anchor and not any(meets(a, v) for a in anchor)]
    if len(anchor) < m or len(other) < m:
        return None
    return tuple(anchor), tuple(other[:m])
