"""Deterministic graph generators for benchmarks and sweeps."""

from __future__ import annotations

import random
from itertools import combinations

from .errors import DomainError
from . import graphs
from .graphs import Graph, _check_cap, _check_int, check_dense_n


def path(n: int) -> Graph:
    _check_int(n, "n", 1)
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    _check_int(n, "n", 3)
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def clique(n: int) -> Graph:
    _check_int(n, "n", 1)
    return Graph.from_edges(n, combinations(range(n), 2))


def star(n: int) -> Graph:
    """Vertex 0 joined to vertices 1..n-1."""
    _check_int(n, "n", 1)
    return Graph.from_edges(n, ((0, i) for i in range(1, n)))


def grid(rows: int, cols: int) -> Graph:
    _check_int(rows, "rows", 1)
    _check_int(cols, "cols", 1)
    check_dense_n(rows * cols)
    def vid(i, j):
        return i * cols + j
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < rows:
                edges.append((vid(i, j), vid(i + 1, j)))
    return Graph.from_edges(rows * cols, edges)


def hypercube(dim: int) -> Graph:
    """2^dim vertices, edges between words at Hamming distance one."""
    _check_int(dim, "dim")
    _check_cap(dim, graphs._MAX_DENSE_N.bit_length() - 1, "the hypercube dimension")
    n = 1 << dim
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return Graph.from_edges(n, edges)


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi graph; identical (n, p, seed) gives identical output."""
    _check_int(n, "n", 1)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"gnp needs p in [0,1], got {p}")
    check_dense_n(n)
    rng = random.Random(seed)
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def halfgraph(n: int) -> Graph:
    """Vertices a_1..a_n (ids 0..n-1) and b_1..b_n (ids n..2n-1), with an
    edge a_i b_j exactly when i <= j."""
    _check_int(n, "n", 1)
    edges = ((i, n + j) for i in range(n) for j in range(n) if i <= j)
    return Graph.from_edges(2 * n, edges)


#: kind name -> (callable, parameter names); drives the CLI `gen` command.
KINDS = {
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "clique": (clique, ("n",)),
    "star": (star, ("n",)),
    "grid": (grid, ("rows", "cols")),
    "hypercube": (hypercube, ("dim",)),
    "gnp": (gnp, ("n", "p", "seed")),
    "halfgraph": (halfgraph, ("n",)),
}


def generate(kind: str, *params) -> Graph:
    if kind not in KINDS:
        raise DomainError(f"unknown graph kind {kind!r}; choices: {sorted(KINDS)}")
    func, names = KINDS[kind]
    if len(params) != len(names):
        raise DomainError(
            f"{kind} expects parameters {names}, got {len(params)} values"
        )
    converted = []
    for name, raw in zip(names, params):
        try:
            converted.append(float(raw) if name == "p" else int(raw))
        except ValueError:
            what = "a number" if name == "p" else "an integer"
            raise DomainError(f"{kind} parameter {name} must be {what}, got {raw!r}") from None
    return func(*converted)
