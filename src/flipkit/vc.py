"""Exact VC-dimension and shatter function by exhaustive subset search.

Neighborhood traces use open neighborhoods, so a vertex of the probed set
contributes its own trace too (never containing itself).  Everything is
exact; the caps are refusals, not approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from .errors import DomainError
from .graphs import Graph, _check_cap, _check_int

DEFAULT_SHATTER_CAP = 5
DEFAULT_VCDIM_CAP = 16
# subsets whose traces are counted together: bounds the (n, _BLOCK) int64
# code block that _shatter_value holds at any cap
_BLOCK = 1024


@dataclass(frozen=True)
class ShatterReport:
    """VC-dimension with a shattered witness set and the trace-count table."""

    vcdim: int
    traces_by_size: dict[int, int]
    witness: tuple[int, ...]


def _trace_count(g: Graph, cols: list[int]) -> int:
    if not cols:
        return 1
    codes = g.adj[:, cols] @ (1 << np.arange(len(cols), dtype=np.int64))
    return len(np.unique(codes))


def _shatter_value(g: Graph, n: int) -> tuple[int, tuple[int, ...] | None]:
    """Exact max trace count over size-n subsets, plus the first subset (in
    ``combinations`` order) that reaches it.

    Counts the traces of ``_BLOCK`` subsets at a time: column b of ``codes``
    holds every vertex's trace on subset b as an n-bit code, so the distinct
    codes of a sorted column are its trace count.  Stops after the first
    block in which some subset realizes all 2^n traces.
    """
    if n == 0:
        return 1, ()
    best, best_subset = 0, None
    full = 1 << n
    subsets = combinations(range(g.n), n)
    while block := list(islice(subsets, _BLOCK)):
        cols = np.array(block, dtype=np.intp)
        codes = np.zeros((g.n, len(block)), dtype=np.int64)
        for j in range(n):
            codes |= g.adj[:, cols[:, j]].astype(np.int64) << j
        codes.sort(axis=0)
        counts = 1 + np.count_nonzero(np.diff(codes, axis=0), axis=0)
        b = int(counts.argmax())
        if counts[b] > best:
            best, best_subset = int(counts[b]), block[b]
        if best == full:
            break
    return best, best_subset


def shatter_function(g: Graph, n: int, *, cap: int = DEFAULT_SHATTER_CAP) -> int:
    """Max number of distinct neighborhood traces on any size-n vertex set."""
    _check_int(n, "trace size n")
    if n > g.n:
        raise DomainError(f"trace size {n} out of range for n={g.n}")
    _check_cap(n, cap, "the trace size", "the shatter-function cap")
    return _shatter_value(g, n)[0]


def is_shattered(g: Graph, subset) -> bool:
    """Whether every subset of ``subset`` occurs as a neighborhood trace."""
    subset = g._vertices(subset)
    return _trace_count(g, subset) == 1 << len(subset)


def vc_dimension(g: Graph, *, cap: int = DEFAULT_VCDIM_CAP) -> ShatterReport:
    """Exact VC-dimension: the largest n whose shatter value is 2^n.

    Stops at the first n that fails to shatter (the shatter function can
    never recover past it).  Also cross-checks the trace-count table against
    the binomial-sum bound; a violation would falsify the theory this
    package is built on, so it is reported as a hard error.  The witness
    the block scan found is re-checked by ``is_shattered``, which counts
    its traces on its own.
    """
    if g.n == 0:
        raise DomainError("VC-dimension of the empty graph is undefined")
    _check_cap(g.n, cap, "the vertex count", "the VC-dimension cap")
    traces_by_size: dict[int, int] = {}
    witness: tuple[int, ...] = ()
    n = 0
    while True:
        value, subset = _shatter_value(g, n)
        traces_by_size[n] = value
        # the whole vertex set is never shattered (no open neighbourhood
        # holds its own vertex), so n never passes g.n
        if value == 1 << n:
            witness = subset if subset is not None else ()
            n += 1
        else:
            vcdim = n - 1
            break
    if not is_shattered(g, witness) or len(witness) != vcdim:
        raise RuntimeError(f"witness {witness} fails shatter validation")
    for m, value in traces_by_size.items():
        bound = sum(comb(m, i) for i in range(min(vcdim, m) + 1))
        if m >= vcdim and value > bound:
            raise RuntimeError(
                f"trace count {value} at n={m} violates the binomial-sum bound {bound}"
            )
    return ShatterReport(vcdim=vcdim, traces_by_size=traces_by_size, witness=witness)
