"""Text formats for graphs, partitions, weights, families and sets.

Every writer produces the canonical form its reader round-trips: graph
files start with ``n m`` and list edges ``u v`` with u < v; partitions are
``v part_id`` lines and weights ``v weight`` lines, each listing every
vertex once; set families are one whitespace-separated set per line.  A
vertex set (read only) lists its vertices separated by commas or
whitespace.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import DomainError
from .flips import Partition
from .graphs import Graph, _vertex_array, check_dense_n


def _rows(text: str) -> list[tuple[int, list[str]]]:
    """(1-based line number, fields) of every line left after ``#`` comments
    and blank lines are dropped."""
    rows = []
    for number, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            rows.append((number, fields))
    return rows


def _fields(row: tuple[int, list[str]], *kinds) -> tuple:
    """The fields of one row, converted by ``kinds`` (one per field, so
    also the required count); with no kinds, any number of integers."""
    number, fields = row
    kinds = kinds or (int,) * len(fields)
    if len(fields) != len(kinds):
        raise DomainError(f"line {number}: expected {len(kinds)} fields, got {len(fields)}")
    try:
        return tuple(kind(x) for kind, x in zip(kinds, fields))
    except ValueError:
        raise DomainError(f"line {number}: malformed field in {' '.join(fields)!r}") from None


def _graph(header: tuple[int, list[str]], edge_rows) -> Graph:
    """The graph of an ``n m`` header row and its ``u v`` edge rows."""
    n, m = _fields(header, int, int)
    if n < 0 or m < 0:
        raise DomainError(f"line {header[0]}: header counts must be nonnegative")
    check_dense_n(n, f"line {header[0]}: the vertex count")
    if len(edge_rows) != m:
        raise DomainError(
            f"line {header[0]}: header declares {m} edges, file has {len(edge_rows)}"
        )
    edges = [_fields(row, int, int) for row in edge_rows]
    u, v = _vertex_array(n, edges, edges=True, where=lambda i: f"line {edge_rows[i][0]}: ").T
    adj = np.zeros((n, n), dtype=bool)
    adj[u, v] = adj[v, u] = True
    return Graph(adj)


def _per_vertex(text: str, n: int | None, what: str, kind) -> list[str]:
    """The raw second fields of the ``v value`` lines of a per-vertex file,
    in vertex order; the lines must list each vertex 0..n-1 exactly once
    (0..max v when ``n`` is None), and ``kind`` must parse every value."""
    entries: dict[int, str] = {}
    for row in _rows(text):
        v, _ = _fields(row, int, kind)
        if v in entries:
            raise DomainError(f"line {row[0]}: vertex {v} listed twice in {what} file")
        entries[v] = row[1][1]
    count = n if n is not None else max(entries, default=-1) + 1
    if len(entries) != count or not all(0 <= v < count for v in entries):
        raise DomainError(f"{what} file must list every vertex 0..n-1 once")
    return [entries[v] for v in range(count)]


def dumps_graph(g: Graph) -> str:
    edges = g.edges()
    out = [f"{g.n} {len(edges)}"]
    out.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(out) + "\n"


def loads_graph(text: str) -> Graph:
    rows = _rows(text)
    if not rows:
        raise DomainError("empty graph file")
    return _graph(rows[0], rows[1:])


def dumps_partition(p: Partition) -> str:
    return "\n".join(f"{v} {p.part_of(v)}" for v in range(p.n)) + "\n"


def loads_partition(text: str, n: int | None = None) -> Partition:
    return Partition.from_labels(map(int, _per_vertex(text, n, "partition", int)))


def dumps_weights(weights) -> str:
    return "\n".join(f"{v} {w}" for v, w in enumerate(weights)) + "\n"


def loads_weights(text: str, n: int | None = None) -> list[int | float]:
    """Parse ``v weight`` lines; all-integer files come back as ints so the
    exact-arithmetic comparison path stays available."""
    raws = _per_vertex(text, n, "weights", float)
    try:
        return [int(w) for w in raws]
    except ValueError:
        return [float(w) for w in raws]


def dumps_family(sets) -> str:
    return "\n".join(" ".join(map(str, s)) for s in sets) + "\n"


def loads_family(text: str) -> list[tuple[int, ...]]:
    return [_fields(row) for row in _rows(text)]


def loads_vertex_set(text: str) -> list[int]:
    """The vertices of a set, separated by commas or whitespace over any
    number of lines (``--set 0,3,5`` or a probe-set file)."""
    return [v for row in _rows(text.replace(",", " ")) for v in _fields(row)]


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def export_dot(g: Graph, partition: Partition | None = None) -> str:
    """Graphviz DOT text; with a partition, vertices are colored by part."""
    palette = [
        "lightblue", "lightcoral", "lightgreen", "gold",
        "plum", "lightsalmon", "paleturquoise", "khaki",
    ]
    out = ["graph G {"]
    for v in range(g.n):
        if partition is not None:
            color = palette[partition.part_of(v) % len(palette)]
            out.append(f'  {v} [style=filled, fillcolor="{color}"];')
        else:
            out.append(f"  {v};")
    for u, v in g.edges():
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"


def export_csv(rows: list[dict], columns: list[str]) -> str:
    """CSV with a fixed header; an empty row list still emits the header."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in columns})
    return buf.getvalue()
