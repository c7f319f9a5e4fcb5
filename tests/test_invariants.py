"""Theory invariants are checked by explicit raises that survive ``python -O``."""

import ast
from pathlib import Path

import pytest

from flipkit import FlipSpec, Graph, Partition, break_from_sep, bipartite_flip, convert
from flipkit import breaksep, conversion
from flipkit.generators import path
from flipkit.graphs import INF, Bipartite

SRC = Path(__file__).resolve().parent.parent / "src" / "flipkit"


def test_no_bare_asserts_in_the_library():
    offenders = [
        f"{module.name}:{node.lineno}"
        for module in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not offenders, f"assert statements vanish under python -O: {offenders}"


class TestBrokenTheoryRaises:
    def test_bipartite_block_large_on_both_sides(self, monkeypatch):
        monkeypatch.setattr(conversion, "diameter", lambda g: INF)
        b = Bipartite(Graph.from_edges(4, [(0, 2), (1, 2), (1, 3)]), (0, 1), (2, 3))
        with pytest.raises(RuntimeError, match="large diameter on both sides"):
            bipartite_flip(b)

    def test_part_and_complement_both_large(self, monkeypatch):
        monkeypatch.setattr(conversion, "diameter", lambda g: INF)
        with pytest.raises(RuntimeError, match="diameter dichotomy is broken"):
            convert(path(4), Partition.trivial(4))

    def test_scattered_set_too_small(self, monkeypatch):
        monkeypatch.setattr(breaksep, "greedy_scattered", lambda g, w_set, d: ())
        h = (Partition.trivial(4), FlipSpec())
        with pytest.raises(RuntimeError, match="scattered set too small"):
            break_from_sep(Graph.empty(4), range(4), 1, h)
