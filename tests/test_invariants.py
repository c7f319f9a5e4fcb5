"""Theory invariants are checked by explicit raises that survive ``python -O``."""

import ast
from pathlib import Path

import pytest

from fractions import Fraction

import numpy as np

from flipkit import FlipSpec, Graph, Partition, WeightFn, break_from_sep, bipartite_flip, convert
from flipkit import breakability_search, breaksep, conversion, flips
from flipkit import search_definable_emulation, separability_search
from flipkit.generators import clique, path
from flipkit.graphs import INF, UNREACHED, Bipartite

SRC = Path(__file__).resolve().parent.parent / "src" / "flipkit"


def test_no_bare_asserts_in_the_library():
    offenders = [
        f"{module.name}:{node.lineno}"
        for module in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not offenders, f"assert statements vanish under python -O: {offenders}"


def test_no_search_uses_the_per_flip_enumeration():
    callers = [
        f"{module.name}:{node.lineno}"
        for module in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.Call)
        and "enumerate_flips" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not callers, f"searches must run on the batched flip kernel: {callers}"


def _names(node) -> set[str]:
    """Identifiers, attributes, imported names and string constants below ``node``."""
    return {
        getattr(sub, attr)
        for sub in ast.walk(node)
        for attr in ("id", "attr", "name", "value")
        if isinstance(getattr(sub, attr, None), str)
    }


def _called(node) -> set[str]:
    """Names of the functions called anywhere below ``node``."""
    return {
        getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
    }


def test_one_candidate_walker():
    """flips.first_flip is the one walk over flip candidates: no other
    module loops over a candidate stream or calls the walker per
    candidate, and only flips.flip_packs, the one flip stream of the
    searches and the flip metrics, reads the distinct flip codes of a
    partition."""
    streams = {"enumerate_partitions", "definable_candidates"}
    loops, readers = [], set()
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text())
        for node in ast.walk(tree):
            if module.name != "flips.py" and isinstance(node, (ast.For, ast.comprehension)):
                if _called(node.iter) & streams:
                    loops.append(f"{module.name}:{getattr(node, 'lineno', node.iter.lineno)}")
            if isinstance(node, (ast.For, ast.While)) and "first_flip" in _called(node):
                loops.append(f"{module.name}:{node.lineno} first_flip")
            if isinstance(node, ast.FunctionDef) and "distinct_flip_codes" in _called(node):
                readers.add(f"{module.name}:{node.name}")
            if isinstance(node, ast.FunctionDef) and node.name == "definable_candidates":
                assert "stats" not in [a.arg for a in node.args.args + node.args.kwonlyargs]
    assert not loops, f"walk flip candidates through flips.first_flip: {loops}"
    assert readers == {"flips.py:flip_packs"}, readers


#: Every exhaustive enumeration of the library, by the function that runs
#: it, with the cap that refuses its input and the function that checks
#: that cap before the enumeration starts (the enumeration itself, or a
#: caller).
EXHAUSTIVE_CAPS = [
    ("flips.py:partition_labels", "n_cap", "breaksep.py:separability_search"),
    ("flips.py:definable_candidates", "resolve_max_parts", "flips.py:definable_candidates"),
    # the code stream of flip_packs, which the walker and the flip metrics walk
    ("flips.py:distinct_flip_codes", "_pair_count", "flips.py:distinct_flip_codes"),
    ("flips.py:enumerate_flips", "check_part_cap", "flips.py:enumerate_flips"),
    ("vc.py:_shatter_value", "cap", "vc.py:shatter_function"),
    ("vc.py:_shatter_value", "cap", "vc.py:vc_dimension"),
    ("verify.py:verify_diam_complement", "_EXHAUSTIVE_N_CAP", "verify.py:verify_diam_complement"),
    ("verify.py:verify_bipartite_trichotomy", "_BIPARTITE_SIDE_CAP",
     "verify.py:verify_bipartite_trichotomy"),
    ("verify.py:verify_bipartite_classification", "_BIPARTITE_SIDE_CAP",
     "verify.py:verify_bipartite_classification"),
]

#: Functions that loop without a fixed bound or run an enumeration but are
#: bounded by their input, or known to be uncapped, and why.
BOUNDED = {
    "breaksep.py:breakability_search": "uncapped in n: raw partitions (partition_labels) are "
    "capped in parts only, and grow like cap^n / cap! (ROADMAP item 4)",
    "graphs.py:_bfs": "one round per BFS level, at most n",
    "flips.py:first_flip": "walks the candidate stream its caller built and capped",
    "flips.py:flip_packs": "packs the codes of a partition stream its callers capped",
    "flips.py:enumerate_partitions": "a lazy map over partition_labels; its consumer stops it",
    "metrics.py:_flip_metric": "the codes of a partition its callers checked against the part cap",
    "conversion.py:search_definable_emulation": "definable_candidates checks its own cap",
}


def test_every_exhaustive_enumeration_is_capped():
    """Each enumeration of EXHAUSTIVE_CAPS is refused above its cap by the
    listed function, which starts the enumeration and either calls the cap
    check or raises CapExceeded on a test that names the cap; and
    every function that loops exhaustively (``while True``, ``product``,
    ``combinations`` of a variable size, the counter chunks or the graph
    stacks) or starts a listed enumeration is listed, as an enumeration,
    a checker or BOUNDED, so no new loop ships without a cap."""
    functions = {
        f"{module.name}:{node.name}": node
        for module in sorted(SRC.glob("*.py"))
        for node in ast.parse(module.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    enumerations = {enum for enum, _, _ in EXHAUSTIVE_CAPS}
    for enum, cap, checker in EXHAUSTIVE_CAPS:
        node = functions[checker]
        guards = {
            name for sub in ast.walk(node)
            if isinstance(sub, ast.If)
            and any(isinstance(s, ast.Raise) and "CapExceeded" in _names(s) for s in sub.body)
            for name in _names(sub.test)
        }
        assert cap in guards | _called(node), (enum, cap, checker)
        assert checker == enum or enum.split(":")[1] in _called(node), (enum, checker)

    def loops(node) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.While) and getattr(sub.test, "value", None) is True:
                return True
            if isinstance(sub, ast.Call):
                name = getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)
                variable = name == "combinations" and not isinstance(sub.args[-1], ast.Constant)
                if variable or name in ("product", "_counter_chunks", "_graph_stack"):
                    return True
        return False

    listed = enumerations | {checker for _, _, checker in EXHAUSTIVE_CAPS} | set(BOUNDED)
    starts = {enum.split(":")[1] for enum in enumerations}
    unlisted = sorted(
        name for name, node in functions.items()
        if (loops(node) or _called(node) & starts) and name not in listed
    )
    assert not unlisted, f"cap these loops and list them in EXHAUSTIVE_CAPS: {unlisted}"
    assert set(BOUNDED) <= set(functions), set(BOUNDED) - set(functions)


def test_only_flips_resolves_the_part_cap():
    readers = {
        module.name: sorted(found)
        for module in sorted(SRC.glob("*.py"))
        if module.name != "flips.py"
        if (found := _names(ast.parse(module.read_text()))
            & {"FLIPKIT_MAX_PARTS", "DEFAULT_MAX_PARTS", "environ", "getenv"})
    }
    assert not readers, f"the part cap is resolved by flips.resolve_max_parts only: {readers}"


def test_one_bfs():
    defined = [
        f"{module.name}:{node.lineno}"
        for module in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "bfs_array"
    ]
    assert not defined, f"graphs._bfs is the one BFS: {defined}"
    loops = sorted(
        f"{module.name}:{func.name}"
        for module in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(module.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(node, ast.Call)
            and "matmul" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(func)
        )
    )
    assert loops == ["graphs.py:_bfs"], f"one level loop calls np.matmul: {loops}"
    named = _names(ast.parse((SRC / "metrics.py").read_text()))
    assert "batched_distance_matrices" not in named, "the flip metric folds inside the BFS"


def test_one_breakability_split():
    defined = [
        f"{module.name}:{node.lineno}"
        for module in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_greedy_split", "_conflict_components")
    ]
    assert not defined, f"breaksep._splits is the one split; the oracle keeps the reference: {defined}"


def test_partitions_through_their_labels():
    """Partition.from_labels is the one grouping of vertices by a key and
    flips.pair_index the one cell-to-pair map; apply_flip, the reference
    the kernel is checked against, does not read it."""
    offenders = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text())
        grouping = {
            sub
            for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Partition"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "from_labels"
            for sub in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (
                node.name == "pair_toggle_masks"
                or node.name == "apply_flip" and "pair_index" in _names(node)
            ):
                offenders.append(f"{module.name}:{node.lineno} {node.name}")
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault"
                    and node not in grouping):
                offenders.append(f"{module.name}:{node.lineno} setdefault")
    assert not offenders, f"group through Partition.from_labels, map cells by pair_index: {offenders}"


def test_vc_witness_is_rechecked_off_the_block_scan():
    """The block scan never re-verifies its own witness: vc_dimension checks
    it with is_shattered, the per-subset count the scan does not use."""
    called = {
        node.name: {getattr(sub.func, "id", None) for sub in ast.walk(node) if isinstance(sub, ast.Call)}
        for node in ast.parse((SRC / "vc.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    assert "_trace_count" not in called["_shatter_value"]
    assert "is_shattered" in called["vc_dimension"]


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
        monkeypatch.setattr(breaksep, "_scattered", lambda balls, probes: ())
        h = (Partition.trivial(4), FlipSpec())
        with pytest.raises(RuntimeError, match="scattered set too small"):
            break_from_sep(Graph.empty(4), range(4), 1, h)


class TestWrongKernelIsCaught:
    """A batched kernel that says every vertex is unreachable accepts the
    first flip of every search; the re-verification through apply_flip
    must refuse to return it."""

    @pytest.fixture(autouse=True)
    def unreachable_kernel(self, monkeypatch):
        monkeypatch.setattr(
            flips, "batched_distance_matrices",
            lambda adjs: np.full(np.shape(adjs), UNREACHED, dtype=np.int16),
        )

    def test_breakability(self):
        with pytest.raises(RuntimeError, match="apply_flip does not"):
            breakability_search(clique(4), range(4), 1, 2)

    def test_separability(self):
        with pytest.raises(RuntimeError, match="separability witness failed re-verification"):
            separability_search(clique(4), WeightFn.uniform(4), 1, Fraction(1, 4), 1)

    def test_emulation(self):
        with pytest.raises(RuntimeError, match="emulation witness failed re-verification"):
            search_definable_emulation(clique(4), Graph.empty(4), 1, 0)
