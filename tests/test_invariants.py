"""Theory invariants are checked by explicit raises that survive ``python -O``."""

import ast
from pathlib import Path

import pytest

from fractions import Fraction

import numpy as np

from flipkit import FlipSpec, Graph, Partition, WeightFn, break_from_sep, bipartite_flip, convert
from flipkit import SearchBudget, SetFamily, breakability_search, breaksep, classify_bipartite
from flipkit import conversion, flips, search_definable_emulation, separability_search
from flipkit import small_balls_orchestrate, sunflower_extract, vc, vc_dimension
from flipkit.generators import clique, path
from flipkit.graphs import UNREACHED, Bipartite
from flipkit.verify import LEMMA_SWEEPS

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


def _functions() -> list[tuple[str, ast.AST]]:
    """("module.py:name", node) of every function of the library, nested ones too."""
    return [
        (f"{module.name}:{func.name}", func)
        for module in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(module.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


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


def test_flips_catches_no_refusal():
    """No ``except`` clause in flips.py catches CapExceeded, by name, by a
    base class or bare: a refusal met while drawing a flip stream is raised
    where it is met, never deferred or stored."""
    bases = {"CapExceeded", "RuntimeError", "Exception", "BaseException"}
    tree = ast.parse((SRC / "flips.py").read_text())
    caught = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
              and (node.type is None or _names(node.type) & bases)]
    assert not caught, f"flips.py catches CapExceeded at lines {caught}"


def test_one_sweep_loop():
    """verify._sweep is the one loop that fills and ends a sweep's report:
    nothing else in verify.py builds a RunReport or sets its outcome or
    payload, and every function of LEMMA_SWEEPS reaches it."""
    tree = ast.parse((SRC / "verify.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def fills(node) -> list:
        return [
            sub for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
            and sub.attr in ("outcome", "payload")
            or isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "RunReport"
        ]

    assert "_sweep" in functions and fills(functions["_sweep"]), "verify._sweep fills the report"
    assert len(fills(tree)) == len(fills(functions["_sweep"])), "only verify._sweep fills a report"
    for _, fn in LEMMA_SWEEPS.values():
        reached, todo = set(), [fn.__name__]
        while todo:
            name = todo.pop()
            reached.add(name)
            todo.extend(_called(functions[name]) & set(functions) - reached)
        assert "_sweep" in reached, f"{fn.__name__} does not report through verify._sweep"


#: Every exhaustive enumeration of the library, by the function that runs
#: it, with the cap that refuses its input and the function that checks
#: that cap before the enumeration starts (the enumeration itself, or a
#: caller).
EXHAUSTIVE_CAPS = [
    ("flips.py:raw_packs", "_check_cap", "breaksep.py:separability_search"),
    ("flips.py:raw_packs", "_check_cap", "breaksep.py:breakability_search"),
    ("flips.py:definable_candidates", "resolve_max_parts", "flips.py:definable_candidates"),
    # the code stream of flip_packs, which the walker and the flip metrics walk
    ("flips.py:distinct_flip_codes", "_pair_count", "flips.py:distinct_flip_codes"),
    ("flips.py:enumerate_flips", "check_part_cap", "flips.py:enumerate_flips"),
    ("vc.py:_shatter_value", "_check_cap", "vc.py:shatter_function"),
    ("vc.py:_shatter_value", "_check_cap", "vc.py:vc_dimension"),
    ("verify.py:verify_diam_complement", "_check_cap", "verify.py:verify_diam_complement"),
    ("verify.py:_bipartite_stacks", "_check_cap", "verify.py:_bipartite_stacks"),
]

#: Functions that loop without a fixed bound or run an enumeration but are
#: bounded by their input, or known to be uncapped, and why.
BOUNDED = {
    "graphs.py:_bfs": "one round per BFS level, at most n",
    "flips.py:first_flip": "judges the packs of a stream its caller built and capped",
    "flips.py:flip_packs": "packs the codes of a partition stream its callers capped",
    "flips.py:partition_labels": "drawn by raw_packs and enumerate_partitions, capped at the call",
    "flips.py:enumerate_partitions": "a lazy map over partition_labels; its consumer stops it",
    "metrics.py:_flip_metric": "the codes of a partition its callers checked against the part cap",
    "conversion.py:search_definable_emulation": "definable_candidates checks its own cap",
    "verify.py:verify_bipartite_trichotomy": "the stacks of _bipartite_stacks, capped at the call",
    "verify.py:verify_bipartite_classification": "the stacks of _bipartite_stacks, capped at the call",
}


def test_every_exhaustive_enumeration_is_capped():
    """Each enumeration of EXHAUSTIVE_CAPS is refused above its cap by the
    listed function, which starts the enumeration and calls the cap check
    (only graphs._check_cap raises CapExceeded); and
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
        assert cap in _called(node), (enum, cap, checker)
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


def _raises(node, error: str) -> bool:
    """Whether ``node`` raises ``error`` anywhere below it."""
    return any(isinstance(sub, ast.Raise) and error in _names(sub) for sub in ast.walk(node))


def test_one_cap_policy():
    """graphs._check_cap is the one CapExceeded refusal and graphs._check_int
    the one integer and range refusal of an argument: no other function
    raises CapExceeded, compares a parameter with an integer constant to
    raise a DomainError, or words an integer refusal; every EXHAUSTIVE_CAPS
    row is refused through _check_cap, or a wrapper of it, except the
    defining sets, which skip a set over the part cap."""
    functions = dict(_functions())
    gone = {"_check_radius", "_check_n_cap"}
    names = set().union(*(_names(ast.parse(m.read_text())) for m in SRC.glob("*.py")))
    assert not names & gone, names & gone
    assert {name for name, node in functions.items() if _raises(node, "CapExceeded")} == {
        "graphs.py:_check_cap"}

    def compares_to_int(test, params) -> bool:
        """Whether ``test`` compares one of ``params`` with an int constant."""
        return any(
            any(isinstance(o, ast.Name) and o.id in params for o in [sub.left, *sub.comparators])
            and any(isinstance(o, ast.Constant) and type(o.value) is int
                    for o in [sub.left, *sub.comparators])
            for sub in ast.walk(test) if isinstance(sub, ast.Compare)
        )

    exempt = {"graphs.py:_check_int", "breaksep.py:_check_eps"}  # eps is a real number
    refusals = []
    for name, func in functions.items():
        params = {a.arg for a in func.args.args + func.args.kwonlyargs}
        for node in ast.walk(func):
            compares = (isinstance(node, ast.If) and compares_to_int(node.test, params)
                        and _raises(ast.Module(node.body, []), "DomainError"))
            words = isinstance(node, ast.Constant) and "must be an integer" in str(node.value)
            if (compares or words) and name not in exempt:
                refusals.append(name)
    assert not refusals, f"refuse integer arguments through _check_int: {refusals}"
    for enum, cap, checker in EXHAUSTIVE_CAPS:
        wraps = f"flips.py:{cap}" in functions and "_check_cap" in _called(functions[f"flips.py:{cap}"])
        assert cap == "_check_cap" or wraps or enum == "flips.py:definable_candidates", (enum, cap)


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
    functions = _functions()
    products = sorted(
        name for name, func in functions
        if any(
            isinstance(node, ast.Call)
            and "matmul" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(func)
        )
    )
    assert products == ["graphs.py:_bfs"], f"one level loop calls np.matmul: {products}"
    # a level loop adds each level's pending cells to the distances
    levels = sorted(
        name for name, func in functions
        if any(
            isinstance(loop, (ast.For, ast.While))
            and any(
                isinstance(node, ast.AugAssign) and getattr(node.target, "id", None) == "dist"
                for node in ast.walk(loop)
            )
            for loop in ast.walk(func)
        )
    )
    assert levels == ["graphs.py:_bfs", "graphs.py:_word_fold"], (
        f"two level loops, the float32 one and the bit-sliced fold: {levels}")
    named = _names(ast.parse((SRC / "metrics.py").read_text()))
    assert "batched_distance_matrices" not in named, "the flip metric folds inside the BFS"


def _template(node: ast.JoinedStr) -> str:
    """An f-string's text with ``{}`` in place of each field."""
    return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)


def test_one_vertex_check():
    """graphs._vertex_array is the one vertex check: the only function that
    builds "vertex ... out of range for n=" or its edge form, and the
    per-element helpers it replaced are gone."""
    refusals = ("vertex {} out of range for n=", "edge ({},{}) out of range for n=")
    builders = sorted(
        name for name, func in _functions()
        if any(
            isinstance(node, ast.JoinedStr) and any(text in _template(node) for text in refusals)
            for node in ast.walk(func)
        )
    )
    assert builders == ["graphs.py:_vertex_array"], f"one function builds the range refusal: {builders}"
    gone = [name for name, _ in _functions()
            if name.split(":")[1] in ("_check_vertex_types", "edge_error")]
    assert not gone, f"vertices are checked through graphs._vertex_array: {gone}"


def test_one_pack_dispatch():
    """metrics._pack_max is the one place that picks a flip-metric pack's
    layout: the only function with ``_WORD``, the flips per word of the
    bit-sliced fold, as a side of a comparison.  flips.flip_words is the
    one builder of its words: the only function that packs bits
    little-endian."""
    functions = _functions()

    def is_named(node, name: str) -> bool:
        return name in (getattr(node, "id", None), getattr(node, "attr", None))

    dispatch = sorted(
        name for name, func in functions
        if any(
            isinstance(node, ast.Compare)
            and any(is_named(side, "_WORD") for side in [node.left, *node.comparators])
            for node in ast.walk(func)
        )
    )
    assert dispatch == ["metrics.py:_pack_max"], f"one function compares with _WORD: {dispatch}"
    packers = sorted(
        name for name, func in functions
        if any(
            isinstance(node, ast.Call) and is_named(node.func, "packbits")
            and any(k.arg == "bitorder" and getattr(k.value, "value", None) == "little"
                    for k in node.keywords)
            for node in ast.walk(func)
        )
    )
    assert packers == ["flips.py:flip_words"], f"one function packs words: {packers}"


def test_one_breakability_split():
    defined = [
        f"{module.name}:{node.lineno}"
        for module in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_greedy_split", "_conflict_components")
    ]
    assert not defined, f"breaksep._splits is the one split; the oracle keeps the reference: {defined}"


def test_one_component_labelling():
    """graphs.component_labels is the one reader of component labels: no
    other function takes ``(... != UNREACHED).argmax(...)``, and the old
    component helpers of the classification are gone."""
    offenders = set()
    for module in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(module.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            if func.name in ("_components", "_is_biclique_component"):
                offenders.add(f"{module.name}:{func.name}")
            labels = any(
                isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "argmax"
                and isinstance(node.func.value, ast.Compare)
                and "UNREACHED" in _names(node.func.value)
                for node in ast.walk(func)
            )
            if labels and f"{module.name}:{func.name}" != "graphs.py:component_labels":
                offenders.add(f"{module.name}:{func.name}")
    assert not offenders, f"read components through graphs.component_labels: {sorted(offenders)}"


def test_partitions_through_their_labels():
    """flips._first_labels is the one grouping of vertices by a key and
    flips.pair_index the one cell-to-pair map; apply_flip, the reference
    the kernel is checked against, does not read it."""
    offenders = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text())
        grouping = {
            sub
            for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_first_labels"
            and module.name == "flips.py"
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
    assert not offenders, f"group through flips._first_labels, map cells by pair_index: {offenders}"


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


def test_conversion_reads_through_graphs():
    """The conversion tests its sentinel-coded readings through
    graphs.within and UNREACHED, with no private reader and no INF, and
    flips.reconstruct_flip_spec reads every part pair in one pass."""
    tree = ast.parse((SRC / "conversion.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"diameter", "is_connected"}, "read pieces through graphs.within"
    assert "INF" not in _names(tree), "conversion.py reads sentinel-coded values, not INF"
    (spec,) = [
        node for node in ast.walk(ast.parse((SRC / "flips.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "reconstruct_flip_spec"
    ]
    loops = [node.lineno for node in ast.walk(spec)
             if isinstance(node, (ast.For, ast.comprehension))]
    assert not loops, f"reconstruct_flip_spec loops over pairs at lines {loops}"


def _unreached_pieces(adj, pieces):
    """Every piece and its complement read as disconnected."""
    return [(UNREACHED, UNREACHED)] * len(pieces)


class TestBrokenTheoryRaises:
    def test_bipartite_block_large_on_both_sides(self, monkeypatch):
        monkeypatch.setattr(conversion, "within", lambda dist, r: False)
        b = Bipartite(Graph.from_edges(4, [(0, 2), (1, 2), (1, 3)]), (0, 1), (2, 3))
        with pytest.raises(RuntimeError, match="large diameter on both sides"):
            bipartite_flip(b)

    def test_part_and_complement_both_large(self, monkeypatch):
        monkeypatch.setattr(conversion, "within", lambda dist, r: False)
        with pytest.raises(RuntimeError, match="diameter dichotomy is broken"):
            convert(path(4), Partition.trivial(4))

    def test_scattered_set_too_small(self, monkeypatch):
        monkeypatch.setattr(breaksep, "_scattered", lambda balls, probes: ())
        h = (Partition.trivial(4), FlipSpec())
        with pytest.raises(RuntimeError, match="scattered set too small"):
            break_from_sep(Graph.empty(4), range(4), 1, h)

    def test_inconsistent_sunflower(self, monkeypatch):
        # 01 and 02 meet in {0}, not in the claimed empty core
        monkeypatch.setattr(breaksep, "_greedy_sunflower",
                            lambda sets, m: ([(0, 1), (0, 2)], frozenset()))
        with pytest.raises(RuntimeError, match="greedy sunflower is inconsistent"):
            sunflower_extract(SetFamily([(0, 1), (0, 2)], uniform_size=2), 2)

    def test_greedy_split_witness_rejected(self, monkeypatch):
        monkeypatch.setattr(breaksep, "verify_break_witness", lambda g, w: False)
        with pytest.raises(RuntimeError, match="greedy split produced an invalid witness"):
            breakability_search(Graph.empty(4), range(4), 1, 2)

    def test_constructed_witness_rejected(self, monkeypatch):
        monkeypatch.setattr(breaksep, "verify_break_witness", lambda g, w: False)
        h = (Partition.trivial(4), FlipSpec())
        with pytest.raises(RuntimeError, match="constructed witness failed re-verification"):
            break_from_sep(Graph.empty(4), range(4), 1, h)

    def test_kept_set_above_the_bound(self, monkeypatch):
        monkeypatch.setattr(WeightFn, "within_eps", lambda self, value, eps: False)
        fam = SetFamily([(v,) for v in range(6)], uniform_size=1)
        with pytest.raises(RuntimeError, match="group separation must be broken"):
            small_balls_orchestrate(Graph.empty(6), WeightFn.uniform(6), fam, 1,
                                    Fraction(1, 2), SearchBudget(group_size=2))

    def test_vc_witness_not_shattered(self, monkeypatch):
        monkeypatch.setattr(vc, "is_shattered", lambda g, subset: False)
        with pytest.raises(RuntimeError, match="fails shatter validation"):
            vc_dimension(path(4))

    def test_vc_trace_count_above_the_binomial_sum(self, monkeypatch):
        monkeypatch.setattr(vc, "comb", lambda n, k: 0)
        with pytest.raises(RuntimeError, match="violates the binomial-sum bound"):
            vc_dimension(path(4))

    def test_isolated_vertex_without_a_dominating_partner(self, monkeypatch):
        # 3 is isolated on the right, and 2 misses 1: no right vertex dominates
        monkeypatch.setattr(conversion, "_piece_diameters", _unreached_pieces)
        b = Bipartite(Graph.from_edges(4, [(0, 2)]), (0, 1), (2, 3))
        with pytest.raises(RuntimeError, match="no dominating partner.*classification is broken"):
            classify_bipartite(b)

    def test_components_that_are_not_two_bicliques(self, monkeypatch):
        # a path 0-2-1-3: no isolated vertex, and one component
        monkeypatch.setattr(conversion, "_piece_diameters", _unreached_pieces)
        b = Bipartite(Graph.from_edges(4, [(0, 2), (1, 2), (1, 3)]), (0, 1), (2, 3))
        with pytest.raises(RuntimeError, match="not exactly two bicliques.*is broken"):
            classify_bipartite(b)


class TestWrongKernelIsCaught:
    """A batched kernel that says every vertex is unreachable accepts the
    first flip of every search; the re-verification through apply_flip
    must refuse to return it."""

    @pytest.fixture(autouse=True)
    def unreachable_kernel(self, monkeypatch):
        monkeypatch.setattr(
            flips, "batched_distance_matrices",
            lambda adjs, depth=None: np.full(np.shape(adjs), UNREACHED, dtype=np.int16),
        )

    def test_breakability(self):
        with pytest.raises(RuntimeError, match="greedy split produced an invalid witness"):
            breakability_search(clique(4), range(4), 1, 2)

    def test_separability(self):
        with pytest.raises(RuntimeError, match="separability witness failed re-verification"):
            separability_search(clique(4), WeightFn.uniform(4), 1, Fraction(1, 4), 1)

    def test_emulation(self):
        with pytest.raises(RuntimeError, match="emulation witness failed re-verification"):
            search_definable_emulation(clique(4), Graph.empty(4), 1, 0)


def test_public_surface():
    """The public names of flipkit/__init__.py, so that an API change shows
    in the diff of this list."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    names = {alias.asname or alias.name
             for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets}
    assert sorted(name for name in names if not name.startswith("_")) == [
        "Bipartite", "BipartiteCase", "BipartiteCaseTag", "BreakWitness", "CapExceeded",
        "ConversionResult", "DomainError", "FlipSpec", "Graph", "INF",
        "Partition", "SearchBudget", "SetFamily", "ShatterReport", "SunflowerResult", "WeightFn",
        "apply_flip", "ball", "ball_family", "ball_partition", "bipartite_flip",
        "bipartite_induced", "break_from_sep", "breakability_search", "canonical_pairs",
        "classify_bipartite", "complement", "convert",
        "definable_partition", "diameter", "dist_definable", "dist_definable_matrix",
        "dist_family", "dist_family_matrix", "dist_partition", "dist_partition_matrix",
        "distance_matrix", "enumerate_flips", "enumerate_partitions", "greedy_scattered",
        "induced", "is_shattered", "num_flips", "reconstruct_flip_spec", "refine",
        "search_definable_emulation", "sep_then_break", "separability_search",
        "shatter_function", "small_balls_orchestrate", "sunflower_extract", "vc_dimension",
        "verify_break_witness",
    ]
