"""Span tracer for the traced benchmark run.

The tracer wraps flipkit functions from the outside: every module
attribute (and every ``LEMMA_SWEEPS`` entry) that binds a traced function
is replaced by a wrapper that records a span (name, start, end, parent) in
flat in-memory arrays, plus the per-layer counts of BENCHMARK.json.  Self
time is derived from the spans afterwards: a span's duration minus the
durations of its direct children.  The count hooks run in spans of their
own, named ``trace.hook``, so their cost is billed to no traced function.
Functions that a commit no longer has are reported as absent instead of
failing the run.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

_clock = time.perf_counter

#: Span name of the count hooks.
HOOK = "trace.hook"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._patches: list[tuple] = []
        # flip_adjacency_batch specs of the current job, keyed by instance
        self._specs: dict[tuple, list[np.ndarray]] = defaultdict(list)
        self._hook = self._nid(HOOK)

    # -- spans -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording one span per call, or one per resumption
        when ``fn`` is a generator function; ``after(arguments, result)``
        records counts in a ``trace.hook`` span after the call's own,
        given the arguments in order."""
        nid = self._nid(name)
        if inspect.isgeneratorfunction(fn):
            counter = f"{name}.flips"

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.counts[counter] += 1
                    yield item

            return gen_wrapper

        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                hook = self._open(self._hook)
                try:
                    after(list(sig.bind(*args, **kwargs).arguments.values()), result)
                finally:
                    self._close(hook)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap every traced function wherever a flipkit module binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "flipkit" or k.startswith("flipkit.")]
        for home, attr, name, after, counters in _targets(self, lib):
            fn = getattr(getattr(lib, home, None), attr, None)
            if fn is None:
                self.absent.append(f"{home}.{attr}")
                continue
            for counter in counters:
                self.counts[counter] += 0
            wrapper = self.wrap(name, fn, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        sweeps = getattr(lib.verify, "LEMMA_SWEEPS", None)
        if sweeps is None:
            self.absent.append("verify.LEMMA_SWEEPS")
            return
        for key, (mode, fn) in list(sweeps.items()):
            self._patches.append((sweeps, key, (mode, fn)))
            sweeps[key] = (mode, self.wrap(f"verify.{key}", fn))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._patches.clear()

    # -- counts ------------------------------------------------------------

    def _after_batch_bfs(self, arguments, dist) -> None:
        f, n = dist.shape[0], dist.shape[1]
        # The kernel squares reachability once per BFS level it finds, plus
        # one product that finds nothing: max(largest finite distance, 1).
        matmuls = max(int(dist.max()) if dist.size else 0, 1)
        c = self.counts
        c["graphs.batched_distance_matrices.flips"] += f
        c["graphs.batched_distance_matrices.matmuls"] += matmuls
        c["graphs.batched_distance_matrices.ops_computed"] += f * n**3 * matmuls

    def _after_flip_batch(self, arguments, adjs) -> None:
        g, p, spec_indices = arguments[:3]
        codes = np.asarray(spec_indices, dtype=np.uint64)
        self.counts["flips.flip_adjacency_batch.flips"] += len(codes)
        # A self pair of a singleton part toggles nothing (the diagonal is
        # never flipped), so specs differing only there build the same graph.
        k = len(p.parts)
        noop = 0
        t = 0
        for i in range(k):
            for j in range(i, k):
                if i == j and len(p.parts[i]) == 1:
                    noop |= 1 << t
                t += 1
        self._specs[(g.adj.tobytes(), p.parts)].append(codes & np.uint64(~noop & ((1 << 64) - 1)))

    def reset_counts(self) -> None:
        """Zero the counts, so that they cover only what runs next."""
        for key in self.counts:
            self.counts[key] = 0
        self._specs.clear()

    def end_job(self) -> None:
        """Close the per-job distinct-flip count."""
        for arrays in self._specs.values():
            self.counts["flips.distinct"] += len(np.unique(np.concatenate(arrays)))
        self._specs.clear()

    def _result_counter(self, name, fields, witness):
        def after(arguments, res):
            for f in fields:
                self.counts[f"{name}.{f}"] += getattr(res, f)
            self.counts[f"{name}.witnesses"] += bool(witness(res))

        return after

    # -- reduction ---------------------------------------------------------

    def metrics(self, t0: float, t1: float) -> dict[str, float]:
        """Per-layer values of the spans that start in [t0, t1):
        ``<span>.self_s``/``.calls``, the counts and their ratios, and the
        share of [t0, t1) that no root span of a traced function covers."""
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        dur = np.array(self.end, dtype=np.float64) - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        inside = (start >= t0) & (start < t1)
        k = len(self.names)
        self_s = np.bincount(nid[inside], weights=(dur - child)[inside], minlength=k)
        total_s = np.bincount(nid[inside], weights=dur[inside], minlength=k)
        calls = np.bincount(nid[inside], minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.total_s"] = float(total_s[i])
            out[f"{name}.calls"] = int(calls[i])
        for key, value in self.counts.items():
            out[key] = int(value)
        if "flips.flip_adjacency_batch.flips" in out:
            built = out["flips.flip_adjacency_batch.flips"]
            out["flips.distinct_flip_share"] = out["flips.distinct"] / built if built else 0.0
        for name in ("breaksep.separability_search", "breaksep.breakability_search",
                     "conversion.search_definable_emulation"):
            if f"{name}.calls" not in out:
                continue
            tried = out[f"{name}.flips_tried"]
            out[f"{name}.us_per_flip"] = 1e6 * out[f"{name}.total_s"] / tried if tried else 0.0
            calls_ = out[f"{name}.calls"]
            out[f"{name}.witness_share"] = out[f"{name}.witnesses"] / calls_ if calls_ else 0.0
        covered = float(dur[inside & ~nested & (nid != self._hook)].sum())
        out["trace.uncovered_share"] = 1.0 - covered / (t1 - t0)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: names, then per span name id, parent, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )


def _targets(tr: Tracer, lib):
    """(home module, attribute, span name, count hook, counts it keeps) per
    traced function."""
    plain = [
        ("graphs", "distance_matrix"), ("graphs", "fold_max_distances"), ("graphs", "ball"),
        ("flips", "definable_partition"), ("flips", "apply_flip"),
        ("metrics", "dist_partition_matrix"), ("metrics", "dist_definable_matrix"),
        ("metrics", "dist_family_matrix"),
        ("breaksep", "verify_break_witness"), ("breaksep", "sep_then_break"),
        ("breaksep", "break_from_sep"), ("breaksep", "small_balls_orchestrate"),
        ("conversion", "convert"), ("conversion", "classify_bipartite"),
        ("vc", "vc_dimension"), ("cli", "main"), ("generators", "gnp"),
    ]
    out = [(home, attr, f"{home}.{attr}", None, ()) for home, attr in plain]
    bfs = "graphs.batched_distance_matrices"
    out += [
        ("graphs", "batched_distance_matrices", bfs, tr._after_batch_bfs,
         (f"{bfs}.flips", f"{bfs}.matmuls", f"{bfs}.ops_computed")),
        ("flips", "flip_adjacency_batch", "flips.flip_adjacency_batch", tr._after_flip_batch,
         ("flips.flip_adjacency_batch.flips", "flips.distinct")),
        ("flips", "enumerate_flips", "flips.enumerate_flips", None,
         ("flips.enumerate_flips.flips",)),
    ]
    for home, attr, fields, witness in (
        ("breaksep", "separability_search", ("flips_tried", "partitions_tried"),
         lambda r: r.partition),
        ("breaksep", "breakability_search", ("flips_tried", "sets_tried", "sets_skipped"),
         lambda r: r.witness),
        ("conversion", "search_definable_emulation", ("flips_tried", "sets_tried", "sets_skipped"),
         lambda r: r.witness),
    ):
        name = f"{home}.{attr}"
        counters = tuple(f"{name}.{f}" for f in fields + ("witnesses",))
        out.append((home, attr, name, tr._result_counter(name, fields, witness), counters))
    fileio = getattr(lib, "fileio", None)
    for attr in sorted(vars(fileio)) if fileio is not None else ():
        if attr.startswith("loads_"):
            out.append(("fileio", attr, "fileio.loads", None, ()))
        elif attr.startswith(("dumps_", "export_")):
            out.append(("fileio", attr, "fileio.dumps", None, ()))
    return out
