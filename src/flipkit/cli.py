"""Command-line front end.

Every command exits 0 on pass or witness, 1 on a property failure or an
exhausted search, and 2 on refusals and usage errors.  A ``_cmd_*`` function
only computes: it returns a ``RunReport`` or plain stdout text, and the
files it wants written (``{path: text}``).  ``main`` is the one runner that
turns that into I/O.  It times the call, serializes a report and takes its
exit code from the outcome (plain text exits 0), writes the files after the
computation finishes (so a refusal never leaves a partial file behind),
copies stdout to ``-o``/``--output`` when the exit code is 0, writes
stdout, and prints one ``wall_time_s=`` line to stderr, so repeated runs
with one seed give byte-identical stdout.  ``CapExceeded`` becomes
``refused:`` and a bad input or an unreadable or unwritable file becomes
``error:``, both with exit 2 and nothing on stdout.  For ``gen`` and
``convert``, ``-o`` names the file of the graph instead.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import fileio, generators
from .breaksep import (
    DEFAULT_PARTITION_ENUM_CAP,
    SearchBudget,
    WeightFn,
    breakability_search,
    sep_then_break,
    separability_search,
)
from .conversion import convert
from .errors import CapExceeded, DomainError
from .graphs import INF, UNREACHED, Graph, _vertex_array, diameter
from .metrics import SetFamily, dist_family, dist_family_matrix, dist_partition, dist_partition_matrix
from .vc import DEFAULT_VCDIM_CAP, vc_dimension
from .verify import LEMMA_SWEEPS, RunReport

EXIT_PASS = 0
EXIT_REFUSED = 2

# what a command hands the runner: a report or stdout text, and {path: text}
Result = tuple[RunReport | str, dict[str, str]]


def _read(path: str) -> str:
    """The text of an input file; one that is not UTF-8 is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DomainError(f"{path}: not a UTF-8 text file") from None


def _read_graph(path: str) -> Graph:
    return fileio.loads_graph(_read(path))


def _dist_cell(value) -> str:
    return "inf" if value in (INF, UNREACHED) else str(int(value))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> Result:
    params = list(args.params)
    if args.kind == "gnp" and len(params) == 2:
        params.append(args.seed)
    text = fileio.dumps_graph(generators.generate(args.kind, *params))
    if args.graph_out:
        return "", {args.graph_out: text}
    return text, {}


def _cmd_diam(args) -> Result:
    g = _read_graph(args.graph)
    value = diameter(g)
    return RunReport(
        command="diam",
        parameters={"graph": args.graph},
        outcome="pass",
        counters={"n": g.n, "m": g.num_edges()},
        payload={"diameter": "inf" if value == INF else int(value)},
    ), {}


def _cmd_vcdim(args) -> Result:
    g = _read_graph(args.graph)
    rep = vc_dimension(g, cap=args.cap)
    lines = [
        f"vcdim,{rep.vcdim}",
        "witness," + " ".join(map(str, rep.witness)),
        "n,traces",
    ]
    lines.extend(f"{n},{rep.traces_by_size[n]}" for n in sorted(rep.traces_by_size))
    return "\n".join(lines) + "\n", {}


def _parse_eps(raw: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"--eps must be a fraction such as 0.4 or 2/5, got {raw!r}") from exc


def _cmd_dist(args) -> Result:
    g = _read_graph(args.graph)
    modes = [m for m in (args.partition, args.set, args.family) if m is not None]
    if len(modes) != 1:
        raise DomainError("pass exactly one of --partition, --set, --family")
    if not args.all_pairs:
        if len(args.pair) != 2:
            raise DomainError("pass a vertex pair `u v`, or --all-pairs")
        _vertex_array(g.n, args.pair)
    if args.partition:
        metric = fileio.loads_partition(_read(args.partition), g.n)
        matrix, pair = dist_partition_matrix, dist_partition
    else:
        if args.set is not None:
            sets = [fileio.loads_vertex_set(args.set)]
        else:
            sets = fileio.loads_family(_read(args.family))
        metric, matrix, pair = SetFamily(sets), dist_family_matrix, dist_family
    if args.all_pairs:  # the whole matrix; a pair reads one BFS row
        dist = matrix(g, metric, max_parts=args.max_parts)
        cells = [(u, v, dist[u, v]) for u in range(g.n) for v in range(g.n)]
    else:
        cells = [(*args.pair, pair(g, metric, *args.pair, max_parts=args.max_parts))]
    rows = [{"u": u, "v": v, "dist": _dist_cell(d)} for u, v, d in cells]
    return fileio.export_csv(rows, ["u", "v", "dist"]), {}


def _certificate_rows(result) -> list[dict]:
    rows = []
    for cert in result.part_certificates:
        rows.append(
            {
                "kind": "part",
                "indices": str(cert.part),
                "case_tag": cert.branch,
                "flipped": str(cert.flipped).lower(),
            }
        )
    for cert in result.pair_certificates:
        blocks = "".join(
            "1" if (i, j) in cert.flipped_blocks else "0"
            for i in (1, 2)
            for j in (1, 2)
        )
        rows.append(
            {
                "kind": "pair",
                "indices": f"{cert.parts[0]} {cert.parts[1]}",
                "case_tag": cert.case.tag.value,
                "flipped": blocks,
            }
        )
    return rows


def _cmd_convert(args) -> Result:
    g = _read_graph(args.graph)
    p = fileio.loads_partition(_read(args.partition), g.n)
    result = convert(g, p)
    report = RunReport(
        command="convert",
        parameters={"graph": args.graph, "partition": args.partition},
        outcome="pass",
        counters={
            "input_parts": len(p.parts),
            "refined_parts": len(result.refined.parts),
            "flipped_pairs": len(result.refined_spec),
        },
        payload={
            "refined": [list(part) for part in result.refined.parts],
            "spec": sorted(list(pair) for pair in result.refined_spec.pairs),
        },
    )
    files = {}
    if args.emit_certificates:
        files[args.emit_certificates] = fileio.export_csv(
            _certificate_rows(result), ["kind", "indices", "case_tag", "flipped"]
        )
    if args.emit_dot:
        files[args.emit_dot] = fileio.export_dot(result.flipped, result.refined)
    if args.graph_out:
        files[args.graph_out] = fileio.dumps_graph(result.flipped)
    return report, files


def _flip_payload(found) -> dict:
    return {
        "partition": [list(part) for part in found.partition.parts],
        "spec": sorted(list(pair) for pair in found.spec.pairs),
    }


def _witness_payload(result) -> dict:
    w = result.witness
    return {
        **_flip_payload(w),
        "defining_set": list(w.defining_set) if w.defining_set is not None else None,
        "a1": list(w.a1),
        "a2": list(w.a2),
        "radius": w.radius,
        "m": w.m,
    }


def _search_report(command: str, parameters: dict, result, counters: dict, payload) -> RunReport:
    """A search's report: a witness with ``payload(result)``, or a fail."""
    return RunReport(command, parameters, "witness" if result else "fail", counters,
                     payload(result) if result else None)


def _cmd_break(args) -> Result:
    g = _read_graph(args.graph)
    w_set = fileio.loads_vertex_set(_read(args.probes))
    budget = SearchBudget(
        s_max=args.s_max, part_cap=args.part_cap, raw_partitions=args.raw_partitions
    )
    w2 = fileio.loads_vertex_set(_read(args.probes2)) if args.probes2 else None
    result = breakability_search(g, w_set, args.radius, args.m, budget, w2_set=w2,
                                 n_cap=args.n_cap)
    parameters = {"graph": args.graph, "r": args.radius, "m": args.m, "s_max": args.s_max,
                  "raw_partitions": args.raw_partitions}
    counters = {"flips_tried": result.flips_tried, "sets_tried": result.sets_tried,
                "sets_skipped": result.sets_skipped}
    return _search_report("break", parameters, result, counters, _witness_payload), {}


def _cmd_separate(args) -> Result:
    g = _read_graph(args.graph)
    weights = WeightFn(fileio.loads_weights(_read(args.weights), g.n))
    eps = _parse_eps(args.eps)
    result = separability_search(
        g, weights, args.radius, eps, args.k_max, n_cap=args.n_cap
    )
    parameters = {"graph": args.graph, "r": args.radius, "eps": str(eps), "k_max": args.k_max}
    counters = {"partitions_tried": result.partitions_tried, "flips_tried": result.flips_tried}
    return _search_report("separate", parameters, result, counters, _flip_payload), {}


def _cmd_sep2break(args) -> Result:
    g = _read_graph(args.graph)
    w_set = fileio.loads_vertex_set(_read(args.probes))
    result = sep_then_break(g, w_set, args.radius, k_max=args.k_max, n_cap=args.n_cap)
    parameters = {"graph": args.graph, "r": args.radius, "k_max": args.k_max,
                  "probes": sorted(set(w_set))}
    sep = result.separability
    counters = {"partitions_tried": sep.partitions_tried, "flips_tried": sep.flips_tried}
    return _search_report("sep2break", parameters, result, counters, _witness_payload), {}


def _cmd_verify(args) -> Result:
    mode, func = LEMMA_SWEEPS[args.lemma]
    other = "random" if mode == "exhaustive" else "exhaustive"
    value = getattr(args, mode)
    if value is None or getattr(args, other) is not None:
        raise DomainError(f"{args.lemma} takes --{mode} N and not --{other}")
    return (func(value) if mode == "exhaustive" else func(value, args.seed)), {}


def _cmd_export(args) -> Result:
    g = _read_graph(args.graph)
    p = (
        fileio.loads_partition(_read(args.partition), g.n)
        if args.partition
        else None
    )
    files = {}
    if args.dot:
        files[args.dot] = fileio.export_dot(g, p)
    if args.csv:
        rows = [{"u": u, "v": v} for u, v in g.edges()]
        files[args.csv] = fileio.export_csv(rows, ["u", "v"])
    if not files:
        raise DomainError("pass --dot and/or --csv")
    return "", files


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# built once per process: parse_args fills a fresh Namespace on every call,
# so repeated main calls share no parsed state
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipkit",
        description="Graph flips, flip metrics, and desk-scale verification.",
    )
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed")
    # accepted after the subcommand too; SUPPRESS keeps a pre-subcommand
    # --seed from being clobbered by a subparser default
    seed_opt = argparse.ArgumentParser(add_help=False)
    seed_opt.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    # the graph file: the first argument of every command that reads one
    graph_opt = argparse.ArgumentParser(add_help=False, parents=[seed_opt])
    graph_opt.add_argument("graph")
    # a copy of stdout; gen and convert take their own -o for the graph they write
    out_opt = argparse.ArgumentParser(add_help=False)
    out_opt.add_argument("-o", "--output")
    # the radius and the vertex cap of the searches
    search_opt = argparse.ArgumentParser(add_help=False, parents=[graph_opt, out_opt])
    search_opt.add_argument("-r", "--radius", type=int, required=True)
    search_opt.add_argument("--n-cap", type=int, default=DEFAULT_PARTITION_ENUM_CAP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph", parents=[seed_opt])
    p.add_argument("kind", choices=sorted(generators.KINDS))
    p.add_argument("params", nargs="*", help="kind parameters, e.g. n [p]")
    p.add_argument("-o", "--output", dest="graph_out", help="write the graph")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("diam", help="diameter of a graph", parents=[graph_opt])
    p.set_defaults(func=_cmd_diam)

    p = sub.add_parser("vcdim", help="exact VC-dimension and trace table", parents=[graph_opt, out_opt])
    p.add_argument("--cap", type=int, default=DEFAULT_VCDIM_CAP)
    p.set_defaults(func=_cmd_vcdim)

    p = sub.add_parser("dist", help="flip-metric distances as CSV", parents=[graph_opt, out_opt])
    p.add_argument("pair", nargs="*", type=int, help="vertex pair u v")
    p.add_argument("--partition")
    p.add_argument("--set")
    p.add_argument("--family")
    p.add_argument("--all-pairs", action="store_true")
    p.add_argument("--max-parts", type=int)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("convert", help="metric conversion: refine and flip", parents=[graph_opt])
    p.add_argument("--partition", required=True)
    p.add_argument("--emit-certificates")
    p.add_argument("--emit-dot")
    p.add_argument("-o", "--output", dest="graph_out", help="write the flipped graph")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("break", help="budgeted flip-breakability search", parents=[search_opt])
    p.add_argument("--W", dest="probes", required=True, help="probe-set file")
    p.add_argument("--W2", dest="probes2", help="second probe-set file")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--s-max", type=int, default=1)
    p.add_argument("--part-cap", type=int)
    p.add_argument("--raw-partitions", action="store_true")
    p.set_defaults(func=_cmd_break)

    p = sub.add_parser("separate", help="brute-force flip-separability search", parents=[search_opt])
    p.add_argument("--weights", required=True)
    p.add_argument("--eps", required=True, help="fraction, e.g. 0.4 or 2/5")
    p.add_argument("--k-max", type=int, required=True)
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("sep2break", help="separability then witness construction", parents=[search_opt])
    p.add_argument("--W", dest="probes", required=True, help="probe-set file (size 4m^2)")
    p.add_argument("--k-max", type=int, default=1)
    p.set_defaults(func=_cmd_sep2break)

    p = sub.add_parser("verify", help="run a verification sweep", parents=[seed_opt])
    p.add_argument("lemma", choices=sorted(LEMMA_SWEEPS))
    p.add_argument("--exhaustive", type=int)
    p.add_argument("--random", type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="DOT / CSV export", parents=[graph_opt])
    p.add_argument("--partition")
    p.add_argument("--dot")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        out, files = args.func(args)
        code = EXIT_PASS
        if isinstance(out, RunReport):
            out, code = out.serialize(), out.exit_code
        wall_time = time.perf_counter() - started
        if code == EXIT_PASS and getattr(args, "output", None):
            files[args.output] = out
        for path, text in files.items():
            Path(path).write_text(text)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    sys.stdout.write(out)
    print(f"wall_time_s={wall_time:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
