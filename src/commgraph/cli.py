"""Command-line interface.

Exit codes: 0 success, 1 rejected/degenerate input or a bad flag, 2 internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .centrality import centrality_table_csv
from .community import gn_trace_to_csv, partition_to_csv
from .errors import CommGraphError
from .graph import collector_paused
from .ingest import edges_to_csv
from .report import EXPORT_FORMATS, export_graph, report_to_json, run_pipeline, write_outputs
from .synth import gen_planted_partition, gen_ring_of_cliques


def _add_input_args(parser):
    parser.add_argument("--edges", required=True, help="edge CSV (source,target[,weight])")
    parser.add_argument("--nodes", help="node CSV (label[,kind][,location][,score])")
    parser.add_argument("--aliases", help="alias CSV (variant,canonical)")


def _checked(convert, test, expected: str):
    """An argparse `type=` that converts a flag value, then rejects it unless `test` holds."""

    def check(text: str):
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    check.__name__ = convert.__name__  # argparse's "invalid int value: 'abc'" names it
    return check


# each kind of flag value is checked here and nowhere downstream
_DAMPING = _checked(float, lambda d: 0 < d < 1, "a number in (0, 1)")
_TOP_K = _checked(int, lambda k: k >= 1, "an integer of at least 1")
_EXPORTS = _checked(
    lambda text: [f for f in text.split(",") if f],
    lambda formats: set(formats) <= set(EXPORT_FORMATS),
    "a comma-separated list of " + ", ".join(EXPORT_FORMATS),
)


# each synth kind and the flags it needs, which no other kind takes; argparse cannot tie a flag to a --kind value
_SYNTH_PARAMS = {
    "ring_of_cliques": ("cliques", "clique-size"),
    "planted_partition": ("blocks", "block-size", "p-in", "p-out"),
}


class _Parser(argparse.ArgumentParser):
    """Exits 1, not argparse's 2, on a usage error: a bad flag is rejected input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="commgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full analysis pipeline")
    _add_input_args(analyze)
    analyze.add_argument("--weighted", action="store_true", help="let community detection use collapsed edge weights")
    analyze.add_argument("--validate-gn", action="store_true", help="also run divisive Girvan-Newman validation")
    analyze.add_argument("--spearman", action="store_true", help="rank-based correlation instead of Pearson")
    analyze.add_argument("--out", help="output directory (report prints to stdout when omitted)")
    analyze.add_argument("--export", type=_EXPORTS, default=(), help="comma-separated graph formats: gexf,dot,json (needs --out)")
    analyze.add_argument("--top-k", type=_TOP_K, default=5)
    analyze.add_argument("--damping", type=_DAMPING, default=0.85)
    analyze.add_argument("--seed", type=int, help="recorded in report metadata")

    synth = sub.add_parser("synth", help="emit a synthetic benchmark graph")
    synth.add_argument("--kind", required=True, choices=_SYNTH_PARAMS)
    synth.add_argument("--cliques", type=int, help="ring_of_cliques: number of cliques")
    synth.add_argument("--clique-size", type=int, help="ring_of_cliques: nodes per clique")
    synth.add_argument("--blocks", type=int, help="planted_partition: number of blocks")
    synth.add_argument("--block-size", type=int, help="planted_partition: nodes per block")
    synth.add_argument("--p-in", type=float, help="planted_partition: intra-block edge probability")
    synth.add_argument("--p-out", type=float, help="planted_partition: inter-block edge probability")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", default=".", help="directory for edges.csv and partition.csv")

    export = sub.add_parser("export", help="write the graph in an exchange format")
    _add_input_args(export)
    export.add_argument("--format", required=True, choices=EXPORT_FORMATS)
    export.add_argument("--out", help="output file (stdout when omitted)")
    export.add_argument("--with-analytics", action="store_true", help="embed communities and centralities")
    export.add_argument("--weighted", action="store_true", help="with --with-analytics, let Louvain use edge weights")

    centrality = sub.add_parser("centrality", help="per-node centrality CSV")
    _add_input_args(centrality)
    centrality.add_argument("--damping", type=_DAMPING, default=0.85)
    centrality.add_argument("--out", help="output file (stdout when omitted)")

    communities = sub.add_parser("communities", help="community assignment CSV")
    _add_input_args(communities)
    communities.add_argument("--weighted", action="store_true")
    communities.add_argument("--out", help="partition CSV file (stdout when omitted)")
    communities.add_argument("--gn-out", help="also run Girvan-Newman and write its trace CSV to this file")

    for command in sub.choices.values():  # `main`'s checks after parsing print the subcommand's usage line
        command.set_defaults(error=command.error)
    return parser


def _write_or_print(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _run(args, *stages, **flags):
    """`run_pipeline` over `stages` on the command's input files, with the `flags` it passes."""
    return run_pipeline(args.edges, args.nodes, args.aliases, stages=stages, **flags)


def _cmd_analyze(args) -> None:
    report = _run(
        args, "centralities", "louvain", *(["gn"] if args.validate_gn else []), "report",
        weighted=args.weighted, spearman=args.spearman, top_k=args.top_k, damping=args.damping, seed=args.seed,
    )
    if args.out is None:
        sys.stdout.write(report_to_json(report))
    else:
        write_outputs(report, args.out, args.export)


def _cmd_synth(args) -> None:
    if args.kind == "ring_of_cliques":
        g, truth = gen_ring_of_cliques(args.cliques, args.clique_size)
    else:
        g, truth = gen_planted_partition(args.blocks, args.block_size, args.p_in, args.p_out, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "edges.csv").write_text(edges_to_csv(g), encoding="utf-8")
    (out / "partition.csv").write_text(partition_to_csv(g, truth), encoding="utf-8")


def _cmd_export(args) -> None:
    report = _run(args, *(["centralities", "louvain"] if args.with_analytics else []), weighted=args.weighted)
    partition = report.dendrogram.final_partition if report.dendrogram else None
    _write_or_print(export_graph(report.graph, partition, report.vectors, args.format), args.out)


def _cmd_centrality(args) -> None:
    report = _run(args, "centralities", damping=args.damping)
    _write_or_print(centrality_table_csv(report.graph, report.vectors), args.out)


def _cmd_communities(args) -> None:
    report = _run(args, "louvain", *(["gn"] if args.gn_out is not None else []), weighted=args.weighted)
    _write_or_print(partition_to_csv(report.graph, report.dendrogram.final_partition), args.out)
    if report.gn_trace is not None:
        _write_or_print(gn_trace_to_csv(report.graph.labels, report.gn_trace), args.gn_out)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "synth": _cmd_synth,
    "export": _cmd_export,
    "centrality": _cmd_centrality,
    "communities": _cmd_communities,
}


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs without the cyclic garbage collector, and the caller's
    setting is restored afterwards, whatever the exit code. Reference
    counting frees the program's objects: a run leaves a few hundred cyclic
    ones, while the collector, left on, would pass over the graph's tuples
    hundreds of times (463 passes while ingesting a 20,000-node collab
    input). A library caller keeps its own setting, except within each of
    `graph.block_pool`'s blocks, which run without the collector too.
    """
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # argparse's `parse_args` would report them with the root parser's usage line
        args.error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.command == "analyze" and args.export and args.out is None:
        args.error("--export needs --out")  # the report would go to stdout and the exports nowhere
    if args.command == "synth":
        needed = _SYNTH_PARAMS[args.kind]
        flags = [name for names in _SYNTH_PARAMS.values() for name in names]
        given = [name for name in flags if getattr(args, name.replace("-", "_")) is not None]
        missing = [name for name in needed if name not in given]
        if missing:
            args.error(f"--kind {args.kind} requires --{' --'.join(missing)}")
        foreign = [name for name in given if name not in needed]
        if foreign:  # it would be silently ignored
            args.error(f"--kind {args.kind} does not take --{' --'.join(foreign)}")
    with collector_paused():
        try:
            _COMMANDS[args.command](args)
        except (CommGraphError, OSError, ValueError) as exc:
            print(f"commgraph: error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # pragma: no cover - defensive
            print(f"commgraph: internal error: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
