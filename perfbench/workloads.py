"""The benchmark's workloads: seeded inputs, CLI invocations, output checks.

Each workload stresses different cost centres of the program, so that an
optimisation of one layer shows on the workload that exercises it and shows
no change on the one that bypasses it. README.md gives the full rationale.

A workload is made of parts, each one command set on one input shape; the
parts keep the names `analyze_sbm800`, `validate_gn_sbm120`, `export_collab2k`
and `communities_collab20k` in README.md. There are two workloads of two
parts rather than four of one because on a shared 2-core host a 30 s run of
one part spread wider than the time bounds; two workloads fit 60 s runs into
the same time budget, and every part still runs in every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import gen
from gen import Truth


@dataclass(frozen=True)
class Invocation:
    """One `commgraph` CLI call on one of its workload's inputs.

    `argv` may hold `{edges}`, `{nodes}`, `{aliases}` and `{out}`; the files
    are those of input `input`, `{out}` is a fresh directory per call, and
    `check(truth, out)` inspects it.
    """

    input: str
    argv: tuple[str, ...]
    check: Callable[[Truth, Path], list[str]]

    def render(self, truth: Truth, out: Path) -> list[str]:
        paths = {key: str(path) for key, path in truth.files.items()}
        return [arg.format(out=out, **paths) for arg in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # input name -> (full-size generator, smoke-test generator), each (directory, seed) -> truth
    inputs: dict[str, tuple[Callable[[Path, int], Truth], Callable[[Path, int], Truth]]]
    invocations: tuple[Invocation, ...]  # one run: these calls in this order
    layers: tuple[str, ...]  # spans.LAYERS the traced run records at the seed commit

    def generate(self, directory: Path, seed: int, tiny: bool = False) -> dict[str, Truth]:
        """Every input of the workload, made from `seed`."""
        return {name: sizes[tiny](directory / name, seed) for name, sizes in self.inputs.items()}

    def edge_rows(self, inputs: dict[str, Truth]) -> int:
        """Edge CSV data rows that one run's calls read, summed over the calls."""
        return sum(inputs[inv.input].edge_rows for inv in self.invocations)


_COLLAB_FILES = ("--edges", "{edges}", "--nodes", "{nodes}", "--aliases", "{aliases}")
_PIPELINE = (
    "ingest.load_dataset",
    "graph.unweighted",
    "metrics.global_metrics",
    "metrics.local_clustering",
    "centrality.all_centralities",
    "centrality.degree",
    "centrality.betweenness",
    "centrality.closeness",
    "centrality.harmonic",
    "centrality.pagerank",
    "centrality.rank_top_k",
    "centrality.table_csv",
    "community.louvain",
    "community.partition_to_csv",
    "report.correlation",
    "report.report_to_json",
    "report.write_outputs",
)
_EXPORTS = ("report.export_graph", "report.export_gexf", "report.export_dot", "report.export_json")


def _export(fmt: str) -> Invocation:
    return Invocation(
        "collab2k",
        ("export", *_COLLAB_FILES, "--weighted", "--format", fmt, "--out", f"{{out}}/graph.{fmt}"),
        lambda truth, out: checks.GRAPH_CHECKS[fmt](truth, out / f"graph.{fmt}"),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sbm_analyze_gn",
            "clean planted partitions: whole pipeline at N=800 (all-pairs BFS passes), then GN validation at N=120",
            {
                "sbm800": (
                    partial(gen.planted_partition, blocks=8, block_size=100, p_in=0.06, p_out=0.003),
                    partial(gen.planted_partition, blocks=4, block_size=10, p_in=0.5, p_out=0.05),
                ),
                "sbm120": (
                    partial(gen.planted_partition, blocks=4, block_size=30, p_in=0.2, p_out=0.01),
                    partial(gen.planted_partition, blocks=3, block_size=8, p_in=0.5, p_out=0.05),
                ),
            },
            (
                Invocation(
                    "sbm800",
                    ("analyze", "--edges", "{edges}", "--out", "{out}", "--export", "gexf,dot,json"),
                    partial(checks.check_report_dir, gn=False, exports=("gexf", "dot", "json")),
                ),
                Invocation(
                    "sbm120",
                    ("analyze", "--edges", "{edges}", "--out", "{out}", "--validate-gn"),
                    partial(checks.check_report_dir, gn=True),
                ),
            ),
            _PIPELINE + _EXPORTS + ("community.girvan_newman", "community.gn_trace_to_csv"),
        ),
        Workload(
            "collab_export_louvain",
            "dirty weighted collab data: three exports at N=2k (DOT/JSON), then ingest and Louvain at N=20k; no BFS",
            {
                "collab2k": (partial(gen.collab, nodes=2000), partial(gen.collab, nodes=150, block_size=15)),
                "collab20k": (partial(gen.collab, nodes=20000), partial(gen.collab, nodes=300, block_size=20)),
            },
            (
                *(_export(fmt) for fmt in ("gexf", "dot", "json")),
                Invocation(
                    "collab20k",
                    ("communities", *_COLLAB_FILES, "--weighted", "--out", "{out}/communities.csv"),
                    lambda truth, out: checks.check_partition_csv(truth, out / "communities.csv"),
                ),
            ),
            ("ingest.load_dataset", *_EXPORTS, "community.louvain", "community.partition_to_csv"),
        ),
    )
}
