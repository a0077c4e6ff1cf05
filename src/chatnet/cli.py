"""Command-line pipeline: ingest, extract, analyze, export, report."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields, replace

from . import __version__
from .centrality import degree_centrality, hits
from .cohesion import ego_network, maximal_cliques
from .connectivity import top_links
from .equivalence import rege
from .graph import format_weight, mutual_ties_view, to_undirected, write_graph_csv
from .ingest import write_corpus_jsonl
from .report import (
    ALL_ANALYSES,
    EXPORT_FORMATS,
    AnalysisConfig,
    PipelineError,
    check_config,
    export_graph,
    load_config_file,
    load_corpus,
    load_input_graph,
    run_pipeline,
    split_list,
)
from .skeleton import abcd_skeleton, bowtie

# analyze targets that are emitted as CSV rather than JSON
_CSV_ANALYSES = ("hits-csv", "partition", "toplinks", "rege-matrix")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    grp = parser.add_argument_group("analysis parameters")
    grp.add_argument("--config", help="key = value config file; flags override it")
    grp.add_argument("--min-nick-length", type=int, dest="min_nick_length")
    grp.add_argument(
        "--case-sensitive",
        action="store_false",
        default=None,
        dest="case_insensitive",
        help="require mentions to match the canonical nick exactly",
    )
    grp.add_argument("--hits-tolerance", type=float, dest="hits_tolerance")
    grp.add_argument("--hits-max-iterations", type=int, dest="hits_max_iterations")
    grp.add_argument(
        "--hits-weighted", action="store_true", default=None, dest="hits_weighted"
    )
    grp.add_argument("--clique-min-size", type=int, dest="clique_min_size")
    grp.add_argument("--rege-iterations", type=int, dest="rege_iterations")
    grp.add_argument("--eq-threshold", type=float, dest="eq_threshold")
    grp.add_argument("--tie-cutoff", type=float, dest="tie_cutoff")
    grp.add_argument("--people-cutoff", type=float, dest="people_cutoff")
    grp.add_argument("--lambda-mode", choices=("unit", "weighted"), dest="lambda_mode")
    grp.add_argument("--top-links", type=int, dest="top_links_count")
    grp.add_argument("--top-k", type=int, dest="top_k")
    grp.add_argument(
        "--analyses",
        # an empty value means "not given"
        type=lambda raw: split_list(raw) if raw else None,
        help="comma-separated subset of: " + ",".join(ALL_ANALYSES),
    )


def _input_flags(parser: argparse.ArgumentParser, builds_graph: bool = True) -> None:
    parser.add_argument(
        "inputs",
        nargs="*",
        help="log files/directories, a corpus .jsonl, or a graph .csv"
        if builds_graph
        else "log files/directories or a corpus .jsonl",
    )
    parser.add_argument("--manifest", help="CSV manifest of path,YYYY-MM-DD lines")
    if builds_graph:
        parser.add_argument("--roster", help="prior participant list, one nick per line")
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored; parsing is serial"
    )


def _build_config(args) -> AnalysisConfig:
    cfg = AnalysisConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(args.config))
    # flags are stored under the field names; None means "not given"
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(AnalysisConfig)
        if getattr(args, f.name, None) is not None
    }
    # Each input source is its own field, so validation rejects any two.
    # A corpus or graph file is a whole input, never one log among others.
    inputs = args.inputs
    if args.manifest:
        overrides["manifest_path"] = args.manifest
    whole = [path for path in inputs if path.lower().endswith((".jsonl", ".csv"))]
    if whole and len(inputs) > 1:
        raise PipelineError(
            "config", f"'{whole[0]}' is a corpus JSONL or graph CSV, so it must be the only input"
        )
    if whole and whole[0].lower().endswith(".jsonl"):
        overrides["corpus_path"] = whole[0]
    elif whole:
        overrides["graph_path"] = whole[0]
    elif inputs:
        overrides["log_paths"] = tuple(inputs)
    if getattr(args, "roster", None):
        overrides["roster_path"] = args.roster
    return check_config(replace(cfg, **overrides))


def _cmd_ingest(args) -> int:
    corpus = load_corpus(_build_config(args))
    write_corpus_jsonl(corpus, args.output)
    print(
        f"read {corpus.message_count} messages "
        f"({corpus.skipped_count} lines skipped) over {len(corpus.file_stats)} day(s) "
        f"-> {args.output}",
        file=sys.stderr,
    )
    return 0


def _cmd_extract(args) -> int:
    graph = load_input_graph(_build_config(args))
    write_graph_csv(graph, args.output)
    print(
        f"extracted {graph.node_count} nodes, {graph.edge_count} edges -> {args.output}",
        file=sys.stderr,
    )
    return 0


def _analyze_csv(what: str, graph, cfg) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if what == "hits-csv":
        scores = hits(graph, cfg.hits_tolerance, cfg.hits_max_iterations, cfg.hits_weighted)
        degrees = degree_centrality(graph)
        writer.writerow(["nick", "authority", "hub", "indegree", "outdegree"])
        for nick in graph.nicks:
            writer.writerow(
                [
                    nick,
                    repr(scores.authority[nick]),
                    repr(scores.hub[nick]),
                    degrees[nick].indegree,
                    degrees[nick].outdegree,
                ]
            )
    elif what == "partition":
        bt = bowtie(graph)
        sk = abcd_skeleton(graph)
        writer.writerow(["nick", "bowtie_label", "skeleton_label"])
        for nick in graph.nicks:
            writer.writerow([nick, bt.label[nick], sk.label[nick]])
    elif what == "toplinks":
        links = top_links(to_undirected(graph), cfg.top_links_count)
        writer.writerow(["node_a", "node_b", "score"])
        for (a, b), score in links:
            writer.writerow([a, b, format_weight(score)])
    elif what == "rege-matrix":
        matrix = rege(graph, cfg.rege_iterations)
        writer.writerow(["nick", *matrix.nicks])
        for i, nick in enumerate(matrix.nicks):
            writer.writerow([nick, *(repr(float(x)) for x in matrix.values[i])])
    return buf.getvalue()


def _cmd_analyze(args) -> int:
    cfg = _build_config(args)
    if args.what in _CSV_ANALYSES:
        graph = load_input_graph(cfg)
        text = _analyze_csv(args.what, graph, cfg)
    elif args.what == "cliques":
        # full membership lists, not just the report summary
        graph = load_input_graph(cfg)
        view = mutual_ties_view(graph) if args.mutual_ties else to_undirected(graph)
        report = maximal_cliques(view, cfg.clique_min_size)
        text = json.dumps(
            {
                "min_size": report.min_size,
                "count": report.count,
                "max_clique_size": report.max_clique_size,
                "cliques": [list(c) for c in report.cliques],
            },
            indent=2,
            ensure_ascii=False,
        ) + "\n"
    else:
        cfg = replace(cfg, analyses=(args.what,))
        report = run_pipeline(cfg, threads=args.threads)
        text = json.dumps(report.section(args.what), indent=2, ensure_ascii=False) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_export(args) -> int:
    cfg = _build_config(args)
    graph = load_input_graph(cfg)
    if args.ego:
        graph = ego_network(graph, args.ego).graph
    node_attrs = None
    if args.attrs:
        scores = hits(graph, cfg.hits_tolerance, cfg.hits_max_iterations, cfg.hits_weighted)
        partition = abcd_skeleton(graph)
        node_attrs = {
            nick: {
                "authority": scores.authority[nick],
                "hub": scores.hub[nick],
                "skeleton": partition.label[nick],
            }
            for nick in graph.nicks
        }
    export_graph(graph, args.format, args.output, node_attrs)
    print(f"wrote {args.format} export -> {args.output}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    cfg = _build_config(args)
    report = run_pipeline(cfg, threads=args.threads)
    report.write_json(args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    if args.markdown:
        report.write_markdown(args.markdown)
        print(f"wrote {args.markdown}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chatnet",
        description="Extract a mention network from chat logs and analyze its structure.",
    )
    parser.add_argument("--version", action="version", version=f"chatnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse logs into a corpus JSONL")
    _input_flags(p, builds_graph=False)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("extract", help="build the mention graph CSV")
    _input_flags(p)
    _add_config_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("analyze", help="run one analysis and print or save it")
    _input_flags(p)
    _add_config_flags(p)
    p.add_argument(
        "--what",
        required=True,
        choices=tuple(ALL_ANALYSES) + _CSV_ANALYSES,
    )
    p.add_argument(
        "--mutual-ties",
        action="store_true",
        dest="mutual_ties",
        help="for cliques: keep only reciprocated ties",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("export", help="write DOT, GraphML, or CSV")
    _input_flags(p)
    _add_config_flags(p)
    p.add_argument("--format", required=True, choices=EXPORT_FORMATS)
    p.add_argument("--ego", help="export this actor's ego network instead")
    p.add_argument(
        "--attrs",
        action="store_true",
        help="attach authority/hub/skeleton attributes to nodes",
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("report", help="full pipeline to report.json (+ markdown)")
    _input_flags(p)
    _add_config_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--markdown", help="also write a human-readable summary")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"chatnet: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        stage = getattr(args, "command", "cli")
        print(f"chatnet: {stage}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
