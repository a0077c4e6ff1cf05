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
from .connectivity import MODES, top_links
from .equivalence import rege
from .graph import format_weight, mutual_ties_view, to_undirected, write_graph_csv
from .ingest import corpus_jsonl_text, replacing
from .report import (
    ALL_ANALYSES,
    EXPORT_FORMATS,
    AnalysisConfig,
    PipelineError,
    check_config,
    export_graph,
    load_config_file,
    load_input_graph,
    read_input,
    run_pipeline,
    split_list,
)
from .skeleton import abcd_skeleton, bowtie

# analyze targets that are emitted as CSV rather than JSON
_CSV_ANALYSES = ("hits-csv", "partition", "toplinks", "rege-matrix")


# The two flags that are not their field's name with dashes.
_RENAMED_FLAGS = {"top_links_count": "--top-links", "case_insensitive": "--case-sensitive"}
_FLAG_HELP = {
    "case_insensitive": "require mentions to match the canonical nick exactly",
    "analyses": "comma-separated subset of: " + ",".join(ALL_ANALYSES),
}
_PARAMETERS = tuple(AnalysisConfig().echo())
# The parameters each analyze target and export's --attrs read besides the
# graph's.  A subcommand offers the flags of its targets and refuses a flag
# that the chosen target does not read.
_GRAPH_READS = ("min_nick_length", "case_insensitive")
_HITS_READS = ("hits_tolerance", "hits_max_iterations", "hits_weighted")
_TARGET_READS = {
    "stats": (),
    "hits": _HITS_READS + ("top_k",),
    "bowtie": (),
    "skeleton": (),
    "cliques": ("clique_min_size",),  # every clique, so no top_k
    "blocks": (),
    "lambda": ("lambda_mode", "top_links_count"),
    "roles": ("rege_iterations", "eq_threshold", "tie_cutoff", "people_cutoff"),
    "hits-csv": _HITS_READS,
    "partition": (),
    "toplinks": ("top_links_count",),
    "rege-matrix": ("rege_iterations",),
    "attrs": _HITS_READS,
}
_ANALYZE_READS = _GRAPH_READS + tuple(
    name for target in ALL_ANALYSES + _CSV_ANALYSES for name in _TARGET_READS[target]
)
_EXPORT_READS = _GRAPH_READS + _TARGET_READS["attrs"]


def _flag(name: str) -> str:
    return _RENAMED_FLAGS.get(name, "--" + name.replace("_", "-"))


def _add_config_flags(parser: argparse.ArgumentParser, names) -> None:
    grp = parser.add_argument_group("analysis parameters")
    grp.add_argument("--config", help="key = value config file; flags override it")
    for f in fields(AnalysisConfig):
        if f.name not in names:
            continue
        spec = {"dest": f.name, "help": _FLAG_HELP.get(f.name)}
        if isinstance(f.default, bool):
            spec.update(action="store_false" if f.default else "store_true", default=None)
        elif isinstance(f.default, tuple):  # an empty value means "not given"
            spec["type"] = lambda raw: split_list(raw) if raw else None
        elif f.name == "lambda_mode":
            spec["choices"] = MODES
        else:
            spec["type"] = type(f.default)
        grp.add_argument(_flag(f.name), **spec)


def _refuse_unread(args, target: str | None, what: str) -> None:
    # A parameter flag given for a target that never reads it is an error.
    reads = _GRAPH_READS + _TARGET_READS.get(target, ())
    unread = [
        name for name in _PARAMETERS if name not in reads and getattr(args, name, None) is not None
    ]
    if unread:
        raise PipelineError("config", f"{what} does not read {', '.join(map(_flag, unread))}")


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
    # One run's records at a time; the output is moved into place only
    # once every run has read cleanly.
    runs = read_input(_build_config(args))
    messages = skipped = 0
    days = set()
    with replacing(args.output) as out:
        for run in runs:
            out.write(corpus_jsonl_text(run))
            messages += run.message_count
            skipped += run.skipped_count
            days.update(columns.date for columns in run.columns)
    print(
        f"read {messages} messages ({skipped} lines skipped) over {len(days)} day(s) "
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
    if args.mutual_ties and args.what != "cliques":
        raise PipelineError("config", "--mutual-ties applies to --what cliques only")
    _refuse_unread(args, args.what, f"--what {args.what}")
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
        report = run_pipeline(replace(cfg, analyses=(args.what,)))
        text = json.dumps(report.section(args.what), indent=2, ensure_ascii=False) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_export(args) -> int:
    if args.attrs and args.format == "csv":
        raise PipelineError("config", "--attrs applies to --format dot and graphml only")
    _refuse_unread(args, "attrs" if args.attrs else None, "export without --attrs")
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
    _add_config_flags(p, _GRAPH_READS)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("analyze", help="run one analysis and print or save it")
    _input_flags(p)
    _add_config_flags(p, _ANALYZE_READS)
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
    _add_config_flags(p, _EXPORT_READS)
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
    _add_config_flags(p, _PARAMETERS)
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored; parsing is serial")
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
