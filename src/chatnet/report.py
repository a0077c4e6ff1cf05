"""Pipeline orchestration, the consolidated analysis report, and graph export.

A report is assembled section by section in a fixed order from a validated
configuration, so the same inputs and configuration always serialize to the
same bytes, independent of thread count.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, fields
from importlib import resources
from itertools import islice
from pathlib import Path

from . import __version__
from .centrality import hits, ranked
from .cohesion import clique_comembership, maximal_cliques
from .connectivity import (
    articulation_points_and_blocks,
    fractional_weight_error,
    lambda_sets,
    top_links,
)
from .equivalence import classify_roles, high_eq_tie_fraction, rege
from .graph import (
    MentionGraph,
    extract_network,
    format_weight,
    graph_csv_text,
    read_graph_csv,
    stats,
    to_undirected,
)
from .ingest import (
    ChatCorpus,
    build_roster,
    data_lines,
    discover_log_files,
    parse_corpus,
    read_corpus_jsonl,
    read_manifest,
    read_roster_file,
)
from .skeleton import (
    BOWTIE_LABELS,
    SKELETON_LABELS,
    abcd_skeleton,
    bowtie,
    link_matrix,
)

ALL_ANALYSES = (
    "stats",
    "hits",
    "bowtie",
    "skeleton",
    "cliques",
    "blocks",
    "lambda",
    "roles",
)

EXPORT_FORMATS = ("dot", "graphml", "csv")

# AnalysisConfig fields that locate the input; echo() leaves them out so that
# equivalent inputs give identical bytes.
INPUT_FIELDS = ("log_paths", "manifest_path", "corpus_path", "graph_path", "roster_path")


# What a config field may hold, by the type of its default; None marks a path.
_FIELD_TYPES = {
    type(None): ("a path or None", (str, os.PathLike, type(None))),
    tuple: ("a tuple", (tuple, list)),
    bool: ("a bool", (bool,)),
    int: ("an integer", (numbers.Integral,)),
    float: ("a number", (numbers.Real,)),
    str: ("a string", (str,)),
}
# The members of the tuple fields.
_MEMBER_TYPES = {
    "log_paths": ("paths", (str, os.PathLike)),
    "analyses": ("strings", (str,)),
}


class PipelineError(Exception):
    """Failure in a named pipeline stage; no partial report is emitted."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class AnalysisConfig:
    """Inputs plus every algorithm parameter the report depends on.

    Exactly one of ``log_paths``, ``manifest_path``, ``corpus_path`` and
    ``graph_path`` selects the input; ``roster_path`` adds prior nicks to
    the roster built from messages, so it cannot go with a graph CSV.  This
    class is the one declaration of the parameters: the report echo, the
    config file and the CLI read its fields.
    """

    log_paths: tuple[str, ...] = ()
    manifest_path: str | None = None
    corpus_path: str | None = None
    graph_path: str | None = None
    roster_path: str | None = None

    min_nick_length: int = 3
    case_insensitive: bool = True

    hits_tolerance: float = 1e-10
    hits_max_iterations: int = 1000
    hits_weighted: bool = False
    clique_min_size: int = 3
    rege_iterations: int = 3
    eq_threshold: float = 0.5
    tie_cutoff: float = 0.30
    people_cutoff: float = 0.50
    lambda_mode: str = "unit"
    top_links_count: int = 10
    top_k: int = 10
    analyses: tuple[str, ...] = ALL_ANALYSES

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kind, types = _FIELD_TYPES[type(f.default)]
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                raise ValueError(f"{f.name} must be {kind}, got {type(value).__name__} {value!r}")
        for name, (kind, types) in _MEMBER_TYPES.items():
            for member in getattr(self, name):
                if not isinstance(member, types):
                    raise ValueError(
                        f"{name} must be a tuple of {kind}, got {type(member).__name__} {member!r}"
                    )
        sources = [
            bool(self.log_paths),
            self.manifest_path is not None,
            self.corpus_path is not None,
            self.graph_path is not None,
        ]
        if sum(sources) != 1:
            raise ValueError(
                "exactly one input source (logs, manifest, corpus, or graph) required"
            )
        if self.graph_path is not None and self.roster_path is not None:
            raise ValueError("a roster needs messages to match; a graph CSV has none")
        if self.min_nick_length < 1:
            raise ValueError("min_nick_length must be at least 1")
        if not 0 < self.hits_tolerance < math.inf:
            # written so that nan fails too
            raise ValueError("hits_tolerance must be positive and finite")
        if self.hits_max_iterations < 1:
            raise ValueError("hits_max_iterations must be at least 1")
        if self.clique_min_size < 1:
            raise ValueError("clique_min_size must be at least 1")
        if self.rege_iterations < 1:
            raise ValueError("rege_iterations must be at least 1")
        if not 0 < self.eq_threshold < 1:
            raise ValueError("eq_threshold must lie strictly between 0 and 1")
        if not 0 <= self.tie_cutoff <= 1:
            raise ValueError("tie_cutoff must lie in [0, 1]")
        if not 0 <= self.people_cutoff <= 1:
            raise ValueError("people_cutoff must lie in [0, 1]")
        if self.lambda_mode not in ("unit", "weighted"):
            raise ValueError("lambda_mode must be 'unit' or 'weighted'")
        if self.top_links_count < 1:
            raise ValueError("top_links_count must be at least 1")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if not self.analyses:
            raise ValueError("analyses must name at least one analysis")
        unknown = [a for a in self.analyses if a not in ALL_ANALYSES]
        if unknown:
            raise ValueError(f"unknown analyses: {', '.join(unknown)}")

    def echo(self) -> dict:
        """Analysis-relevant parameters, paths excluded.

        Field declaration order is the key order of the report's config.
        """
        echoed = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in INPUT_FIELDS
        }
        echoed["analyses"] = list(self.analyses)
        return echoed


def split_list(raw: str) -> tuple[str, ...]:
    """Comma-separated names, blanks dropped."""
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _coerce_config_value(default, raw: str):
    # Typed by the field's default: a None default is a path, kept as text.
    if isinstance(default, bool):
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(default, tuple):
        names = split_list(raw)
        if not names:
            raise ValueError("expected at least one comma-separated name")
        return names
    if default is None:
        return raw
    return type(default)(raw)


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines into config overrides.

    Keys are ``AnalysisConfig`` field names; unknown keys are an error.  A
    line whose first non-blank character is '#' is a comment; a '#' further
    on is part of the value.  Values take the type of the field's default
    (booleans accept true/false style words, tuples are comma-separated).
    """
    defaults = {f.name: f.default for f in fields(AnalysisConfig)}
    overrides = {}
    for lineno, line in data_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in defaults:
            raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
        try:
            overrides[key] = _coerce_config_value(defaults[key], value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return overrides


@dataclass(frozen=True)
class AnalysisReport:
    """Ordered report sections plus the tool/config envelope."""

    data: dict

    def section(self, name: str):
        return self.data.get(name)

    def to_json_text(self) -> str:
        return json.dumps(self.data, indent=2, ensure_ascii=False) + "\n"

    def write_json(self, path) -> None:
        Path(path).write_text(self.to_json_text(), encoding="utf-8")

    def to_markdown(self) -> str:
        return _render_markdown(self.data)

    def write_markdown(self, path) -> None:
        Path(path).write_text(self.to_markdown(), encoding="utf-8")


def load_report_schema() -> dict:
    text = resources.files("chatnet").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def _percent(count: int, total: int) -> float:
    return 100.0 * count / total if total else 0.0


def _stats_section(g: MentionGraph) -> dict:
    s = stats(g)
    return {
        "nodes": s.node_count,
        "edges": s.edge_count,
        "density": s.density,
        "indegree": {
            "min": s.indegree_min,
            "mean": s.indegree_mean,
            "max": s.indegree_max,
        },
        "outdegree": {
            "min": s.outdegree_min,
            "mean": s.outdegree_mean,
            "max": s.outdegree_max,
        },
    }


def _hits_section(g: MentionGraph, cfg: AnalysisConfig) -> dict:
    scores = hits(
        g,
        tolerance=cfg.hits_tolerance,
        max_iterations=cfg.hits_max_iterations,
        weighted=cfg.hits_weighted,
    )
    return {
        "weighted": cfg.hits_weighted,
        "iterations": scores.iterations_used,
        "converged": scores.converged,
        "top_authorities": [
            {"nick": nick, "score": value}
            for nick, value in ranked(scores.authority, cfg.top_k)
        ],
        "top_hubs": [
            {"nick": nick, "score": value}
            for nick, value in ranked(scores.hub, cfg.top_k)
        ],
    }


def _bowtie_section(g: MentionGraph) -> dict:
    partition = bowtie(g)
    sizes = partition.sizes()
    n = g.node_count
    return {
        "core_size": len(partition.core),
        "sizes": {name: sizes[name] for name in BOWTIE_LABELS},
        "percent": {name: _percent(sizes[name], n) for name in BOWTIE_LABELS},
    }


def _skeleton_section(g: MentionGraph, partition) -> dict:
    sizes = partition.sizes()
    n = g.node_count
    plain = link_matrix(g, partition, weighted=False)
    weighted = link_matrix(g, partition, weighted=True)
    return {
        "order": list(SKELETON_LABELS),
        "sizes": {name: sizes[name] for name in SKELETON_LABELS},
        "percent": {name: _percent(sizes[name], n) for name in SKELETON_LABELS},
        "link_matrix": [list(row) for row in plain.counts],
        "link_matrix_weighted": [list(row) for row in weighted.counts],
    }


def _cliques_section(u, cfg: AnalysisConfig) -> dict:
    report = maximal_cliques(u, cfg.clique_min_size)
    co = clique_comembership(report)
    return {
        "min_size": cfg.clique_min_size,
        "count": report.count,
        "max_clique_size": report.max_clique_size,
        "top_comembership": [
            {"pair": list(pair), "shared": count}
            for pair, count in islice(co.pair_counts.items(), cfg.top_k)
        ],
    }


def _blocks_section(u) -> dict:
    report = articulation_points_and_blocks(u)
    return {
        "cutpoint_count": len(report.cutpoints),
        "block_count": report.block_count,
        "largest_block_size": report.largest_block_size,
    }


def _lambda_section(u, cfg: AnalysisConfig) -> dict:
    hierarchy = lambda_sets(u, cfg.lambda_mode)
    # Top links need the weighted cut tree, so fractional weights skip them;
    # unit levels stand without it (weighted lambda_sets has raised already).
    skipped = fractional_weight_error(u.csr().data)
    links = top_links(u, cfg.top_links_count) if skipped is None else []
    section = {
        "mode": cfg.lambda_mode,
        "levels": [
            {"value": value, "sets": [sorted(s) for s in sets]}
            for value, sets in hierarchy.levels
        ],
        "top_links": [
            {"source": a, "target": b, "score": score} for (a, b), score in links
        ],
    }
    if skipped is not None:
        section["top_links_skipped"] = skipped
    return section


def _roles_section(g: MentionGraph, partition, cfg: AnalysisConfig) -> dict:
    matrix = rege(g, cfg.rege_iterations)
    fractions = high_eq_tie_fraction(g, matrix, cfg.eq_threshold)
    report = classify_roles(partition, fractions, cfg.tie_cutoff, cfg.people_cutoff)
    components = {}
    for name in SKELETON_LABELS:
        case = report.components[name]
        if case.empty:
            components[name] = {"empty": True}
        else:
            components[name] = {
                "size": case.size,
                "mean_tie_fraction": case.mean_tie_fraction,
                "people_fraction": case.people_fraction,
                "case": case.case,
                "characteristics": case.characteristics,
            }
    return {
        "eq_threshold": cfg.eq_threshold,
        "tie_cutoff": cfg.tie_cutoff,
        "people_cutoff": cfg.people_cutoff,
        "rege_iterations": cfg.rege_iterations,
        "components": components,
    }


def check_config(config: AnalysisConfig) -> AnalysisConfig:
    """The config itself if it validates, else PipelineError at stage "config"."""
    try:
        config.validate()
    except ValueError as exc:
        raise PipelineError("config", str(exc)) from exc
    return config


def load_corpus(cfg: AnalysisConfig) -> ChatCorpus:
    """Read the config's corpus JSONL, or parse its manifest's or logs' files.

    A graph CSV holds no messages, so it is an error here.  Failures raise
    ValueError or OSError.
    """
    if cfg.graph_path is not None:
        raise ValueError(f"'{cfg.graph_path}' is a graph CSV, not logs or a corpus")
    if cfg.corpus_path is not None:
        return read_corpus_jsonl(cfg.corpus_path)
    if cfg.manifest_path is not None:
        return parse_corpus(read_manifest(cfg.manifest_path))
    return parse_corpus(discover_log_files(cfg.log_paths))


def load_input_graph(cfg: AnalysisConfig) -> MentionGraph:
    """Validate the config and build the mention graph from its input source.

    Failures raise ValueError or OSError.
    """
    cfg.validate()
    if cfg.graph_path is not None:
        return read_graph_csv(cfg.graph_path)
    corpus = load_corpus(cfg)
    prior = read_roster_file(cfg.roster_path) if cfg.roster_path else ()
    roster = build_roster(corpus, prior_nicks=prior)
    return extract_network(
        corpus,
        roster,
        min_nick_length=cfg.min_nick_length,
        case_insensitive=cfg.case_insensitive,
    )


def run_pipeline(config: AnalysisConfig, threads: int = 1) -> AnalysisReport:
    """Ingest, extract, run the enabled analyses in fixed order, and report.

    ``threads`` is accepted and ignored, kept so that callers passing it
    still work; the report never depends on it.  Any stage failure raises
    PipelineError naming the stage.
    """
    check_config(config)
    try:
        graph = load_input_graph(config)
    except (OSError, ValueError) as exc:
        raise PipelineError("input", str(exc)) from exc

    data = {
        "tool": {"name": "chatnet", "version": __version__},
        "config": config.echo(),
    }
    enabled = set(config.analyses)
    undirected = None
    if enabled & {"cliques", "blocks", "lambda"}:
        undirected = to_undirected(graph)
    partition = None
    if enabled & {"skeleton", "roles"}:
        partition = abcd_skeleton(graph)

    builders = {
        "stats": lambda: _stats_section(graph),
        "hits": lambda: _hits_section(graph, config),
        "bowtie": lambda: _bowtie_section(graph),
        "skeleton": lambda: _skeleton_section(graph, partition),
        "cliques": lambda: _cliques_section(undirected, config),
        "blocks": lambda: _blocks_section(undirected),
        "lambda": lambda: _lambda_section(undirected, config),
        "roles": lambda: _roles_section(graph, partition, config),
    }
    for name in ALL_ANALYSES:
        if name not in enabled:
            continue
        try:
            data[name] = builders[name]()
        except Exception as exc:
            raise PipelineError(name, str(exc)) from exc
    return AnalysisReport(data)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _format_attr(value) -> str:
    if isinstance(value, bool):
        return '"true"' if value else '"false"'
    if isinstance(value, (int, float)):
        return format_weight(value) if float(value).is_integer() else repr(float(value))
    return _dot_quote(str(value))


def _export_dot(g: MentionGraph, node_attrs) -> str:
    lines = ["digraph mentions {"]
    for nick in g.nicks:
        attrs = (node_attrs or {}).get(nick)
        if attrs:
            rendered = ", ".join(
                f"{key}={_format_attr(value)}" for key, value in sorted(attrs.items())
            )
            lines.append(f"  {_dot_quote(nick)} [{rendered}];")
        else:
            lines.append(f"  {_dot_quote(nick)};")
    for src, dst, w in g.edges_by_nick():
        lines.append(
            f"  {_dot_quote(src)} -> {_dot_quote(dst)} [weight={format_weight(w)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _graphml_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "long"
    if isinstance(value, float):
        return "double"
    return "string"


def _export_graphml(g: MentionGraph, node_attrs) -> str:
    ns = "http://graphml.graphdrawing.org/xmlns"
    ET.register_namespace("", ns)
    root = ET.Element(f"{{{ns}}}graphml")
    attr_names: dict[str, str] = {}
    if node_attrs:
        seen = {}
        for attrs in node_attrs.values():
            for key, value in attrs.items():
                seen.setdefault(key, _graphml_type(value))
        for i, (key, kind) in enumerate(sorted(seen.items())):
            key_id = f"n{i}"
            attr_names[key] = key_id
            ET.SubElement(
                root,
                f"{{{ns}}}key",
                {"id": key_id, "for": "node", "attr.name": key, "attr.type": kind},
            )
    ET.SubElement(
        root,
        f"{{{ns}}}key",
        {"id": "w", "for": "edge", "attr.name": "weight", "attr.type": "double"},
    )
    graph_el = ET.SubElement(root, f"{{{ns}}}graph", {"edgedefault": "directed"})
    for nick in g.nicks:
        node_el = ET.SubElement(graph_el, f"{{{ns}}}node", {"id": nick})
        for key, value in sorted(((node_attrs or {}).get(nick) or {}).items()):
            data_el = ET.SubElement(node_el, f"{{{ns}}}data", {"key": attr_names[key]})
            if isinstance(value, bool):
                data_el.text = "true" if value else "false"
            else:
                data_el.text = str(value)
    for src, dst, w in g.edges_by_nick():
        edge_el = ET.SubElement(graph_el, f"{{{ns}}}edge", {"source": src, "target": dst})
        data_el = ET.SubElement(edge_el, f"{{{ns}}}data", {"key": "w"})
        data_el.text = format_weight(w)
    ET.indent(root)
    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"


def export_graph(g: MentionGraph, format: str, path, node_attrs=None) -> None:
    """Write the graph as DOT, GraphML, or the canonical CSV edge list.

    ``node_attrs`` maps nick -> {attribute: value} and is rendered on nodes
    in DOT and GraphML (typed in the latter).
    """
    if format not in EXPORT_FORMATS:
        raise ValueError(f"unknown export format {format!r}; expected one of {EXPORT_FORMATS}")
    if format == "csv":
        text = graph_csv_text(g)
    elif format == "dot":
        text = _export_dot(g, node_attrs)
    else:
        text = _export_graphml(g, node_attrs)
    Path(path).write_text(text, encoding="utf-8")


def _render_markdown(data: dict) -> str:
    out = []
    tool = data["tool"]
    out.append(f"# Chat network analysis ({tool['name']} {tool['version']})")
    out.append("")
    if "stats" in data:
        s = data["stats"]
        out.append("## Graph")
        out.append("")
        out.append(f"- nodes: {s['nodes']}")
        out.append(f"- edges: {s['edges']}")
        out.append(f"- density: {s['density']:.6g}")
        out.append(
            f"- indegree min/mean/max: {s['indegree']['min']}/"
            f"{s['indegree']['mean']:.4g}/{s['indegree']['max']}"
        )
        out.append(
            f"- outdegree min/mean/max: {s['outdegree']['min']}/"
            f"{s['outdegree']['mean']:.4g}/{s['outdegree']['max']}"
        )
        out.append("")
    if "hits" in data:
        h = data["hits"]
        out.append("## Hubs and authorities")
        out.append("")
        out.append(f"- converged: {h['converged']} after {h['iterations']} iterations")
        for label, key in (("authorities", "top_authorities"), ("hubs", "top_hubs")):
            names = ", ".join(
                f"{entry['nick']} ({entry['score']:.4g})" for entry in h[key][:5]
            )
            out.append(f"- top {label}: {names or 'none'}")
        out.append("")
    if "bowtie" in data:
        b = data["bowtie"]
        out.append("## Bow-tie decomposition")
        out.append("")
        for name, size in b["sizes"].items():
            out.append(f"- {name}: {size} ({b['percent'][name]:.2f}%)")
        out.append("")
    if "skeleton" in data:
        k = data["skeleton"]
        out.append("## Four-component skeleton")
        out.append("")
        for name, size in k["sizes"].items():
            out.append(f"- {name}: {size} ({k['percent'][name]:.2f}%)")
        out.append("")
        out.append("Link counts (rows send, columns receive, order A B C D):")
        out.append("")
        for name, row in zip(k["order"], k["link_matrix"]):
            out.append(f"- {name}: " + " ".join(str(x) for x in row))
        out.append("")
    if "cliques" in data:
        c = data["cliques"]
        out.append("## Cliques")
        out.append("")
        out.append(f"- maximal cliques (size >= {c['min_size']}): {c['count']}")
        out.append(f"- largest clique: {c['max_clique_size']}")
        if c["top_comembership"]:
            top = c["top_comembership"][0]
            out.append(
                f"- strongest co-membership: {top['pair'][0]} / {top['pair'][1]}"
                f" ({top['shared']} shared)"
            )
        out.append("")
    if "blocks" in data:
        b = data["blocks"]
        out.append("## Blocks and cutpoints")
        out.append("")
        out.append(f"- cutpoints: {b['cutpoint_count']}")
        out.append(f"- blocks: {b['block_count']}")
        out.append(f"- largest block: {b['largest_block_size']}")
        out.append("")
    if "lambda" in data:
        lam = data["lambda"]
        out.append("## Lambda sets and top links")
        out.append("")
        out.append(f"- mode: {lam['mode']}")
        out.append(f"- levels: {len(lam['levels'])}")
        links = ", ".join(
            f"{entry['source']}-{entry['target']} ({entry['score']:.4g})"
            for entry in lam["top_links"][:6]
        )
        if "top_links_skipped" in lam:
            links = f"skipped, {lam['top_links_skipped']}"
        out.append(f"- top links: {links or 'none'}")
        out.append("")
    if "roles" in data:
        r = data["roles"]
        out.append("## Role cases")
        out.append("")
        for name, comp in r["components"].items():
            if comp.get("empty"):
                out.append(f"- {name}: empty")
            else:
                out.append(
                    f"- {name}: {comp['case']} (T={comp['mean_tie_fraction']:.3f}, "
                    f"P={comp['people_fraction']:.3f}) {comp['characteristics']}"
                )
        out.append("")
    return "\n".join(out)
