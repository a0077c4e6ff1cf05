"""Spans around chatnet's layer functions, recorded from outside the package.

The tracer swaps each layer function named below for a timing wrapper in
every ``chatnet`` module that holds it, so the calls ``report.py`` makes
through its own imports are timed, and so are nested calls such as
``connectivity.gomory_hu`` and the scipy ``maximum_flow`` that
``connectivity`` binds.  Spans (name, start, end, parent) stay in memory
and are written once, when the traced report is done.
"""

from __future__ import annotations

import contextlib
import sys
import time
import tracemalloc

# Layer -> functions timed, looked up in the module that defines them.
LAYER_FUNCTIONS = {
    "ingest": ("discover_log_files", "parse_corpus", "build_roster"),
    "graph": ("read_graph_csv", "extract_network", "to_undirected", "stats"),
    "centrality": ("hits", "ranked"),
    "skeleton": ("bowtie", "abcd_skeleton", "link_matrix"),
    "cohesion": ("maximal_cliques", "clique_comembership"),
    "connectivity": ("articulation_points_and_blocks", "lambda_sets", "top_links", "gomory_hu"),
    "equivalence": ("rege", "high_eq_tie_fraction", "classify_roles"),
}
# scipy's max-flow routine as connectivity binds it, and its span name.
MAXFLOW_BINDING = ("connectivity", "maximum_flow")
MAXFLOW_SPAN = "connectivity.maxflow"
ROOT_SPAN = "pipeline"
TO_JSON_SPAN = "report.to_json_text"

# Spans each report section and each input kind must produce; a traced run
# missing one of them is an error, not a zero.
SECTION_SPANS = {
    "stats": ("graph.stats",),
    "hits": ("centrality.hits", "centrality.ranked"),
    "bowtie": ("skeleton.bowtie",),
    "skeleton": ("skeleton.abcd_skeleton", "skeleton.link_matrix"),
    "cliques": ("graph.to_undirected", "cohesion.maximal_cliques", "cohesion.clique_comembership"),
    "blocks": ("graph.to_undirected", "connectivity.articulation_points_and_blocks"),
    "lambda": (
        "graph.to_undirected",
        "connectivity.lambda_sets",
        "connectivity.top_links",
        "connectivity.gomory_hu",
        MAXFLOW_SPAN,
    ),
    "roles": (
        "skeleton.abcd_skeleton",
        "equivalence.rege",
        "equivalence.high_eq_tie_fraction",
        "equivalence.classify_roles",
    ),
}
INPUT_SPANS = {
    "csv": ("graph.read_graph_csv",),
    "logs": (
        "ingest.discover_log_files",
        "ingest.parse_corpus",
        "ingest.build_roster",
        "graph.extract_network",
    ),
}


class TraceError(Exception):
    """The program no longer has the shape the trace expects."""


class Tracer:
    """Records spans and per-layer counters for one traced report."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        # Objects whose counters are computed after the report, off the clock.
        self._deferred: dict[str, object] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        track_memory = name == "equivalence.rege"

        def wrapper(*args, **kwargs):
            peak = 0
            with self.span(name):
                if track_memory:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if track_memory:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            self._observe(name, args, result, peak)
            return result

        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _observe(self, name: str, args, result, peak: int = 0) -> None:
        # Only O(1) or O(files) work here: this runs inside the parent span.
        if name == "ingest.parse_corpus":
            self._add("ingest.lines", sum(s.total_lines for s in result.file_stats))
            self._add("ingest.messages", result.message_count)
            self._add("ingest.skipped", result.skipped_count)
        elif name in ("graph.extract_network", "graph.read_graph_csv"):
            self._add("graph.nodes", result.node_count)
            self._add("graph.edges", result.edge_count)
        elif name == "graph.to_undirected":
            self._deferred["undirected"] = result
        elif name == "centrality.hits":
            self._add("centrality.hits_iterations", result.iterations_used)
        elif name == "cohesion.maximal_cliques":
            self._add("cohesion.cliques", result.count)
        elif name == "connectivity.articulation_points_and_blocks":
            self._deferred["blocks"] = result
        elif name == "equivalence.rege":
            self._add("equivalence.rege_iterations", result.iterations)
            self._add("equivalence.rege_peak_mb", peak / 2**20)
            self._deferred["rege_graph"] = args[0]

    def finish_counters(self) -> None:
        """Counters that need a pass over a graph, taken after the report."""
        undirected = self._deferred.get("undirected")
        if undirected is not None:
            self.counters["graph.pendant_nodes"] = sum(
                1 for v in range(undirected.node_count) if undirected.degree(v) == 1
            )
        blocks = self._deferred.get("blocks")
        if blocks is not None:
            # A two-node block is exactly a bridge edge.
            self.counters["connectivity.bridges"] = sum(1 for b in blocks.blocks if len(b) == 2)
        g = self._deferred.get("rege_graph")
        if g is not None:
            slots = 0
            keys = set()
            for i in range(g.node_count):
                for k in set(g.out_neighbors(i)) | set(g.in_neighbors(i)):
                    slots += 1
                    keys.add((k, g.weight(i, k), g.weight(k, i)))
            self.counters["equivalence.slots"] = slots
            self.counters["equivalence.distinct_keys"] = len(keys)
        self._deferred.clear()

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced function for its wrapper in all chatnet modules."""
        targets = []
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"chatnet.{layer}")
            for fname in names:
                if module is None or not callable(getattr(module, fname, None)):
                    raise TraceError(f"chatnet.{layer} no longer defines {fname}")
                targets.append((getattr(module, fname), f"{layer}.{fname}"))
        layer, fname = MAXFLOW_BINDING
        original = getattr(sys.modules[f"chatnet.{layer}"], fname, None)
        if original is None:
            raise TraceError(f"chatnet.{layer} no longer binds {fname}")
        targets.append((original, MAXFLOW_SPAN))

        wrappers = {id(fn): (fn, self._wrap(name, fn)) for fn, name in targets}
        swapped = []
        for modname, module in list(sys.modules.items()):
            if modname != "chatnet" and not modname.startswith("chatnet."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    swapped.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in swapped:
                setattr(module, attr, value)

    def to_json(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def self_times(spans: list) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-name self time (span minus direct children) and call counts.

    Returns (self seconds by name, calls by name, root span seconds); the
    first span is the root.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        own[name] = own.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
    root = spans[0]
    return own, calls, root[2] - root[1]
