"""Directed weighted mention graph, its undirected view, and CSV serialization.

Nodes are canonical (case-folded) nicks.  Node ids are indices into the
lexicographically sorted nick tuple, which makes iteration order, tie
breaking, and serialized output stable for a given edge set.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
from scipy.sparse import csr_matrix

from .ingest import CONTROL_CHARS, ChatCorpus, MentionCorpus

# Characters legal in IRC nicks; anything else is a token boundary when
# scanning message bodies for mentions.
_TOKEN_RE = re.compile(r"[0-9A-Za-z\[\]\\`_^{|}-]+")
# Translate tables that make ASCII text split into those tokens: every other
# ASCII character (the ``?`` of each other code point too) becomes a space,
# except \n, which keeps messages apart.
_SPLIT_ASCII = {c: " " for c in range(128) if c != 10 and not _TOKEN_RE.match(chr(c))}
_FOLD_ASCII = {**_SPLIT_ASCII, **{c: chr(c).lower() for c in range(ord("A"), ord("Z") + 1)}}
_CONTROL_RE = re.compile(f"[{CONTROL_CHARS}]")


class _CSRGraph:
    """Node names plus one CSR adjacency, the only store of the edges.

    Row u holds u's neighbors in ascending id order with float64 weights.
    Immutable after construction.
    """

    __slots__ = ("nicks", "_index", "_adj")

    def __init__(self, nicks: tuple[str, ...]):
        self.nicks = nicks
        self._index = {nick: i for i, nick in enumerate(nicks)}

    @property
    def node_count(self) -> int:
        return len(self.nicks)

    def __contains__(self, nick: str) -> bool:
        return nick in self._index

    def id_of(self, nick: str) -> int:
        try:
            return self._index[nick]
        except KeyError:
            raise KeyError(f"unknown node '{nick}'") from None

    def nick_of(self, node: int) -> str:
        return self.nicks[node]

    def _row(self, node: int) -> dict[int, float]:
        lo, hi = self._adj.indptr[node], self._adj.indptr[node + 1]
        return dict(zip(self._adj.indices[lo:hi].tolist(), self._adj.data[lo:hi].tolist()))

    def weight(self, u: int, v: int) -> float:
        lo, hi = self._adj.indptr[u], self._adj.indptr[u + 1]
        at = lo + np.searchsorted(self._adj.indices[lo:hi], v)
        return float(self._adj.data[at]) if at < hi and self._adj.indices[at] == v else 0.0

    def csr(self) -> csr_matrix:
        """The adjacency itself, sorted indices.  Shared: do not modify it."""
        return self._adj

    def _arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (row, column, weight) per stored entry, in CSR order.
        rows = np.repeat(np.arange(len(self.nicks)), np.diff(self._adj.indptr))
        return rows, self._adj.indices, self._adj.data


class MentionGraph(_CSRGraph):
    """Directed weighted graph of who addresses whom; ``csr()`` row = source."""

    __slots__ = ()

    def __init__(self, nicks: Iterable[str], edges: Mapping[tuple[str, str], float]):
        super().__init__(tuple(sorted(set(nicks))))
        for nick in self.nicks:
            if _CONTROL_RE.search(nick):
                raise ValueError(f"nick {nick!r} contains a control character")
        rows, cols, weights = [], [], []
        for (src, dst), weight in edges.items():
            if src not in self._index:
                raise ValueError(f"edge endpoint '{src}' not in node set")
            if dst not in self._index:
                raise ValueError(f"edge endpoint '{dst}' not in node set")
            if src == dst:
                raise ValueError(f"self-loop on '{src}' is not allowed")
            if not weight > 0:
                raise ValueError(f"edge {src}->{dst} has non-positive weight {weight!r}")
            if weight == math.inf:
                raise ValueError(f"edge {src}->{dst} has infinite weight")
            try:
                as_float = float(weight)
            except OverflowError:
                as_float = None
            if as_float != weight:
                raise ValueError(
                    f"edge {src}->{dst} weight {weight!r} is not exactly representable"
                )
            rows.append(self._index[src])
            cols.append(self._index[dst])
            weights.append(as_float)
        n = len(self.nicks)
        # in any edge order: the COO to CSR conversion sorts each row
        self._adj = csr_matrix((weights, (rows, cols)), shape=(n, n), dtype=np.float64)

    @classmethod
    def from_edge_list(
        cls,
        triples: Iterable[tuple[str, str, float]],
        extra_nodes: Iterable[str] = (),
    ) -> "MentionGraph":
        """Build from (source, target, weight) triples; duplicate pairs sum."""
        weights: dict[tuple[str, str], float] = {}
        nodes = set(extra_nodes)
        for src, dst, weight in triples:
            nodes.add(src)
            nodes.add(dst)
            key = (src, dst)
            weights[key] = weights.get(key, 0) + weight
        return cls(nodes, weights)

    @property
    def edge_count(self) -> int:
        return self._adj.nnz

    def out_neighbors(self, node: int) -> Mapping[int, float]:
        return self._row(node)

    def in_neighbors(self, node: int) -> Mapping[int, float]:
        at = np.flatnonzero(self._adj.indices == node)
        sources = np.searchsorted(self._adj.indptr, at, side="right") - 1
        return dict(zip(sources.tolist(), self._adj.data[at].tolist()))

    def edges(self):
        """Yield (u, v, weight) with ids ascending; id order is nick order."""
        rows, cols, weights = self._arcs()
        return zip(rows.tolist(), cols.tolist(), weights.tolist())

    def edges_by_nick(self):
        for u, v, w in self.edges():
            yield self.nicks[u], self.nicks[v], w

    def subgraph(self, nodes: Iterable[int]) -> "MentionGraph":
        keep = set(nodes)
        edges = {
            (self.nicks[u], self.nicks[v]): w
            for u, v, w in self.edges()
            if u in keep and v in keep
        }
        return MentionGraph((self.nicks[v] for v in keep), edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MentionGraph):
            return NotImplemented
        return self.nicks == other.nicks and (self._adj != other._adj).nnz == 0

    def __repr__(self) -> str:
        return f"MentionGraph(nodes={self.node_count}, edges={self.edge_count})"


class UndirectedView(_CSRGraph):
    """Symmetric view of a mention graph; weight(u,v) = w(u->v) + w(v->u).

    Clique, block, and connectivity analyses are defined on undirected
    structure, so they consume this view rather than the digraph.  It is
    stored as one symmetric CSR.  Its nicks must be distinct and strictly
    ascending, as a ``MentionGraph``'s are, so node ids ascend with names:
    clique order, co-membership keys and top-link ties rely on it.
    """

    __slots__ = ()

    def __init__(self, nicks: Iterable[str], adjacency: csr_matrix):
        super().__init__(tuple(nicks))
        if any(a >= b for a, b in zip(self.nicks, self.nicks[1:])):
            raise ValueError("undirected view nicks must be distinct and ascending")
        if adjacency.diagonal().any():
            raise ValueError("self-loop in undirected view")
        self._adj = adjacency

    @classmethod
    def from_edge_list(
        cls,
        triples: Iterable[tuple[str, str, float]],
        extra_nodes: Iterable[str] = (),
    ) -> "UndirectedView":
        """Build a standalone undirected graph; duplicate/reversed pairs sum.

        Weights are checked as ``MentionGraph`` checks them.
        """
        return to_undirected(MentionGraph.from_edge_list(triples, extra_nodes))

    @property
    def edge_count(self) -> int:
        return self._adj.nnz // 2

    def neighbors(self, node: int) -> Mapping[int, float]:
        return self._row(node)

    def degree(self, node: int) -> int:
        return int(self._adj.indptr[node + 1] - self._adj.indptr[node])

    def edges(self):
        """Yield (u, v, weight) with u < v, ascending."""
        rows, cols, weights = self._arcs()
        upper = rows < cols
        return zip(rows[upper].tolist(), cols[upper].tolist(), weights[upper].tolist())

    def __repr__(self) -> str:
        return f"UndirectedView(nodes={self.node_count}, edges={self.edge_count})"


@dataclass(frozen=True)
class GraphStats:
    node_count: int
    edge_count: int
    density: float
    indegree_min: int
    indegree_mean: float
    indegree_max: int
    outdegree_min: int
    outdegree_mean: float
    outdegree_max: int


def extract_network(
    corpus: ChatCorpus | MentionCorpus,
    roster: Mapping[str, int],
    *,
    min_nick_length: int = 3,
    case_insensitive: bool = True,
) -> MentionGraph:
    """Build the directed weighted mention network from a parsed corpus.

    ``roster`` maps case-folded nicks to message counts, as ``build_roster``
    returns it; only its keys are read.  Every whole-token occurrence of a
    roster nick in a user message from a roster nick adds weight 1 to the
    sender->nick edge; repeated mentions of the same nick within one
    message count once, and self-mentions are ignored.  Nodes are the users
    incident to at least one tie.

    Nicks shorter than ``min_nick_length`` are never matched: they collide
    with short everyday words and would flood the graph with false ties.
    With ``case_insensitive=False`` a mention must match the canonical
    (case-folded) nick exactly.

    A message's tokens meet the matchable nicks in one set intersection.
    Extraction reads each run's ``MentionText``: its bodies joined at \n
    and encoded to ASCII (each other code point one ``?``), which it
    translates in one call, lowercasing token characters and turning every
    other character into a space, then splits into lines and each line into
    tokens.  Token characters are ASCII, so ``ſ`` or Kelvin ``K`` only ends
    a token.  A body holding \n, which no log line gives, raises ValueError
    naming the run's date.
    """
    if not roster:
        raise ValueError("no participants")
    # a set, not a frozenset, so that each intersection is a mutable set
    matchable = {nick for nick in roster if len(nick) >= min_nick_length}
    table = _FOLD_ASCII if case_insensitive else _SPLIT_ASCII
    weights: dict[tuple[str, str], int] = {}
    for mentions in corpus.mention_texts():
        senders = mentions.senders
        lines = mentions.text.translate(table).split("\n")
        if len(lines) > max(len(senders), 1):  # "" splits into one line
            raise ValueError(f"{mentions.date.isoformat()}: a message body holds a line break")
        for sender, mentioned in zip(senders, map(matchable.intersection, map(str.split, lines))):
            mentioned.discard(sender)
            if mentioned and sender in roster:
                for target in mentioned:
                    key = (sender, target)
                    weights[key] = weights.get(key, 0) + 1
    nodes = {endpoint for pair in weights for endpoint in pair}
    return MentionGraph(nodes, weights)


def stats(g: MentionGraph) -> GraphStats:
    """Node/edge counts, directed density, and degree summaries."""
    n, m = g.node_count, g.edge_count
    adj = g.csr()
    indeg = np.bincount(adj.indices, minlength=n).tolist()
    outdeg = np.diff(adj.indptr).tolist()
    return GraphStats(
        node_count=n,
        edge_count=m,
        density=m / (n * (n - 1)) if n > 1 else 0.0,
        indegree_min=min(indeg, default=0),
        indegree_mean=m / n if n else 0.0,
        indegree_max=max(indeg, default=0),
        outdegree_min=min(outdeg, default=0),
        outdegree_mean=m / n if n else 0.0,
        outdegree_max=max(outdeg, default=0),
    )


def to_undirected(g: MentionGraph) -> UndirectedView:
    """Symmetrize with summed weights; the node set is unchanged.

    Both cells of a pair hold w(u->v) + w(v->u); IEEE addition commutes, so
    they hold the same bits.
    """
    adj = g.csr()
    return UndirectedView(g.nicks, adj + adj.T)


def with_virtual_root(adj: csr_matrix, seeds: np.ndarray) -> csr_matrix:
    """``adj`` plus a node n with an arc to each seed id, all weights 1.

    One search from n covers everything that any seed reaches, and enters
    the seeds in the order given.
    """
    n, k = adj.shape[0], len(seeds)
    return csr_matrix(
        (np.ones(adj.nnz + k), np.append(adj.indices, seeds), np.append(adj.indptr, adj.nnz + k)),
        shape=(n + 1, n + 1),
    )


def mutual_ties_view(g: MentionGraph) -> UndirectedView:
    """Stricter view keeping only reciprocated ties, weights summed.

    An undirected edge exists iff both directed edges do; useful as a
    conservative basis for clique analysis.
    """
    adj = g.csr()
    mutual = adj.multiply(adj.T > 0).tocsr()
    return UndirectedView(g.nicks, mutual + mutual.T)


def format_weight(w) -> str:
    return str(int(w)) if float(w).is_integer() else repr(float(w))


def graph_csv_text(g: MentionGraph) -> str:
    """Canonical edge-list CSV: header row, nick-sorted edges."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "target", "weight"])
    for src, dst, w in g.edges_by_nick():
        writer.writerow([src, dst, format_weight(w)])
    return buf.getvalue()


def write_graph_csv(g: MentionGraph, path) -> None:
    Path(path).write_text(graph_csv_text(g), encoding="utf-8")


def read_graph_csv(path) -> MentionGraph:
    """Load an edge-list CSV written by ``write_graph_csv``.

    The edge list carries nodes with at least one tie; that is exactly what
    extraction produces, so export/import round-trips.
    """
    weights: dict[tuple[str, str], float] = {}
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != ["source", "target", "weight"]:
                raise ValueError(f"{path}: expected header source,target,weight")
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path}:{reader.line_num}: expected 3 columns")
                src, dst, raw = row
                try:
                    weight = int(raw) if re.fullmatch(r"-?\d+", raw) else float(raw)
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: bad weight {raw!r}") from exc
                if (src, dst) in weights:
                    raise ValueError(f"{path}:{reader.line_num}: duplicate edge {src}->{dst}")
                weights[(src, dst)] = weight
        except csv.Error as exc:
            # e.g. a field over the csv module's size limit
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    nodes = {endpoint for pair in weights for endpoint in pair}
    return MentionGraph(nodes, weights)
