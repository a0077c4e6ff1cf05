"""High-level decompositions of the digraph: bow-tie and the A/B/C/D skeleton.

The bow-tie splits nodes around a core strongly connected component into
upstream, downstream, tube, tendril, and disconnected classes.  The four-way
skeleton is coarser and fits question/answer communities better: a strongly
connected core A, pure receivers B, pure senders C, and a mixed periphery D
(which also absorbs isolates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .graph import MentionGraph, with_virtual_root

BOWTIE_LABELS = ("SCC", "IN", "OUT", "TUBES", "INTENDRILS", "OUTTENDRILS", "OTHERS")
SKELETON_LABELS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class _Partition:
    """Exhaustive, disjoint labeling of nodes by the names in ``names``."""

    label: dict[str, str]
    names = ()

    def members(self, name: str) -> frozenset[str]:
        return frozenset(n for n, lab in self.label.items() if lab == name)

    def sizes(self) -> dict[str, int]:
        out = {name: 0 for name in self.names}
        for lab in self.label.values():
            out[lab] += 1
        return out


@dataclass(frozen=True)
class BowTiePartition(_Partition):
    """Bow-tie classes; ``core`` is the chosen central SCC."""

    core: frozenset[str]
    names = BOWTIE_LABELS


@dataclass(frozen=True)
class SkeletonPartition(_Partition):
    """A/B/C/D skeleton classes."""

    names = SKELETON_LABELS


@dataclass(frozen=True)
class LinkMatrix:
    """Edge counts between skeleton components, indexed in A,B,C,D order."""

    counts: tuple[tuple[float, ...], ...]
    weighted: bool
    order: tuple[str, ...] = field(default=SKELETON_LABELS)

    @property
    def total(self):
        return sum(sum(row) for row in self.counts)


def _scc_labels(g: MentionGraph) -> np.ndarray:
    return connected_components(g.csr(), directed=True, connection="strong")[1]


def strongly_connected_components(g: MentionGraph) -> list[frozenset[str]]:
    """Maximal SCCs (singletons included), largest first, then by member."""
    groups: dict[int, list[str]] = {}
    for v, c in enumerate(_scc_labels(g).tolist()):
        groups.setdefault(c, []).append(g.nicks[v])
    result = [frozenset(grp) for grp in groups.values()]
    result.sort(key=lambda s: (-len(s), min(s)))
    return result


def _core_mask(g: MentionGraph) -> np.ndarray:
    # Largest SCC; ties go to the component holding the smallest nick, and
    # node ids follow nick order, so min-id decides.
    labels = _scc_labels(g)
    _, first = np.unique(labels, return_index=True)
    best = np.lexsort((first, -np.bincount(labels)))[0]
    return labels == best


def _reach(adj: csr_matrix, seeds: np.ndarray) -> np.ndarray:
    # Nodes reachable from any seed (seeds included): one breadth-first
    # search from a virtual node with an arc to every seed.
    n = adj.shape[0]
    extended = with_virtual_root(adj, np.flatnonzero(seeds))
    reached = np.zeros(n + 1, dtype=bool)
    reached[breadth_first_order(extended, n, return_predecessors=False)] = True
    return reached[:n]


def bowtie(g: MentionGraph) -> BowTiePartition:
    """Label every node per the bow-tie set definitions.

    Classes are assigned in priority order core, IN, OUT, TUBES, in-tendrils,
    out-tendrils, OTHERS, so the labeling is an exhaustive partition.
    """
    n = g.node_count
    if n == 0:
        return BowTiePartition({}, frozenset())
    forward = g.csr()
    backward = forward.T.tocsr()
    core = _core_mask(g)
    upstream = _reach(backward, core) & ~core
    downstream = _reach(forward, core) & ~core & ~upstream
    from_in = _reach(forward, upstream)
    to_out = _reach(backward, downstream)
    label = np.select(
        [core, upstream, downstream, from_in & to_out, from_in, to_out],
        ["SCC", "IN", "OUT", "TUBES", "INTENDRILS", "OUTTENDRILS"],
        "OTHERS",
    )
    return BowTiePartition(
        dict(zip(g.nicks, label.tolist())),
        frozenset(g.nicks[v] for v in np.flatnonzero(core)),
    )


def abcd_skeleton(g: MentionGraph) -> SkeletonPartition:
    """Four-way split: core A, pure receivers B, pure senders C, the rest D.

    Degrees are taken on the whole graph; pure senders have no incoming tie
    at all (which forces zero links inside C) and pure receivers none
    outgoing.  Isolates fall to D.
    """
    n = g.node_count
    if n == 0:
        return SkeletonPartition({})
    adj = g.csr()
    outdeg = np.diff(adj.indptr)
    indeg = np.bincount(adj.indices, minlength=n)
    label = np.select(
        [_core_mask(g), (indeg == 0) & (outdeg > 0), (outdeg == 0) & (indeg > 0)],
        ["A", "C", "B"],
        "D",
    )
    return SkeletonPartition(dict(zip(g.nicks, label.tolist())))


def link_matrix(g: MentionGraph, p: SkeletonPartition, weighted: bool = False) -> LinkMatrix:
    """Per-pair tie counts between skeleton components (diagonal = internal)."""
    position = {name: i for i, name in enumerate(SKELETON_LABELS)}
    cells = [[0.0] * len(SKELETON_LABELS) for _ in SKELETON_LABELS]
    for nick in g.nicks:
        if nick not in p.label:
            raise ValueError(f"node '{nick}' has no skeleton label")
    for u, v, w in g.edges():
        i = position[p.label[g.nicks[u]]]
        j = position[p.label[g.nicks[v]]]
        cells[i][j] += w if weighted else 1
    normalized = tuple(
        tuple(int(x) if float(x).is_integer() else float(x) for x in row)
        for row in cells
    )
    return LinkMatrix(normalized, weighted)
