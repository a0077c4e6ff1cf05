"""Cohesive substructure: maximal cliques, clique overlap, ego networks."""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, triu

from .graph import MentionGraph, UndirectedView

# maximal_cliques stops with ValueError once it has found more maximal
# cliques than this, counting those below min_size too.  Enumeration can
# grow as 3^(n/3) (Moon & Moser 1965), so a dense graph would otherwise run
# for hours or exhaust memory; a 3,992-user chat graph has 28,911.
MAX_CLIQUES = 1_000_000


@dataclass(frozen=True, eq=False)
class CliqueReport:
    """Maximal cliques of size >= min_size, as ids into the view's ``nicks``.

    ``members`` holds every clique's ids in one flat int32 array, clique i
    at ``members[offsets[i]:offsets[i + 1]]``: 4 bytes per member
    reference, with no Python object per clique.  Each clique's ids ascend,
    and the largest clique comes first, then by members.  ``cliques``
    names the members each time it is read.
    """

    nicks: tuple[str, ...]
    members: np.ndarray
    offsets: np.ndarray
    min_size: int
    max_clique_size: int

    @property
    def cliques(self) -> tuple[tuple[str, ...], ...]:
        ids, bounds = self.members.tolist(), self.offsets.tolist()
        return tuple(
            tuple(self.nicks[v] for v in ids[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        )

    @property
    def count(self) -> int:
        return len(self.offsets) - 1


@dataclass(frozen=True, eq=False)
class CoMembershipMatrix:
    """Actor pairs that share cliques, ranked, and each actor's memberships.

    Row i of ``pairs`` holds node ids a < b into ``nicks`` that share
    ``shared[i]`` cliques, int32 arrays of 12 bytes a pair with no Python
    object per pair.  Only pairs that co-occur are stored, most
    shared cliques first, smallest pair first on ties; ``count`` answers 0
    for the rest.  ``memberships[v]`` is the number of cliques holding v,
    the matrix's diagonal.  A pair is named only when it is read: ``top(k)``
    names the first k, ``pair_counts`` every pair, and ``max_pair`` is the
    first, or None when no clique has two members.
    """

    nicks: tuple[str, ...]
    pairs: np.ndarray
    shared: np.ndarray
    memberships: np.ndarray

    def top(self, k: int | None = None) -> list[tuple[tuple[str, str], int]]:
        names = self.nicks
        pairs, shared = self.pairs[:k].tolist(), self.shared[:k].tolist()
        return [((names[a], names[b]), count) for (a, b), count in zip(pairs, shared)]

    @property
    def pair_counts(self) -> dict[tuple[str, str], int]:
        return dict(self.top())

    @property
    def diagonal(self) -> dict[str, int]:
        counts = self.memberships.tolist()
        return {self.nicks[v]: count for v, count in enumerate(counts) if count}

    @property
    def max_pair(self) -> tuple[tuple[str, str], int] | None:
        return next(iter(self.top(1)), None)

    def count(self, a: str, b: str) -> int:
        i, j = sorted((self._id(a), self._id(b)))
        if i < 0:
            return 0
        if i == j:
            return int(self.memberships[i])
        at = np.flatnonzero((self.pairs[:, 0] == i) & (self.pairs[:, 1] == j))
        return int(self.shared[at[0]]) if len(at) else 0

    def _id(self, nick: str) -> int:
        # nicks ascend, so a bisection finds an id; -1 for an unknown nick
        at = bisect_left(self.nicks, nick)
        return at if at < len(self.nicks) and self.nicks[at] == nick else -1


@dataclass(frozen=True)
class EgoNetwork:
    """An actor, every one-step neighbor, and all ties among them."""

    ego: str
    alters: frozenset[str]
    graph: MentionGraph
    size: int
    density: float


def _rows(u: UndirectedView) -> list[list[int]]:
    # Each node's neighbor ids, ascending, read straight from the CSR.
    adj = u.csr()
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    return [indices[indptr[v]:indptr[v + 1]] for v in range(u.node_count)]


def maximal_cliques(u: UndirectedView, min_size: int = 3) -> CliqueReport:
    """Enumerate maximal cliques by pivoting branch and bound.

    One search over the whole node set emits each maximal clique exactly
    once (Tomita, Tanaka & Takahashi 2006).  It has no outer degeneracy
    ordering: that ordering only tightens the worst-case bound, and it was
    measured slower on every graph tried, chat-shaped ones included.  Each
    kept clique's sorted ids go onto one flat int32 array, and numpy ranks
    the cliques, so output order is canonical regardless of input order.
    Raises ValueError on finding more than ``MAX_CLIQUES`` maximal cliques.
    """
    if min_size < 1:
        raise ValueError("min_size must be at least 1")
    members, offsets = _ranked(*_search(u, min_size))
    max_size = int(offsets[1]) if len(offsets) > 1 else 0
    return CliqueReport(u.nicks, members, offsets, min_size, max_size)


def _search(u: UndirectedView, min_size: int) -> tuple[np.ndarray, np.ndarray]:
    # The members of each maximal clique of at least min_size nodes, sorted,
    # on one flat array, and the cliques' sizes, in the order found.
    nbr = [frozenset(row) for row in _rows(u)]
    found = 0
    kept, sizes = array("i"), array("i")
    # An explicit stack, since a clique of k members nests k branches deep.
    # Each frame: the clique so far, cand, excl and the branches left.
    stack = []

    def pivot(cand: set[int], excl: set[int]) -> int:
        # Any pivot gives the same cliques; the first of most neighbors in
        # cand.  No node covers more than all of cand (one of excl) or all of
        # cand but itself (one of cand), so the scan stops at the first that
        # does, which keeps a dense frame from costing O(n^2).
        best, most = -1, -1
        for c in cand | excl:
            covered = len(cand & nbr[c])
            if covered > most:
                best, most = c, covered
                if covered == len(cand) - (c in cand):
                    break
        return best

    def enter(clique: tuple[int, ...], cand: set[int], excl: set[int]) -> None:
        nonlocal found
        if cand or excl:
            stack.append((clique, cand, excl, iter(sorted(cand - nbr[pivot(cand, excl)]))))
            return
        if found == MAX_CLIQUES:
            raise ValueError(
                f"more than {MAX_CLIQUES} maximal cliques (cohesion.MAX_CLIQUES); "
                "enumeration stopped"
            )
        found += 1
        # min_size >= 1 drops the empty clique an empty view reports
        if len(clique) >= min_size:
            kept.extend(sorted(clique))
            sizes.append(len(clique))

    enter((), set(range(len(nbr))), set())
    while stack:
        clique, cand, excl, branches = stack[-1]
        v = next(branches, None)
        if v is None:
            stack.pop()
            continue
        enter(clique + (v,), cand & nbr[v], excl & nbr[v])
        cand.discard(v)
        excl.add(v)

    return np.asarray(kept, dtype=np.int32), np.asarray(sizes, dtype=np.int64)


def _ranked(members: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Cliques, as flat members and their sizes, ranked by (-size, members):
    # the cliques of one size are rows of a matrix, sorted by one lexsort.
    # Ids ascend with nicks, so id order is member-name order.
    starts = np.cumsum(sizes) - sizes
    ranked = [members[:0]]
    for size in np.unique(sizes)[::-1].tolist():
        rows = members[starts[sizes == size, None] + np.arange(size)]
        ranked.append(rows[np.lexsort(rows.T[::-1])].ravel())
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.sort(sizes)[::-1], out=offsets[1:])
    return np.concatenate(ranked), offsets


def clique_comembership(report: CliqueReport) -> CoMembershipMatrix:
    """Tally, for every actor pair, how many of the report's cliques hold both.

    The tallies are the product M^T M of the clique x node incidence matrix
    M, built from the flat member ids and their offsets.  Ids ascend with
    nicks, so each pair of its strict upper triangle is an id pair a < b,
    and one lexsort of the pairs by (-shared, row, column) ranks them by
    (-shared, pair).  The pairs stay int32 arrays, 12 bytes each, until read.
    """
    incidence = csr_matrix(
        (np.ones(len(report.members), dtype=np.int32), report.members, report.offsets),
        shape=(report.count, len(report.nicks)),
    )
    tally = (incidence.T @ incidence).tocsr()
    memberships = tally.diagonal()
    pairs = triu(tally, k=1).tocoo()
    rank = np.lexsort((pairs.col, pairs.row, -pairs.data))
    ends = np.stack((pairs.row[rank], pairs.col[rank]), axis=1).astype(np.int32)
    return CoMembershipMatrix(report.nicks, ends, pairs.data[rank], memberships)


def clique_participation(
    report: CliqueReport, u: UndirectedView
) -> dict[tuple[str, int], float]:
    """Fraction of each clique's other members a node is adjacent to.

    Members score 1 by completeness; a lone-member clique also scores 1 for
    its member.  ``report`` must come from ``u``: its member ids index
    ``u.nicks``.
    """
    if report.nicks != u.nicks:
        raise ValueError("clique report does not match the graph")
    scores: dict[tuple[str, int], float] = {}
    ids, bounds = report.members.tolist(), report.offsets.tolist()
    clique_ids = [frozenset(ids[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    for v, row in enumerate(_rows(u)):
        nick = u.nicks[v]
        adjacent = frozenset(row)
        for idx, members in enumerate(clique_ids):
            # a non-member's other members are the whole clique
            scores[(nick, idx)] = 1.0 if v in members else len(members & adjacent) / len(members)
    return scores


def ego_network(g: MentionGraph, ego: str) -> EgoNetwork:
    """Induced subgraph on an actor plus all in/out neighbors."""
    try:
        center = g.id_of(ego)
    except KeyError:
        raise ValueError(f"unknown ego '{ego}'") from None
    alters = set(g.out_neighbors(center)) | set(g.in_neighbors(center))
    members = alters | {center}
    sub = g.subgraph(members)
    k = sub.node_count
    density = sub.edge_count / (k * (k - 1)) if k > 1 else 0.0
    return EgoNetwork(
        ego=ego,
        alters=frozenset(g.nicks[v] for v in alters),
        graph=sub,
        size=k,
        density=density,
    )
