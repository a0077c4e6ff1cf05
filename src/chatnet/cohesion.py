"""Cohesive substructure: maximal cliques, clique overlap, ego networks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, triu

from .graph import MentionGraph, UndirectedView

# maximal_cliques stops with ValueError once it has found more maximal
# cliques than this, counting those below min_size too.  Enumeration can
# grow as 3^(n/3) (Moon & Moser 1965), so a dense graph would otherwise run
# for hours or exhaust memory; a 3,992-user chat graph has 28,911.
MAX_CLIQUES = 1_000_000


@dataclass(frozen=True)
class CliqueReport:
    """Maximal cliques of size >= min_size, as ids into the view's ``nicks``.

    Each clique's ids ascend, and the largest clique comes first, then by
    members.  ``cliques`` names the members each time it is read.
    """

    nicks: tuple[str, ...]
    members: tuple[tuple[int, ...], ...]
    min_size: int
    max_clique_size: int

    @property
    def cliques(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(self.nicks[v] for v in c) for c in self.members)

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CoMembershipMatrix:
    """Symmetric pair -> number of shared cliques; diagonal = memberships.

    Only pairs that actually co-occur are stored; ``count`` answers 0 for the
    rest.  ``pair_counts`` iterates in rank order: most shared cliques
    first, smallest pair first on ties.  ``max_pair`` is its first item, or
    None when no clique has two members.
    """

    pair_counts: dict[tuple[str, str], int]
    diagonal: dict[str, int]
    max_pair: tuple[tuple[str, str], int] | None

    def count(self, a: str, b: str) -> int:
        if a == b:
            return self.diagonal.get(a, 0)
        key = (a, b) if a <= b else (b, a)
        return self.pair_counts.get(key, 0)


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
    measured slower on every graph tried, chat-shaped ones included.  Output
    order is canonical regardless of input order.
    Raises ValueError on finding more than ``MAX_CLIQUES`` maximal cliques.
    """
    if min_size < 1:
        raise ValueError("min_size must be at least 1")
    rows = _rows(u)
    nbr = [frozenset(row) for row in rows]
    found = 0
    kept: list[tuple[int, ...]] = []
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
            kept.append(tuple(sorted(clique)))

    enter((), set(range(len(rows))), set())
    while stack:
        clique, cand, excl, branches = stack[-1]
        v = next(branches, None)
        if v is None:
            stack.pop()
            continue
        enter(clique + (v,), cand & nbr[v], excl & nbr[v])
        cand.discard(v)
        excl.add(v)

    # ids ascend with nicks, so id order is member-name order
    kept.sort(key=lambda c: (-len(c), c))
    max_size = len(kept[0]) if kept else 0
    return CliqueReport(u.nicks, tuple(kept), min_size, max_size)


def clique_comembership(report: CliqueReport) -> CoMembershipMatrix:
    """Tally, for every actor pair, how many of the report's cliques hold both.

    The tallies are the product M^T M of the clique x node incidence matrix
    M, built from the member ids.  Ids ascend with nicks, so each pair of
    its strict upper triangle is keyed (a, b) with a < b, and one lexsort of
    the pairs by (-shared, row, column) ranks them by (-shared, pair).
    """
    names, members = report.nicks, report.members
    indptr = np.cumsum([0] + [len(c) for c in members])
    incidence = csr_matrix(
        (np.ones(indptr[-1], dtype=np.int64), [v for c in members for v in c], indptr),
        shape=(len(members), len(names)),
    )
    tally = (incidence.T @ incidence).tocsr()
    pairs = triu(tally, k=1).tocoo()
    rank = np.lexsort((pairs.col, pairs.row, -pairs.data))
    rows, cols, counts = (a[rank].tolist() for a in (pairs.row, pairs.col, pairs.data))
    pair_counts = {(names[a], names[b]): count for a, b, count in zip(rows, cols, counts)}
    diagonal = {
        names[v]: count for v, count in enumerate(tally.diagonal().tolist()) if count
    }
    return CoMembershipMatrix(pair_counts, diagonal, next(iter(pair_counts.items()), None))


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
    clique_ids = [frozenset(members) for members in report.members]
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
