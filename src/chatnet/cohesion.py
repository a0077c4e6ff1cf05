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
    """Maximal cliques of size >= min_size, largest first then by members."""

    cliques: tuple[tuple[str, ...], ...]
    min_size: int
    max_clique_size: int

    @property
    def count(self) -> int:
        return len(self.cliques)


@dataclass(frozen=True)
class CoMembershipMatrix:
    """Symmetric pair -> number of shared cliques; diagonal = memberships.

    Only pairs that actually co-occur are stored; ``count`` answers 0 for the
    rest.  ``max_pair`` is the strongest off-diagonal pair, smallest pair
    first on ties, or None when no clique has two members.
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
    found: list[tuple[int, ...]] = []

    def expand(clique: list[int], cand: set[int], excl: set[int]) -> None:
        if not cand and not excl:
            if len(found) == MAX_CLIQUES:
                raise ValueError(
                    f"more than {MAX_CLIQUES} maximal cliques (cohesion.MAX_CLIQUES); "
                    "enumeration stopped"
                )
            found.append(tuple(clique))
            return
        # any pivot gives the same cliques; the first of most neighbors in cand
        pivot = max(cand | excl, key=lambda c: len(cand & nbr[c]))
        for v in sorted(cand - nbr[pivot]):
            clique.append(v)
            expand(clique, cand & nbr[v], excl & nbr[v])
            clique.pop()
            cand.discard(v)
            excl.add(v)

    expand([], set(range(len(rows))), set())

    # min_size >= 1 drops the empty clique an empty view reports
    kept = [tuple(sorted(c)) for c in found if len(c) >= min_size]
    # ids ascend with nicks, so id order is member-name order
    kept.sort(key=lambda c: (-len(c), c))
    cliques = tuple(tuple(u.nicks[v] for v in c) for c in kept)
    max_size = max((len(c) for c in cliques), default=0)
    return CliqueReport(cliques, min_size, max_size)


def clique_comembership(report: CliqueReport, nodes) -> CoMembershipMatrix:
    """Tally, for every actor pair, how many listed cliques hold both.

    The tallies are the product M^T M of the clique x actor incidence
    matrix M, with the actors in sorted order, so each pair of its strict
    upper triangle is keyed (a, b) with a < b.
    """
    names = sorted(set(nodes))
    index = {name: i for i, name in enumerate(names)}
    try:
        members = [index[m] for clique in report.cliques for m in clique]
    except KeyError:
        clique = next(c for c in report.cliques if not set(c) <= index.keys())
        stray = sorted(set(clique) - index.keys())[0]
        raise ValueError(f"clique member '{stray}' outside the node set") from None
    indptr = np.cumsum([0] + [len(c) for c in report.cliques])
    incidence = csr_matrix(
        (np.ones(len(members), dtype=np.int64), members, indptr),
        shape=(len(report.cliques), len(names)),
    )
    tally = (incidence.T @ incidence).tocsr()
    pairs = triu(tally, k=1).tocoo()
    pair_counts = {
        (names[a], names[b]): count
        for a, b, count in zip(pairs.row.tolist(), pairs.col.tolist(), pairs.data.tolist())
    }
    diagonal = {
        names[v]: count for v, count in enumerate(tally.diagonal().tolist()) if count
    }
    max_pair = None
    if pair_counts:
        best = min(pair_counts.items(), key=lambda item: (-item[1], item[0]))
        max_pair = (best[0], best[1])
    return CoMembershipMatrix(pair_counts, diagonal, max_pair)


def clique_participation(
    report: CliqueReport, u: UndirectedView
) -> dict[tuple[str, int], float]:
    """Fraction of each clique's other members a node is adjacent to.

    Members score 1 by completeness; a lone-member clique also scores 1 for
    its member.
    """
    scores: dict[tuple[str, int], float] = {}
    clique_ids = [frozenset(map(u.id_of, clique)) for clique in report.cliques]
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
