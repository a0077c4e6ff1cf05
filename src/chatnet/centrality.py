"""Hub/authority scores and degree centralities of the mention network."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from .graph import MentionGraph


@dataclass(frozen=True)
class HitsScores:
    """Mutually reinforcing scores: authorities are pointed-to, hubs point.

    Both vectors have unit Euclidean norm whenever the graph has an edge.
    """

    authority: dict[str, float]
    hub: dict[str, float]
    iterations_used: int
    converged: bool


class DegreeCentrality(NamedTuple):
    indegree: int
    outdegree: int
    weighted_in: float
    weighted_out: float


def hits(
    g: MentionGraph,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
    weighted: bool = False,
) -> HitsScores:
    """Power iteration of the mutual-reinforcement operator.

    Per round: authority <- A^T . hub, hub <- A . authority, each renormalized
    to unit Euclidean norm, until the max-abs change of either vector drops
    below ``tolerance`` or ``max_iterations`` is reached.  An edgeless graph
    is already at the all-zero fixed point.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    n = g.node_count
    if n == 0:
        return HitsScores({}, {}, 0, True)
    if g.edge_count == 0:
        zeros = {nick: 0.0 for nick in g.nicks}
        return HitsScores(zeros, dict(zeros), 0, True)

    adj = g.csr()
    if not weighted:
        adj = csr_matrix((np.ones_like(adj.data), adj.indices, adj.indptr), shape=adj.shape)
    adj_t = adj.T.tocsr()
    hub = np.full(n, 1.0 / np.sqrt(n))
    auth = np.zeros(n)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        auth_next = adj_t @ hub
        norm = np.linalg.norm(auth_next)
        if norm > 0:
            auth_next = auth_next / norm
        hub_next = adj @ auth_next
        norm = np.linalg.norm(hub_next)
        if norm > 0:
            hub_next = hub_next / norm
        delta = max(
            float(np.max(np.abs(auth_next - auth))),
            float(np.max(np.abs(hub_next - hub))),
        )
        auth, hub = auth_next, hub_next
        if delta < tolerance:
            converged = True
            break
    return HitsScores(
        authority={nick: float(auth[i]) for i, nick in enumerate(g.nicks)},
        hub={nick: float(hub[i]) for i, nick in enumerate(g.nicks)},
        iterations_used=iterations,
        converged=converged,
    )


def degree_centrality(g: MentionGraph) -> dict[str, DegreeCentrality]:
    """Exact in/out degree counts and weight sums per node."""
    adj = g.csr()
    n = g.node_count
    sources = np.repeat(np.arange(n), np.diff(adj.indptr))
    columns = zip(
        np.bincount(adj.indices, minlength=n).tolist(),
        np.diff(adj.indptr).tolist(),
        # bincount adds in CSR order, as a running sum over neighbors would
        np.bincount(adj.indices, adj.data, n).tolist(),
        np.bincount(sources, adj.data, n).tolist(),
    )
    return {nick: DegreeCentrality(*row) for nick, row in zip(g.nicks, columns)}


def ranked(scores: dict[str, float], top_k: int | None = None) -> list[tuple[str, float]]:
    """Descending by score, ties broken by nick, optionally truncated."""
    ordering = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ordering if top_k is None else ordering[:top_k]
