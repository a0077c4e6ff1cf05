"""Regular equivalence (REGE) and role-case classification of components.

Two actors are regularly equivalent when they relate in the same way to
actors that are themselves equivalent.  The iterative matching below starts
from all-ones and, per round, scores each ordered pair (i, j) by finding for
every neighbor k of i the best-matching neighbor m of j, weighting tie
agreement by the previous round's equivalence of k and m.  Three rounds make
the measure sensitive to three-step neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MentionGraph
from .skeleton import SKELETON_LABELS, SkeletonPartition

# Fixed descriptions attached to the four component role cases.
CASE_CHARACTERISTICS = {
    "case1": "1 big role, Restricted opportunities, Most redundancy, Least chaos",
    "case2": "Different roles, Greater chaos than case 1, Lesser redundancy than case 1",
    "case3": "Many different roles, Least redundancy, Most chaos",
    "case4": "Many different roles, Greater redundancy than case 3, Lesser chaos than case 3",
}


@dataclass(frozen=True)
class EquivalenceMatrix:
    """Symmetric similarities in [0, 1] with unit diagonal."""

    nicks: tuple[str, ...]
    values: np.ndarray
    iterations: int

    def value(self, a: str, b: str) -> float:
        return float(self.values[self.nicks.index(a), self.nicks.index(b)])


@dataclass(frozen=True)
class ComponentRoleCase:
    component: str
    size: int
    mean_tie_fraction: float | None
    people_fraction: float | None
    case: str | None
    characteristics: str | None

    @property
    def empty(self) -> bool:
        return self.size == 0


@dataclass(frozen=True)
class RoleCaseReport:
    tie_cutoff: float
    people_cutoff: float
    components: dict[str, ComponentRoleCase]


def _slots(g: MentionGraph, weighted: bool):
    """Neighbor slots (i, k), one per neighbor k of i in either direction.

    Slots run by i, then by k ascending, so node j's slots are the slice
    ``indptr[j]:indptr[j + 1]``.  Per slot, ``out_w`` is w(i -> k) and
    ``in_w`` is w(k -> i), 0 where the arc is absent; with
    ``weighted=False`` every arc weighs 1.
    """
    adj = g.csr()
    n = g.node_count
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr))
    dst = adj.indices.astype(np.int64)
    out_keys = src * n + dst  # arc s -> t is the out-tie of slot (s, t)
    in_keys = dst * n + src  # ... and the in-tie of slot (t, s)
    keys = np.union1d(out_keys, in_keys)
    rows, ks = np.divmod(keys, n)
    weights = adj.data if weighted else np.ones_like(adj.data)
    out_w = np.zeros(len(keys))
    out_w[np.searchsorted(keys, out_keys)] = weights
    in_w = np.zeros(len(keys))
    in_w[np.searchsorted(keys, in_keys)] = weights
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, rows, ks, out_w, in_w


def rege(g: MentionGraph, iterations: int = 3, weighted: bool = True) -> EquivalenceMatrix:
    """Iterated regular-equivalence similarities over the weighted digraph.

    Conventions for empty neighborhoods: two isolates are perfectly
    equivalent (1), an isolate and a connected node are not at all (0).
    Unmatched ties count fully in the denominator, which yields the second
    convention without a special case.  Ties between equally good matches
    resolve to the smaller denominator contribution, so the result depends
    only on the weighted graph, never on node labeling.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    n = g.node_count
    if n == 0:
        return EquivalenceMatrix((), np.zeros((0, 0)), iterations)
    indptr, rows, ks, out_w, in_w = _slots(g, weighted)
    isolated = np.diff(indptr) == 0
    # Denominator column for a partner with no neighbors: every tie of i is
    # unmatched and counts in full.
    unmatched_den = np.bincount(rows, weights=out_w + in_w, minlength=n)

    E = np.ones((n, n))
    for _ in range(iterations):
        num = np.zeros((n, n))
        den = np.zeros((n, n))
        for j in range(n):
            a, b = indptr[j], indptr[j + 1]
            if a == b:
                den[:, j] = unmatched_den
                continue
            out_j = out_w[a:b]  # w(j -> m) per partner slot (j, m)
            in_j = in_w[a:b]  # w(m -> j)
            match = E[np.ix_(ks, ks[a:b])] * (
                np.minimum(out_w[:, None], out_j[None, :])
                + np.minimum(in_w[:, None], in_j[None, :])
            )
            den_candidates = np.maximum(out_w[:, None], out_j[None, :]) + np.maximum(
                in_w[:, None], in_j[None, :]
            )
            num_slot = match.max(axis=1)
            den_slot = np.where(
                match == num_slot[:, None], den_candidates, np.inf
            ).min(axis=1)
            num[:, j] = np.bincount(rows, weights=num_slot, minlength=n)
            den[:, j] = np.bincount(rows, weights=den_slot, minlength=n)
        num += num.T
        den += den.T
        E = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        if isolated.any():
            E[np.ix_(isolated, isolated)] = 1.0
        np.fill_diagonal(E, 1.0)
    return EquivalenceMatrix(g.nicks, E, iterations)


def high_eq_tie_fraction(
    g: MentionGraph, e: EquivalenceMatrix, threshold: float = 0.5
) -> dict[str, float]:
    """Per node, the share of its ties to highly equivalent others.

    Counts neighbors (either direction) whose equivalence with the node
    exceeds the threshold; isolated nodes score 0.
    """
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie strictly between 0 and 1")
    if e.nicks != g.nicks:
        raise ValueError("equivalence matrix does not match the graph")
    n = g.node_count
    indptr, rows, ks, _, _ = _slots(g, weighted=False)
    high = np.bincount(rows[e.values[rows, ks] > threshold], minlength=n)
    degree = np.diff(indptr)
    fractions = np.divide(high, degree, out=np.zeros(n), where=degree > 0)
    return dict(zip(g.nicks, fractions.tolist()))


def classify_roles(
    p: SkeletonPartition,
    fractions: dict[str, float],
    tie_cutoff: float = 0.30,
    people_cutoff: float = 0.50,
) -> RoleCaseReport:
    """Assign each skeleton component one of four role cases.

    T is the component mean of members' high-equivalence tie fractions and P
    the share of members whose fraction exceeds ``tie_cutoff``; the case is
    a pure function of (T, P) against the two cutoffs.  Empty components are
    reported with an explicit empty marker.
    """
    components = {}
    for name in SKELETON_LABELS:
        members = sorted(p.members(name))
        if not members:
            components[name] = ComponentRoleCase(name, 0, None, None, None, None)
            continue
        values = [fractions[m] for m in members]
        mean_tie = sum(values) / len(values)
        people = sum(1 for v in values if v > tie_cutoff) / len(values)
        if mean_tie > tie_cutoff:
            case = "case1" if people >= people_cutoff else "case2"
        else:
            case = "case3" if people >= people_cutoff else "case4"
        components[name] = ComponentRoleCase(
            component=name,
            size=len(members),
            mean_tie_fraction=mean_tie,
            people_fraction=people,
            case=case,
            characteristics=CASE_CHARACTERISTICS[case],
        )
    return RoleCaseReport(tie_cutoff, people_cutoff, components)
