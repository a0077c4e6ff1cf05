"""Regular equivalence (REGE) and role-case classification of components.

Two actors are regularly equivalent when they relate in the same way to
actors that are themselves equivalent.  The iterative matching below starts
from all-ones and, per round, scores each ordered pair (i, j) by finding for
every neighbor k of i the best-matching neighbor m of j, weighting tie
agreement by the previous round's equivalence of k and m.  Three rounds make
the measure sensitive to three-step neighborhoods.

A full round scores one partner j per partner class: the partners whose
slots carry the same set of keys (the class of the neighbor's row of E and
the two tie weights) run the same arithmetic, so the others copy its sums.
``rege`` stops one round short, and its result runs the last round when
read: over every pair for ``values``, and for the role cases at the tie
pairs (i, j) alone: partner j against the slots of its neighbors i, summed
in slot order, with the same bits as the full round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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

# A full round keeps three dense n x n float64 matrices alive at once, plus
# a mask and a band of rows; the estimate 4 * n * n * 8 bytes covers them.
# Above this many bytes rege raises ValueError instead of exhausting
# memory.  The default admits n up to 8192.
REGE_MEMORY_LIMIT = 2 * 2**30


@dataclass(frozen=True)
class EquivalenceMatrix:
    """Symmetric similarities in [0, 1] with unit diagonal.

    Holds what the last round reads: E before it, the row classes of that
    E, and the setup.  ``values`` runs the last round when first read.
    """

    nicks: tuple[str, ...]
    iterations: int
    _before_last: np.ndarray = field(repr=False)
    _classes: np.ndarray = field(repr=False)
    _setup: _Setup = field(repr=False)

    @cached_property
    def values(self) -> np.ndarray:
        return _full_round(self._before_last, self._classes, self._setup)

    def value(self, a: str, b: str) -> float:
        for nick in (a, b):
            if nick not in self.nicks:
                raise KeyError(f"unknown node '{nick}'")
        return float(self.values[self.nicks.index(a), self.nicks.index(b)])

    def _ties(self):
        """The slots (rows, ks) and the last round run at them alone:
        ``values[rows, ks]`` bit for bit, with no n x n matrix built."""
        s = self._setup
        return s.rows, s.ks, _tie_round(self._before_last, self._classes, s)


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


def _slots(g: MentionGraph):
    """Neighbor slots (i, k), one per neighbor k of i in either direction.

    Slots run by i, then by k ascending, so node j's slots are the slice
    ``indptr[j]:indptr[j + 1]``.  Per slot, ``out_w`` is w(i -> k) and
    ``in_w`` is w(k -> i), 0 where the arc is absent.
    """
    adj = g.csr()
    n = g.node_count
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr))
    dst = adj.indices.astype(np.int64)
    out_keys = src * n + dst  # arc s -> t is the out-tie of slot (s, t)
    in_keys = dst * n + src  # ... and the in-tie of slot (t, s)
    keys = np.union1d(out_keys, in_keys)
    rows, ks = np.divmod(keys, n)
    out_w = np.zeros(len(keys))
    out_w[np.searchsorted(keys, out_keys)] = adj.data
    in_w = np.zeros(len(keys))
    in_w[np.searchsorted(keys, in_keys)] = adj.data
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, rows, ks, out_w, in_w


def _row_classes(E: np.ndarray) -> np.ndarray:
    """Class id per node; two nodes share one exactly when their rows of E are equal.

    Rows are compared as bytes (a zero's sign counts), after one stable sort
    of the rows viewed as bytes, which copies nothing.  Classes are numbered
    by their first row.
    """
    rows = E.view(np.dtype((np.void, E.itemsize * E.shape[1]))).ravel()
    order = np.argsort(rows, kind="stable")
    head = np.ones(len(E), dtype=bool)
    head[1:] = [rows[a] != rows[b] for a, b in zip(order[:-1].tolist(), order[1:].tolist())]
    first = np.empty_like(order)  # per row, the first row equal to it
    first[order] = order[head][np.cumsum(head) - 1]
    return np.unique(first, return_inverse=True)[1]


def _partner_groups(indptr, ks, out_w, in_w, pair):
    """Per partner j, its slots (j, m) grouped by weight pair.

    The slots of one group share the tie factor and the denominator
    candidate, and a nonnegative factor keeps the order of E entries, so
    per key only the group's largest E[k, m] can win the match.  Per j: the
    first m of each group, the group's w(j -> m) and w(m -> j) as columns,
    and (group, m) for every further member.
    """
    partners = []
    for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        order = a + np.argsort(pair[a:b], kind="stable")
        head = np.ones(b - a, dtype=bool)
        head[1:] = np.diff(pair[order]) != 0
        group = np.cumsum(head) - 1
        heads = order[head]
        dups = list(zip(group[~head].tolist(), ks[order[~head]].tolist()))
        partners.append((ks[heads], out_w[heads, None], in_w[heads, None], dups))
    return partners


@dataclass(frozen=True)
class _Setup:
    """What every round reads: the slots, their weight pairs, the partners."""

    indptr: np.ndarray
    rows: np.ndarray
    ks: np.ndarray
    pair: np.ndarray  # weight-pair id per slot
    pair_out: np.ndarray
    pair_in: np.ndarray
    partners: list
    unmatched_den: np.ndarray
    isolated: np.ndarray


def _setup(g: MentionGraph, iterations: int) -> _Setup:
    """Check the arguments and the memory estimate, then build the setup."""
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    n = g.node_count
    estimate = 4 * n * n * 8
    if estimate > REGE_MEMORY_LIMIT:
        raise ValueError(
            f"REGE on {n} nodes needs about {estimate} bytes "
            f"(four {n} x {n} float64 matrices), over the limit of "
            f"{REGE_MEMORY_LIMIT} bytes"
        )
    indptr, rows, ks, out_w, in_w = _slots(g)
    # Distinct (out_w, in_w) weight pairs; tie factors and denominator
    # candidates are computed per pair and gathered per key.
    (pair_out, pair_in), pair = np.unique(
        np.stack([out_w, in_w]), axis=1, return_inverse=True
    )
    return _Setup(
        indptr=indptr,
        rows=rows,
        ks=ks,
        pair=pair,
        pair_out=pair_out,
        pair_in=pair_in,
        partners=_partner_groups(indptr, ks, out_w, in_w, pair),
        # One-sided denominators against a partner with no neighbors: every
        # tie of i is unmatched and counts in full.
        unmatched_den=np.bincount(rows, weights=out_w + in_w, minlength=n),
        isolated=np.diff(indptr) == 0,
    )


def _slot_keys(classes: np.ndarray, s: _Setup):
    """Key id per slot, and each key's k and weight pair."""
    slot_key = classes[s.ks] * len(s.pair_out) + s.pair
    _, first, inverse = np.unique(slot_key, return_index=True, return_inverse=True)
    return inverse, s.ks[first], s.pair[first]


def _partner_scores(E, partner, key_k, key_pair, s: _Setup):
    """Partner j's best match and its denominator, per key given.

    Each key is scored on its own, so scoring a subset of the keys gives
    the same bits for those keys as scoring all of them.
    """
    heads, out_j, in_j, dups = partner
    # E is symmetric, so row m of E holds E[k, m] for every key's k.
    group_rows = E[heads]
    for group, m in dups:
        np.maximum(group_rows[group], E[m], out=group_rows[group])
    match = group_rows.take(key_k, axis=1)
    match *= (np.minimum(s.pair_out, out_j) + np.minimum(s.pair_in, in_j)).take(
        key_pair, axis=1
    )
    best = match.max(axis=0)
    den_candidates = (
        np.maximum(s.pair_out, out_j) + np.maximum(s.pair_in, in_j)
    ).take(key_pair, axis=1)
    # Only the best matches keep their candidate: x / True is x, and
    # x / False is inf because every candidate is positive.
    with np.errstate(divide="ignore"):
        den_candidates /= match == best
    return best, den_candidates.min(axis=0)


def _partner_classes(inverse: np.ndarray, s: _Setup) -> list[int]:
    """Per partner j, the first partner whose slots carry the same key set."""
    order = np.lexsort((inverse, s.rows))
    rows, keys = s.rows[order], inverse[order]
    distinct = np.ones(len(rows), dtype=bool)
    distinct[1:] = (rows[1:] != rows[:-1]) | (keys[1:] != keys[:-1])
    rows, keys = rows[distinct], keys[distinct]
    bounds = np.searchsorted(rows, np.arange(len(s.indptr))).tolist()
    first: dict[bytes, int] = {}
    return [
        first.setdefault(keys[a:b].tobytes(), j)
        for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]


def _add_transpose(a: np.ndarray) -> None:
    """``a += a.T`` in place, a band of rows at a time, with no n x n temporary."""
    step = 128
    for r in range(0, len(a), step):
        band = a[r:r + step, r:] + a[r:, r:r + step].T
        a[r:r + step, r:] = band
        a[r:, r:r + step] = band.T


def _full_round(E: np.ndarray, classes: np.ndarray, s: _Setup) -> np.ndarray:
    """One round over every pair, given the row classes of E; the next E."""
    n = len(E)
    inverse, key_k, key_pair = _slot_keys(classes, s)
    # Row j holds partner j's column of the one-sided sums; only their
    # symmetric sums below are used, so the layout does not matter.
    num = np.zeros((n, n))
    den = np.zeros((n, n))
    for j, (rep, partner) in enumerate(zip(_partner_classes(inverse, s), s.partners)):
        if rep != j:
            num[j] = num[rep]
            den[j] = den[rep]
        elif not len(partner[0]):
            den[j] = s.unmatched_den
        else:
            best, den_min = _partner_scores(E, partner, key_k, key_pair, s)
            num[j] = np.bincount(s.rows, weights=best[inverse], minlength=n)
            den[j] = np.bincount(s.rows, weights=den_min[inverse], minlength=n)
    _add_transpose(num)
    _add_transpose(den)
    # Weights are positive, so den is 0 only between two isolates, where
    # num is 0 too.
    E = np.divide(num, den, out=num, where=den > 0)
    if s.isolated.any():
        E[np.ix_(s.isolated, s.isolated)] = 1.0
    np.fill_diagonal(E, 1.0)
    return E


def _tie_round(E: np.ndarray, classes: np.ndarray, s: _Setup) -> np.ndarray:
    """One round at the slots only: the next E[rows, ks], in slot order.

    E[i, j] at a tie needs partner j's one-sided sum only at i in N(j), so
    each partner scores only the keys of its neighbors' slots and sums them
    per neighbor in slot order, which keeps every sum's bits.  The graph
    has no self-loops, so no slot lies on the diagonal.
    """
    inverse, key_k, key_pair = _slot_keys(classes, s)
    # At slot (j, i): partner j's one-sided sums over i's slots.
    num = np.zeros(len(s.rows))
    den = np.zeros(len(s.rows))
    # Scratch per key, reset after each partner.
    seen = np.zeros(len(key_k), dtype=bool)
    position = np.zeros(len(key_k), dtype=np.int64)
    bounds = s.indptr.tolist()
    for j, partner in enumerate(s.partners):
        a, b = bounds[j], bounds[j + 1]
        if a == b:
            continue
        # The keys of j's neighbors' slots, in slot order, and for each slot
        # the neighbor's place in N(j).
        starts = s.indptr[s.ks[a:b]]
        counts = s.indptr[s.ks[a:b] + 1] - starts
        local_row = np.repeat(np.arange(b - a), counts)
        rank = np.arange(len(local_row)) - (np.cumsum(counts) - counts)[local_row]
        keys = inverse[starts[local_row] + rank]
        seen[keys] = True
        used = np.flatnonzero(seen)
        seen[used] = False
        position[used] = np.arange(len(used))
        local = position[keys]
        best, den_min = _partner_scores(E, partner, key_k[used], key_pair[used], s)
        num[a:b] = np.bincount(local_row, weights=best[local], minlength=b - a)
        den[a:b] = np.bincount(local_row, weights=den_min[local], minlength=b - a)
    # E[i, j] sums the one-sided values of slot (i, j) and its mirror (j, i).
    n = len(E)
    mirror = np.searchsorted(s.rows * n + s.ks, s.ks * n + s.rows)
    num += num[mirror]
    den += den[mirror]
    return num / den  # both ends of a tie have slots, so den > 0


def rege(g: MentionGraph, iterations: int = 3) -> EquivalenceMatrix:
    """Iterated regular-equivalence similarities over the weighted digraph.

    Conventions for empty neighborhoods: two isolates are perfectly
    equivalent (1), an isolate and a connected node are not at all (0).
    Unmatched ties count fully in the denominator, which yields the second
    convention without a special case.  Ties between equally good matches
    resolve to the smaller denominator contribution, so the result depends
    only on the weighted graph, never on node labeling.

    A slot (i, k) enters a round only through its key: the class of k's row
    of E (exactly equal rows share a class) and the slot's two weights.
    Each round scores every distinct key once against each partner j, whose
    slots are merged per weight pair first, and scatters the scores back to
    the slots, so a round costs at most O(K * S) for K keys and S slots.  In
    the first round E is all ones, so K is the number of distinct weight
    pairs.  A partner's scores depend only on the set of keys over its own
    slots, so partners with equal key sets form a class: one of them is
    scored and the others copy its sums.  The result is the same, bit for
    bit, as scoring every slot against every slot.

    ``rege`` runs the setup and every round but the last; the result runs
    the last one when read (see ``EquivalenceMatrix``).

    Raises ValueError, before allocating any n x n matrix, when the memory
    estimate 4 * n * n * 8 bytes exceeds ``REGE_MEMORY_LIMIT``.
    """
    s = _setup(g, iterations)
    n = g.node_count
    E = np.ones((n, n))
    classes = np.zeros(n, dtype=np.int64)  # the all-ones rows: one class
    for _ in range(iterations - 1):
        E = _full_round(E, classes, s)
        classes = _row_classes(E)
    return EquivalenceMatrix(g.nicks, iterations, E, classes, s)


def high_eq_tie_fraction(
    g: MentionGraph, e: EquivalenceMatrix, threshold: float = 0.5
) -> dict[str, float]:
    """Per node, the share of its ties to highly equivalent others.

    Counts neighbors (either direction) whose equivalence with the node
    exceeds the threshold; isolated nodes score 0.  The last round of ``e``
    is scored at the ties alone, with the bits of ``e.values`` there.
    """
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie strictly between 0 and 1")
    if e.nicks != g.nicks:
        raise ValueError("equivalence matrix does not match the graph")
    rows, _, values = e._ties()
    n = g.node_count
    high = np.bincount(rows[values > threshold], minlength=n)
    degree = np.bincount(rows, minlength=n)
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
