"""Regular equivalence (REGE) and role-case classification of components.

Two actors are regularly equivalent when they relate in the same way to
actors that are themselves equivalent.  The iterative matching below starts
from all-ones and, per round, scores each ordered pair (i, j) by finding for
every neighbor k of i the best-matching neighbor m of j, weighting tie
agreement by the previous round's equivalence of k and m.  Three rounds make
the measure sensitive to three-step neighborhoods.

E is held once per row class, and a full round writes the next E a band
of partners at a time, so it holds two n x n matrices at most.
``rege`` stops one round short, and its result runs the last round when
read: over every pair for ``values``, and for the role cases at the tie
pairs (i, j) alone: partner j against the slots of its neighbors i, summed
in slot order, with the same bits as the full round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

from .graph import MentionGraph
from .skeleton import SKELETON_LABELS, SkeletonPartition

# Fixed descriptions attached to the four component role cases.
CASE_CHARACTERISTICS = {
    "case1": "1 big role, Restricted opportunities, Most redundancy, Least chaos",
    "case2": "Different roles, Greater chaos than case 1, Lesser redundancy than case 1",
    "case3": "Many different roles, Least redundancy, Most chaos",
    "case4": "Many different roles, Greater redundancy than case 3, Lesser chaos than case 3",
}

# A full round holds two float64 matrices of at most n x n (E before it,
# once per row class, and the next E) and its buffers: a band's scores and
# one-sided sums, about _BAND_VALUES values each.  When
# (2 * n * n + _BUFFER_VALUES) * 8 bytes exceed REGE_MEMORY_LIMIT, rege
# raises ValueError instead of exhausting memory.  The default admits n up
# to 11,568.
REGE_MEMORY_LIMIT = 2 * 2**30
_BAND_VALUES = 2**17
_BUFFER_VALUES = 6 * _BAND_VALUES


@dataclass(frozen=True)
class EquivalenceMatrix:
    """Symmetric similarities in [0, 1] with unit diagonal.

    Holds what the last round reads: E before it, once per row class
    (``E[k, m] == _before_last[_classes[k], _classes[m]]``), and the setup.
    ``values`` runs the last round when first read, and holds the n x n
    matrix from then on.
    """

    nicks: tuple[str, ...]
    iterations: int
    _before_last: np.ndarray = field(repr=False)
    _classes: np.ndarray = field(repr=False)
    _setup: _Setup = field(repr=False)

    @cached_property
    def values(self) -> np.ndarray:
        return _full_round(self._before_last, self._classes, self._setup)

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {nick: i for i, nick in enumerate(self.nicks)}

    def value(self, a: str, b: str) -> float:
        for nick in (a, b):
            if nick not in self._ids:
                raise KeyError(f"unknown node '{nick}'")
        return float(self.values[self._ids[a], self._ids[b]])

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
    and a 2 x d array of the group and the m of each further member, or None.
    """
    partners = []
    for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        order = a + np.argsort(pair[a:b], kind="stable")
        head = np.ones(b - a, dtype=bool)
        head[1:] = np.diff(pair[order]) != 0
        group = np.cumsum(head) - 1
        heads = order[head]
        dups = np.stack((group[~head], ks[order[~head]])) if not head.all() else None
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
    isolated: np.ndarray


def _setup(g: MentionGraph, iterations: int) -> _Setup:
    """Check the arguments and the memory estimate, then build the setup."""
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    n = g.node_count
    estimate = (2 * n * n + _BUFFER_VALUES) * 8
    if estimate > REGE_MEMORY_LIMIT:
        raise ValueError(
            f"REGE on {n} nodes needs about {estimate} bytes "
            f"(two {n} x {n} float64 matrices and the band buffers), "
            f"over the limit of {REGE_MEMORY_LIMIT} bytes"
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
        isolated=np.diff(indptr) == 0,
    )


def _slot_keys(classes: np.ndarray, s: _Setup):
    """Key id per slot, and each key's column (the class of its k) and weight pair."""
    slot_key = classes[s.ks] * len(s.pair_out) + s.pair
    keys, inverse = np.unique(slot_key, return_inverse=True)
    key_col, key_pair = np.divmod(keys, len(s.pair_out))
    return inverse, key_col, key_pair


def _partner_scores(Ec, classes, partner, key_col, key_pair, s: _Setup):
    """Partner j's best match and its denominator, per key given.

    Each key is scored on its own, so scoring a subset of the keys gives
    the same bits for those keys as scoring all of them.
    """
    heads, out_j, in_j, dups = partner
    if not len(heads):
        # No neighbors: every tie of i is unmatched and counts in full.
        return np.zeros(len(key_col)), (s.pair_out + s.pair_in)[key_pair]
    # E is symmetric, so row m of E holds E[k, m] for every key's k, and
    # the key's column of Ec holds it once per class.
    head_classes = classes[heads]
    group_rows = Ec[head_classes]
    if dups is not None:
        # A further member in its head's row class changes nothing.
        groups, members = dups
        member_classes = classes[members]
        differ = member_classes != head_classes[groups]
        for group, c in zip(groups[differ].tolist(), member_classes[differ].tolist()):
            np.maximum(group_rows[group], Ec[c], out=group_rows[group])
    match = group_rows.take(key_col, axis=1)
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


def _full_round(Ec: np.ndarray, classes: np.ndarray, s: _Setup) -> np.ndarray:
    """One round over every pair, given E as Ec and its row classes; the next E.

    The partners are taken in bands of consecutive rows.  One sparse product
    sums a band's scores per node: row i of the slot matrix holds a 1 per
    slot of i, in slot order, so each sum is added in slot order.  A pair
    (i, j) adds the one-sided sums of both ends: when j's band comes, the
    pair is finished if i's band is done (or is j's), and otherwise parked
    in the next E itself, the numerator at the pair above the diagonal and
    the denominator below it.
    """
    n = len(classes)
    inverse, key_col, key_pair = _slot_keys(classes, s)
    K = len(key_col)
    slot_matrix = csr_matrix((np.ones(len(inverse)), inverse, s.indptr), shape=(n, K))
    # A band's scores (2 x width x K) and sums (n x 2 x width) stay near
    # 2 * _BAND_VALUES values each.
    step = min(max(16, n // 32), max(1, _BAND_VALUES // max(K, n, 1)))
    E = np.empty((n, n))
    for r in range(0, n, step):
        e = min(r + step, n)
        w = e - r
        # Row c holds partner r + c's best matches, row w + c their
        # denominators; the product reads them as columns.
        scores = np.empty((2 * w, K))
        for c, j in enumerate(range(r, e)):
            scores[c], scores[w + c] = _partner_scores(
                Ec, classes, s.partners[j], key_col, key_pair, s
            )
        sums = slot_matrix @ np.ascontiguousarray(scores.T)  # row i: node i's sums
        num, den = sums[:, :w], sums[:, w:]
        # Weights are positive, so den is 0 only between two isolates, where
        # num is 0 too.  Pairs with a node of an earlier band: add the sums
        # parked there and finish.
        done = E[:r, r:e]
        done += num[:r]
        total = den[:r] + E[r:e, :r].T
        np.divide(done, total, out=done, where=total > 0)
        E[r:e, :r] = done.T
        # Pairs inside the band: both ends' sums are at hand.
        inner = num[r:e] + num[r:e].T
        total = den[r:e] + den[r:e].T
        E[r:e, r:e] = np.divide(inner, total, out=inner, where=total > 0)
        # Pairs with a node of a later band: park this band's sums.
        E[r:e, e:] = num[e:].T
        E[e:, r:e] = den[e:]
    if s.isolated.any():
        E[np.ix_(s.isolated, s.isolated)] = 1.0
    np.fill_diagonal(E, 1.0)
    return E


def _compressed(E: np.ndarray):
    """E once per row class: (Ec, classes) with E[k, m] == Ec[classes[k], classes[m]]."""
    classes = _row_classes(E)
    firsts = np.unique(classes, return_index=True)[1]  # each class's first row
    if len(firsts) == len(E):
        return E, classes
    return E[np.ix_(firsts, firsts)], classes


def _tie_round(Ec: np.ndarray, classes: np.ndarray, s: _Setup) -> np.ndarray:
    """One round at the slots only: the next E[rows, ks], in slot order.

    E[i, j] at a tie needs partner j's one-sided sum only at i in N(j), so
    each partner scores only the keys of its neighbors' slots and sums them
    per neighbor in slot order, which keeps every sum's bits.  The graph
    has no self-loops, so no slot lies on the diagonal.
    """
    inverse, key_col, key_pair = _slot_keys(classes, s)
    # At slot (j, i): partner j's one-sided sums over i's slots.
    num = np.zeros(len(s.rows))
    den = np.zeros(len(s.rows))
    # Scratch per key, reset after each partner.
    seen = np.zeros(len(key_col), dtype=bool)
    position = np.zeros(len(key_col), dtype=np.int64)
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
        best, den_min = _partner_scores(
            Ec, classes, partner, key_col[used], key_pair[used], s
        )
        num[a:b] = np.bincount(local_row, weights=best[local], minlength=b - a)
        den[a:b] = np.bincount(local_row, weights=den_min[local], minlength=b - a)
    # E[i, j] sums the one-sided values of slot (i, j) and its mirror (j, i).
    n = len(classes)
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
    pairs.  The result is the same, bit for bit, as scoring every slot
    against every slot.

    Between rounds E is held once per row class, as a class x class matrix,
    and a full round writes the next E in bands of partners, so no more than
    two n x n float64 matrices are alive at once.  ``rege`` runs the setup
    and every round but the last; the result runs the last one when read
    (see ``EquivalenceMatrix``).

    Raises ValueError, before allocating any n x n matrix, when the memory
    estimate (2 * n * n + _BUFFER_VALUES) * 8 bytes exceeds
    ``REGE_MEMORY_LIMIT``.
    """
    s = _setup(g, iterations)
    Ec = np.ones((1, 1))  # the all-ones start: one class
    classes = np.zeros(g.node_count, dtype=np.int64)
    for _ in range(iterations - 1):
        E = _full_round(Ec, classes, s)
        # Each matrix is dropped once read, so no more than two are alive.
        Ec = None
        Ec, classes = _compressed(E)
        del E
    return EquivalenceMatrix(g.nicks, iterations, Ec, classes, s)


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
