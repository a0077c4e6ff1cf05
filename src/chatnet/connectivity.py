"""Vulnerability analysis of the undirected view: articulation points and
blocks, pairwise edge connectivity, the all-pairs cut tree, lambda sets, and
the top links by information flow.

Edge connectivity is exact max-flow = min-cut with integer capacities.  The
cut tree uses Gusfield's construction (no contraction), so a single tree
answers every pairwise query by a path minimum.  Gusfield's step (s, t)
needs some minimum s-t cut, and any one will do: the tree's path minima are
the pairwise connectivities whichever minimum cuts it was built from.  So a
step whose connectivity is certified to equal the smaller (weighted) degree
of s and t takes the trivial cut, {s} or V minus {t}, without a max-flow.
The certificate is a set of edges, each weighted by a proven lower bound on
the connectivity of its ends; s and t in one component of the edges whose
weight reaches a value are certified at that value, because connectivity is
transitive (lambda(a, c) >= min(lambda(a, b), lambda(b, c))).  Its edges
come from two sources, as in Akiba et al., "Cut Tree Construction from
Massive Graphs" (ICDM 2016):

* one maximum-adjacency ordering, which bounds the connectivity across each
  graph edge (Nagamochi & Ibaraki 1992);
* the hub pass, which proves lambda(v, r) = deg(v) for many nodes v at once
  against the node r of largest degree.  A super source gets an arc of
  capacity deg(v) to each node of a batch, and one max-flow runs from it to
  r.  By flow decomposition, the flow paths that leave the source through a
  saturated arc form a feasible v-r flow of value deg(v) on their own.
  Members compete for shared bottlenecks, so the batches' degree budget
  adapts to how many members they saturate.

Certificates, lambda sets and top links all read components at a threshold,
from one helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    maximum_flow,
)

from .graph import UndirectedView

MODES = ("unit", "weighted")


@dataclass(frozen=True)
class BlockReport:
    """Biconnected components and the cutpoints that join them."""

    cutpoints: frozenset[str]
    blocks: tuple[frozenset[str], ...]
    largest_block_size: int

    @property
    def block_count(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class GomoryHuTree:
    """Cut tree: the min over an a-b tree path equals edge connectivity a-b.

    Indexed by node id: ``up`` holds each node's parent (-1 at a component
    root) and ``capacity`` the value of the edge to it.  Both arrays are
    read-only, since the tree is cached on its view.  ``flows`` is the number
    of max-flows run to build the tree, and ``hub_flows`` how many of them
    the hub pass ran; the rest are Gusfield steps.  Disconnected inputs
    yield a forest and cross-component connectivity is 0.
    """

    nicks: tuple[str, ...]
    up: np.ndarray
    capacity: np.ndarray
    mode: str
    flows: int
    hub_flows: int

    @property
    def parent(self) -> dict[str, str | None]:
        return {
            nick: None if p < 0 else self.nicks[p]
            for nick, p in zip(self.nicks, self.up.tolist())
        }

    @property
    def edges(self) -> tuple[tuple[str, str, float], ...]:
        up = self.up.tolist()
        edges = [
            (self.nicks[c], self.nicks[up[c]], cap)
            for c, cap in enumerate(self.capacity.tolist())
            if up[c] >= 0
        ]
        return tuple(sorted(edges))

    @cached_property
    def sweep(self) -> tuple[tuple[float, np.ndarray], ...]:
        """(value, labels) per distinct tree value, descending.

        ``labels`` are the read-only component labels of the tree restricted
        to edges at or above that value.  Computed once per tree and shared
        by lambda_sets and top_links.
        """
        n = len(self.up)
        children = np.flatnonzero(self.up >= 0)
        caps = self.capacity[children]
        levels = []
        for value in np.unique(caps)[::-1]:
            labels = _labels_at(n, children, self.up[children], caps, value)
            labels.flags.writeable = False
            levels.append((float(value), labels))
        return tuple(levels)

    def _id(self, nick: str) -> int:
        try:
            return self.nicks.index(nick)
        except ValueError:
            raise KeyError(f"unknown node '{nick}'") from None

    def lambda_between(self, a: str, b: str) -> float:
        if a == b:
            raise ValueError("endpoints must differ")
        up, capacity = self.up.tolist(), self.capacity.tolist()
        # Path minimum from a to each of its ancestors, then climb from b to
        # the first of them.
        x, best = self._id(a), float("inf")
        reached = {x: best}
        while up[x] >= 0:
            best = min(best, capacity[x])
            x = up[x]
            reached[x] = best
        y, best = self._id(b), float("inf")
        while y not in reached:
            if up[y] < 0:
                return 0.0
            best = min(best, capacity[y])
            y = up[y]
        return float(min(best, reached[y]))


@dataclass(frozen=True)
class LambdaHierarchy:
    """Laminar family of maximal high-connectivity sets, per lambda value.

    ``levels`` pairs each distinct connectivity value (descending) with the
    node sets whose internal connectivity reaches it; every set at a higher
    value nests inside exactly one set at each lower value.
    """

    levels: tuple[tuple[float, tuple[frozenset[str], ...]], ...]

    def all_sets(self) -> list[frozenset[str]]:
        seen = []
        for _, sets in self.levels:
            for s in sets:
                if s not in seen:
                    seen.append(s)
        return seen


def articulation_points_and_blocks(u: UndirectedView) -> BlockReport:
    """Single depth-first sweep with low-point computation.

    Every edge lands in exactly one block; isolated nodes form singleton
    blocks of their own.
    """
    n = u.node_count
    adj = u.csr()
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    cutpoints: set[int] = set()
    blocks: list[frozenset[int]] = []
    edge_stack: list[tuple[int, int]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        if indptr[root] == indptr[root + 1]:
            disc[root] = timer
            timer += 1
            blocks.append(frozenset((root,)))
            continue
        root_children = 0
        disc[root] = low[root] = timer
        timer += 1
        # rows of the CSR list neighbors in ascending id order
        work = [(root, iter(indices[indptr[root]:indptr[root + 1]]))]
        while work:
            v, neighbors = work[-1]
            advanced = False
            for w in neighbors:
                if disc[w] == -1:
                    edge_stack.append((v, w))
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    work.append((w, iter(indices[indptr[w]:indptr[w + 1]])))
                    advanced = True
                    break
                if w != parent[v] and disc[w] < disc[v]:
                    # back edge, seen from the descendant side only
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if advanced:
                continue
            work.pop()
            if not work:
                continue
            above = work[-1][0]
            if low[v] >= disc[above]:
                members = set()
                while True:
                    x, y = edge_stack.pop()
                    members.add(x)
                    members.add(y)
                    if (x, y) == (above, v):
                        break
                blocks.append(frozenset(members))
                if above != root or root_children > 1:
                    cutpoints.add(above)
            if low[v] < low[above]:
                low[above] = low[v]
    named = [frozenset(u.nicks[v] for v in b) for b in blocks]
    named.sort(key=lambda b: (-len(b), tuple(sorted(b))))
    return BlockReport(
        cutpoints=frozenset(u.nicks[v] for v in cutpoints),
        blocks=tuple(named),
        largest_block_size=max((len(b) for b in named), default=0),
    )


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def fractional_weight_error(weights: np.ndarray) -> str | None:
    """Why weighted connectivity cannot use these edge weights, or None."""
    fractional = np.flatnonzero(weights % 1 != 0)
    if not len(fractional):
        return None
    return (
        "weighted connectivity requires integral edge weights, "
        f"got {float(weights[fractional[0]])!r}"
    )


def _capacities(adj: csr_matrix, mode: str) -> csr_matrix:
    # Two directed arcs per undirected edge, equal integer capacities.
    weights = adj.data
    if mode == "unit":
        weights = np.ones_like(weights)
    else:
        error = fractional_weight_error(weights)
        if error is not None:
            raise ValueError(error)
    return csr_matrix(
        (weights.astype(np.int64), adj.indices, adj.indptr), shape=adj.shape
    )


def _source_side(caps: csr_matrix, flow: csr_matrix, source: int) -> np.ndarray:
    # Nodes reachable from the source through positive residual capacity;
    # this is the source side of a minimum cut once the flow is maximal.
    # caps holds both arcs of every edge, so scipy's flow has the structure
    # of caps with its indices sorted; compare in that order.  A saturated
    # arc is pointed back at the source, which the search has already
    # visited, so the residual graph shares caps' row pointers.
    if not caps.has_sorted_indices:
        caps = caps.sorted_indices()
    heads = np.where(caps.data > flow.data, caps.indices, source)
    residual = csr_matrix((np.ones(len(heads)), heads, caps.indptr), shape=caps.shape)
    side = np.zeros(caps.shape[0], dtype=bool)
    side[breadth_first_order(residual, source, return_predecessors=False)] = True
    return side


def edge_connectivity(u: UndirectedView, a: str, b: str, mode: str = "unit") -> float:
    """Exact max-flow = min-cut between two nodes; 0 for disconnected pairs."""
    _check_mode(mode)
    if a == b:
        raise ValueError("endpoints must differ")
    ia, ib = u.id_of(a), u.id_of(b)
    if u.edge_count == 0:
        return 0.0
    caps = _capacities(u.csr(), mode)
    return float(maximum_flow(caps, ia, ib).flow_value)


def _ma_bounds(caps: csr_matrix) -> csr_matrix:
    """Lower bounds on the connectivity across each edge of a connected graph.

    One maximum-adjacency ordering from node 0: scanning x adds w(x, y) to
    r[y] for each unscanned neighbor y, and q(x, y) = r[y] after that add
    satisfies lambda(x, y) >= q(x, y) (Nagamochi & Ibaraki 1992).  Returns q
    with one entry per edge, at (x, y) for x scanned first.
    """
    k = caps.shape[0]
    indptr, indices = caps.indptr.tolist(), caps.indices.tolist()
    weights = caps.data.tolist()
    reach = [0] * k
    scanned = [False] * k
    heap = [(0, 0)]
    rows, cols, bounds = [], [], []
    while heap:
        x = heappop(heap)[1]
        if scanned[x]:
            continue  # an older, smaller key of a node already scanned
        scanned[x] = True
        for p in range(indptr[x], indptr[x + 1]):
            y = indices[p]
            if not scanned[y]:
                reach[y] += weights[p]
                rows.append(x)
                cols.append(y)
                bounds.append(reach[y])
                heappush(heap, (-reach[y], y))
    return csr_matrix((bounds, (rows, cols)), shape=(k, k), dtype=np.int64)


def _labels_at(n: int, heads, tails, weights, value) -> np.ndarray:
    """Component labels of the n nodes joined by the edges of weight >= value."""
    kept = weights >= value
    adj = csr_matrix((np.ones(kept.sum()), (heads[kept], tails[kept])), shape=(n, n))
    return connected_components(adj, directed=False)[1]


def _certifier(k: int, heads, tails, weights):
    """A function (s, t, value) -> whether lambda(s, t) >= value is proven.

    Each edge (heads[e], tails[e]) carries a proven lower bound weights[e]
    on the connectivity of its ends.  Connectivity is transitive in the
    sense lambda(a, c) >= min(lambda(a, b), lambda(b, c)), so s and t
    joined by a path of edges whose bounds all reach value have lambda(s, t)
    >= value: they share a component of the edges with weight >= value.
    Labels are computed once per value asked, and not at all when an
    endpoint has no incident edge that reaches it.
    """
    strongest = np.zeros(k, dtype=np.int64)  # largest incident bound
    np.maximum.at(strongest, heads, weights)
    np.maximum.at(strongest, tails, weights)
    strongest = strongest.tolist()
    labels: dict[int, np.ndarray] = {}

    def certified(s: int, t: int, value: int) -> bool:
        if min(strongest[s], strongest[t]) < value:
            return False
        if value not in labels:
            labels[value] = _labels_at(k, heads, tails, weights, value)
        return bool(labels[value][s] == labels[value][t])

    return certified


def _hub_edges(caps: csr_matrix, degree: list[int], certified):
    """Certificate edges (v, r, deg v) proven by batched flows into the hub r.

    The hub r is the first node of largest degree.  The candidates are the
    nodes v != r that ``certified`` does not already join to r at deg(v),
    taken once each in (degree, id) order.  A batch takes the next
    candidate, then more until the next one would push its total degree
    past the budget.  A super source, node k of one (k+1)-node capacity
    matrix, gets an arc of capacity deg(v) to each member v and one
    max-flow runs from it to r.  A member whose arc is saturated has
    lambda(v, r) = deg(v): the flow paths that leave the source through v
    form a feasible v-r flow on their own.  An unsaturated member is not
    disproven; it lost a competition for a shared bottleneck, and smaller
    batches compete less.  So the budget starts at deg(r) // 8, halves
    after a batch that saturates fewer than half of its members, and
    doubles, up to deg(r), after a batch that saturates at least three
    quarters.  A batch costs one max-flow and saves at most one
    per node it proves.  A batch of at most two members that leaves one
    unsaturated saved at most the flow it cost, and batches cannot get much
    smaller, so the pass stops after it.  A small batch that saturates all
    of its members pays for itself, so a starting budget that fits only one
    candidate does not end the pass.

    Returns the edges as (heads, tails, weights) arrays, and the number of
    max-flows run.
    """
    k = caps.shape[0]
    hub = int(np.argmax(degree))
    candidates = sorted(
        (degree[v], v)
        for v in range(k)
        if v != hub and not certified(v, hub, degree[v])
    )
    ext = csr_matrix(
        (
            np.concatenate([caps.data, np.zeros(k, dtype=caps.data.dtype)]),
            np.concatenate([caps.indices, np.arange(k, dtype=caps.indices.dtype)]),
            np.append(caps.indptr, caps.nnz + k),
        ),
        shape=(k + 1, k + 1),
    )
    source_arcs = ext.data[caps.nnz :]  # row k of ext, one arc per node
    proven: list[int] = []
    flows = start = 0
    budget = degree[hub] // 8
    while start < len(candidates):
        end, total = start + 1, candidates[start][0]
        while end < len(candidates) and total + candidates[end][0] <= budget:
            total += candidates[end][0]
            end += 1
        batch = [v for _, v in candidates[start:end]]
        start = end
        source_arcs[:] = 0
        source_arcs[batch] = [degree[v] for v in batch]
        sent = maximum_flow(ext, k, hub).flow[k].toarray().ravel()
        flows += 1
        saturated = [v for v in batch if sent[v] == degree[v]]
        proven += saturated
        if len(batch) <= 2 and len(saturated) < len(batch):
            break
        if 2 * len(saturated) < len(batch):
            budget //= 2
        elif 4 * len(saturated) >= 3 * len(batch):
            budget = min(2 * budget, degree[hub])
    heads = np.array(proven, dtype=np.int64)
    tails = np.full(len(proven), hub, dtype=np.int64)
    weights = np.array([degree[v] for v in proven], dtype=np.int64)
    return (heads, tails, weights), flows


def gomory_hu(u: UndirectedView, mode: str = "unit") -> GomoryHuTree:
    """Gusfield cut tree per connected component.

    Each of a component's k-1 Gusfield steps (i, t) needs some minimum i-t
    cut.  The smaller (weighted) degree of i and t bounds lambda(i, t) from
    above.  When i and t share a component of the certificate's edges whose
    bound reaches it, the trivial cut, {i} or V minus {t} for whichever
    endpoint has that degree, is a minimum cut and no max-flow is run;
    otherwise one max-flow finds a cut.  The certificate holds every graph
    edge with its MA bound, plus an edge (v, r, deg v) for each node v that
    the hub pass proves, before the Gusfield loop, to be joined to the
    largest-degree node r at its own degree (``_hub_edges``): batches of
    candidates share one max-flow from a super source, under a degree budget
    that starts at deg(r) // 8, halves after a batch that proves fewer than
    half of its members and doubles, up to deg(r), after one that proves at
    least three quarters; the pass stops after a batch of at most two
    members that leaves one unsaturated.  ``flows`` counts the hub pass's
    max-flows too, and ``hub_flows`` counts them alone.
    The tree is built once per (view, mode) and kept on the view.
    """
    _check_mode(mode)
    cached = u.cut_trees.get(mode)
    if cached is not None:
        return cached
    adj = u.csr()
    ncomp, labels = connected_components(adj, directed=False)
    # Members ascending within each component; local 0 is its root.
    # np.split leaves one empty piece for an empty view.
    members = np.argsort(labels, kind="stable")
    components = np.split(members, np.cumsum(np.bincount(labels))[:-1])[:ncomp]
    up = np.full(u.node_count, -1, dtype=np.int64)
    capacity = np.zeros(u.node_count, dtype=np.int64)
    flows = hub_flows = 0
    for comp in components:
        k = len(comp)
        if k == 1:
            continue
        caps = _capacities(adj[comp][:, comp], mode)
        degree = np.asarray(caps.sum(axis=1)).ravel().tolist()
        q = _ma_bounds(caps).tocoo()
        bounds = (q.row, q.col, q.data)
        hub_edges, batches = _hub_edges(caps, degree, _certifier(k, *bounds))
        hub_flows += batches
        certified = _certifier(k, *map(np.concatenate, zip(bounds, hub_edges)))
        local = np.arange(k)
        tree = np.zeros(k, dtype=np.int64)  # local parents
        flow_val = np.zeros(k, dtype=np.int64)
        for i in range(1, k):
            t = int(tree[i])
            value = min(degree[i], degree[t])
            if certified(i, t, value):
                side = local == i if degree[i] == value else local != t
            else:
                result = maximum_flow(caps, i, t)
                flows += 1
                value = result.flow_value
                side = _source_side(caps, result.flow, i)
            moved = side & (tree == t)
            moved[i] = False
            tree[moved] = i
            if t != 0 and side[tree[t]]:
                # i separates t from t's parent: swap their tree positions
                tree[i] = tree[t]
                tree[t] = i
                flow_val[i] = flow_val[t]
                flow_val[t] = value
            else:
                flow_val[i] = value
        up[comp[1:]] = comp[tree[1:]]
        capacity[comp[1:]] = flow_val[1:]
    up.flags.writeable = False
    capacity.flags.writeable = False
    tree = GomoryHuTree(u.nicks, up, capacity, mode, flows + hub_flows, hub_flows)
    u.cut_trees[mode] = tree
    return tree


def lambda_sets(u: UndirectedView, mode: str = "unit") -> LambdaHierarchy:
    """Node sets more tightly connected internally than to the outside.

    At each distinct cut-tree value (descending) the components of the tree
    restricted to edges at or above that value are the maximal sets; the
    family is laminar by construction.
    """
    levels = []
    for value, labels in gomory_hu(u, mode).sweep:
        grouped = np.flatnonzero(np.bincount(labels)[labels] >= 2)
        groups: dict[int, list[str]] = {}
        for v, label in zip(grouped.tolist(), labels[grouped].tolist()):
            groups.setdefault(label, []).append(u.nicks[v])
        sets = [frozenset(g) for g in groups.values()]
        sets.sort(key=lambda s: (-len(s), min(s)))
        levels.append((value, tuple(sets)))
    return LambdaHierarchy(tuple(levels))


def top_links(u: UndirectedView, k: int) -> list[tuple[tuple[str, str], float]]:
    """Rank edges by the weighted edge connectivity of their endpoints.

    Descending by score, ties by edge weight then by nick pair; asking for
    more links than exist returns them all.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    edges = list(u.edges())
    if not edges:
        return []
    ends = np.array([(a, b) for a, b, _ in edges], dtype=np.int64)
    scores = np.zeros(len(edges))
    remaining = np.arange(len(edges))
    for value, labels in gomory_hu(u, "weighted").sweep:
        a, b = ends[remaining].T
        joined = labels[a] == labels[b]
        scores[remaining[joined]] = value
        remaining = remaining[~joined]
    scores = scores.tolist()
    named = [(u.nicks[a], u.nicks[b]) for a, b, _ in edges]
    order = sorted(range(len(edges)), key=lambda qi: (-scores[qi], -edges[qi][2], named[qi]))
    return [(named[qi], scores[qi]) for qi in order[:k]]
