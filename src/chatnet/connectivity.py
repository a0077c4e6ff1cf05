"""Vulnerability analysis of the undirected view: articulation points and
blocks, pairwise edge connectivity, the all-pairs cut tree, lambda sets, and
the top links by information flow.

Edge connectivity is exact max-flow = min-cut with integer capacities.  A
single cut tree answers every pairwise query by a path minimum.  It is
built per biconnected block: edge-disjoint paths may share a cutpoint, so
the connectivity of two nodes is the least per-block connectivity along
the blocks between them, and the blocks' trees glue at the cutpoints.  A
bridge is a tree edge of its own weight.  A larger block takes Gusfield's
construction (no contraction).  Gusfield's step (s, t) needs some minimum
s-t cut, and any one will do: the tree's path minima are the pairwise
connectivities whichever minimum cuts it was built from.  So a step whose
connectivity is certified to equal the smaller (weighted) degree of s and
t takes the trivial cut, {s} or V minus {t}, without a max-flow.  The
certificate is a set of edges, each weighted by a proven lower bound on
the connectivity of its ends; s and t in one component of the edges whose
weight reaches a value are certified at that value, because connectivity is
transitive (lambda(a, c) >= min(lambda(a, b), lambda(b, c))).  Its edges
come from two sources, as in Akiba et al., "Cut Tree Construction from
Massive Graphs" (ICDM 2016):

* one maximum-adjacency ordering, which bounds the connectivity across each
  edge of the block (Nagamochi & Ibaraki 1992);
* the hub pass, which proves lambda(v, r) = deg(v) for many nodes v at once
  against the node r of largest degree, by max-flows from a super source
  to batches of nodes that do not compete for a bottleneck (its rules are
  in ``_hub_edges``).

Top links score their candidate edges from the cut tree of those edges'
ends alone, which is exact for two ends that share a block, as an edge's
ends do.  Certificates, lambda sets and top links all read components at
a threshold, from one helper.
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
    depth_first_order,
    maximum_flow,
)

from .graph import UndirectedView, with_virtual_root

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
    read-only.  ``flows`` is the number of max-flows run to build the tree,
    and ``hub_flows`` how many of them the hub pass ran; the rest are
    Gusfield steps.  Disconnected inputs yield a forest and cross-component
    connectivity is 0.
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
        up = self._up
        edges = [
            (self.nicks[c], self.nicks[up[c]], cap)
            for c, cap in enumerate(self._capacity)
            if up[c] >= 0
        ]
        return tuple(sorted(edges))

    # The arrays as lists and the nick -> id index, built once per tree.
    @cached_property
    def _up(self) -> list[int]:
        return self.up.tolist()

    @cached_property
    def _capacity(self) -> list[float]:
        return self.capacity.tolist()

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {nick: i for i, nick in enumerate(self.nicks)}

    def _id(self, nick: str) -> int:
        try:
            return self._ids[nick]
        except KeyError:
            raise KeyError(f"unknown node '{nick}'") from None

    def lambda_between(self, a: str, b: str) -> float:
        if a == b:
            raise ValueError("endpoints must differ")
        up, capacity = self._up, self._capacity
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
        return list(dict.fromkeys(s for _, sets in self.levels for s in sets))


def _dfs_blocks(adj: csr_matrix):
    """Blocks from one depth-first search (Hopcroft & Tarjan).

    The search starts at a virtual node n with an arc to every node, so it
    takes the components in order of their smallest id.  The tree edge into
    v opens a block when no arc from v's subtree reaches above v's parent,
    and joins its parent's block otherwise.  A block's head, the parent of
    the node that opens it, is the one member outside that node's subtree:
    its attachment cutpoint, or the first node of its component.

    Returns each node's parent (n at the first node of a component), and
    per block the node that opens it and its members but the head,
    ascending; blocks are numbered in the order they open.
    """
    n = adj.shape[0]
    order, up = depth_first_order(with_virtual_root(adj, np.arange(n)), n)
    disc = np.empty(n + 1, dtype=np.intp)
    disc[order] = np.arange(n + 1)
    # low[v]: the earliest discovery that a non-tree arc from v's subtree reaches
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    back = adj.indices != up[rows]
    low = disc.copy()
    np.minimum.at(low, rows[back], disc[adj.indices[back]])
    order, up = order[1:].tolist(), up[:n]
    low, parent, disc = low.tolist(), up.tolist(), disc.tolist()
    for v in reversed(order):
        low[parent[v]] = min(low[parent[v]], low[v])
    block, openers = [-1] * n, []
    for v in order:
        p = parent[v]
        if p < n and low[v] >= disc[p]:
            block[v] = len(openers)
            openers.append(v)
        elif p < n:
            block[v] = block[p]
    block = np.array(block, dtype=np.intp)
    grouped = np.argsort(block, kind="stable")[np.count_nonzero(block < 0) :]
    members = np.split(grouped, np.cumsum(np.bincount(block[block >= 0]))[:-1])
    # np.split leaves one empty piece when there is no block
    return up, np.array(openers, dtype=np.intp), members[: len(openers)]


def articulation_points_and_blocks(u: UndirectedView) -> BlockReport:
    """Blocks and cutpoints of the view, from ``_dfs_blocks``.

    The cutpoints are the nodes in two or more blocks; isolated nodes form
    singleton blocks of their own.
    """
    n, adj = u.node_count, u.csr()
    up, openers, members = _dfs_blocks(adj)
    heads = up[openers]
    # a node is in the blocks it heads, and in the block of its tree edge
    count = np.bincount(heads, minlength=n) + (up < n)
    blocks = [[h, *m.tolist()] for h, m in zip(heads.tolist(), members)]
    blocks += [[v] for v in np.flatnonzero(np.diff(adj.indptr) == 0).tolist()]
    named = [frozenset(u.nicks[v] for v in b) for b in blocks]
    named.sort(key=lambda b: (-len(b), tuple(sorted(b))))
    return BlockReport(
        cutpoints=frozenset(u.nicks[v] for v in np.flatnonzero(count > 1).tolist()),
        blocks=tuple(named),
        largest_block_size=max((len(b) for b in named), default=0),
    )


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


# scipy's maximum_flow wraps a single capacity above this: a 2**31 arc
# carries no flow.  Flow totals above it are fine.
MAX_CAPACITY = 2**31 - 1


def capacity_error(weights: np.ndarray) -> str | None:
    """Why weighted connectivity cannot use these undirected edge weights
    as flow capacities, or None: each must be integral and at most
    ``MAX_CAPACITY``."""
    fractional = np.flatnonzero(weights % 1 != 0)
    if len(fractional):
        return (
            "weighted connectivity requires integral edge weights, "
            f"got {float(weights[fractional[0]])!r}"
        )
    large = np.flatnonzero(weights > MAX_CAPACITY)
    if len(large):
        return (
            f"weighted connectivity requires edge weights of at most {MAX_CAPACITY}, "
            f"got {float(weights[large[0]])!r}"
        )
    return None


def _capacities(adj: csr_matrix, mode: str) -> csr_matrix:
    # Two directed arcs per undirected edge, equal integer capacities.
    weights = adj.data
    if mode == "unit":
        weights = np.ones_like(weights)
    else:
        error = capacity_error(weights)
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


def _ma_bounds(caps: csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower bounds on the connectivity across each edge of a connected graph.

    One maximum-adjacency ordering from node 0: scanning x adds w(x, y) to
    r[y] for each unscanned neighbor y, and q(x, y) = r[y] after that add
    satisfies lambda(x, y) >= q(x, y) (Nagamochi & Ibaraki 1992).  Returns
    one edge per edge of the graph as int64 arrays (heads, tails, bounds):
    x, y and q(x, y) for x scanned first, in scan order.
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
    return tuple(np.array(column, dtype=np.int64) for column in (rows, cols, bounds))


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


def _locally_cut(caps: csr_matrix, degree: list[int], hub: int) -> np.ndarray:
    """Nodes v with a neighbor x != hub that holds 2 w(v, x) > deg x.

    The cut around {v, x} weighs deg v + deg x - 2 w(v, x) < deg v and
    separates v from the hub, so lambda(v, hub) < deg v.
    """
    rows = np.repeat(np.arange(caps.shape[0]), np.diff(caps.indptr))
    heavy = (caps.indices != hub) & (2 * caps.data > np.asarray(degree)[caps.indices])
    cut = np.zeros(caps.shape[0], dtype=bool)
    cut[rows[heavy]] = True
    return cut


def _hub_edges(caps: csr_matrix, degree: list[int], certified, terminal: np.ndarray):
    """Certificate edges (v, r, deg v) proven by batched flows into the hub r.

    The hub r is the first node of largest degree.  The candidates are the
    terminals v != r that ``certified`` does not already join to r at
    deg(v) and that ``_locally_cut`` does not rule out, in (degree, id)
    order.  A super source, node k of one (k+1)-node capacity matrix, gets
    an arc of capacity deg(v) to each member v of a batch, and one max-flow
    runs from it to r.  A member whose arc is saturated has lambda(v, r) =
    deg(v): the flow paths that leave the source through v form a feasible
    v-r flow on their own.  Members that compete for a bottleneck cannot
    all be saturated; two adjacent members v and w never are, since the cut
    around {v, w} weighs deg v + deg w - 2 w(v, w).  So a batch takes the
    pending candidates in order, each one that keeps three rules:

    * no member is adjacent to another;
    * every node x != r receives at most deg(x) / 2 from members' edges;
    * the members' degrees sum to at most deg(r).

    The first pending candidate always fits, so no batch is empty.  An
    unsaturated member is not tried again, and the pass stops after a batch
    that proves none of its members.

    Returns the edges as (heads, tails, weights) arrays, and the number of
    max-flows run.
    """
    k = caps.shape[0]
    hub = int(np.argmax(degree))
    pending = sorted(
        (degree[v], v)
        for v in np.flatnonzero(terminal & ~_locally_cut(caps, degree, hub)).tolist()
        if v != hub and not certified(v, hub, degree[v])
    )
    pending = [v for _, v in pending]
    ext = csr_matrix(
        (
            np.concatenate([caps.data, np.zeros(k, dtype=caps.data.dtype)]),
            np.concatenate([caps.indices, np.arange(k, dtype=caps.indices.dtype)]),
            np.append(caps.indptr, caps.nnz + k),
        ),
        shape=(k + 1, k + 1),
    )
    source_arcs = ext.data[caps.nnz :]  # row k of ext, one arc per node
    indptr, indices, weights = caps.indptr.tolist(), caps.indices.tolist(), caps.data.tolist()
    proven: list[int] = []
    flows = 0
    while pending:
        batch, left = [], []
        member, received, total = [False] * k, [0] * k, 0
        for at, v in enumerate(pending):
            if total + degree[v] > degree[hub]:
                left += pending[at:]  # every later candidate is at least as large
                break
            arcs = list(zip(indices[indptr[v] : indptr[v + 1]], weights[indptr[v] : indptr[v + 1]]))
            if all(not member[x] and (x == hub or 2 * (received[x] + w) <= degree[x]) for x, w in arcs):
                batch.append(v)
                member[v], total = True, total + degree[v]
                for x, w in arcs:
                    received[x] += w
            else:
                left.append(v)
        pending = left
        source_arcs[:] = 0
        source_arcs[batch] = [degree[v] for v in batch]
        sent = maximum_flow(ext, k, hub).flow[k].toarray().ravel()
        flows += 1
        saturated = [v for v in batch if sent[v] == degree[v]]
        if not saturated:
            break
        proven += saturated
    heads = np.array(proven, dtype=np.int64)
    tails = np.full(len(proven), hub, dtype=np.int64)
    weights = np.array([degree[v] for v in proven], dtype=np.int64)
    return (heads, tails, weights), flows


def _block_certificates(caps: csr_matrix, blocks, terminal: np.ndarray):
    """Per block of ``blocks = _dfs_blocks(caps)`` that takes Gusfield steps
    (three or more nodes, two or more terminals): its ids, head first; its
    capacities and degrees; its MA bound and hub edges as (heads, tails,
    weights) in local ids; and the hub pass's max-flows.
    """
    parent, openers, members = blocks
    for head, others in zip(parent[openers].tolist(), members):
        block = np.append(head, others)
        if len(others) < 2 or np.count_nonzero(terminal[block]) < 2:
            continue
        local_caps = caps[block][:, block]
        degree = np.asarray(local_caps.sum(axis=1)).ravel().tolist()
        bounds = _ma_bounds(local_caps)
        certified = _certifier(len(block), *bounds)
        hub_edges, flows = _hub_edges(local_caps, degree, certified, terminal[block])
        yield block, local_caps, degree, bounds, hub_edges, flows


def _cut_tree(u: UndirectedView, mode: str, terminal: np.ndarray) -> GomoryHuTree:
    """Cut tree of the nodes in the boolean mask ``terminal``, per block.

    A block's steps are exactly its terminals; any other node is a root of
    its own.  Connectivity inside a block equals connectivity in the graph,
    since a path that leaves a block through a cutpoint must come back
    through it, so path minima are exact for two terminals that share a
    block.  That covers every pair a caller reads: ``gomory_hu`` makes every
    node a terminal, and ``top_links`` reads the two ends of an edge.  A
    block's tree is rooted at its head (``_dfs_blocks``) when that is a
    terminal, so with every node a terminal the trees glue into one per
    component.  A bridge between terminals is a tree edge of its weight.  A
    larger block takes Gusfield steps on its own edges and degrees.  A step
    (i, t) needs some minimum i-t cut.  When i and t share a component of
    the certificate's edges whose bound reaches min(deg i, deg t), the
    trivial cut, {i} or V minus {t} for whichever has that degree, is one
    and no max-flow is run.  The certificate holds every edge of the block
    with its MA bound, plus an edge (v, r, deg v) for each terminal v that
    the hub pass (``_hub_edges``) proves.  ``flows`` counts the hub passes'
    max-flows too, and ``hub_flows`` counts them alone.
    """
    _check_mode(mode)
    n = u.node_count
    caps = _capacities(u.csr(), mode)
    parent, openers, members = blocks = _dfs_blocks(caps)
    up = np.full(n, -1, dtype=np.int64)
    capacity = np.zeros(n, dtype=np.int64)
    bridges = openers[[len(m) == 1 for m in members]]
    bridges = bridges[terminal[bridges] & terminal[parent[bridges]]]
    up[bridges] = parent[bridges]
    capacity[bridges] = np.asarray(caps[bridges, parent[bridges]]).ravel()
    flows = hub_flows = 0
    for block, local_caps, degree, bounds, hub_edges, batches in _block_certificates(
        caps, blocks, terminal
    ):
        # local 0 is the head, and the first terminal the root
        steps = np.flatnonzero(terminal[block])
        k = len(block)
        hub_flows += batches
        certified = _certifier(k, *map(np.concatenate, zip(bounds, hub_edges)))
        local = np.arange(k)
        root = int(steps[0])
        tree = np.full(k, root, dtype=np.int64)  # local parents
        flow_val = np.zeros(k, dtype=np.int64)
        for i in steps[1:].tolist():
            t = int(tree[i])
            value = min(degree[i], degree[t])
            if certified(i, t, value):
                side = local == i if degree[i] == value else local != t
            else:
                result = maximum_flow(local_caps, i, t)
                flows += 1
                value = result.flow_value
                side = _source_side(local_caps, result.flow, i)
            moved = side & (tree == t)
            moved[i] = False
            tree[moved] = i
            if t != root and side[tree[t]]:
                # i separates t from t's parent: swap their tree positions
                tree[i] = tree[t]
                tree[t] = i
                flow_val[i] = flow_val[t]
                flow_val[t] = value
            else:
                flow_val[i] = value
        up[block[steps[1:]]] = block[tree[steps[1:]]]
        capacity[block[steps[1:]]] = flow_val[steps[1:]]
    up.flags.writeable = False
    capacity.flags.writeable = False
    return GomoryHuTree(u.nicks, up, capacity, mode, flows + hub_flows, hub_flows)


def gomory_hu(u: UndirectedView, mode: str = "unit") -> GomoryHuTree:
    """Cut tree per connected component: ``_cut_tree`` of every node."""
    return _cut_tree(u, mode, np.ones(u.node_count, dtype=bool))


def _sweep(tree: GomoryHuTree):
    """(value, labels of the components of the tree's edges >= value), per
    distinct tree value, descending."""
    n = len(tree.up)
    children = np.flatnonzero(tree.up >= 0)
    caps = tree.capacity[children]
    for value in np.unique(caps)[::-1]:
        yield float(value), _labels_at(n, children, tree.up[children], caps, value)


def lambda_sets(u: UndirectedView, mode: str = "unit") -> LambdaHierarchy:
    """Node sets more tightly connected internally than to the outside.

    At each distinct cut-tree value (descending) the components of the tree
    restricted to edges at or above that value are the maximal sets; the
    family is laminar by construction.
    """
    levels = []
    for value, labels in _sweep(gomory_hu(u, mode)):
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
    more links than exist returns them all.  A score is at most the smaller
    weighted degree of the edge's ends (the threshold algorithm of Fagin,
    Lotem & Naor, PODS 2001): round 1 scores the first k edges by that bound
    from the weighted ``_cut_tree`` of their ends, exact since an edge's
    ends share a block, and round 2 every edge whose bound ranks above
    round 1's k-th result, if there are more, from the tree of theirs.  Its
    k-th result ranks no lower, so no third round.  k >= m builds the full
    tree; a mid-range k, two large ones: at k = m/2 the seed-7 pa graph ran
    478 max-flows against the full tree's 270.  Both rankings are numpy
    lexsorts over arrays of bound or score, weight and edge index, with no
    Python object per edge; only the k links returned are named.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    adj = u.csr()
    rows = np.repeat(np.arange(u.node_count), np.diff(adj.indptr))
    upper = rows < adj.indices
    ends_a, ends_b, weight = rows[upper], adj.indices[upper], adj.data[upper]
    if not len(weight):
        return []
    strength = np.asarray(adj.sum(axis=1)).ravel()
    bound = np.minimum(strength[ends_a], strength[ends_b])
    # Edges ranked by (-bound, -weight, index), the bound for the score; an
    # exact key ranks no higher.  Edges come in nick pair order, so their
    # index breaks ties by nick pair.
    index = np.arange(len(weight))
    order = np.lexsort((index, -weight, -bound))
    count = k
    while True:
        chosen = order[:count]
        a, b = ends_a[chosen], ends_b[chosen]
        terminal = np.zeros(u.node_count, dtype=bool)
        terminal[a] = terminal[b] = True
        scores = np.zeros(len(chosen))
        for value, labels in _sweep(_cut_tree(u, "weighted", terminal)):
            scores[(scores == 0) & (labels[a] == labels[b])] = value
        rank = np.lexsort((chosen, -weight[chosen], -scores))[:k]
        best, best_scores = chosen[rank], scores[rank]
        # edges whose bound key ranks above the k-th exact key: none new in round 2
        s, w, e = best_scores[-1], weight[best[-1]], best[-1]
        above = (bound > s) | ((bound == s) & ((weight > w) | ((weight == w) & (index < e))))
        count, previous = int(np.count_nonzero(above)), count
        if count <= previous:
            pairs = zip(ends_a[best].tolist(), ends_b[best].tolist())
            return [
                ((u.nicks[x], u.nicks[y]), score)
                for (x, y), score in zip(pairs, best_scores.tolist())
            ]
