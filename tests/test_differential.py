"""Differential tests against networkx on seeded graphs of 30 to 200 nodes.

Each test checks one routine (SCCs, bow-tie, cut tree and its certificate,
top links, maximal cliques and their co-membership, blocks, HITS) against
an independent networkx computation; top links are also checked against
the ranking read from the whole cut tree (``oracles.top_links_by_full_tree``).
"""

import itertools
import random

import numpy as np
import pytest

from chatnet import connectivity
from chatnet.centrality import hits
from chatnet.cohesion import clique_comembership, maximal_cliques
from chatnet.connectivity import articulation_points_and_blocks, gomory_hu, top_links
from chatnet.graph import to_undirected
from chatnet.skeleton import bowtie, strongly_connected_components

from oracles import top_links_by_full_tree
from synth import (
    as_mention_graph,
    as_undirected,
    nick,
    preferential_attachment_graph,
    random_digraph,
    random_ugraph,
)

nx = pytest.importorskip("networkx")

SIZES = (30, 75, 140, 200)


def sparse_digraph(seed, n):
    # Mean out-degree around 1.5: a core SCC with IN, OUT, tendrils and
    # singletons around it.
    rng = random.Random(seed)
    edges = random_digraph(rng, n, rng.uniform(1.0, 2.0) / n)
    return as_mention_graph(n, edges), edges


def to_nx_digraph(n, edges):
    d = nx.DiGraph()
    d.add_nodes_from(nick(v) for v in range(n))
    d.add_edges_from((nick(u), nick(v)) for u, v in edges)
    return d


def multi_component_ugraph(seed, n):
    # Three to five random components of mixed density over shuffled ids,
    # plus a few isolated nodes, with integral weights 1..6.
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    isolates = rng.randint(1, 4)
    pieces = rng.randint(3, 5)
    cuts = sorted(rng.sample(range(1, n - isolates), pieces - 1))
    weighted = []
    for lo, hi in zip([0, *cuts], [*cuts, n - isolates]):
        members = ids[lo:hi]
        p = rng.uniform(2.0, 5.0) / max(len(members), 1)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if rng.random() < p:
                    weighted.append((a, b, rng.randint(1, 6)))
    return weighted


def to_nx_graph(n, weighted, mode):
    g = nx.Graph()
    g.add_nodes_from(nick(v) for v in range(n))
    for a, b, w in weighted:
        g.add_edge(nick(a), nick(b), capacity=1 if mode == "unit" else w)
    return g


def sampled_pairs(rng, n, weighted, count):
    # Random pairs, mostly across components, plus edge endpoints, which
    # always share one.
    pairs = {(nick(a), nick(b)) for a, b, _ in rng.sample(weighted, count)}
    while len(pairs) < 2 * count:
        a, b = rng.sample(range(n), 2)
        pairs.add((nick(a), nick(b)))
    return sorted(pairs)


@pytest.mark.parametrize("seed", range(8))
def test_scc_matches_networkx(seed):
    n = SIZES[seed % len(SIZES)]
    g, edges = sparse_digraph(seed, n)
    expected = {frozenset(c) for c in nx.strongly_connected_components(to_nx_digraph(n, edges))}
    got = strongly_connected_components(g)
    assert set(got) == expected
    assert len(got) == len(expected)


@pytest.mark.parametrize("seed", range(8))
def test_bowtie_in_out_match_ancestors_and_descendants(seed):
    n = SIZES[seed % len(SIZES)]
    g, edges = sparse_digraph(100 + seed, n)
    d = to_nx_digraph(n, edges)
    partition = bowtie(g)
    core = partition.core
    assert len(core) == max(len(c) for c in nx.strongly_connected_components(d))
    upstream = set().union(*(nx.ancestors(d, c) for c in core)) - core
    downstream = set().union(*(nx.descendants(d, c) for c in core)) - core
    assert partition.members("IN") == upstream
    assert partition.members("OUT") == downstream
    rest = set(d) - core - upstream - downstream
    from_in = upstream.union(*(nx.descendants(d, v) for v in upstream))
    to_out = downstream.union(*(nx.ancestors(d, v) for v in downstream))
    assert partition.members("TUBES") == rest & from_in & to_out
    assert partition.members("INTENDRILS") == (rest & from_in) - to_out
    assert partition.members("OUTTENDRILS") == (rest & to_out) - from_in
    assert partition.members("OTHERS") == rest - from_in - to_out


@pytest.mark.parametrize("mode", ["unit", "weighted"])
@pytest.mark.parametrize("seed", range(4))
def test_gomory_hu_path_minima_match_min_cut(seed, mode):
    n = SIZES[seed % len(SIZES)]
    weighted = multi_component_ugraph(200 + seed, n)
    view = as_undirected(n, weighted)
    reference = to_nx_graph(n, weighted, mode)
    assert nx.number_connected_components(reference) >= 3
    tree = gomory_hu(view, mode)
    rng = random.Random(seed)
    for a, b in sampled_pairs(rng, n, weighted, 20):
        assert tree.lambda_between(a, b) == nx.minimum_cut_value(reference, a, b), (a, b)


def pendant_bridge_ugraph(seed, n):
    # Two to four connected clusters joined by bridges, with pendant chains
    # of one to three nodes hanging off cluster members; shuffled ids,
    # integral weights 1..4.  Connected.
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    core = ids[: n * 2 // 3]
    cuts = sorted(rng.sample(range(2, len(core) - 1), rng.randint(1, 3)))
    weighted = []
    clusters = [core[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(core)])]
    for c, members in enumerate(clusters):
        for i, a in enumerate(members[1:], 1):
            weighted.append((a, rng.choice(members[:i]), rng.randint(1, 4)))
        for i, a in enumerate(members):
            for b in members[i + 2 :]:
                if rng.random() < 4.0 / len(members):
                    weighted.append((a, b, rng.randint(1, 4)))
        if c:
            bridge = (rng.choice(clusters[c - 1]), rng.choice(members))
            weighted.append((*bridge, rng.randint(1, 4)))
    hang = ids[len(core) :]
    while hang:
        size = rng.randint(1, 3)
        chain, hang = hang[:size], hang[size:]
        for a, b in zip([rng.choice(core), *chain], chain):
            weighted.append((a, b, rng.randint(1, 4)))
    edges = {}
    for a, b, w in weighted:
        edges[min(a, b), max(a, b)] = w
    return [(a, b, w) for (a, b), w in sorted(edges.items())]


@pytest.mark.parametrize("mode", ["unit", "weighted"])
@pytest.mark.parametrize("seed", range(4))
def test_ma_bounds_never_exceed_min_cut(seed, mode):
    n = (30, 36, 42, 48)[seed]
    weighted = pendant_bridge_ugraph(700 + seed, n)
    view = as_undirected(n, weighted)
    reference = to_nx_graph(n, weighted, mode)
    assert nx.is_connected(reference) and any(nx.bridges(reference))
    heads, tails, bounds = connectivity._ma_bounds(connectivity._capacities(view.csr(), mode))
    assert len(bounds) == len(weighted)
    for a, b, q in zip(heads.tolist(), tails.tolist(), bounds.tolist()):
        assert 0 < q <= nx.minimum_cut_value(reference, nick(a), nick(b)), (a, b)


def assert_all_pairs_match_networkx(n, weighted, mode):
    view = as_undirected(n, weighted)
    reference = nx.gomory_hu_tree(to_nx_graph(n, weighted, mode))
    tree = gomory_hu(view, mode)
    for a, b in itertools.combinations(range(n), 2):
        path = nx.shortest_path(reference, nick(a), nick(b))
        expected = min(reference[x][y]["weight"] for x, y in zip(path, path[1:]))
        assert tree.lambda_between(nick(a), nick(b)) == expected, (a, b)


@pytest.mark.parametrize("mode", ["unit", "weighted"])
@pytest.mark.parametrize("seed", range(4))
def test_certified_cut_tree_matches_networkx_on_all_pairs(seed, mode):
    n = (30, 36, 42, 48)[seed]
    assert_all_pairs_match_networkx(n, pendant_bridge_ugraph(800 + seed, n), mode)


def pa_ugraph(seed, n):
    # The scale gate's preferential attachment at n nodes: no pendant
    # users, one hub of high degree.  Connected.
    return list(to_undirected(preferential_attachment_graph(n, int(3.5 * n), seed)).edges())


def hub_passes(view, mode, terminal=None):
    # connectivity._cut_tree's certificates, every node a terminal unless a
    # mask is given: per block that takes Gusfield steps, its ids,
    # capacities, degrees, MA bound edges, and the hub pass's edges and
    # max-flow count.
    if terminal is None:
        terminal = np.ones(view.node_count, dtype=bool)
    caps = connectivity._capacities(view.csr(), mode)
    return connectivity._block_certificates(caps, connectivity._dfs_blocks(caps), terminal)


# (graph, n, mode) -> max-flows of the cut tree, the hub pass's included.
CERTIFIED_FLOWS = {
    ("pendant", 30, "unit"): 12,
    ("pendant", 30, "weighted"): 12,
    ("pendant", 36, "unit"): 16,
    ("pendant", 36, "weighted"): 16,
    ("pendant", 42, "unit"): 16,
    ("pendant", 42, "weighted"): 19,
    ("pendant", 48, "unit"): 15,
    ("pendant", 48, "weighted"): 15,
    ("components", 60, "unit"): 22,
    ("components", 60, "weighted"): 28,
}


def certificate_graph(kind, n):
    if kind == "pendant":
        return pendant_bridge_ugraph(1000 + (30, 36, 42, 48).index(n), n)
    if kind == "pa":
        return pa_ugraph(1000 + n, n)
    return multi_component_ugraph(1000, n)


def assert_certifier_matches_widest_paths(k, edges, values):
    # For every pair and value, the certificate over these edges says yes
    # exactly when value <= the widest-path value between the pair.
    heads, tails, weights = (e.tolist() for e in edges)
    bounds = nx.Graph()
    bounds.add_nodes_from(range(k))
    for a, b, value in zip(heads, tails, weights):
        if not bounds.has_edge(a, b) or bounds[a][b]["weight"] < value:
            bounds.add_edge(a, b, weight=value)
    spanning = nx.maximum_spanning_tree(bounds)
    certified = connectivity._certifier(k, *edges)
    for s, t in itertools.combinations(range(k), 2):
        path = nx.shortest_path(spanning, s, t)
        widest = min(spanning[x][y]["weight"] for x, y in zip(path, path[1:]))
        for value in values:
            assert certified(s, t, value) == (value <= widest), (s, t, value)


@pytest.mark.parametrize("kind, n, mode", sorted(CERTIFIED_FLOWS))
def test_certificate_matches_widest_path_of_ma_bounds(kind, n, mode):
    weighted = certificate_graph(kind, n)
    view = as_undirected(n, weighted)
    for comp, _, degree, bounds, _, _ in hub_passes(view, mode):
        assert_certifier_matches_widest_paths(len(comp), bounds, sorted(set(degree)))
    assert gomory_hu(view, mode).flows == CERTIFIED_FLOWS[kind, n, mode]


@pytest.mark.parametrize("mode", ["unit", "weighted"])
@pytest.mark.parametrize("kind, n", [("components", 60), ("pendant", 48), ("pa", 60), ("pa", 100)])
def test_certificate_matches_widest_path_of_ma_and_hub_edges(kind, n, mode):
    view = as_undirected(n, certificate_graph(kind, n))
    hub_edges = 0
    for comp, _, degree, bounds, hub, _ in hub_passes(view, mode):
        edges = tuple(map(np.concatenate, zip(bounds, hub)))
        assert_certifier_matches_widest_paths(len(comp), edges, sorted(set(degree)))
        hub_edges += len(hub[0])
    if kind == "pa":
        assert hub_edges >= n // 4


HUB_GRAPHS = [("pa", n) for n in (60, 100, 140, 200)] + [("pendant", 30), ("pendant", 48)]


@pytest.mark.parametrize("mode", ["unit", "weighted"])
@pytest.mark.parametrize("kind, n", HUB_GRAPHS)
def test_hub_pass_proves_connectivity_equal_to_degree(kind, n, mode):
    # Every edge joins the first hub: a proven member at its degree, or a
    # later hub at its connectivity to the first.
    weighted = certificate_graph(kind, n)
    view = as_undirected(n, weighted)
    reference = to_nx_graph(n, weighted, mode)
    proven = 0
    for comp, _, degree, _, (heads, tails, weights), _ in hub_passes(view, mode):
        hub = degree.index(max(degree))
        for v, r, w in zip(heads.tolist(), tails.tolist(), weights.tolist()):
            assert r == hub and w <= degree[v]
            assert nx.minimum_cut_value(reference, nick(comp[v]), nick(comp[r])) == w, v
        proven += len(heads)
    if kind == "pa":
        assert proven >= n // 4


def recorded_hub_batches(view, mode, terminal=None):
    # The hub passes of the view's blocks, each with its max-flows in the
    # order run: a batch as the list of its members, read from the super
    # source's arcs on the block's matrix of k + 2 nodes, and a hub joining
    # (a flow on the block's own k nodes) as the hub's id.
    flows = []
    real_flow = connectivity.maximum_flow

    def recording(caps, source, sink):
        flows.append((caps.shape[0], source, np.flatnonzero(caps[source].toarray()).tolist()))
        return real_flow(caps, source, sink)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(connectivity, "maximum_flow", recording)
        passes = list(hub_passes(view, mode, terminal))
    ends = np.cumsum([count for *_, count in passes]).tolist()
    return [
        (p, [arcs if size == len(p[0]) + 2 else source for size, source, arcs in flows[lo:hi]])
        for p, lo, hi in zip(passes, [0, *ends], ends)
    ]


def by_degree(degree):
    # Node ids by degree, descending, ties by id: the order hubs join in.
    return sorted(range(len(degree)), key=lambda v: (-degree[v], v))


def cut_around(caps, nodes):
    # The weight of the cut around a node set.
    inside = caps[nodes][:, nodes].sum()
    return caps[nodes].sum() - inside


def ran_out_of_budget(batch, pending, degree, budget):
    # Whether the scan of the pending candidates stopped at one that would
    # take the members' degrees past the budget, after the last member.
    total = 0
    for v in pending:
        if v in batch:
            total += degree[v]
        elif total + degree[v] > budget:
            return total == sum(degree[m] for m in batch)
    return False


@pytest.mark.parametrize("mode", ["unit", "weighted"])
@pytest.mark.parametrize("n", [60, 100])
def test_hub_certified_cut_tree_matches_networkx_on_all_pairs(n, mode):
    weighted = certificate_graph("pa", n)
    view = as_undirected(n, weighted)
    (((_, caps, degree, bounds, (heads, _, weights), count), flows),) = recorded_hub_batches(view, mode)
    assert count == len(flows)
    order = by_degree(degree)
    hub = order[0]
    certified = connectivity._certifier(len(degree), *bounds)
    cut = connectivity._locally_cut(caps, degree, hub)
    pending = [
        v
        for _, v in sorted(
            (degree[v], v) for v in range(len(degree)) if v != hub and not cut[v] and not certified(v, hub, degree[v])
        )
    ]
    value = dict(zip(heads.tolist(), weights.tolist()))
    # Replay the pass.  A hub joins after a batch that ran out of budget,
    # in degree order, when rest / cap(H) - rest / cap(H + h) > 1; it
    # costs one flow, its edge holds lambda(h, r), and mu is the least of
    # those.  A batch is not empty and holds the first pending candidate;
    # no member is adjacent to another, every node outside H receives at
    # most half its degree from the members, the members' degrees sum to at
    # most cap(H), and each is at most mu.  An unsaturated member stays
    # pending, so it may join a later batch; a proven one does not.  Every
    # batch but the last proves a member, and the pass ends after a batch
    # that proves none or when no candidate is pending.
    hubs, mu, proven, batches = [hub], max(degree), set(), 0
    previous = None
    for i, flow in enumerate(flows):
        if isinstance(flow, int):
            assert previous is not None and ran_out_of_budget(*previous, degree, cut_around(caps, hubs))
            assert flow == order[len(hubs)]
            rest = sum(degree[v] for v in pending)
            budget, grown = cut_around(caps, hubs), cut_around(caps, hubs + [flow])
            assert rest / budget - rest / grown > 1
            hubs.append(flow)
            mu = min(mu, value[flow])
            pending = [v for v in pending if v != flow and degree[v] <= mu]
            previous = None
            continue
        batch, batches = flow, batches + 1
        assert pending[0] in batch and set(batch) <= set(pending)
        assert caps[batch][:, batch].nnz == 0
        received = np.asarray(caps[batch].sum(axis=0)).ravel()
        received[hubs] = 0
        assert (2 * received <= np.array(degree)).all()
        assert sum(degree[v] for v in batch) <= cut_around(caps, hubs)
        assert max(degree[v] for v in batch) <= mu
        # saturated here: proven, and in no later batch
        later = set().union(*(f for f in flows[i + 1 :] if not isinstance(f, int)))
        saturated = {v for v in batch if value.get(v) == degree[v] and v not in later}
        assert saturated or i == len(flows) - 1
        proven |= saturated
        previous = batch, pending
        pending = [v for v in pending if v not in saturated]
    assert not pending or not saturated
    assert set(value) == proven | set(hubs[1:])
    assert batches >= 2 and len(proven) >= 2
    assert_all_pairs_match_networkx(n, weighted, mode)


@pytest.mark.parametrize("mode", ["unit", "weighted"])
@pytest.mark.parametrize("seed", range(4))
def test_hub_pass_never_proves_a_member_behind_a_light_bridge(seed, mode, monkeypatch):
    # The cut tree gives the hub pass one block at a time, but the pass is
    # sound on any connected graph: here the whole graph, bridges included.
    n = (30, 36, 42, 48)[seed]
    weighted = pendant_bridge_ugraph(1100 + seed, n)
    reference = to_nx_graph(n, weighted, mode)
    members = []
    real_flow = connectivity.maximum_flow

    def recording(ext, source, sink):
        if ext.shape[0] == n + 2:  # a batch, not a hub joining
            members.extend(np.flatnonzero(ext[source].toarray()).tolist())
        return real_flow(ext, source, sink)

    monkeypatch.setattr(connectivity, "maximum_flow", recording)
    caps = connectivity._capacities(as_undirected(n, weighted).csr(), mode)
    degree = np.asarray(caps.sum(axis=1)).ravel().tolist()
    certified = connectivity._certifier(n, *connectivity._ma_bounds(caps))
    (heads, _, weights), _ = connectivity._hub_edges(caps, degree, certified, np.ones(n, dtype=bool))
    proven = [v for v, w in zip(heads.tolist(), weights.tolist()) if w == degree[v]]
    hub = nick(degree.index(max(degree)))
    behind = set()
    for a, b in nx.bridges(reference):
        cut = reference.copy()
        cut.remove_edge(a, b)
        far = set(cut) - nx.node_connected_component(cut, hub)
        light = reference[a][b]["capacity"]
        behind.update(v for v in members if nick(v) in far and light < degree[v])
    assert behind
    assert not behind & set(proven)


def test_pendant_heavy_cut_tree_skips_flows():
    n = 60
    weighted = pendant_bridge_ugraph(900, n)
    view = as_undirected(n, weighted)
    tree = gomory_hu(view, "weighted")
    assert sum(1 for p in tree.up.tolist() if p < 0) == 1
    assert tree.flows < n - 1


def chat_shaped_ugraph(seed, n):
    # A chat channel: a core of regulars who talk with Zipf-like activity
    # (weight 1/rank), five regulars of middling rank with twelve followers
    # each who reach everyone else only through them, and pendant users who
    # address one regular.  Shuffled ids, integral weights.  Connected.
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    core, rest = ids[: n * 7 // 20], ids[n * 7 // 20 :]
    activity = [1.0 / (rank + 1) for rank in range(len(core))]
    edges = {}

    def add(a, b, w):
        key = (min(a, b), max(a, b))
        if a != b:
            edges[key] = edges.get(key, 0) + w

    for i in range(1, len(core)):
        add(core[i], rng.choices(core[:i], activity[:i])[0], rng.randint(1, 3))
    for _ in range(4 * len(core)):
        a, b = rng.choices(core, activity, k=2)
        add(a, b, rng.randint(1, 4))
    for g in range(5):
        group, rest = rest[:12], rest[12:]
        for v in group:
            add(v, core[30 + 5 * g], rng.randint(1, 4))
            if rng.random() < 0.5:
                add(v, rng.choice(group), rng.randint(1, 2))
    for v in rest:
        add(v, rng.choices(core, activity)[0], rng.randint(1, 3))
    return [(a, b, w) for (a, b), w in sorted(edges.items())]


# mode -> (flows, hub_flows) of the chat-shaped graph's cut tree.
CHAT_SHAPED_FLOWS = {"unit": (42, 42), "weighted": (43, 29)}


@pytest.mark.parametrize("mode", ["unit", "weighted"])
def test_chat_shaped_cut_tree_matches_networkx_on_all_pairs(mode):
    n = 200
    weighted = chat_shaped_ugraph(1200, n)
    tree = gomory_hu(as_undirected(n, weighted), mode)
    assert (tree.flows, tree.hub_flows) == CHAT_SHAPED_FLOWS[mode]
    assert_all_pairs_match_networkx(n, weighted, mode)


@pytest.mark.parametrize("mode", ["unit", "weighted"])
@pytest.mark.parametrize("seed", range(4))
def test_hub_batches_saturate_every_member_on_chat_shaped_graphs(seed, mode):
    # Followers share their regular's links into the core.  Batches whose
    # members are not adjacent and take at most half of any other node's
    # degree hardly compete for them: at least nine in ten members are
    # saturated (0.955 to 1 on these graphs), and every one on the test
    # graph's weighted pass, which keeps one hub.  A member that is retried
    # counts once per batch.
    n = 200
    view = as_undirected(n, chat_shaped_ugraph(1200 + seed, n))
    tried = saturated = 0
    for (_, _, degree, _, (heads, _, weights), _), flows in recorded_hub_batches(view, mode):
        proven = {v for v, w in zip(heads.tolist(), weights.tolist()) if w == degree[v]}
        batches = [flow for flow in flows if not isinstance(flow, int)]
        if mode == "weighted" and seed == 0:
            assert len(batches) == len(flows)
        for i, batch in enumerate(batches):
            tried += len(batch)
            # saturated here: proven, and in no later batch
            saturated += len(proven.intersection(batch).difference(*batches[i + 1 :]))
    assert tried >= 50
    assert saturated == tried if (seed, mode) == (0, "weighted") else 10 * saturated >= 9 * tried


@pytest.mark.parametrize("kind, n", [("pa", 60), ("pa", 200), ("pendant", 30), ("components", 60)])
def test_locally_cut_candidates_have_connectivity_below_degree(kind, n):
    # Weighted only: in unit mode no node of a block of three or more nodes
    # has degree 1, so no neighbor can take more than half of its degree.
    weighted = certificate_graph(kind, n)
    view = as_undirected(n, weighted)
    reference = to_nx_graph(n, weighted, "weighted")
    skipped = 0
    for block, caps, degree, _, _, _ in hub_passes(view, "weighted"):
        hub = degree.index(max(degree))
        cut = connectivity._locally_cut(caps, degree, hub)
        cut[hub] = False
        for v in np.flatnonzero(cut).tolist():
            a, b = nick(block[v]), nick(block[hub])
            assert nx.minimum_cut_value(reference, a, b) < degree[v], v
        skipped += cut.sum()
    assert skipped >= 3


def test_members_of_a_hub_weakly_joined_to_the_first_stay_unproven():
    # Two wheels joined by two edges: hub 0 with a rim of 20 nodes and hub 1
    # with a rim of 12.  The first batch runs out of budget, and hub 1 joins
    # at lambda(1, 0) = 2.  Its rim nodes have degree 3 and would saturate
    # into it, though their connectivity to hub 0 is 2; mu = 2 keeps every
    # candidate of degree 3 out of the later batches.
    m, p = 20, 12
    a, b = list(range(2, m + 2)), list(range(m + 2, m + p + 2))
    weighted = [(0, v, 1) for v in a] + [(1, v, 1) for v in b]
    weighted += [(x, y, 1) for rim in (a, b) for x, y in zip(rim, rim[1:] + rim[:1])]
    weighted += [(a[0], b[0], 1), (a[m // 2], b[p // 2], 1)]
    n = m + p + 2
    view = as_undirected(n, weighted)
    reference = to_nx_graph(n, weighted, "unit")
    (((block, _, degree, _, (heads, tails, weights), _), flows),) = recorded_hub_batches(view, "unit")
    hubs = [flow for flow in flows if isinstance(flow, int)]
    assert [block[h] for h in hubs] == [1]
    for v, r, w in zip(heads.tolist(), tails.tolist(), weights.tolist()):
        assert nx.minimum_cut_value(reference, nick(block[v]), nick(block[r])) == w, block[v]
    assert 2 in weights.tolist()


@pytest.mark.parametrize("mode", ["unit", "weighted"])
def test_pa_hub_pass_takes_more_hubs_and_fewer_flows(mode):
    # A single hub r lets a batch prove members whose degrees sum to at
    # most deg(r), so it needs at least sum / deg(r) batches to prove what
    # this pass proves.
    n = 200
    view = as_undirected(n, certificate_graph("pa", n))
    (((_, _, degree, _, (heads, _, weights), count), flows),) = recorded_hub_batches(view, mode)
    hubs = [flow for flow in flows if isinstance(flow, int)]
    assert len(hubs) >= 2
    members = sum(w for v, w in zip(heads.tolist(), weights.tolist()) if v not in hubs)
    assert count < members / max(degree)


def test_path_cut_tree_takes_no_max_flow(monkeypatch):
    # Every edge of a path is a bridge, and a bridge is a tree edge of its
    # own weight.
    n = 200
    weighted = [(v, v + 1, 1 + v % 3) for v in range(n - 1)]
    monkeypatch.setattr(connectivity, "maximum_flow", None)
    for mode in ("unit", "weighted"):
        tree = gomory_hu(as_undirected(n, weighted), mode)
        assert tree.flows == 0
        assert tree.edges == tuple(
            sorted((nick(v + 1), nick(v), w if mode == "weighted" else 1) for v, _, w in weighted)
        )


@pytest.mark.parametrize("seed", range(4))
def test_top_links_scores_match_min_cut(seed):
    n = SIZES[seed % len(SIZES)]
    weighted = multi_component_ugraph(300 + seed, n)
    view = as_undirected(n, weighted)
    reference = to_nx_graph(n, weighted, "weighted")
    links = top_links(view, view.edge_count)
    assert len(links) == view.edge_count
    rng = random.Random(seed)
    for (a, b), score in rng.sample(links, min(60, len(links))):
        assert score == nx.minimum_cut_value(reference, a, b), (a, b)


@pytest.mark.parametrize("mode", ["unit", "weighted"])
@pytest.mark.parametrize("kind, n", [("components", 60), ("pendant", 48), ("pa", 60)])
def test_terminal_cut_tree_matches_networkx_on_terminal_pairs(kind, n, mode):
    # The tree's steps are its terminals alone, and its path minima are
    # exact for two terminals that share a block.  Batch members are
    # terminals; a hub need not be.
    weighted = certificate_graph(kind, n)
    view = as_undirected(n, weighted)
    reference = to_nx_graph(n, weighted, mode)
    blocks = [{int(v[1:]) for v in b} for b in nx.biconnected_components(reference)]
    rng = random.Random(1400 + n)
    checked = 0
    for size in (2, 5, n // 3):
        terminal = np.zeros(n, dtype=bool)
        terminal[rng.sample(range(n), size)] = True
        for (block, *_), flows in recorded_hub_batches(view, mode, terminal):
            for batch in flows:
                assert isinstance(batch, int) or terminal[block[batch]].all()
        tree = connectivity._cut_tree(view, mode, terminal)
        assert (tree.up[~terminal] < 0).all()
        assert terminal[tree.up[tree.up >= 0]].all()
        chosen = set(np.flatnonzero(terminal).tolist())
        pairs = {p for b in blocks for p in itertools.combinations(sorted(b & chosen), 2)}
        for a, b in sorted(pairs):
            expected = nx.minimum_cut_value(reference, nick(a), nick(b))
            assert tree.lambda_between(nick(a), nick(b)) == expected, (a, b)
        checked += len(pairs)
    assert checked


def grid_ugraph(rows, cols):
    at = [[r * cols + c for c in range(cols)] for r in range(rows)]
    across = [(at[r][c], at[r][c + 1], 1) for r in range(rows) for c in range(cols - 1)]
    down = [(at[r][c], at[r + 1][c], 1) for r in range(rows - 1) for c in range(cols)]
    return across + down


# (name, n, weighted edges): tie-heavy graphs, where many edges share one
# bound and one score, and graphs of several components.
TOP_LINK_GRAPHS = [
    *((f"cycle{n}", n, [(v, (v + 1) % n, 2) for v in range(n)]) for n in (5, 12, 30)),
    *(
        (f"complete{n}", n, [(a, b, 3) for a, b in itertools.combinations(range(n), 2)])
        for n in (4, 7, 10)
    ),
    *((f"grid{r}x{c}", r * c, grid_ugraph(r, c)) for r, c in ((3, 4), (5, 6))),
    *((f"components{seed}", 60, multi_component_ugraph(1300 + seed, 60)) for seed in range(3)),
    ("pendant", 48, certificate_graph("pendant", 48)),
    ("pa", 100, certificate_graph("pa", 100)),
]


@pytest.mark.parametrize("name, n, weighted", TOP_LINK_GRAPHS, ids=[g[0] for g in TOP_LINK_GRAPHS])
def test_top_links_match_the_full_tree(name, n, weighted):
    view = as_undirected(n, weighted)
    m = view.edge_count
    for k in sorted({1, 2, m // 2 or 1, m, m + 3}):
        assert top_links(view, k) == top_links_by_full_tree(view, k), k


def top_links_and_terminals(view, k):
    # top_links, and the terminal mask of each cut tree it built.
    terminals = []
    real_cut_tree = connectivity._cut_tree

    def recording(u, mode, terminal):
        terminals.append(terminal.copy())
        return real_cut_tree(u, mode, terminal)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(connectivity, "_cut_tree", recording)
        links = top_links(view, k)
    return links, terminals


def test_top_links_run_a_second_round_only_past_the_kth_score():
    # Two heavy triangles joined by a light bridge between the nodes of
    # largest degree: the bridge has the largest bound and the least score,
    # so every other edge's bound outranks round 1's best score.
    weighted = [(0, 1, 10), (1, 2, 10), (0, 2, 10), (3, 4, 10), (4, 5, 10), (3, 5, 10), (2, 3, 1)]
    view = as_undirected(6, weighted)
    links, terminals = top_links_and_terminals(view, 1)
    assert links == top_links_by_full_tree(view, 1) == [((nick(0), nick(1)), 20.0)]
    assert [np.flatnonzero(t).tolist() for t in terminals] == [[2, 3], list(range(6))]
    # In an equal-weight complete graph every bound is the edge's score.
    weighted = [(a, b, 3) for a, b in itertools.combinations(range(8), 2)]
    view = as_undirected(8, weighted)
    links, terminals = top_links_and_terminals(view, 3)
    assert links == top_links_by_full_tree(view, 3)
    assert len(terminals) == 1 and terminals[0].sum() < 8


def planted_clique_ugraph(seed, n):
    # Mean degree 3 to 6 plus three planted cliques of 4 to 6 nodes, which
    # may overlap the background and each other.
    rng = random.Random(seed)
    pairs = set(random_ugraph(rng, n, rng.uniform(3.0, 6.0) / n))
    for _ in range(3):
        members = sorted(rng.sample(range(n), rng.randint(4, 6)))
        pairs.update(
            (a, b) for i, a in enumerate(members) for b in members[i + 1 :]
        )
    return [(a, b, 1) for a, b in sorted(pairs)]


@pytest.mark.parametrize("min_size", [1, 3, 4])
@pytest.mark.parametrize("seed", range(10))
def test_maximal_cliques_match_find_cliques(seed, min_size):
    # Seeds 0-3: planted cliques; 4-9: chat-shaped graphs, where the first
    # pivot of the search over all nodes is a hub.
    if seed < 4:
        n = SIZES[seed]
        weighted = planted_clique_ugraph(400 + seed, n)
    elif seed < 6:
        n = 200
        weighted = chat_shaped_ugraph(1400 + seed, n)
    else:
        n = SIZES[seed - 6]
        weighted = pendant_bridge_ugraph(1600 + seed, n)
    found = list(nx.find_cliques(to_nx_graph(n, weighted, "unit")))
    assert max(len(c) for c in found) >= 4
    expected = {frozenset(c) for c in found if len(c) >= min_size}
    report = maximal_cliques(as_undirected(n, weighted), min_size)
    assert {frozenset(c) for c in report.cliques} == expected
    assert report.count == len(expected)
    assert report.max_clique_size == max(len(c) for c in expected)
    tally = {}
    for clique in found:
        if len(clique) >= min_size:
            for pair in itertools.combinations(sorted(clique), 2):
                tally[pair] = tally.get(pair, 0) + 1
    ranked = sorted(tally.items(), key=lambda item: (-item[1], item[0]))
    assert list(clique_comembership(report).pair_counts.items()) == ranked


@pytest.mark.parametrize("seed", range(10))
def test_blocks_match_biconnected_components(seed):
    # Seeds 0-5: several components and isolates; 6-9: one chat-shaped
    # component of bridges and pendant chains.
    if seed < 6:
        n = SIZES[seed % len(SIZES)]
        weighted = multi_component_ugraph(500 + seed, n)
    else:
        n = SIZES[seed - 6]
        weighted = pendant_bridge_ugraph(1300 + seed, n)
    reference = to_nx_graph(n, weighted, "unit")
    cutpoints = set(nx.articulation_points(reference))
    assert cutpoints
    # chatnet also reports each isolated node as a singleton block.
    expected = [frozenset(b) for b in nx.biconnected_components(reference)]
    expected += [frozenset((v,)) for v in nx.isolates(reference)]
    report = articulation_points_and_blocks(as_undirected(n, weighted))
    assert report.cutpoints == cutpoints
    assert sorted(report.blocks, key=sorted) == sorted(expected, key=sorted)
    assert report.largest_block_size == max(len(b) for b in expected)


def test_blocks_take_one_search_over_every_component(monkeypatch):
    # Twenty paths, twenty triangles and ten isolates: fifty components,
    # all reached from the virtual root in one search.
    calls = []
    search = connectivity.depth_first_order

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(connectivity, "depth_first_order", counted)
    weighted = []
    for c in range(40):
        a, b, d = 3 * c, 3 * c + 1, 3 * c + 2
        weighted += [(a, b, 1), (b, d, 1)] + ([(a, d, 1)] if c % 2 else [])
    report = articulation_points_and_blocks(as_undirected(3 * 40 + 10, weighted))
    assert len(calls) == 1
    assert report.block_count == 2 * 20 + 20 + 10
    assert report.cutpoints == {nick(3 * c + 1) for c in range(0, 40, 2)}


def assert_same_ranking(ours, reference, gap=1e-8):
    # Every pair that our scores separate by more than the gap is ordered
    # the same way by the reference.
    diff = ours[:, None] - ours[None, :]
    separated = diff > gap
    assert (reference[:, None] > reference[None, :])[separated].all()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_hits_matches_networkx(seed, weighted):
    # A connected core that new nodes address: one dominant singular value,
    # so both power iteration and networkx's svds find the same vectors.
    n = SIZES[seed % len(SIZES)]
    g = preferential_attachment_graph(n, int(3.5 * n), 600 + seed)
    scores = hits(g, weighted=weighted)
    assert scores.converged
    reference = nx.DiGraph()
    reference.add_nodes_from(g.nicks)
    for a, b, w in g.edges_by_nick():
        reference.add_edge(a, b, weight=w if weighted else 1)
    nx_hub, nx_authority = nx.hits(reference)
    for ours, theirs in ((scores.authority, nx_authority), (scores.hub, nx_hub)):
        # networkx normalizes to unit sum, chatnet to unit Euclidean norm
        mine = np.array([ours[v] for v in g.nicks])
        mine /= mine.sum()
        other = np.array([theirs[v] for v in g.nicks])
        assert np.abs(mine - other).max() <= 1e-8
        assert_same_ranking(mine, other)


def capacity_edge_ugraph(seed, n):
    # A random graph with small weights, a share of them at the largest
    # capacity max-flow takes, and a triangle of those, so flows and cuts
    # reach several times that capacity.
    rng = random.Random(seed)
    big = connectivity.MAX_CAPACITY
    weighted = [(0, 1, big), (1, 2, big), (0, 2, big)]
    weighted += [
        (a, b, big if rng.random() < 0.3 else rng.randint(1, 6))
        for a, b in random_ugraph(rng, n, 0.25)
        if {a, b} - {0, 1, 2}
    ]
    return weighted


@pytest.mark.parametrize("seed", range(3))
def test_weighted_cuts_are_exact_at_the_largest_capacity(seed):
    n = 14
    weighted = capacity_edge_ugraph(900 + seed, n)
    assert_all_pairs_match_networkx(n, weighted, "weighted")
    view = as_undirected(n, weighted)
    reference = to_nx_graph(n, weighted, "weighted")
    top_level = connectivity.lambda_sets(view, "weighted").levels[0]
    assert top_level[0] >= 2 * connectivity.MAX_CAPACITY
    # Every edge's score is its ends' minimum cut; rank them as top_links does.
    expected = sorted(
        (-nx.minimum_cut_value(reference, view.nicks[a], view.nicks[b]), -w, a, b)
        for a, b, w in view.edges()
    )
    links = top_links(view, len(expected))
    assert links == [((view.nicks[a], view.nicks[b]), -score) for score, _, a, b in expected]
    assert top_links(view, 5) == links[:5]
