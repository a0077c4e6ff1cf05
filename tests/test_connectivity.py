import gc
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from chatnet import connectivity
from chatnet.connectivity import (
    articulation_points_and_blocks,
    edge_connectivity,
    gomory_hu,
    lambda_sets,
    top_links,
)
from chatnet.graph import UndirectedView, to_undirected
from chatnet.report import AnalysisConfig, run_pipeline

from oracles import all_pairs_min_cut, blocks_oracle, cutpoints_oracle, top_links_by_full_tree
from synth import as_undirected, ids_of, nick, preferential_attachment_graph, random_ugraph

# two unit triangles joined by one bridge
BRIDGE_EDGES = [
    ("a1", "a2", 1), ("a2", "a3", 1), ("a1", "a3", 1),
    ("b1", "b2", 1), ("b2", "b3", 1), ("b1", "b3", 1),
    ("a3", "b1", 1),
]


def bridge_graph():
    return UndirectedView.from_edge_list(BRIDGE_EDGES)


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def test_blocks_path():
    g = UndirectedView.from_edge_list([("a", "b", 1), ("b", "c", 1)])
    report = articulation_points_and_blocks(g)
    assert report.cutpoints == frozenset({"b"})
    assert set(report.blocks) == {frozenset({"a", "b"}), frozenset({"b", "c"})}


def test_blocks_cycle_is_biconnected():
    edges = [(nick(i), nick((i + 1) % 5), 1) for i in range(5)]
    report = articulation_points_and_blocks(UndirectedView.from_edge_list(edges))
    assert report.cutpoints == frozenset()
    assert len(report.blocks) == 1
    assert report.largest_block_size == 5


def test_blocks_isolated_nodes_are_singleton_blocks():
    g = as_undirected(3, [(0, 1, 1)])
    report = articulation_points_and_blocks(g)
    assert frozenset({nick(2)}) in report.blocks


def test_blocks_match_removal_and_subset_oracles():
    rng = random.Random(71)
    for _ in range(120):
        n = rng.randrange(1, 9)
        edges = random_ugraph(rng, n, 0.35)
        g = as_undirected(n, [(u, v, 1) for u, v in edges])
        report = articulation_points_and_blocks(g)
        adj = adjacency(n, edges)
        assert ids_of(g, report.cutpoints) == frozenset(cutpoints_oracle(n, adj))
        got_blocks = {ids_of(g, b) for b in report.blocks}
        assert got_blocks == blocks_oracle(n, adj)


def test_block_edge_partition_covers_m():
    rng = random.Random(72)
    for _ in range(60):
        n = rng.randrange(2, 10)
        edges = random_ugraph(rng, n, 0.4)
        g = as_undirected(n, [(u, v, 1) for u, v in edges])
        report = articulation_points_and_blocks(g)
        per_block = 0
        for block in report.blocks:
            ids = {g.id_of(x) for x in block}
            per_block += sum(
                1 for u, v, _ in g.edges() if u in ids and v in ids
            )
        assert per_block == g.edge_count


def test_edge_connectivity_bridge_pair():
    assert edge_connectivity(bridge_graph(), "a1", "b2") == 1.0


def test_edge_connectivity_triangle_pair():
    # two edge-disjoint paths inside a triangle
    assert edge_connectivity(bridge_graph(), "a1", "a2") == 2.0


def test_edge_connectivity_validation():
    g = bridge_graph()
    with pytest.raises(ValueError, match="differ"):
        edge_connectivity(g, "a1", "a1")
    with pytest.raises(ValueError, match="mode"):
        edge_connectivity(g, "a1", "a2", mode="fast")


def test_edge_connectivity_disconnected_pair():
    g = UndirectedView.from_edge_list([("a", "b", 1)], extra_nodes=["z"])
    assert edge_connectivity(g, "a", "z") == 0.0


def test_edge_connectivity_matches_cut_enumeration():
    rng = random.Random(73)
    for _ in range(40):
        n = rng.randrange(2, 9)
        raw = random_ugraph(rng, n, 0.4)
        weighted = [(u, v, rng.randint(1, 6)) for u, v in raw]
        g = as_undirected(n, weighted)
        lam = all_pairs_min_cut(n, weighted)
        for a in range(n):
            for b in range(a + 1, n):
                got = edge_connectivity(g, nick(a), nick(b), mode="weighted")
                assert got == lam[a, b]
        unit = [(u, v, 1) for u, v in raw]
        lam_unit = all_pairs_min_cut(n, unit)
        for a in range(n):
            for b in range(a + 1, n):
                got = edge_connectivity(g, nick(a), nick(b), mode="unit")
                assert got == lam_unit[a, b]


def test_weighted_mode_requires_integral_weights():
    g = UndirectedView.from_edge_list([("a", "b", 1.5)])
    with pytest.raises(ValueError, match="integral"):
        edge_connectivity(g, "a", "b", mode="weighted")
    assert edge_connectivity(g, "a", "b", mode="unit") == 1.0


def cut_out_blocks(seed, count):
    # Random symmetric integer blocks, each with its edge list, cut out of
    # its graph's capacities in a permuted id order and sorted, as
    # connectivity._block_certificates cuts a block: local id i is node
    # order[i] of the edge list.
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(4, 10)
        weighted = [(u, v, rng.randint(1, 5)) for u, v in random_ugraph(rng, n, 0.6)]
        caps = connectivity._capacities(as_undirected(n, weighted).csr(), "weighted")
        order = np.array(rng.sample(range(n), n))
        yield n, weighted, order, caps[order][:, order].sorted_indices()


def test_source_side_reads_cut_out_blocks():
    # The residual pairs each arc with its own flow in a block whose rows
    # were reordered when it was cut out.
    for n, weighted, order, block in cut_out_blocks(75, 20):
        lam = all_pairs_min_cut(n, weighted)
        for s, t in itertools.permutations(range(n), 2):
            result = connectivity.maximum_flow(block, s, t)
            side = connectivity._source_side(block, result.flow, s)
            assert side[s] and not side[t]
            crossing = block[side][:, ~side].sum()
            assert crossing == result.flow_value == lam[order[s], order[t]]


def test_maximum_flow_shares_the_structure_of_a_cut_out_block():
    # _source_side compares a block's capacities with scipy's flow arc by
    # arc, which needs the flow to keep the block's sorted row pointers and
    # column indices, zero-flow arcs included.
    rng = random.Random(34)
    for n, _, _, block in cut_out_blocks(34, 300):
        s, t = rng.sample(range(n), 2)
        flow = connectivity.maximum_flow(block, s, t).flow
        assert np.array_equal(flow.indptr, block.indptr)
        assert np.array_equal(flow.indices, block.indices)


@pytest.mark.parametrize("hubs", [[], [2], [3, 0, 2]])
def test_flow_network_ends_in_the_source_arcs(hubs):
    # _hub_edges sets each batch's source arcs through ext.data[-k:]: the
    # network must hold the block's arcs and one sink arc per hub, then row
    # k's arcs last, in column order, with nothing after them.
    for k, _, _, block in cut_out_blocks(11, 20):
        degree = np.asarray(block.sum(axis=1)).ravel()
        ext = connectivity._flow_network(block, hubs, degree.tolist())
        assert ext.shape == (k + 2, k + 2) and ext.has_canonical_format
        assert ext.nnz == block.nnz + len(hubs) + k
        assert ext[:k, :k].nnz == block.nnz and (ext[:k, :k] != block).nnz == 0
        assert ext.indptr[k] == ext.nnz - k and ext.indptr[k + 1] == ext.nnz
        assert ext.indices[-k:].tolist() == list(range(k))
        assert not ext.data[-k:].any()
        rows = np.repeat(np.arange(k + 2), np.diff(ext.indptr))
        to_sink = ext.indices == k + 1
        assert rows[to_sink].tolist() == sorted(hubs)
        assert ext.data[to_sink].tolist() == degree[sorted(hubs)].tolist()


def test_gomory_hu_triangle():
    g = UndirectedView.from_edge_list(
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)]
    )
    tree = gomory_hu(g)
    assert len(tree.edges) == 2
    assert all(cap == 2 for _, _, cap in tree.edges)


def test_gomory_hu_bridge_path_minimum():
    tree = gomory_hu(bridge_graph())
    assert tree.lambda_between("a1", "b2") == 1.0
    assert tree.lambda_between("a1", "a2") == 2.0


def test_gomory_hu_single_node():
    g = UndirectedView.from_edge_list([], extra_nodes=["solo"])
    tree = gomory_hu(g)
    assert tree.edges == ()
    assert tree.parent["solo"] is None


def test_gomory_hu_cross_component_is_zero():
    g = UndirectedView.from_edge_list([("a", "b", 3), ("c", "d", 2)])
    tree = gomory_hu(g, "weighted")
    assert tree.lambda_between("a", "c") == 0.0
    assert tree.lambda_between("a", "b") == 3.0
    with pytest.raises(ValueError):
        tree.lambda_between("a", "a")
    with pytest.raises(KeyError, match="unknown node 'zz'"):
        tree.lambda_between("a", "zz")


def test_gomory_hu_tree_is_two_read_only_id_arrays():
    tree = gomory_hu(bridge_graph(), "weighted")
    ids = {nick: i for i, nick in enumerate(tree.nicks)}
    assert tree.up.dtype == tree.capacity.dtype == np.int64
    assert {
        nick: None if p < 0 else tree.nicks[p] for nick, p in zip(tree.nicks, tree.up)
    } == tree.parent
    assert [(ids[c], ids[p], cap) for c, p, cap in tree.edges] == [
        (ids[c], int(tree.up[ids[c]]), int(tree.capacity[ids[c]])) for c, _, _ in tree.edges
    ]
    assert (tree.up < 0).sum() == 1
    for array in (tree.up, tree.capacity):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7


def test_gomory_hu_matches_pairwise_flows():
    rng = random.Random(74)
    for _ in range(40):
        n = rng.randrange(2, 10)
        raw = random_ugraph(rng, n, 0.4)
        weighted = [(u, v, rng.randint(1, 5)) for u, v in raw]
        g = as_undirected(n, weighted)
        for mode in ("unit", "weighted"):
            tree = gomory_hu(g, mode)
            for a in range(n):
                for b in range(a + 1, n):
                    direct = edge_connectivity(g, nick(a), nick(b), mode)
                    assert tree.lambda_between(nick(a), nick(b)) == direct


def test_lambda_sets_bridge_graph_levels():
    hierarchy = lambda_sets(bridge_graph())
    as_dict = {value: set(sets) for value, sets in hierarchy.levels}
    assert as_dict[2.0] == {
        frozenset({"a1", "a2", "a3"}),
        frozenset({"b1", "b2", "b3"}),
    }
    assert as_dict[1.0] == {frozenset(bridge_graph().nicks)}


def test_lambda_sets_complete_graph():
    edges = [(a, b, 1) for a, b in itertools.combinations(["a", "b", "c", "d"], 2)]
    hierarchy = lambda_sets(UndirectedView.from_edge_list(edges))
    assert hierarchy.levels == ((3.0, (frozenset({"a", "b", "c", "d"}),)),)


def test_lambda_sets_satisfy_defining_inequality():
    # inequality checked against brute-force pairwise connectivity, with the
    # outside restricted to the set's own connected component
    rng = random.Random(75)
    for _ in range(40):
        n = rng.randrange(2, 9)
        raw = random_ugraph(rng, n, 0.4)
        weighted = [(u, v, 1) for u, v in raw]
        g = as_undirected(n, weighted)
        lam = all_pairs_min_cut(n, weighted)
        hierarchy = lambda_sets(g)
        seen_sets = set(hierarchy.all_sets())
        for members in seen_sets:
            ids = sorted(g.id_of(x) for x in members)
            component = [
                d for d in range(n) if d in ids or lam[ids[0], d] > 0
            ]
            inside = min(lam[a, b] for a, b in itertools.combinations(ids, 2))
            outside = [lam[c, d] for c in ids for d in component if d not in ids]
            if outside:
                assert inside > max(outside)
            # maximality: any one-node extension within the component either
            # breaks the inequality or is itself an emitted set
            for d in component:
                if d in ids:
                    continue
                extended = ids + [d]
                if frozenset(g.nicks[i] for i in extended) in seen_sets:
                    continue
                inside_ext = min(
                    lam[a, b] for a, b in itertools.combinations(extended, 2)
                )
                rest = [
                    lam[c, e]
                    for c in extended
                    for e in component
                    if e not in extended
                ]
                assert rest, "component-wide extension must have been emitted"
                assert not inside_ext > max(rest)


def test_lambda_hierarchy_is_laminar():
    rng = random.Random(76)
    for _ in range(40):
        n = rng.randrange(2, 10)
        weighted = [(u, v, rng.randint(1, 4)) for u, v in random_ugraph(rng, n, 0.4)]
        g = as_undirected(n, weighted)
        hierarchy = lambda_sets(g, mode="weighted")
        sets = hierarchy.all_sets()
        for s, t in itertools.combinations(sets, 2):
            assert s <= t or t <= s or not (s & t)
        # nesting: each set at a higher level lies inside one set per lower level
        for (hi_val, hi_sets), (lo_val, lo_sets) in itertools.combinations(
            hierarchy.levels, 2
        ):
            assert hi_val > lo_val
            for s in hi_sets:
                assert sum(1 for t in lo_sets if s <= t) == 1


def test_connectivity_scaling_properties():
    rng = random.Random(77)
    weighted = [(u, v, 2 * rng.randint(1, 3)) for u, v in random_ugraph(rng, 7, 0.5)]
    g = as_undirected(7, weighted)
    for c in (0.5, 3):
        scaled = as_undirected(7, [(u, v, w * c) for u, v, w in weighted])
        for a in range(7):
            for b in range(a + 1, 7):
                base = edge_connectivity(g, nick(a), nick(b), "weighted")
                assert edge_connectivity(
                    scaled, nick(a), nick(b), "weighted"
                ) == pytest.approx(c * base)
                assert edge_connectivity(
                    scaled, nick(a), nick(b), "unit"
                ) == edge_connectivity(g, nick(a), nick(b), "unit")
        base_sets = {
            frozenset(s)
            for _, sets in lambda_sets(g, "weighted").levels
            for s in sets
        }
        scaled_sets = {
            frozenset(s)
            for _, sets in lambda_sets(scaled, "weighted").levels
            for s in sets
        }
        assert base_sets == scaled_sets


def test_top_links_builds_no_full_cut_tree(fixture_undirected, monkeypatch):
    # top_links scores its candidates from the cut trees of their ends, at
    # most two of them, and never asks for the full tree.
    expected = top_links_by_full_tree(fixture_undirected, 5)
    trees = []
    real_cut_tree = connectivity._cut_tree

    def recording(*args):
        trees.append(real_cut_tree(*args))
        return trees[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("top_links built the full cut tree")

    monkeypatch.setattr(connectivity, "gomory_hu", refuse)
    monkeypatch.setattr(connectivity, "_cut_tree", recording)
    assert top_links(fixture_undirected, 5) == expected
    assert 1 <= len(trees) <= 2


def test_top_links_bridge_graph_ranking():
    links = top_links(bridge_graph(), k=7)
    scores = dict(links)
    assert scores[("a3", "b1")] == 1.0
    intra = [edge for edge, score in links if score >= 2.0]
    assert ("a3", "b1") not in intra
    assert links[-1][0] == ("a3", "b1")


def test_top_links_single_edge():
    g = UndirectedView.from_edge_list([("a", "b", 4)])
    assert top_links(g, k=3) == [(("a", "b"), 4.0)]


def test_top_links_fixture_matches_pairwise_flows(fixture_undirected):
    links = top_links(fixture_undirected, k=10)
    expected = {}
    for a, b, _ in fixture_undirected.edges():
        na, nb = fixture_undirected.nick_of(a), fixture_undirected.nick_of(b)
        expected[(na, nb)] = edge_connectivity(fixture_undirected, na, nb, "weighted")
    assert dict(links) == expected
    scores = [score for _, score in links]
    assert scores == sorted(scores, reverse=True)


def test_top_links_k_validation(fixture_undirected):
    with pytest.raises(ValueError):
        top_links(fixture_undirected, k=0)
    assert len(top_links(fixture_undirected, k=99)) == fixture_undirected.edge_count


def record_flows(monkeypatch):
    # Per max-flow run: whether the hub pass ran it, and whether it starts
    # at a node with no arc in.  A hub pass runs its batches from the super
    # source, the one such node, and a joining hub's flow from the hub.
    flows, in_pass = [], []
    real_flow, real_hub_edges = connectivity.maximum_flow, connectivity._hub_edges

    def counting(csgraph, source, sink):
        flows.append((bool(in_pass), csgraph[:, source].nnz == 0))
        return real_flow(csgraph, source, sink)

    def hub_pass(*args, **kwargs):
        in_pass.append(True)
        try:
            return real_hub_edges(*args, **kwargs)
        finally:
            in_pass.pop()

    monkeypatch.setattr(connectivity, "maximum_flow", counting)
    monkeypatch.setattr(connectivity, "_hub_edges", hub_pass)
    return flows


def assert_flows_recorded(flows, trees):
    # Every max-flow run is one that a tree records, and the hub pass's
    # are its hub_flows: its batches and its hub joins.  Returns the joins.
    assert len(flows) == sum(t.flows for t in trees)
    assert sum(hub for hub, _ in flows) == sum(t.hub_flows for t in trees)
    assert all(hub for hub, from_super_source in flows if from_super_source)
    return sum(hub and not from_super_source for hub, from_super_source in flows)


def test_weighted_lambda_report_builds_one_cut_tree(
    fixture_files, fixture_undirected, monkeypatch
):
    # Weighted lambda_sets builds the one full tree; top_links scores its
    # candidates from smaller trees of their own.
    full, trees = [], []
    real_tree, real_cut_tree = connectivity.gomory_hu, connectivity._cut_tree

    def recording(*args, **kwargs):
        full.append(real_tree(*args, **kwargs))
        return full[-1]

    def recording_cut_tree(*args, **kwargs):
        trees.append(real_cut_tree(*args, **kwargs))
        return trees[-1]

    flows = record_flows(monkeypatch)
    monkeypatch.setattr(connectivity, "gomory_hu", recording)
    monkeypatch.setattr(connectivity, "_cut_tree", recording_cut_tree)
    cfg = AnalysisConfig(
        log_paths=tuple(path for path, _ in fixture_files),
        analyses=("lambda",),
        lambda_mode="weighted",
    )
    report = run_pipeline(cfg)
    assert report.section("lambda")["top_links"]
    (tree,) = full
    assert tree.mode == "weighted"
    assert any(t is tree for t in trees) and 2 <= len(trees) <= 3
    assert_flows_recorded(flows, trees)
    # the pendant steps of the fixture are certified without a max-flow
    components, _ = connected_components(fixture_undirected.csr(), directed=False)
    assert tree.flows < fixture_undirected.node_count - components


# seed -> max-flows of the unit and the weighted gomory_hu and of
# top_links(., 10) on the workload-sized preferential-attachment graph:
# seed 7 is pa-report's graph, and seed 23 is held out.
WORKLOAD_FLOWS = {7: (29, 240, 7), 23: (32, 246, 6)}


@pytest.mark.parametrize("seed", sorted(WORKLOAD_FLOWS))
def test_workload_sized_graph_runs_pinned_flows(seed, monkeypatch):
    view = to_undirected(preferential_attachment_graph(2400, 9400, seed))
    flows = record_flows(monkeypatch)
    counts = []
    for build in (
        lambda: gomory_hu(view, "unit"),
        lambda: gomory_hu(view, "weighted"),
        lambda: top_links(view, 10),
    ):
        before = len(flows)
        build()
        counts.append(len(flows) - before)
    assert tuple(counts) == WORKLOAD_FLOWS[seed]


def test_hub_flows_count_the_hub_joins(monkeypatch):
    # The weighted preferential-attachment graph of the certificate tests,
    # whose hub pass grows its hub set: each joining hub's flow runs from
    # the hub and counts in hub_flows.
    n = 60
    g = preferential_attachment_graph(n, int(3.5 * n), 1000 + n)
    view = as_undirected(n, list(to_undirected(g).edges()))
    flows = record_flows(monkeypatch)
    tree = gomory_hu(view, "weighted")
    assert assert_flows_recorded(flows, [tree]) >= 1


def test_top_links_hold_under_400_bytes_per_edge():
    # 20,000 weighted edges on 1,000 nodes.  The edges are ranked by numpy
    # lexsorts over bound, weight and index, about 320 bytes an edge at the
    # peak with the cut tree of the candidates' ends; a tuple per edge and
    # per sort key took about 600.
    rng = random.Random(5)
    pairs = set()
    while len(pairs) < 20_000:
        a, b = sorted(rng.sample(range(1000), 2))
        pairs.add((a, b))
    u = as_undirected(1000, [(a, b, rng.randint(1, 5)) for a, b in sorted(pairs)])
    gc.collect()
    tracemalloc.start()
    try:
        links = top_links(u, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(links) == 10
    assert peak < 400 * 20_000
