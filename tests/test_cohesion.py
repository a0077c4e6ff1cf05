import itertools
import random
import sys

import pytest

from chatnet import cohesion
from chatnet.cohesion import (
    CliqueReport,
    clique_comembership,
    clique_participation,
    ego_network,
    maximal_cliques,
)
from chatnet.graph import MentionGraph, UndirectedView, write_graph_csv
from chatnet.report import AnalysisConfig, PipelineError, run_pipeline

from oracles import cliques_oracle
from synth import as_undirected, ids_of, nick, random_ugraph


def undirected_of(n, edges):
    return as_undirected(n, [(u, v, 1) for u, v in edges])


def test_complete_graph_single_clique():
    g = undirected_of(4, list(itertools.combinations(range(4), 2)))
    report = maximal_cliques(g, min_size=1)
    assert report.cliques == ((nick(0), nick(1), nick(2), nick(3)),)
    assert report.max_clique_size == 4


def test_pendant_filtered_by_min_size():
    g = UndirectedView.from_edge_list(
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("c", "d", 1)]
    )
    report = maximal_cliques(g, min_size=3)
    assert report.cliques == (("a", "b", "c"),)


def test_matches_subset_enumeration_oracle():
    rng = random.Random(55)
    for _ in range(12):
        n = 12
        edges = random_ugraph(rng, n, 0.5)
        g = undirected_of(n, edges)
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        for min_size in (1, 3):
            report = maximal_cliques(g, min_size=min_size)
            got = {ids_of(g, c) for c in report.cliques}
            assert got == cliques_oracle(n, adj, min_size=min_size)


def test_every_clique_is_complete_and_maximal():
    rng = random.Random(56)
    for _ in range(20):
        n = rng.randrange(3, 11)
        edges = random_ugraph(rng, n, 0.45)
        g = undirected_of(n, edges)
        report = maximal_cliques(g, min_size=1)
        for clique in report.cliques:
            ids = [g.id_of(x) for x in clique]
            for a, b in itertools.combinations(ids, 2):
                assert g.weight(a, b) > 0
            members = set(ids)
            for v in range(n):
                if v in members:
                    continue
                assert not all(g.weight(v, q) > 0 for q in ids)


def test_edgeless_graph_cases():
    g = undirected_of(3, [])
    assert maximal_cliques(g, min_size=2).cliques == ()
    singles = maximal_cliques(g, min_size=1)
    assert singles.cliques == ((nick(0),), (nick(1),), (nick(2),))
    # no nodes: no clique at all, not the empty one
    empty = maximal_cliques(undirected_of(0, []), min_size=1)
    assert (empty.cliques, empty.max_clique_size) == ((), 0)


def test_enumeration_independent_of_input_order():
    rng = random.Random(57)
    edges = random_ugraph(rng, 9, 0.5)
    triples = [(nick(u), nick(v), 1) for u, v in edges]
    base = maximal_cliques(UndirectedView.from_edge_list(triples), 2)
    for seed in range(3):
        shuffled = triples[:]
        random.Random(seed).shuffle(shuffled)
        again = maximal_cliques(UndirectedView.from_edge_list(shuffled), 2)
        assert again.cliques == base.cliques


def test_min_size_validation(fixture_undirected):
    with pytest.raises(ValueError):
        maximal_cliques(fixture_undirected, 0)


def test_comembership_shared_edge():
    g = UndirectedView.from_edge_list(
        [
            ("x", "y", 1),
            ("x", "p", 1), ("y", "p", 1),
            ("x", "q", 1), ("y", "q", 1),
        ]
    )
    report = maximal_cliques(g, min_size=3)
    co = clique_comembership(report)
    assert co.count("x", "y") == 2
    assert co.max_pair == (("x", "y"), 2)


def test_comembership_outsider_counts_zero():
    g = UndirectedView.from_edge_list(
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("d", "a", 1)]
    )
    report = maximal_cliques(g, min_size=3)
    co = clique_comembership(report)
    assert co.count("d", "a") == 0
    assert co.count("d", "d") == 0


def test_comembership_matches_oracle_tally():
    rng = random.Random(58)
    n = 10
    edges = random_ugraph(rng, n, 0.5)
    g = undirected_of(n, edges)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    report = maximal_cliques(g, min_size=1)
    co = clique_comembership(report)
    oracle_cliques = cliques_oracle(n, adj, min_size=1)
    for a in range(n):
        for b in range(n):
            expected = sum(1 for c in oracle_cliques if a in c and b in c)
            assert co.count(nick(a), nick(b)) == expected


def test_comembership_diagonal_counts_memberships():
    g = UndirectedView.from_edge_list(
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("c", "d", 1)]
    )
    report = maximal_cliques(g, min_size=2)
    co = clique_comembership(report)
    assert co.count("c", "c") == 2  # triangle plus the bridge pair


def test_comembership_matches_plain_tally_with_string_order():
    # Nicks whose string order differs from their numeric order ("b10" <
    # "b9"); every key is (a, b) with a < b as strings, the counts match a
    # plain tally of the sorted members of each clique, and the pairs come
    # most shared first, then by pair.
    rng = random.Random(59)
    names = [f"{rng.choice('zyxabc')}{v}" for v in range(30)]
    edges = [(names[u], names[v], 1) for u, v in random_ugraph(rng, 30, 0.3)]
    g = UndirectedView.from_edge_list(edges)
    report = maximal_cliques(g, min_size=2)
    co = clique_comembership(report)
    tally = {}
    for clique in report.cliques:
        for a, b in itertools.combinations(sorted(clique), 2):
            tally[(a, b)] = tally.get((a, b), 0) + 1
    assert list(co.pair_counts.items()) == sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
    assert co.max_pair == next(iter(co.pair_counts.items()))
    assert all(type(count) is int for count in co.pair_counts.values())
    assert co.diagonal == {
        v: sum(1 for c in report.cliques if v in c)
        for v in g.nicks
        if any(v in c for c in report.cliques)
    }


def test_comembership_of_no_cliques_is_empty():
    co = clique_comembership(CliqueReport(("a", "b"), (), 3, 0))
    assert (co.pair_counts, co.diagonal, co.max_pair) == ({}, {}, None)


def moon_moser_graph(parts):
    # Complete multipartite graph with parts of three: 3**parts maximal
    # cliques, the most any graph on 3 * parts nodes has.
    part = [v // 3 for v in range(3 * parts)]
    return undirected_of(
        3 * parts,
        [(u, v) for u, v in itertools.combinations(range(3 * parts), 2) if part[u] != part[v]],
    )


def test_clique_budget_stops_enumeration(monkeypatch):
    g = moon_moser_graph(6)
    monkeypatch.setattr(cohesion, "MAX_CLIQUES", 3**6)
    assert maximal_cliques(g, min_size=1).count == 3**6
    monkeypatch.setattr(cohesion, "MAX_CLIQUES", 3**6 - 1)
    with pytest.raises(ValueError, match="more than 728 maximal cliques"):
        maximal_cliques(g, min_size=1)
    # cliques below min_size count against the budget too
    with pytest.raises(ValueError, match="more than 728 maximal cliques"):
        maximal_cliques(g, min_size=7)


def test_clique_budget_fails_the_cliques_stage(tmp_path, monkeypatch):
    u = moon_moser_graph(5)
    path = tmp_path / "moon-moser.csv"
    edges = [(u.nicks[a], u.nicks[b], w) for a, b, w in u.edges()]
    write_graph_csv(MentionGraph.from_edge_list(edges), path)
    cfg = AnalysisConfig(graph_path=str(path), analyses=("stats", "cliques"))
    text = run_pipeline(cfg).to_json_text()
    assert '"count": 243' in text
    assert "max_cliques" not in text.lower()
    monkeypatch.setattr(cohesion, "MAX_CLIQUES", 100)
    with pytest.raises(PipelineError, match="more than 100 maximal cliques") as info:
        run_pipeline(cfg)
    assert info.value.stage == "cliques"


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_clique_search_is_not_bounded_by_the_recursion_limit():
    # a clique of k members is k branches deep; the search must not nest
    # one Python call per branch
    g = undirected_of(80, list(itertools.combinations(range(80), 2)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 60)
    try:
        report = maximal_cliques(g, min_size=3)
    finally:
        sys.setrecursionlimit(limit)
    assert (report.count, report.max_clique_size) == (1, 80)
    assert report.members == (tuple(range(80)),)


def test_report_path_names_no_clique_members(data_dir, monkeypatch):
    cfg = AnalysisConfig(graph_path=str(data_dir / "graph.golden.csv"), analyses=("cliques",))
    expected = run_pipeline(cfg).to_json_text()
    assert '"top_comembership": [\n' in expected

    def refuse(self):
        raise AssertionError("clique members were named")

    monkeypatch.setattr(CliqueReport, "cliques", property(refuse))
    assert run_pipeline(cfg).to_json_text() == expected


def test_participation_members_score_one(fixture_undirected):
    report = maximal_cliques(fixture_undirected, min_size=3)
    scores = clique_participation(report, fixture_undirected)
    for idx, clique in enumerate(report.cliques):
        for member in clique:
            assert scores[(member, idx)] == 1.0


def test_participation_zero_when_unadjacent():
    g = UndirectedView.from_edge_list(
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)],
        extra_nodes=["z"],
    )
    report = maximal_cliques(g, min_size=3)
    scores = clique_participation(report, g)
    assert scores[("z", 0)] == 0.0


def test_participation_half_adjacent():
    # clique of four; outsider adjacent to exactly two members
    edges = [("a", "b", 1), ("a", "c", 1), ("a", "d", 1),
             ("b", "c", 1), ("b", "d", 1), ("c", "d", 1),
             ("out", "a", 1), ("out", "b", 1)]
    g = UndirectedView.from_edge_list(edges)
    report = maximal_cliques(g, min_size=4)
    assert report.cliques == (("a", "b", "c", "d"),)
    scores = clique_participation(report, g)
    assert scores[("out", 0)] == 0.5


def test_participation_matches_adjacency_scan():
    rng = random.Random(59)
    n = 120
    edges = random_ugraph(rng, n, 0.1)
    g = undirected_of(n, edges)
    report = maximal_cliques(g, min_size=2)
    assert report.max_clique_size >= 4
    scores = clique_participation(report, g)
    assert list(scores) == [
        (nick(v), idx) for v in range(n) for idx in range(len(report.cliques))
    ]
    for idx, clique in enumerate(report.cliques):
        members = [g.id_of(x) for x in clique]
        for v in range(n):
            others = [q for q in members if q != v]
            expected = (
                1.0
                if v in members
                else sum(1 for q in others if g.weight(v, q) > 0) / len(others)
            )
            assert scores[(nick(v), idx)] == expected


def test_singleton_clique_participation():
    g = undirected_of(2, [])
    report = maximal_cliques(g, min_size=1)
    scores = clique_participation(report, g)
    assert scores[(nick(0), 0)] == 1.0  # own singleton clique
    assert scores[(nick(1), 0)] == 0.0


def test_ego_star_center():
    g = MentionGraph.from_edge_list(
        [("l1", "hub", 1), ("l2", "hub", 1), ("l3", "hub", 1)]
    )
    net = ego_network(g, "hub")
    assert net.alters == frozenset({"l1", "l2", "l3"})
    assert net.size == 4
    assert net.graph.edge_count == 3


def test_ego_star_leaf():
    g = MentionGraph.from_edge_list(
        [("l1", "hub", 1), ("l2", "hub", 1), ("l3", "hub", 1)]
    )
    net = ego_network(g, "l1")
    assert net.alters == frozenset({"hub"})
    assert net.size == 2
    assert net.graph.edge_count == 1
    assert net.density == pytest.approx(0.5)


def test_ego_matches_edge_filter_oracle(fixture_graph):
    for ego in fixture_graph.nicks:
        net = ego_network(fixture_graph, ego)
        members = net.alters | {ego}
        expected = sorted(
            (a, b, w)
            for a, b, w in fixture_graph.edges_by_nick()
            if a in members and b in members
        )
        assert sorted(net.graph.edges_by_nick()) == expected
        k = len(members)
        assert net.density == (
            len(expected) / (k * (k - 1)) if k > 1 else 0.0
        )


def test_ego_unknown_actor(fixture_graph):
    with pytest.raises(ValueError, match="nobody"):
        ego_network(fixture_graph, "nobody")


def test_fixture_clique_is_the_triangle(fixture_undirected):
    report = maximal_cliques(fixture_undirected, min_size=3)
    assert report.cliques == (("alice", "bob", "carol"),)
