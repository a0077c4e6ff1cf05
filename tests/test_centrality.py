import random

import numpy as np
import pytest

from chatnet.centrality import degree_centrality, hits, ranked
from chatnet.graph import MentionGraph

from oracles import hits_eigen_oracle
from synth import as_mention_graph, nick, random_digraph


def test_single_edge_fixed_point():
    g = MentionGraph.from_edge_list([("a", "b", 1)])
    scores = hits(g)
    assert scores.converged
    assert scores.hub["a"] == pytest.approx(1.0)
    assert scores.authority["b"] == pytest.approx(1.0)
    assert scores.hub["b"] == 0.0
    assert scores.authority["a"] == 0.0


def test_directed_cycle_symmetry():
    g = as_mention_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    scores = hits(g)
    hub_values = list(scores.hub.values())
    auth_values = list(scores.authority.values())
    assert max(hub_values) - min(hub_values) < 1e-12
    assert max(auth_values) - min(auth_values) < 1e-12


def test_matches_dense_eigen_oracle():
    rng = random.Random(83)
    for _ in range(25):
        edges = random_digraph(rng, 8, 0.35)
        if not edges:
            continue
        g = as_mention_graph(8, edges)
        scores = hits(g)
        expected_auth, expected_hub = hits_eigen_oracle(8, edges)
        got = np.array([scores.authority[nick(v)] for v in range(8)])
        assert np.max(np.abs(got - expected_auth)) <= 1e-8
        got_hub = np.array([scores.hub[nick(v)] for v in range(8)])
        assert np.max(np.abs(got_hub - expected_hub)) <= 1e-8


def test_zero_indegree_zero_authority():
    rng = random.Random(9)
    for _ in range(20):
        edges = random_digraph(rng, 7, 0.3)
        g = as_mention_graph(7, edges)
        scores = hits(g)
        for v in range(7):
            if not g.in_neighbors(v):
                assert scores.authority[nick(v)] == 0.0


def test_edgeless_graph_zero_fixed_point():
    g = MentionGraph(["a", "b"], {})
    scores = hits(g)
    assert scores.converged
    assert scores.iterations_used == 0
    assert set(scores.authority.values()) == {0.0}


def test_empty_graph():
    scores = hits(MentionGraph([], {}))
    assert scores.authority == {}
    assert scores.converged


def test_unit_norm_with_edges(fixture_graph):
    scores = hits(fixture_graph)
    assert np.linalg.norm(list(scores.authority.values())) == pytest.approx(1.0)
    assert np.linalg.norm(list(scores.hub.values())) == pytest.approx(1.0)
    assert all(v >= 0 for v in scores.authority.values())
    assert all(v >= 0 for v in scores.hub.values())


def test_unweighted_scores_ignore_weight_scaling(fixture_graph):
    scaled = MentionGraph.from_edge_list(
        [(a, b, w * 7) for a, b, w in fixture_graph.edges_by_nick()]
    )
    base = hits(fixture_graph)
    other = hits(scaled)
    assert base.authority == other.authority
    assert base.hub == other.hub


def test_weighted_ranking_scale_invariant(fixture_graph):
    scaled = MentionGraph.from_edge_list(
        [(a, b, w * 3) for a, b, w in fixture_graph.edges_by_nick()]
    )
    base = hits(fixture_graph, weighted=True)
    other = hits(scaled, weighted=True)
    assert [n for n, _ in ranked(base.authority)] == [
        n for n, _ in ranked(other.authority)
    ]
    assert [n for n, _ in ranked(base.hub)] == [n for n, _ in ranked(other.hub)]


def test_hits_deterministic(fixture_graph):
    first = hits(fixture_graph)
    second = hits(fixture_graph)
    assert first == second


def test_hits_parameter_validation(fixture_graph):
    for tolerance in (0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            hits(fixture_graph, tolerance=tolerance)
    with pytest.raises(ValueError):
        hits(fixture_graph, max_iterations=0)


def test_degree_star_center():
    g = MentionGraph.from_edge_list(
        [("leaf1", "hub", 1), ("leaf2", "hub", 1), ("leaf3", "hub", 1)]
    )
    degrees = degree_centrality(g)
    assert degrees["hub"].indegree == 3
    assert degrees["hub"].outdegree == 0


def test_degree_isolated_node():
    g = MentionGraph(["solo"], {})
    assert degree_centrality(g)["solo"] == (0, 0, 0, 0)


def test_degree_matches_edge_scan(fixture_graph):
    degrees = degree_centrality(fixture_graph)
    expected = {n: [0, 0, 0.0, 0.0] for n in fixture_graph.nicks}
    for a, b, w in fixture_graph.edges_by_nick():
        expected[a][1] += 1
        expected[a][3] += w
        expected[b][0] += 1
        expected[b][2] += w
    for n, (indeg, outdeg, win, wout) in expected.items():
        assert degrees[n] == (indeg, outdeg, win, wout)


def test_ranked_breaks_ties_lexicographically():
    ordering = ranked({"b": 1.0, "a": 1.0, "c": 2.0})
    assert ordering == [("c", 2.0), ("a", 1.0), ("b", 1.0)]
