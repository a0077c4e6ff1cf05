import itertools
import random
import tracemalloc

import numpy as np
import pytest

from chatnet import equivalence
from chatnet.equivalence import (
    CASE_CHARACTERISTICS,
    _partner_classes,
    _row_classes,
    _slot_keys,
    _slots,
    classify_roles,
    high_eq_tie_fraction,
    rege,
)
from chatnet.graph import MentionGraph
from chatnet.report import AnalysisConfig, PipelineError, run_pipeline
from chatnet.skeleton import SkeletonPartition, abcd_skeleton

from oracles import rege_reference
from synth import (
    as_mention_graph,
    binarized,
    nick,
    preferential_attachment_graph,
    random_digraph,
)

# fixed 5-node weighted digraph exercising asymmetric weights and reciprocity
FIVE_NODE_EDGES = [
    ("a", "b", 3), ("b", "a", 1),
    ("a", "c", 2),
    ("c", "d", 4), ("d", "c", 1),
    ("e", "a", 5), ("b", "e", 2),
]


def five_node_graph():
    return MentionGraph.from_edge_list(FIVE_NODE_EDGES)


def weighed(g, weighted):
    # rege reads the weights as stored; an unweighted case takes a binarized copy
    return g if weighted else binarized(g)


def reference_matrix(g, iterations, weighted=True):
    weights = {}
    for u, v, w in g.edges():
        weights[(u, v)] = float(w) if weighted else 1.0

    def weight_of(i, j):
        return weights.get((i, j), 0.0)

    return rege_reference(g.node_count, weight_of, iterations)


def test_star_leaves_fully_equivalent():
    edges = [(f"leaf{i}", "hub", 1) for i in range(1, 5)]
    g = MentionGraph.from_edge_list(edges)
    for iterations in (1, 2, 3, 5):
        matrix = rege(g, iterations)
        for a, b in itertools.combinations([f"leaf{i}" for i in range(1, 5)], 2):
            assert matrix.value(a, b) == pytest.approx(1.0, abs=1e-15)


def test_isolate_conventions():
    g = MentionGraph.from_edge_list([("a", "b", 1)], extra_nodes=["x", "y"])
    matrix = rege(g, 3)
    assert matrix.value("x", "y") == 1.0
    assert matrix.value("x", "a") == 0.0
    assert matrix.value("x", "x") == 1.0
    with pytest.raises(KeyError, match="unknown node 'nobody'"):
        matrix.value("x", "nobody")


def test_five_node_fixture_matches_literal_reference():
    g = five_node_graph()
    for iterations in (1, 2, 3):
        matrix = rege(g, iterations)
        expected = reference_matrix(g, iterations)
        for i in range(g.node_count):
            for j in range(g.node_count):
                assert abs(matrix.values[i, j] - expected[(i, j)]) <= 1e-12


def test_matrix_properties_random_graphs():
    rng = random.Random(91)
    for _ in range(25):
        n = rng.randrange(1, 8)
        edges = random_digraph(rng, n, 0.3)
        weights = [rng.randint(1, 5) for _ in edges]
        g = as_mention_graph(n, edges, weights)
        matrix = rege(g, 3).values
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 1.0)
        assert np.all(matrix >= 0.0)
        assert np.all(matrix <= 1.0)


def test_automorphic_images_score_one():
    # two parallel chains from a shared source: swapping them is an automorphism
    edges = [
        ("src", "mid1", 2), ("mid1", "end1", 3),
        ("src", "mid2", 2), ("mid2", "end2", 3),
    ]
    g = MentionGraph.from_edge_list(edges)
    for iterations in (1, 2, 3, 4):
        matrix = rege(g, iterations)
        assert matrix.value("mid1", "mid2") == pytest.approx(1.0, abs=1e-15)
        assert matrix.value("end1", "end2") == pytest.approx(1.0, abs=1e-15)


def test_label_permutation_invariance():
    rng = random.Random(92)
    edges = random_digraph(rng, 6, 0.4)
    weights = [rng.randint(1, 4) for _ in edges]
    g = as_mention_graph(6, edges, weights)
    base = rege(g, 3)
    # relabel nodes by reversing nick order; values must follow the relabeling
    mapping = {nick(v): nick(5 - v) for v in range(6)}
    permuted = MentionGraph.from_edge_list(
        [(mapping[a], mapping[b], w) for a, b, w in g.edges_by_nick()],
        extra_nodes=list(mapping.values()),
    )
    other = rege(permuted, 3)
    for a in g.nicks:
        for b in g.nicks:
            assert other.value(mapping[a], mapping[b]) == pytest.approx(
                base.value(a, b), abs=1e-15
            )


def test_weight_scale_invariance():
    g = five_node_graph()
    base = rege(g, 3).values
    for c in (0.5, 3):
        scaled = MentionGraph.from_edge_list(
            [(a, b, w * c) for a, b, w in FIVE_NODE_EDGES]
        )
        assert np.allclose(rege(scaled, 3).values, base, atol=1e-15)


def test_rege_validates_iterations():
    with pytest.raises(ValueError):
        rege(five_node_graph(), 0)


def test_empty_graph():
    matrix = rege(MentionGraph([], {}), 3)
    assert matrix.values.shape == (0, 0)


def medium_digraph(seed):
    # 15 to 40 nodes with a few isolates scattered over the id range;
    # weights are integral, halves or quarters depending on the seed.
    rng = random.Random(seed)
    n = (15, 24, 32, 40)[seed % 4]
    step = (1, 0.5, 0.25)[seed % 3]
    connected = sorted(rng.sample(range(n), n - rng.randint(1, 3)))
    edges = [
        (connected[a], connected[b])
        for a, b in random_digraph(rng, len(connected), 3.0 / n)
    ]
    weights = [rng.randint(1, 12) * step for _ in edges]
    return as_mention_graph(n, edges, weights)


@pytest.mark.parametrize("iterations", [1, 3])
@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_medium_graphs_match_literal_reference(seed, weighted, iterations):
    g = medium_digraph(seed)
    matrix = rege(weighed(g, weighted), iterations).values
    expected = reference_matrix(g, iterations, weighted)
    reference = np.array(
        [[expected[(i, j)] for j in range(g.node_count)] for i in range(g.node_count)]
    )
    assert np.abs(matrix - reference).max() <= 1e-12


def twin_heavy_digraph(seed):
    # 20 to 40 nodes built from interchangeable parts: pendants hung on a
    # few hubs with repeated weights, equal chains out of one node, and
    # twins that copy every tie of an earlier node, so rows of E stay equal
    # after the first round.
    rng = random.Random(seed)
    size = rng.randint(20, 40)
    core = rng.randint(4, 7)
    ties = {edge: rng.choice((1, 2)) for edge in random_digraph(rng, core, 0.4)}
    v = core
    for hub in range(rng.randint(2, 3)):
        for _ in range(rng.randint(3, 5)):
            ties[(v, hub)] = rng.choice((1, 2))
            if rng.random() < 0.3:
                ties[(hub, v)] = 1
            v += 1
    # two or three equal chains out of one core node: alike nodes whose
    # rows of E can still differ, which a too-coarse class would merge
    fork, (w1, w2) = rng.randrange(core), (rng.choice((1, 2)), rng.choice((1, 3)))
    for _ in range(rng.randint(2, 3)):
        ties[(fork, v)] = w1
        ties[(v, v + 1)] = w2
        v += 2
    n = max(size, v + 5)  # at least four twins
    while v < n - 1:
        original = rng.randrange(v)
        for (a, b), w in list(ties.items()):
            if a == original:
                ties[(v, b)] = w
            elif b == original:
                ties[(a, v)] = w
        v += 1
    # node n - 1 stays isolated
    edges = sorted(ties)
    return as_mention_graph(n, edges, [ties[e] for e in edges])


@pytest.mark.parametrize("iterations", [1, 2, 3])
@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_merged_classes_match_literal_reference(seed, weighted, iterations):
    g = twin_heavy_digraph(seed)
    n = g.node_count
    # each twin's row of E equals its original's after two rounds, so the
    # third round scores one key for several slots
    assert len(np.unique(rege(weighed(g, weighted), 2).values, axis=0)) <= n - 4
    matrix = rege(weighed(g, weighted), iterations).values
    expected = reference_matrix(g, iterations, weighted)
    reference = np.array([[expected[(i, j)] for j in range(n)] for i in range(n)])
    assert np.abs(matrix - reference).max() <= 1e-12


def test_row_classes_are_exact_row_equality():
    # rows 0 and 1 are permutations of each other and row 2 has their sum;
    # only the copies of row 0 and of the zero row share a class
    E = np.array([
        [1.0, 0.5, 0.25, 0.0],
        [0.5, 1.0, 0.25, 0.0],
        [0.25, 0.5, 1.0, 0.0],
        [1.0, 0.5, 0.25, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    assert _row_classes(E).tolist() == [0, 1, 2, 0, 3, 3]
    assert _row_classes(np.ones((1, 1))).tolist() == [0]
    assert _row_classes(np.full((4, 4), 0.5)).tolist() == [0, 0, 0, 0]
    # rows equal as numbers but not as bytes keep apart
    E = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
    assert _row_classes(E).tolist() == [0, 1, 0]
    # copies of a few random rows, against pairwise byte equality
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        distinct = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], size=(int(rng.integers(1, n + 1)), n))
        rows = [row.tobytes() for row in distinct[rng.integers(0, len(distinct), size=n)]]
        E = np.frombuffer(b"".join(rows)).reshape(n, n)
        expected = [next(c for c in range(n) if rows[c] == row) for row in rows]
        firsts = sorted(set(expected))
        assert _row_classes(E).tolist() == [firsts.index(c) for c in expected]


@pytest.mark.parametrize("make_graph", [medium_digraph, twin_heavy_digraph])
@pytest.mark.parametrize("seed", range(4))
def test_matrix_is_exactly_symmetric(make_graph, seed):
    # The kernel reads E[k, m] from row m; that is only exact while E == E.T.
    g = make_graph(seed)
    for weighted in (True, False):
        for iterations in (1, 2, 3):
            matrix = rege(weighed(g, weighted), iterations).values
            assert (matrix == matrix.T).all()


def shared_key_digraph(seed):
    # Fans that each mention one to three of a few hubs, all at one weight
    # per fan: many partners carry the same key set in the first round
    # without being twins, so their rows part ways in the second.
    rng = random.Random(seed)
    hubs = rng.randint(3, 6)
    n = rng.randint(30, 60)
    ties = {}
    for fan in range(hubs, n - 2):  # the last two nodes stay isolated
        w = rng.choice((1, 2))
        for hub in rng.sample(range(hubs), rng.randint(1, 3)):
            ties[(fan, hub)] = w
            if rng.random() < 0.2:
                ties[(hub, fan)] = w
    for a, b in random_digraph(rng, hubs, 0.3):
        ties[(a, b)] = rng.choice((1, 3))
    edges = sorted(ties)
    return as_mention_graph(n, edges, [ties[e] for e in edges])


def several_components(seed):
    # A twin-heavy, a shared-key and a medium graph side by side, with
    # their isolates.
    parts = [twin_heavy_digraph(seed), shared_key_digraph(seed + 10), medium_digraph(seed)]
    edges, weights, offset = [], [], 0
    for part in parts:
        for u, v, w in part.edges():
            edges.append((u + offset, v + offset))
            weights.append(w)
        offset += part.node_count
    return as_mention_graph(offset, edges, weights)


def assert_tie_values_match_rege(g, iterations, weighted):
    # One rege result, its last round run both ways: at the ties, as the
    # roles section reads it, and over every pair for values.
    g = weighed(g, weighted)
    matrix = rege(g, iterations)
    rows, ks, values = matrix._ties()
    assert "values" not in vars(matrix)  # the tie path builds no n x n matrix
    _, slot_rows, slot_ks, _, _ = _slots(g)
    assert rows.tolist() == slot_rows.tolist()
    assert ks.tolist() == slot_ks.tolist()
    assert values.tobytes() == matrix.values[rows, ks].tobytes()
    for threshold in (0.25, 0.5, 0.75):
        assert_tie_fractions_match_tally(g, matrix, threshold)


def first_round_partner_classes(g, weighted):
    # rege(g, 1) holds the setup and the one class of the all-ones start.
    matrix = rege(weighed(g, weighted), 1)
    inverse, _, _ = _slot_keys(matrix._classes, matrix._setup)
    return len(set(_partner_classes(inverse, matrix._setup)))


@pytest.mark.parametrize("iterations", [1, 2, 3, 4])
@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize(
    "make_graph", [medium_digraph, twin_heavy_digraph, shared_key_digraph, several_components]
)
@pytest.mark.parametrize("seed", range(3))
def test_tie_values_equal_rege_at_every_slot(make_graph, seed, weighted, iterations):
    assert_tie_values_match_rege(make_graph(seed), iterations, weighted)


@pytest.mark.parametrize("seed", range(3))
def test_shared_key_graphs_merge_partners(seed):
    # The graphs above do reach the copied-row path, in both modes.
    g = shared_key_digraph(seed)
    for weighted in (True, False):
        assert first_round_partner_classes(g, weighted) <= g.node_count // 3


def test_tie_values_equal_rege_on_the_scale_graph():
    # The criterion-10 graph: 2,400 nodes, of which 1,440 partner classes
    # are scored in the first round.
    g = preferential_attachment_graph(2400, 9400, seed=7)
    assert first_round_partner_classes(g, True) == 1440
    assert_tie_values_match_rege(g, 3, True)


def test_memory_stays_below_five_dense_matrices():
    # Three full rounds keep at most four n x n float64 matrices alive at once.
    rng = random.Random(94)
    n = 800
    edges = random_digraph(rng, n, 2.0 / n)
    g = as_mention_graph(n, edges, [rng.randint(1, 4) for _ in edges])
    tracemalloc.start()
    try:
        rege(g, 3).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n * n * 8


def test_tie_values_peak_no_higher_than_rege():
    # The roles section's path (the last round at the ties, then fractions)
    # against three full rounds.
    rng = random.Random(94)
    n = 800
    edges = random_digraph(rng, n, 2.0 / n)
    g = as_mention_graph(n, edges, [rng.randint(1, 4) for _ in edges])

    def peak_of(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def roles_path():
        high_eq_tie_fraction(g, rege(g, 3), 0.5)

    rege_peak = peak_of(lambda: rege(g, 3).values)
    assert peak_of(roles_path) <= rege_peak


def test_memory_guard_refuses_before_any_dense_matrix(monkeypatch):
    rng = random.Random(95)
    n = 300
    edges = random_digraph(rng, n, 2.0 / n)
    g = as_mention_graph(n, edges)
    estimate = 4 * n * n * 8
    monkeypatch.setattr(equivalence, "REGE_MEMORY_LIMIT", estimate - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"REGE on {n} nodes needs about {estimate} bytes"):
            rege(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    monkeypatch.setattr(equivalence, "REGE_MEMORY_LIMIT", estimate)
    assert rege(g, 1).values.shape == (n, n)


def test_memory_guard_fails_the_roles_stage(fixture_files, monkeypatch):
    monkeypatch.setattr(equivalence, "REGE_MEMORY_LIMIT", 1)
    cfg = AnalysisConfig(log_paths=tuple(path for path, _ in fixture_files))
    with pytest.raises(PipelineError, match="over the limit of 1 bytes") as info:
        run_pipeline(cfg)
    assert info.value.stage == "roles"


def test_tie_fraction_all_high():
    # a reciprocal pair with equal weights is fully equivalent, so each
    # node's single tie qualifies and the fraction is exactly 1
    g = MentionGraph.from_edge_list([("a", "b", 2), ("b", "a", 2)])
    matrix = rege(g, 3)
    assert matrix.value("a", "b") == 1.0
    fractions = high_eq_tie_fraction(g, matrix, 0.5)
    assert fractions == {"a": 1.0, "b": 1.0}


def test_tie_fraction_isolated_node_is_zero():
    g = MentionGraph.from_edge_list([("a", "b", 1)], extra_nodes=["z"])
    matrix = rege(g, 3)
    assert high_eq_tie_fraction(g, matrix, 0.5)["z"] == 0.0


def assert_tie_fractions_match_tally(g, matrix, threshold):
    fractions = high_eq_tie_fraction(g, matrix, threshold)
    assert list(fractions) == list(g.nicks)
    for v in range(g.node_count):
        neighbors = set(g.out_neighbors(v)) | set(g.in_neighbors(v))
        expected = (
            sum(1 for w in neighbors if matrix.values[v, w] > threshold) / len(neighbors)
            if neighbors
            else 0.0
        )
        assert fractions[g.nicks[v]] == expected


def test_tie_fraction_matches_hand_tally(fixture_graph):
    assert_tie_fractions_match_tally(fixture_graph, rege(fixture_graph, 3), 0.5)


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_tie_fraction_matches_tally_on_medium_graphs(seed, weighted):
    g = medium_digraph(seed)
    g = weighed(g, weighted)
    matrix = rege(g, 3)
    for threshold in (0.25, 0.5, 0.75):
        assert_tie_fractions_match_tally(g, matrix, threshold)


def test_tie_fraction_threshold_validation(fixture_graph):
    matrix = rege(fixture_graph, 1)
    with pytest.raises(ValueError):
        high_eq_tie_fraction(fixture_graph, matrix, 0.0)
    with pytest.raises(ValueError):
        high_eq_tie_fraction(fixture_graph, matrix, 1.0)


def partition_of(members_by_label):
    label = {}
    for name, members in members_by_label.items():
        for member in members:
            label[member] = name
    return SkeletonPartition(label)


def test_classify_all_high_is_case1():
    p = partition_of({"A": ["x", "y", "z"]})
    report = classify_roles(p, {"x": 0.8, "y": 0.8, "z": 0.8})
    case = report.components["A"]
    assert case.mean_tie_fraction == pytest.approx(0.8)
    assert case.people_fraction == 1.0
    assert case.case == "case1"
    assert "Most redundancy, Least chaos" in case.characteristics


def test_classify_all_zero_is_case4():
    p = partition_of({"B": ["x", "y"]})
    report = classify_roles(p, {"x": 0.0, "y": 0.0})
    case = report.components["B"]
    assert case.mean_tie_fraction == 0.0
    assert case.people_fraction == 0.0
    assert case.case == "case4"


def test_classify_boundary_mix_is_case1():
    p = partition_of({"D": ["p", "q", "r", "s"]})
    report = classify_roles(p, {"p": 0.1, "q": 0.1, "r": 0.9, "s": 0.9})
    case = report.components["D"]
    assert case.mean_tie_fraction == pytest.approx(0.5)
    assert case.people_fraction == pytest.approx(0.5)
    assert case.case == "case1"


def test_classify_case2_and_case3():
    p = partition_of({"A": ["a", "b", "c"], "C": ["x", "y"]})
    fractions = {"a": 0.9, "b": 0.1, "c": 0.1, "x": 0.35, "y": 0.25}
    # A: T=0.3666>0.3, P=1/3<0.5 -> case2; C: T=0.3<=0.3, P=1/2>=0.5 -> case3
    report = classify_roles(p, fractions)
    assert report.components["A"].case == "case2"
    assert report.components["C"].case == "case3"


def test_classify_empty_component_marker():
    p = partition_of({"A": ["only"]})
    report = classify_roles(p, {"only": 0.4})
    assert report.components["B"].empty
    assert report.components["B"].case is None
    assert not report.components["A"].empty


def test_classify_monotone_in_fractions():
    rng = random.Random(93)
    order = {"case1": 1, "case2": 2, "case3": 3, "case4": 4}
    members = [f"m{i}" for i in range(6)]
    p = partition_of({"D": members})
    for _ in range(200):
        base = {m: rng.random() for m in members}
        bumped = {m: min(1.0, v + rng.random() * (1 - v)) for m, v in base.items()}
        low = classify_roles(p, base).components["D"].case
        high = classify_roles(p, bumped).components["D"].case
        assert order[high] <= order[low]


def test_classification_against_fixture_pipeline(fixture_graph):
    partition = abcd_skeleton(fixture_graph)
    matrix = rege(fixture_graph, 3)
    fractions = high_eq_tie_fraction(fixture_graph, matrix, 0.5)
    report = classify_roles(partition, fractions)
    for name, case in report.components.items():
        if case.empty:
            continue
        assert case.characteristics == CASE_CHARACTERISTICS[case.case]
