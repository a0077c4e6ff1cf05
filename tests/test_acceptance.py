"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import contextlib
import itertools
import json
import random
import time

import numpy as np
import pytest

from chatnet.centrality import hits
from chatnet.cohesion import clique_comembership, clique_participation, maximal_cliques
from chatnet.connectivity import (
    articulation_points_and_blocks,
    edge_connectivity,
    gomory_hu,
    lambda_sets,
)
from chatnet.equivalence import classify_roles, rege
from chatnet.graph import extract_network, to_undirected, write_graph_csv
from chatnet.ingest import ChatCorpus, FileStats, build_roster, parse_line
from chatnet.report import AnalysisConfig, load_report_schema, run_pipeline
from chatnet.skeleton import SkeletonPartition, abcd_skeleton, bowtie, link_matrix

from oracles import (
    all_pairs_min_cut,
    bowtie_oracle,
    cliques_oracle,
    cutpoints_oracle,
    hits_eigen_oracle,
    rege_reference,
    scc_oracle,
)
from synth import (
    as_mention_graph,
    as_undirected,
    ids_of,
    nick,
    preferential_attachment_graph,
    random_digraph,
    random_ugraph,
)


@contextlib.contextmanager
def criterion(number, title, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        in_budget = budget is None or elapsed < budget
        status = "PASS" if ok and in_budget else "FAIL"
        note = f"{elapsed:.2f}s" + (f" (budget {budget}s)" if budget else "")
        print(f"[acceptance] criterion {number:2d} {title}: {status} {note}")
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded budget {budget}s"


def test_criterion_1_parser_fidelity():
    with criterion(1, "parser fidelity on the sample conversation", budget=1.0):
        lines = (
            "[08:43] <mdz> lifeless: ok, it sounds like you're agreeing with me, then",
            "[08:45] <fabbione> mdz: i think we could import the old comments via "
            "rsync, but from there we need to go via email. I think it is easier "
            "than caching the status on each bug and than import bits here and there",
        )
        import datetime as dt

        day = dt.date(2011, 6, 2)
        messages = tuple(parse_line(line, day) for line in lines)
        assert all(messages)
        corpus = ChatCorpus(
            messages, (FileStats("sample", day, len(messages), 0, len(messages)),)
        )
        roster = build_roster(corpus, prior_nicks=("lifeless",))
        g = extract_network(corpus, roster)
        assert sorted(g.edges_by_nick()) == [
            ("fabbione", "mdz", 1),
            ("mdz", "lifeless", 1),
        ]


def test_criterion_2_bowtie_oracle_equivalence():
    with criterion(2, "bow-tie equals transitive-closure oracle (500 digraphs)", budget=10.0):
        rng = random.Random(2001)
        for _ in range(500):
            n = rng.randrange(1, 8)
            edges = random_digraph(rng, n, 0.25)
            g = as_mention_graph(n, edges)
            partition = bowtie(g)
            expected_label, expected_core = bowtie_oracle(n, edges)
            got = {g.id_of(name): lab for name, lab in partition.label.items()}
            assert got == expected_label
            assert ids_of(g, partition.core) == expected_core


def test_criterion_3_skeleton_structural_properties():
    with criterion(3, "skeleton properties on 500 digraphs"):
        rng = random.Random(3001)
        for _ in range(500):
            n = rng.randrange(1, 8)
            edges = random_digraph(rng, n, 0.25)
            g = as_mention_graph(n, edges)
            partition = abcd_skeleton(g)
            # exhaustive and disjoint: a total single-label map over all nodes
            assert set(partition.label) == set(g.nicks)
            a_members = ids_of(g, partition.members("A"))
            relabel = {v: i for i, v in enumerate(sorted(a_members))}
            comps = scc_oracle(
                len(a_members),
                [
                    (relabel[u], relabel[v])
                    for u, v in edges
                    if u in a_members and v in a_members
                ],
            )
            assert len(comps) == 1
            b_members = ids_of(g, partition.members("B"))
            c_members = ids_of(g, partition.members("C"))
            assert not any(u in c_members and v in c_members for u, v in edges)
            assert not any(u in b_members and v in b_members for u, v in edges)
            assert link_matrix(g, partition).total == len(edges)


def test_criterion_4_clique_oracle_equivalence():
    with criterion(4, "cliques equal subset-enumeration oracle (100 graphs)", budget=60.0):
        rng = random.Random(4001)
        for _ in range(100):
            n = 12
            edges = random_ugraph(rng, n, 0.5)
            g = as_undirected(n, [(u, v, 1) for u, v in edges])
            adj = [set() for _ in range(n)]
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            report = maximal_cliques(g, min_size=1)
            expected = cliques_oracle(n, adj, min_size=1)
            assert {ids_of(g, c) for c in report.cliques} == expected
            co = clique_comembership(report)
            for a in range(n):
                for b in range(a, n):
                    tally = sum(1 for c in expected if a in c and b in c)
                    assert co.count(nick(a), nick(b)) == tally
            participation = clique_participation(report, g)
            for idx, clique in enumerate(report.cliques):
                members = {g.id_of(x) for x in clique}
                for v in range(n):
                    others = members - {v}
                    expected_score = (
                        1.0
                        if v in members
                        else sum(1 for q in others if q in adj[v]) / len(others)
                    )
                    assert participation[(nick(v), idx)] == expected_score


def test_criterion_5_blocks_cutpoints_oracle():
    with criterion(5, "cutpoints equal removal oracle, blocks cover m (500 graphs)"):
        rng = random.Random(5001)
        for _ in range(500):
            n = rng.randrange(1, 11)
            edges = random_ugraph(rng, n, 0.3)
            g = as_undirected(n, [(u, v, 1) for u, v in edges])
            report = articulation_points_and_blocks(g)
            adj = [set() for _ in range(n)]
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            assert ids_of(g, report.cutpoints) == frozenset(cutpoints_oracle(n, adj))
            covered = 0
            for block in report.blocks:
                ids = {g.id_of(x) for x in block}
                covered += sum(1 for u, v, _ in g.edges() if u in ids and v in ids)
            assert covered == g.edge_count


def test_criterion_6_gomory_hu_exactness():
    with criterion(6, "cut tree exact, lambda sets satisfy inequality (100 graphs)", budget=30.0):
        rng = random.Random(6001)
        for _ in range(100):
            n = rng.randrange(2, 11)
            raw = random_ugraph(rng, n, 0.35)
            weighted = [(u, v, rng.randint(1, 6)) for u, v in raw]
            g = as_undirected(n, weighted)
            tree = gomory_hu(g, "weighted")
            for a in range(n):
                for b in range(a + 1, n):
                    direct = edge_connectivity(g, nick(a), nick(b), "weighted")
                    assert tree.lambda_between(nick(a), nick(b)) == direct
                    assert float(direct).is_integer()
            # lambda sets (unit capacities) against the exhaustive-cut oracle
            lam = all_pairs_min_cut(n, [(u, v, 1) for u, v in raw])
            for members in lambda_sets(g, "unit").all_sets():
                ids = sorted(g.id_of(x) for x in members)
                component = [d for d in range(n) if d in ids or lam[ids[0], d] > 0]
                inside = min(lam[a, b] for a, b in itertools.combinations(ids, 2))
                outside = [lam[c, d] for c in ids for d in component if d not in ids]
                if outside:
                    assert inside > max(outside)


def test_criterion_7_hits_numerical_check():
    with criterion(7, "hub/authority match the dense eigen oracle (100 digraphs)"):
        rng = random.Random(7001)
        checked = 0
        while checked < 100:
            edges = random_digraph(rng, 8, 0.3)
            if not edges:
                continue
            checked += 1
            g = as_mention_graph(8, edges)
            scores = hits(g)
            expected_auth, _ = hits_eigen_oracle(8, edges)
            got = np.array([scores.authority[nick(v)] for v in range(8)])
            assert np.max(np.abs(got - expected_auth)) <= 1e-8
        # trivial fixed points are exact
        single = as_mention_graph(2, [(0, 1)])
        scores = hits(single)
        assert scores.hub[nick(0)] == 1.0
        assert scores.authority[nick(1)] == 1.0
        assert scores.hub[nick(1)] == 0.0
        assert scores.authority[nick(0)] == 0.0
        cycle = as_mention_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        scores = hits(cycle)
        assert len(set(scores.authority.values())) == 1
        assert len(set(scores.hub.values())) == 1


def test_criterion_8_rege_properties():
    with criterion(8, "regular-equivalence properties and dual implementation"):
        rng = random.Random(8001)
        for _ in range(60):
            n = rng.randrange(1, 8)
            edges = random_digraph(rng, n, 0.3)
            weights = [rng.randint(1, 5) for _ in edges]
            g = as_mention_graph(n, edges, weights)
            values = rege(g, 3).values
            assert np.array_equal(values, values.T)
            assert np.all(np.diag(values) == 1.0)
            assert np.all((values >= 0.0) & (values <= 1.0))
        # automorphic leaves score 1 at every iteration
        star = [(f"leaf{i}", "hub", 2) for i in range(1, 5)]
        from chatnet.graph import MentionGraph

        g = MentionGraph.from_edge_list(star)
        for iterations in (1, 2, 3):
            matrix = rege(g, iterations)
            for a, b in itertools.combinations(range(1, 5), 2):
                assert matrix.value(f"leaf{a}", f"leaf{b}") == pytest.approx(
                    1.0, abs=1e-15
                )
        # weight-scale invariance
        fixture = [
            ("a", "b", 3), ("b", "a", 1), ("a", "c", 2),
            ("c", "d", 4), ("d", "c", 1), ("e", "a", 5), ("b", "e", 2),
        ]
        base = rege(MentionGraph.from_edge_list(fixture), 3).values
        for c in (0.5, 3):
            scaled = MentionGraph.from_edge_list(
                [(a, b, w * c) for a, b, w in fixture]
            )
            assert np.allclose(rege(scaled, 3).values, base, atol=1e-12)
        # dual-implementation agreement on the 5-node fixture
        g = MentionGraph.from_edge_list(fixture)
        lookup = {(u, v): float(w) for u, v, w in g.edges()}
        reference = rege_reference(5, lambda i, j: lookup.get((i, j), 0.0), 3)
        values = rege(g, 3).values
        for i in range(5):
            for j in range(5):
                assert abs(values[i, j] - reference[(i, j)]) <= 1e-12


TABLE_CHARACTERISTICS = {
    "case1": "1 big role, Restricted opportunities, Most redundancy, Least chaos",
    "case2": "Different roles, Greater chaos than case 1, Lesser redundancy than case 1",
    "case3": "Many different roles, Least redundancy, Most chaos",
    "case4": "Many different roles, Greater redundancy than case 3, Lesser chaos than case 3",
}


def test_criterion_9_role_classification(fixture_files):
    with criterion(9, "role cases reproduce and carry the fixed descriptions"):
        def partition_of(members):
            return SkeletonPartition({m: "A" for m in members})

        report = classify_roles(
            partition_of(["x", "y", "z"]), {"x": 0.8, "y": 0.8, "z": 0.8}
        )
        case = report.components["A"]
        assert (case.mean_tie_fraction, case.people_fraction) == (pytest.approx(0.8), 1.0)
        assert case.case == "case1"
        assert case.characteristics == TABLE_CHARACTERISTICS["case1"]

        report = classify_roles(partition_of(["x", "y"]), {"x": 0.0, "y": 0.0})
        assert report.components["A"].case == "case4"

        report = classify_roles(
            partition_of(["p", "q", "r", "s"]),
            {"p": 0.1, "q": 0.1, "r": 0.9, "s": 0.9},
        )
        boundary = report.components["A"]
        assert boundary.mean_tie_fraction == pytest.approx(0.5)
        assert boundary.people_fraction == pytest.approx(0.5)
        assert boundary.case == "case1"

        cfg = AnalysisConfig(log_paths=tuple(path for path, _ in fixture_files))
        rendered = run_pipeline(cfg).to_json_text()
        components = json.loads(rendered)["roles"]["components"]
        seen = 0
        for component in components.values():
            if component.get("empty"):
                continue
            seen += 1
            assert component["characteristics"] == TABLE_CHARACTERISTICS[component["case"]]
            assert component["characteristics"] in rendered
        assert seen > 0


def test_criterion_10_scale_smoke(tmp_path):
    with criterion(10, "community-scale pipeline (2400 nodes / 9400 edges)", budget=120.0):
        g = preferential_attachment_graph(2400, 9400, seed=7)
        assert (g.node_count, g.edge_count) == (2400, 9400)
        path = tmp_path / "scale.csv"
        write_graph_csv(g, path)
        report = run_pipeline(AnalysisConfig(graph_path=str(path)))
        data = json.loads(report.to_json_text())
        assert data["stats"]["nodes"] == 2400
        assert data["stats"]["edges"] == 9400
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(data, load_report_schema())
        # the cut tree really ran on the (single) largest component
        assert data["lambda"]["levels"]
        largest = max(len(s) for s in data["lambda"]["levels"][-1]["sets"])
        undirected = to_undirected(g)
        assert largest == undirected.node_count


def test_criterion_11_thread_determinism(fixture_files, tmp_path):
    with criterion(11, "byte-identical reports at 1 and 8 threads"):
        cfg = AnalysisConfig(log_paths=tuple(path for path, _ in fixture_files))
        one = tmp_path / "report-1.json"
        eight = tmp_path / "report-8.json"
        run_pipeline(cfg, threads=1).write_json(one)
        run_pipeline(cfg, threads=8).write_json(eight)
        assert one.read_bytes() == eight.read_bytes()
