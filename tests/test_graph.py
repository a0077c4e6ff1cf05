import datetime as dt
import random

import pytest
from scipy.sparse import csr_matrix

from chatnet.graph import (
    MentionGraph,
    UndirectedView,
    extract_network,
    graph_csv_text,
    mutual_ties_view,
    read_graph_csv,
    stats,
    to_undirected,
    write_graph_csv,
)
from chatnet.ingest import ChatCorpus, FileStats, build_roster, parse_line
from chatnet.report import AnalysisConfig, PipelineError, run_pipeline

from synth import as_mention_graph, nick, random_digraph, random_ugraph

DAY = dt.date(2011, 6, 2)

SAMPLE_LINES = (
    "[08:43] <mdz> lifeless: ok, it sounds like you're agreeing with me, then",
    "[08:45] <fabbione> mdz: i think we could import the old comments via rsync, "
    "but from there we need to go via email. I think it is easier than caching "
    "the status on each bug and than import bits here and there",
)


def corpus_of(lines, date=DAY):
    messages = tuple(parse_line(line, date) for line in lines)
    assert all(messages)
    stats_ = (FileStats("inline", date, len(messages), 0, len(messages)),)
    return ChatCorpus(messages, stats_)


def test_sample_conversation_edges():
    corpus = corpus_of(SAMPLE_LINES)
    roster = build_roster(corpus, prior_nicks=("lifeless",))
    g = extract_network(corpus, roster)
    assert sorted(g.edges_by_nick()) == [
        ("fabbione", "mdz", 1),
        ("mdz", "lifeless", 1),
    ]


def test_self_mention_excluded():
    corpus = corpus_of(("[09:00] <alice> alice: note to self",))
    g = extract_network(corpus, build_roster(corpus))
    assert list(g.edges_by_nick()) == []


def test_fixture_adjacency_hand_traced(fixture_graph):
    assert sorted(fixture_graph.edges_by_nick()) == [
        ("alice", "bob", 1),
        ("alice", "carol", 1),
        ("bob", "alice", 2),
        ("carol", "alice", 1),
        ("carol", "bob", 1),
        ("dave", "eve", 1),
    ]
    assert fixture_graph.nicks == ("alice", "bob", "carol", "dave", "eve")
    assert "carol" in fixture_graph and "Carol" not in fixture_graph


def test_repeated_mentions_count_once_per_message():
    corpus = corpus_of(
        (
            "[09:00] <alice> bob bob bob",
            "[09:01] <alice> bob once more",
        )
    )
    g = extract_network(corpus, build_roster(corpus, prior_nicks=("bob",)))
    assert list(g.edges_by_nick()) == [("alice", "bob", 2)]


def test_mention_matching_is_token_bounded():
    corpus = corpus_of(
        (
            "[09:00] <alice> bobcat should not count",
            "[09:01] <alice> bob: this counts",
            "[09:02] <alice> thanks bob, really",
        )
    )
    g = extract_network(corpus, build_roster(corpus, prior_nicks=("bob",)))
    assert list(g.edges_by_nick()) == [("alice", "bob", 2)]


def test_mention_matching_case_insensitive_by_default():
    corpus = corpus_of(("[09:00] <alice> BOB: hi",))
    roster = build_roster(corpus, prior_nicks=("bob",))
    assert list(extract_network(corpus, roster).edges_by_nick()) == [
        ("alice", "bob", 1)
    ]
    strict = extract_network(corpus, roster, case_insensitive=False)
    assert list(strict.edges_by_nick()) == []


def test_short_nicks_not_matched_by_default():
    corpus = corpus_of(("[09:00] <alice> ok me: fine", "[09:01] <me> yes",))
    roster = build_roster(corpus)
    assert "me" in roster
    g = extract_network(corpus, roster)
    assert list(g.edges_by_nick()) == []
    relaxed = extract_network(corpus, roster, min_nick_length=2)
    assert list(relaxed.edges_by_nick()) == [("alice", "me", 1)]


def test_messages_from_outside_roster_are_ignored():
    corpus = corpus_of(
        (
            "[09:00] <alice> bob: hello",
            "[09:01] <zed> bob: also hello",
        )
    )
    g = extract_network(corpus, {"alice": 1, "bob": 0})
    assert list(g.edges_by_nick()) == [("alice", "bob", 1)]


def test_extract_requires_participants(fixture_corpus):
    with pytest.raises(ValueError, match="no participants"):
        extract_network(fixture_corpus, {})


def test_extract_empty_when_no_user_messages():
    corpus = corpus_of(("[09:00] * alice waves",))
    g = extract_network(corpus, build_roster(corpus))
    assert g.node_count == 0
    assert g.edge_count == 0


def test_weight_sum_matches_independent_scan(fixture_corpus, fixture_graph):
    # independent tally: (message, distinct addressed nick) pairs
    roster = build_roster(fixture_corpus)
    import re

    token = re.compile(r"[0-9A-Za-z\[\]\\`_^{|}-]+")
    expected = 0
    for msg in fixture_corpus.messages:
        if msg.kind != "user_message":
            continue
        sender = msg.nick.casefold()
        seen = set()
        for tok in token.findall(msg.body):
            folded = tok.casefold()
            if folded in roster and len(folded) >= 3 and folded != sender:
                seen.add(folded)
        expected += len(seen)
    total = sum(w for _, _, w in fixture_graph.edges_by_nick())
    assert total == expected == 7


def test_extraction_deterministic_bytes(fixture_corpus, fixture_roster):
    first = extract_network(fixture_corpus, fixture_roster)
    second = extract_network(fixture_corpus, fixture_roster)
    assert graph_csv_text(first) == graph_csv_text(second)


def test_graph_validation_errors():
    with pytest.raises(ValueError, match="self-loop"):
        MentionGraph(["a"], {("a", "a"): 1})
    with pytest.raises(ValueError, match="non-positive"):
        MentionGraph(["a", "b"], {("a", "b"): 0})
    with pytest.raises(ValueError, match="infinite weight"):
        MentionGraph(["a", "b"], {("a", "b"): float("inf")})
    with pytest.raises(ValueError, match="endpoint 'b' not in node set"):
        MentionGraph(["a"], {("a", "b"): 1})
    with pytest.raises(ValueError, match="endpoint 'b' not in node set"):
        MentionGraph(["a"], {("b", "a"): 1})
    with pytest.raises(ValueError, match="self-loop in undirected view"):
        UndirectedView(["a", "b"], csr_matrix([[0.0, 1.0], [1.0, 2.0]]))
    # weights are stored as float64, which must hold them exactly
    with pytest.raises(ValueError, match=r"a->b weight 9007199254740993 is not exactly"):
        MentionGraph(["a", "b"], {("a", "b"): 2**53 + 1})
    with pytest.raises(ValueError, match="not exactly representable"):
        MentionGraph(["a", "b"], {("a", "b"): 10**400})
    assert MentionGraph(["a", "b"], {("a", "b"): 2**53}).weight(0, 1) == 2**53


def test_undirected_view_nicks_are_distinct_and_ascending():
    # node ids must ascend with names, as to_undirected's do
    triangle = csr_matrix([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    for nicks in (("zed", "amy", "bob"), ("amy", "bob", "bob")):
        with pytest.raises(ValueError, match="distinct and ascending"):
            UndirectedView(nicks, triangle)
    assert UndirectedView(("amy", "bob", "zed"), triangle).edge_count == 3


def test_edge_order_does_not_change_the_graph():
    rng = random.Random(88)
    for n in (2, 9, 40):
        edges = {(nick(u), nick(v)): rng.randint(1, 5) for u, v in random_digraph(rng, n, 0.3)}
        nodes = [nick(v) for v in range(n)]
        shuffled = dict(rng.sample(sorted(edges.items()), len(edges)))
        g = MentionGraph(nodes, shuffled)
        assert g == MentionGraph(nodes, dict(sorted(edges.items())))
        assert g.csr().has_canonical_format
        assert {(a, b): w for a, b, w in g.edges_by_nick()} == edges


def test_stats_complete_digraph():
    edges = [(u, v) for u in range(4) for v in range(4) if u != v]
    g = as_mention_graph(4, edges)
    assert stats(g).density == 1.0


def test_stats_single_node():
    g = MentionGraph(["solo"], {})
    s = stats(g)
    assert s.density == 0.0
    assert s.indegree_max == 0
    assert s.outdegree_max == 0


def test_stats_density_matches_direct_count():
    rng = random.Random(5)
    edges = random_digraph(rng, 10, 0.3)
    g = as_mention_graph(10, edges)
    s = stats(g)
    assert s.edge_count == len(edges)
    assert s.density == len(edges) / 90


def test_to_undirected_sums_weights():
    g = MentionGraph.from_edge_list([("a", "b", 2), ("b", "a", 3)])
    u = to_undirected(g)
    assert u.weight(u.id_of("a"), u.id_of("b")) == 5


def test_to_undirected_single_direction():
    g = MentionGraph.from_edge_list([("a", "b", 1)])
    u = to_undirected(g)
    assert u.weight(u.id_of("a"), u.id_of("b")) == 1


def reciprocated_digraph(seed: int, n: int = 40) -> MentionGraph:
    # Most ties answered; weights in quarters, or in tenths, whose sums round.
    rng = random.Random(seed)
    step = (0.25, 0.1)[seed % 2]
    edges = {}
    for u, v in random_ugraph(rng, n, 0.2):
        edges[(nick(u), nick(v))] = rng.randint(1, 40) * step
        if rng.random() < 0.7:
            edges[(nick(v), nick(u))] = rng.randint(1, 40) * step
    return MentionGraph([nick(v) for v in range(n)], edges)


def both_cells(view):
    # Every stored cell, so both halves of the symmetric adjacency count.
    return {
        (view.nick_of(x), view.nick_of(y)): w
        for x in range(view.node_count)
        for y, w in view.neighbors(x).items()
    }


def test_to_undirected_matches_pairwise_sum_oracle(fixture_graph):
    graphs = [fixture_graph] + [reciprocated_digraph(seed) for seed in range(1, 7)]
    assert sum(g.edge_count for g in graphs) > 1000
    for g in graphs:
        tie = {(a, b): w for a, b, w in g.edges_by_nick()}
        expected, mutual = {}, {}
        for (a, b), w in tie.items():
            expected[(a, b)] = expected[(b, a)] = expected.get((a, b), 0) + w
            if (b, a) in tie:
                mutual[(a, b)] = w + tie[(b, a)]
        u = to_undirected(g)
        assert both_cells(u) == expected
        assert both_cells(mutual_ties_view(g)) == mutual
        assert {(u.nick_of(x), u.nick_of(y)): w for x, y, w in u.edges()} == {
            (a, b): w for (a, b), w in expected.items() if a < b
        }


def test_to_undirected_preserves_reachability():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(2, 8)
        edges = random_digraph(rng, n, 0.25)
        g = as_mention_graph(n, edges)
        u = to_undirected(g)
        # undirected reachability from node 0, two routes
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in list(g.out_neighbors(x)) + list(g.in_neighbors(x)):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        seen_u = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in u.neighbors(x):
                if y not in seen_u:
                    seen_u.add(y)
                    stack.append(y)
        assert seen == seen_u


def test_csv_round_trip(fixture_graph, tmp_path):
    path = tmp_path / "graph.csv"
    write_graph_csv(fixture_graph, path)
    assert read_graph_csv(path) == fixture_graph


def test_csv_golden(fixture_graph, data_dir):
    golden = (data_dir / "graph.golden.csv").read_text(encoding="utf-8")
    assert graph_csv_text(fixture_graph) == golden


def test_csv_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("\ufeffsource,target,weight\na,b,2\n", encoding="utf-8")
    assert list(read_graph_csv(path).edges_by_nick()) == [("a", "b", 2)]


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\nx,y,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_graph_csv(path)


def test_csv_rejects_duplicate_edge(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "source,target,weight\na,b,1\na,b,2\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="duplicate"):
        read_graph_csv(path)


def test_csv_rejects_inexact_weight(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("source,target,weight\na,b,9007199254740993\n", encoding="utf-8")
    with pytest.raises(ValueError, match="a->b weight 9007199254740993 is not exactly"):
        read_graph_csv(path)
    with pytest.raises(PipelineError, match="not exactly representable") as info:
        run_pipeline(AnalysisConfig(graph_path=str(path)))
    assert info.value.stage == "input"


def test_csv_oversized_field_is_a_located_error(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text(
        "source,target,weight\na,b,1\n" + "x" * 200_000 + ",b,1\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match=r"long\.csv:3: field larger than field limit"):
        read_graph_csv(path)
    with pytest.raises(PipelineError, match="field larger") as info:
        run_pipeline(AnalysisConfig(graph_path=str(path)))
    assert info.value.stage == "input"


def test_csv_skips_a_blank_row(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("source,target,weight\n\na,b,2\n\n", encoding="utf-8")
    assert list(read_graph_csv(path).edges_by_nick()) == [("a", "b", 2)]


@pytest.mark.parametrize(
    "row, message",
    [
        ("a,b", "expected 3 columns"),
        ("a,b,1,1", "expected 3 columns"),
        ("a,b,x", "bad weight 'x'"),
        ("a,b,1/2", "bad weight '1/2'"),
    ],
)
def test_csv_bad_row_is_a_located_input_error(tmp_path, row, message):
    # the blank row before it counts as a line
    path = tmp_path / "bad.csv"
    path.write_text(f"source,target,weight\na,c,1\n\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"bad\.csv:4: {message}$"):
        read_graph_csv(path)
    with pytest.raises(PipelineError, match=rf"bad\.csv:4: {message}") as info:
        run_pipeline(AnalysisConfig(graph_path=str(path)))
    assert info.value.stage == "input"


@pytest.mark.parametrize(
    "row, line, message",
    [
        ("a,b", 4, "expected 3 columns"),
        ("a,b,x", 4, "bad weight 'x'"),
        # a row that spans lines is named by the line it ends on
        ('"x\ny",b,2', 5, "duplicate edge x\ny->b"),
    ],
)
def test_csv_row_after_a_multi_line_field_names_its_own_line(tmp_path, row, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(f'source,target,weight\n"x\ny",b,1\n{row}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=rf"bad\.csv:{line}: {message}$"):
        read_graph_csv(path)


def test_nick_with_control_character_rejected():
    # GraphML could not carry it: XML 1.0 has no U+0001.
    with pytest.raises(ValueError, match=r"nick 'a\\x01b' contains a control character"):
        MentionGraph.from_edge_list([("a\x01b", "bob", 1)])


def test_csv_nick_with_control_character_is_an_input_error(tmp_path):
    # A quoted \r survives the CSV reader, but the writer would not quote it
    # back, so the file could not round-trip.
    path = tmp_path / "cr.csv"
    path.write_text('source,target,weight\n"a\rb",bob,1\n', encoding="utf-8", newline="")
    with pytest.raises(ValueError, match=r"nick 'a\\rb' contains a control character"):
        read_graph_csv(path)
    with pytest.raises(PipelineError, match="control character") as info:
        run_pipeline(AnalysisConfig(graph_path=str(path)))
    assert info.value.stage == "input"


def test_mutual_ties_view_keeps_reciprocated_only(fixture_graph):
    view = mutual_ties_view(fixture_graph)
    got = {
        (view.nick_of(a), view.nick_of(b)): w for a, b, w in view.edges()
    }
    # alice<->bob and alice<->carol are reciprocated; the rest are one-way
    assert got == {("alice", "bob"): 3, ("alice", "carol"): 2}
    assert view.nicks == fixture_graph.nicks


def test_undirected_from_edge_list_merges_reversed():
    u = UndirectedView.from_edge_list([("a", "b", 2), ("b", "a", 3)])
    assert u.edge_count == 1
    assert u.weight(u.id_of("a"), u.id_of("b")) == 5


@pytest.mark.parametrize(
    "weight, message",
    [
        (0, "non-positive weight 0"),
        (-2, "non-positive weight -2"),
        (float("nan"), "non-positive weight nan"),
        (2**60 + 1, "not exactly representable"),
    ],
)
def test_undirected_from_edge_list_rejects_bad_weights(weight, message):
    with pytest.raises(ValueError, match=message):
        UndirectedView.from_edge_list([("aa", "bb", weight)])


def test_subgraph_is_induced():
    g = as_mention_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    sub = g.subgraph({g.id_of(nick(0)), g.id_of(nick(1)), g.id_of(nick(2))})
    assert sorted(sub.edges_by_nick()) == [
        (nick(0), nick(1), 1),
        (nick(1), nick(2), 1),
    ]
