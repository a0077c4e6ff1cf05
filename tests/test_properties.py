"""Property tests with hypothesis: log-line parsing is total, and the
corpus JSONL, graph CSV, DOT and GraphML writers survive hostile names."""

import datetime as dt
import re
import xml.etree.ElementTree as ET

import pytest

from chatnet.graph import MentionGraph, read_graph_csv, write_graph_csv
from chatnet.ingest import (
    ACTION,
    KINDS,
    SYSTEM,
    USER_MESSAGE,
    ChatCorpus,
    ChatMessage,
    parse_line,
    read_corpus_jsonl,
    write_corpus_jsonl,
)
from chatnet.report import export_graph

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Derandomized and without an example database: the same inputs on every run.
SETTINGS = hypothesis.settings(
    max_examples=400, deadline=None, derandomize=True, database=None
)

# Lines near the grammar: a bracketed clock, in or out of range, then a
# message, action or notice built around an arbitrary nick and body.
nicks = st.text(min_size=1, max_size=8)
bodies = st.text(max_size=30)
near_lines = st.builds(
    lambda hh, mm, sec, rest, end: f"[{hh}:{mm:02d}{sec}] {rest}{end}",
    st.integers(0, 29),
    st.integers(0, 70),
    st.sampled_from(["", ":00", ":7"]),
    st.one_of(
        st.builds(
            lambda p, n, b: f"<{p}{n}> {b}", st.sampled_from(["", "@", "+"]), nicks, bodies
        ),
        st.builds(lambda n, b: f"* {n} {b}", nicks, bodies),
        st.builds(
            lambda n, e: f"*** {n} {e}",
            nicks,
            st.sampled_from(["has joined #c", "has quit [x]", "[~u@h] has left", "is away"]),
        ),
        bodies,
    ),
    st.sampled_from(["", "\n", "\r\n", "\r"]),
)


def assert_message_or_skip(line, date):
    result = parse_line(line, date)
    if result is None:
        return
    assert isinstance(result, ChatMessage)
    assert result.date == date
    assert re.fullmatch(r"([01]\d|2[0-3]):[0-5]\d", result.time)
    assert result.nick
    assert result.kind in (USER_MESSAGE, ACTION, SYSTEM)


@SETTINGS
@hypothesis.given(st.text(), st.dates())
def test_parse_line_never_raises_on_arbitrary_text(line, date):
    assert_message_or_skip(line, date)


@SETTINGS
@hypothesis.given(near_lines, st.dates(min_value=dt.date(1990, 1, 1)))
def test_parse_line_never_raises_near_the_grammar(line, date):
    assert_message_or_skip(line, date)


# Each example writes and reads a file, so fewer of them.
FILE_SETTINGS = hypothesis.settings(SETTINGS, max_examples=100)

# Names mixing CSV, DOT and XML metacharacters, IRC's {|}^ and non-ASCII
# with arbitrary printable text.  Control characters (category Cc) are left
# out: no nick may hold one, and MentionGraph rejects them.
hostile = st.text(
    alphabet=st.one_of(
        st.sampled_from(',"\'\\{|}^[]`_- ;<>&=#éßΩ中😀'),
        st.characters(blacklist_categories=("Cc", "Cs", "Cn")),
    ),
    min_size=1,
    max_size=8,
)
# Integral weights up to 2**53, quarters, and multiples of 0.1, which binary
# floats hold inexactly.
weights = st.one_of(
    st.integers(1, 2**53),
    st.integers(1, 400).map(lambda k: k / 4),
    st.integers(1, 400).map(lambda k: k * 0.1),
)


@st.composite
def hostile_graphs(draw):
    names = draw(st.lists(hostile, min_size=2, max_size=8, unique=True))
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda p: p[0] != p[1]
    )
    edges = draw(st.dictionaries(pairs, weights, min_size=1, max_size=16))
    return MentionGraph({nick for pair in edges for nick in pair}, edges)


@FILE_SETTINGS
@hypothesis.given(hostile_graphs())
def test_graph_csv_round_trips(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("csv") / "graph.csv"
    write_graph_csv(g, path)
    assert read_graph_csv(path) == g


def dot_string(quoted):
    return re.sub(r"\\(.)", r"\1", quoted)


@FILE_SETTINGS
@hypothesis.given(hostile_graphs())
def test_dot_export_escapes_names(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("dot") / "graph.dot"
    export_graph(g, "dot", path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n}\n")
    # Only "\n" ends a DOT line; names may hold other Unicode line breaks.
    lines = text[:-1].split("\n")
    assert lines[0] == "digraph mentions {" and lines[-1] == "}"
    quoted = r'"((?:[^"\\]|\\.)*)"'
    nodes, edges = [], []
    for line in lines[1:-1]:
        node = re.fullmatch(rf"  {quoted};", line)
        edge = re.fullmatch(rf"  {quoted} -> {quoted} \[weight=([^\]]+)\];", line)
        assert node or edge, line
        if node:
            nodes.append(dot_string(node[1]))
        else:
            edges.append((dot_string(edge[1]), dot_string(edge[2]), float(edge[3])))
    assert nodes == list(g.nicks)
    assert edges == list(g.edges_by_nick())


@FILE_SETTINGS
@hypothesis.given(hostile_graphs())
def test_graphml_export_escapes_names(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("graphml") / "graph.graphml"
    export_graph(g, "graphml", path)
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    graph = ET.parse(path).getroot().find("g:graph", ns)
    assert [node.get("id") for node in graph.findall("g:node", ns)] == list(g.nicks)
    edges = [
        (edge.get("source"), edge.get("target"), float(edge.find("g:data", ns).text))
        for edge in graph.findall("g:edge", ns)
    ]
    assert edges == list(g.edges_by_nick())


# Hostile nicks as a log line carries them: the corpus reader refuses a nick
# with whitespace, < or > in it, or a status marker first.
log_nick = hostile.map(lambda s: re.sub(r"[\s<>]", "_", s).lstrip("@+") or "_")
# Each drawn message is rendered as its log line and read back by parse_line,
# so it is one a log gives: a body without \n, a notice for a system message.
LINE_SHAPES = {
    USER_MESSAGE: "[{time}] <{nick}> {body}",
    ACTION: "[{time}] * {nick} {body}",
    SYSTEM: "[{time}] *** {nick} has joined {body}",
}
messages = st.builds(
    lambda date, kind, **fields: parse_line(LINE_SHAPES[kind].format(**fields), date),
    date=st.dates(),
    kind=st.sampled_from(sorted(KINDS)),
    time=st.builds(lambda h, m: f"{h:02d}:{m:02d}", st.integers(0, 23), st.integers(0, 59)),
    nick=log_nick,
    body=st.text(alphabet=st.characters(blacklist_characters="\n"), max_size=30),
)


@FILE_SETTINGS
@hypothesis.given(st.lists(messages, min_size=1, max_size=10))
def test_corpus_jsonl_round_trips(tmp_path_factory, batch):
    path = tmp_path_factory.mktemp("jsonl") / "corpus.jsonl"
    write_corpus_jsonl(ChatCorpus(tuple(batch), ()), path)
    assert read_corpus_jsonl(path).messages == tuple(batch)
