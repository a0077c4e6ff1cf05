"""One-pass ingest against the line-by-line oracle in oracles.py.

``parse_corpus`` reads each file with one pass of one grammar; the oracle
tries three regexes on each line of ``split_lines``.  ``extract_network``
matches a message's tokens against the roster by set intersection, after
one translate of a file's bodies; the oracle folds and looks up one token
at a time.  Hypothesis draws hostile files and bodies, derandomized
and without an example database.
"""

import datetime as dt

import pytest

from chatnet.graph import MentionGraph, extract_network
from chatnet.ingest import (
    SYSTEM,
    USER_MESSAGE,
    ChatCorpus,
    ChatMessage,
    FileStats,
    build_roster,
    parse_corpus,
    parse_line,
    split_lines,
)
from chatnet.report import AnalysisConfig, load_input_graph
from oracles import mention_weights_oracle, parse_line_oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)
# Each example writes and reads a file, so fewer of them.
FILE_SETTINGS = hypothesis.settings(SETTINGS, max_examples=150)

DAY = dt.date(2011, 6, 2)

# Clocks in range, with ASCII or other Unicode digits (\d matches both),
# and any one to three digits of each.
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
in_range = st.builds(lambda h, m: f"{h:02d}:{m:02d}", st.integers(0, 23), st.integers(0, 59))
digit = st.sampled_from("0123459" + "٠٢٣٩" + "０１２")
clock = st.builds(
    lambda hh_mm, sec: f"[{hh_mm}{sec}]",
    st.one_of(
        in_range,
        in_range.map(lambda t: t.translate(ARABIC_INDIC)),
        st.builds(lambda h, m: f"{h}:{m}", *[st.text(digit, min_size=1, max_size=3)] * 2),
    ),
    st.sampled_from(["", ":00", ":5", ":٣٣"]),
)
# Nicks: plain ones behind status markers, and ones made only of markers
# or holding characters no nick may hold.
nick = st.one_of(
    st.builds(
        lambda marks, name: marks + name,
        st.sampled_from(["", "", "@", "+", "@+"]),
        st.text(st.sampled_from("ab_{|}^é中@+"), min_size=1, max_size=5),
    ),
    st.text(st.sampled_from("@@++ab<>\x01\x7f\x85 \t"), max_size=6),
)
# Bodies: a second clock mid-line, characters str.splitlines breaks at,
# \r, and \n, which ends the line in a file and nothing in parse_line.
body = st.lists(
    st.one_of(
        st.sampled_from(["[08:43] ", "<a> ", "* b ", "*** c has joined", "\x85", "\x0c",
                         "\u2028", "\r", "\n", "\n", " ", "x", "é"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=8,
).map("".join)
event = st.sampled_from(
    ["has joined #c", "has quit", "[~u@h] has left #c", "[x\ny] has parted", "has quitx",
     "has quité", "changed the topic of #c to: hi", "has left\nhas quit", "is away", ""]
)
shaped = st.one_of(
    st.builds(lambda n, b: f"<{n}> {b}", nick, body),
    st.builds(lambda n, b: f"<{n}>{b}", nick, body),
    st.builds(lambda n, b: f"* {n} {b}", nick, body),
    st.builds(lambda n, b: f"* {n}{b}", nick, body),
    st.builds(lambda m, n, e: f"{m} {n} {e}", st.sampled_from(["***", "===", "**", "*"]),
              nick, event),
    body,
)
lines = st.one_of(
    st.builds(lambda c, sep, rest: f"{c}{sep}{rest}", clock,
              st.sampled_from([" ", " ", "", "  "]), shaped),
    body,
)
texts = st.builds(
    lambda parts, end: "\n".join(parts) + end,
    st.lists(lines, max_size=12),
    st.sampled_from(["", "\n", "\r\n", "\n\n"]),
)


@SETTINGS
@hypothesis.given(st.builds(lambda line, end: line + end, lines,
                            st.sampled_from(["", "\n", "\r", "\r\n", "\n\r"])))
def test_parse_line_matches_oracle(line):
    assert parse_line(line, DAY) == parse_line_oracle(line, DAY)


@FILE_SETTINGS
@hypothesis.given(texts)
def test_parse_corpus_matches_oracle_per_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("logs") / "2011-06-02.txt"
    path.write_text(text, encoding="utf-8")
    corpus = parse_corpus([(str(path), DAY)])
    # the oracle sees the lines as stored, \r included
    with open(path, encoding="utf-8-sig", errors="replace", newline="") as fh:
        read = split_lines(fh.read())
    expected = [parse_line_oracle(line, DAY) for line in read]
    parsed = tuple(msg for msg in expected if msg is not None)
    assert corpus.messages == parsed
    assert corpus.file_stats == (
        FileStats(str(path), DAY, len(parsed), len(read) - len(parsed), len(read)),
    )


# Senders whose folded nicks are ASCII and not: ß folds to "ss", and
# Kelvin K, long s and dotted I fold or lower to ASCII letters.
SENDERS = ["sam", "Kate", "kate", "ssam", "ßam", "ivan", "i", "ab", "Bob", "x_y", "s"]
token = st.sampled_from(
    ["sam", "SAM", "ſam", "Kate", "\u212aate", "ıvan", "İvan", "ivan", "I", "i", "ß", "ssam",
     "SSAM", "ab", "AB", "bob", "x_y", "X_Y", "s", "ſ", "hello", "\u212a"]
)


def bodies(separators):
    """Tokens and separators in turn: any of them, or only ASCII ones."""
    return st.one_of(
        st.lists(st.tuples(token, separators), max_size=6),
        st.lists(st.tuples(token.filter(str.isascii), separators.filter(str.isascii)), max_size=6),
    ).map(lambda pairs: "".join(t + sep for t, sep in pairs))


mention_body = bodies(
    st.sampled_from([" ", ": ", ", ", "\u212a", "ſ", "İ", "ß", "é", "-", "", "@", "\ud800"])
)
message = st.builds(
    lambda sender, text, kind: ChatMessage(DAY, "09:00", sender, text, kind),
    st.sampled_from(SENDERS),
    mention_body,
    st.sampled_from([USER_MESSAGE, USER_MESSAGE, "action"]),
)


@SETTINGS
@hypothesis.given(
    st.lists(message, min_size=1, max_size=12),
    st.sampled_from([1, 2, 3, 4]),
    st.booleans(),
)
def test_extract_network_matches_token_oracle(batch, min_nick_length, case_insensitive):
    corpus = ChatCorpus(tuple(batch), ())
    roster = build_roster(corpus)
    expected = mention_weights_oracle(batch, roster, min_nick_length, case_insensitive)
    g = extract_network(
        corpus, roster, min_nick_length=min_nick_length, case_insensitive=case_insensitive
    )
    assert {(a, b): w for a, b, w in g.edges_by_nick()} == expected


def test_extract_network_refuses_a_body_with_a_line_break():
    # joined at \n, such a body would move every later line to the wrong sender
    day = dt.date(2011, 6, 3)
    batch = [
        ChatMessage(DAY, "09:00", "sam", "kate", USER_MESSAGE),
        ChatMessage(day, "09:00", "kate", "hi\nsam", USER_MESSAGE),
        ChatMessage(day, "09:01", "sam", "kate", USER_MESSAGE),
    ]
    corpus = ChatCorpus(batch, ())
    with pytest.raises(ValueError, match="2011-06-03: a message body holds a line break"):
        extract_network(corpus, build_roster(corpus))


# Whole log files for the report path.  Bodies mix ASCII lines and others in
# one file, parted by every character where str.split and _TOKEN_RE could
# disagree, among actions, notices and lines the grammar skips.
log_body = bodies(
    st.sampled_from(
        [" ", ": ", ", ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\r", "\x85",
         "\u2028", "\u3000", "\u212a", "ſ", "é", "-", ""]
    )
)
speaker = st.builds(
    lambda mark, name: mark + name, st.sampled_from(["", "", "@", "+"]), st.sampled_from(SENDERS)
)
log_line = st.one_of(
    st.builds(lambda n, b: f"[09:00] <{n}> {b}", speaker, log_body),
    st.builds(lambda n, b: f"[09:01] <{n}> {b}", speaker, log_body),
    st.builds(lambda n, b: f"[09:02] * {n} {b}", speaker, log_body),
    st.builds(lambda n: f"[09:03] *** {n} has joined #c", speaker),
    log_body,
)
log_file = st.lists(log_line, max_size=10).map(lambda lines: "".join(line + "\n" for line in lines))


@FILE_SETTINGS
@hypothesis.given(
    st.lists(log_file, min_size=1, max_size=2),
    st.sampled_from([1, 2, 3, 4]),
    st.booleans(),
)
def test_report_path_matches_token_oracle(
    tmp_path_factory, texts, min_nick_length, case_insensitive
):
    logs = tmp_path_factory.mktemp("logs")
    messages = []
    for day, text in enumerate(texts, start=1):
        date = dt.date(2011, 6, day)
        (logs / f"{date}.txt").write_bytes(text.encode("utf-8"))
        messages.extend(filter(None, (parse_line(line, date) for line in split_lines(text))))
    speakers = {msg.nick.casefold() for msg in messages if msg.kind != SYSTEM}
    config = AnalysisConfig(
        log_paths=(str(logs),), min_nick_length=min_nick_length, case_insensitive=case_insensitive
    )
    if not speakers:
        with pytest.raises(ValueError, match="no participants"):
            load_input_graph(config)
        return
    expected = mention_weights_oracle(messages, speakers, min_nick_length, case_insensitive)
    nodes = {nick for pair in expected for nick in pair}
    assert load_input_graph(config) == MentionGraph(nodes, expected)


class _Refused:
    def __getattr__(self, name):
        raise AssertionError(f"_TOKEN_RE.{name} called while extracting")


@pytest.mark.parametrize("case_insensitive", [True, False])
def test_report_path_tokenizes_every_body_in_one_pass(tmp_path, monkeypatch, case_insensitive):
    # Non-ASCII text of every width, inside and around nicks: none of it
    # may send a body down a second tokenizer.
    text = "".join(
        f"[09:0{i}] <{sender}> {body}\n"
        for i, (sender, body) in enumerate([
            ("sam", "Kate: café"),
            ("Kate", "ſam \u212aate sam"),
            ("ivan", "日本語sam,KATE\U0001F600ivan"),
            ("bob", "ssam é ßam \U0001F600sam\U0001F600"),
            ("ßam", "bob日本語 \u212a ſ Bob"),
            ("sam", "\U0001F600"),
        ])
    )
    (tmp_path / "2011-06-02.txt").write_text(text, encoding="utf-8")
    messages = [parse_line(line, DAY) for line in split_lines(text)]
    speakers = {msg.nick.casefold() for msg in messages}
    expected = mention_weights_oracle(messages, speakers, 3, case_insensitive)
    assert expected
    monkeypatch.setattr("chatnet.graph._TOKEN_RE", _Refused())
    config = AnalysisConfig(log_paths=(str(tmp_path),), case_insensitive=case_insensitive)
    nodes = {nick for pair in expected for nick in pair}
    assert load_input_graph(config) == MentionGraph(nodes, expected)
