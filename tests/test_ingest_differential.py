"""One-pass ingest against the line-by-line oracle in oracles.py.

``parse_corpus`` reads each file with one pass of one grammar; the oracle
tries three regexes on each line of ``split_lines``.  ``extract_network``
matches a message's tokens against the roster by set intersection; the
oracle folds and looks up one token at a time.  Hypothesis draws hostile
files and bodies, derandomized and without an example database.
"""

import datetime as dt

import pytest

from chatnet.graph import extract_network
from chatnet.ingest import (
    USER_MESSAGE,
    ChatCorpus,
    ChatMessage,
    FileStats,
    build_roster,
    parse_corpus,
    parse_line,
    split_lines,
)
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
separator = st.sampled_from([" ", ": ", ", ", "\u212a", "ſ", "İ", "ß", "é", "-", "", "@"])
mention_body = st.lists(st.tuples(token, separator), max_size=6).map(
    lambda pairs: "".join(t + sep for t, sep in pairs)
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
    expected = mention_weights_oracle(batch, roster.counts, min_nick_length, case_insensitive)
    g = extract_network(
        corpus, roster, min_nick_length=min_nick_length, case_insensitive=case_insensitive
    )
    assert {(a, b): w for a, b, w in g.edges_by_nick()} == expected
