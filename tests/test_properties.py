"""Property tests with hypothesis: log-line parsing is total."""

import datetime as dt
import re

import pytest

from chatnet.ingest import ACTION, SYSTEM, USER_MESSAGE, ChatMessage, parse_line

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
