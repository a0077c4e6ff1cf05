import datetime as dt
import gc
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from chatnet.ingest import (
    ACTION,
    SYSTEM,
    USER_MESSAGE,
    ChatMessage,
    build_roster,
    corpus_jsonl_text,
    date_from_filename,
    discover_log_files,
    parse_corpus,
    parse_line,
    read_corpus_jsonl,
    read_manifest,
    read_roster_file,
    write_corpus_jsonl,
)
from chatnet.cli import main
from chatnet.graph import extract_network
from chatnet.report import (
    AnalysisConfig,
    PipelineError,
    load_config_file,
    load_input_graph,
    run_pipeline,
)

DAY = dt.date(2011, 6, 2)

# str.splitlines breaks at each of these, and text mode reads \r as \n;
# inside a line they are text.
NOT_NEWLINES = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

SAMPLE_LINE = "[08:43] <mdz> lifeless: ok, it sounds like you're agreeing with me, then"


def test_parse_user_message_sample():
    msg = parse_line(SAMPLE_LINE, DAY)
    assert msg == ChatMessage(
        DAY,
        "08:43",
        "mdz",
        "lifeless: ok, it sounds like you're agreeing with me, then",
        USER_MESSAGE,
    )


def test_parse_empty_body():
    msg = parse_line("[09:00] <alice>", DAY)
    assert msg == ChatMessage(DAY, "09:00", "alice", "", USER_MESSAGE)


def test_parse_garbage_line_skips():
    assert parse_line("random garbage line", DAY) is None


def test_parse_action_line():
    msg = parse_line("[08:45] * fabbione nods", DAY)
    assert msg == ChatMessage(DAY, "08:45", "fabbione", "nods", ACTION)


def test_parse_action_without_body():
    msg = parse_line("[08:45] * fabbione", DAY)
    assert msg == ChatMessage(DAY, "08:45", "fabbione", "", ACTION)


@pytest.mark.parametrize(
    "line,nick",
    [
        ("[10:00] *** carol has joined #demo", "carol"),
        ("[10:01] *** carol [~c@host.example] has quit IRC", "carol"),
        ("[10:02] === dave has left #demo", "dave"),
        ("[10:03] *** erin changed the topic of #demo to: welcome", "erin"),
    ],
)
def test_parse_recognized_notices(line, nick):
    msg = parse_line(line, DAY)
    assert msg is not None
    assert msg.kind == SYSTEM
    assert msg.nick == nick


def test_parse_unrecognized_notice_skips():
    assert parse_line("[10:04] *** server restarting now", DAY) is None


def test_parse_seconds_variant_accepted():
    msg = parse_line("[08:43:59] <mdz> hello", DAY)
    assert msg is not None
    assert msg.time == "08:43"


def test_parse_single_digit_hour_normalized():
    msg = parse_line("[8:43] <mdz> hello", DAY)
    assert msg is not None
    assert msg.time == "08:43"


def test_parse_status_prefix_stripped():
    msg = parse_line("[08:43] <@mdz> hi", DAY)
    assert msg is not None
    assert msg.nick == "mdz"
    msg = parse_line("[08:43] <+mdz> hi", DAY)
    assert msg.nick == "mdz"


def test_parse_bad_clock_skips():
    assert parse_line("[24:00] <mdz> hi", DAY) is None
    assert parse_line("[12:60] <mdz> hi", DAY) is None


def test_parse_totality_fuzz():
    # any line must come back as a message or a skip, never an exception
    rng = random.Random(20110602)
    alphabet = "<>[]*:= abcdef0129\t\x00\xe9"
    for _ in range(3000):
        line = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        result = parse_line(line, DAY)
        assert result is None or isinstance(result, ChatMessage)


def test_parse_corpus_counts_add_up(tmp_path):
    first = tmp_path / "2011-01-01.txt"
    second = tmp_path / "2011-01-02.txt"
    first.write_text(
        "[01:00] <a> x\n[01:01] <b> y\n[01:02] <c> z\n", encoding="utf-8"
    )
    second.write_text(
        "[02:00] <d> x\n[02:01] <e> y\n[02:02] <f> z\n", encoding="utf-8"
    )
    corpus = parse_corpus([(str(first), "2011-01-01"), (str(second), "2011-01-02")])
    assert corpus.message_count == 6
    assert corpus.skipped_count == 0
    for st in corpus.file_stats:
        assert st.parsed + st.skipped == st.total_lines


@pytest.mark.parametrize("mark", NOT_NEWLINES)
def test_parse_corpus_splits_lines_at_newlines_only(tmp_path, mark):
    # Inside a line the mark is body text (\x1d is mIRC's italic code), and
    # a line of one is skipped.
    path = tmp_path / "2011-06-02.txt"
    path.write_text(
        f"[08:43] <mdz> {mark}see{mark} lifeless: ok\n"
        f"{mark}\n"
        f"[08:44] <lifeless> mdz:{mark}right\n",
        encoding="utf-8",
    )
    corpus = parse_corpus([(str(path), DAY)])
    (stats,) = corpus.file_stats
    assert (stats.total_lines, stats.parsed, stats.skipped) == (3, 2, 1)
    assert [(m.nick, m.body) for m in corpus.messages] == [
        ("mdz", f"{mark}see{mark} lifeless: ok"),
        ("lifeless", f"mdz:{mark}right"),
    ]
    g = extract_network(corpus, build_roster(corpus))
    assert sorted(g.edges_by_nick()) == [("lifeless", "mdz", 1), ("mdz", "lifeless", 1)]


def test_parse_corpus_reads_crlf_files_as_lf_files(tmp_path):
    lines = [SAMPLE_LINE, "[08:45] * fabbione nods", "[08:46] *** mdz has quit", "noise"]
    lines.append("[08:47] <mdz> ")
    stats = []
    for name, end in (("2011-06-01.txt", "\n"), ("2011-06-02.txt", "\r\n")):
        text = "".join(line + end for line in lines)
        (tmp_path / name).write_text(text, encoding="utf-8", newline="")
        corpus = parse_corpus([(str(tmp_path / name), name[:10])])
        stats.append(corpus.file_stats[0])
        assert [(m.nick, m.body) for m in corpus.messages] == [
            ("mdz", SAMPLE_LINE[14:]), ("fabbione", "nods"), ("mdz", "mdz has quit"), ("mdz", "")
        ]
    assert [(st.parsed, st.skipped, st.total_lines) for st in stats] == [(4, 1, 5)] * 2


def test_parse_corpus_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "2011-06-02.txt"
    path.write_text(f"\ufeff{SAMPLE_LINE}\n[08:45] * fabbione nods\n", encoding="utf-8")
    corpus = parse_corpus([(str(path), DAY)])
    assert [m.nick for m in corpus.messages] == ["mdz", "fabbione"]
    assert corpus.skipped_count == 0


def test_parse_corpus_notice_only_file(tmp_path):
    path = tmp_path / "2011-01-01.txt"
    path.write_text(
        "[01:00] *** a has joined #x\n[01:01] *** a has quit IRC\n",
        encoding="utf-8",
    )
    corpus = parse_corpus([(str(path), "2011-01-01")])
    assert corpus.message_count == 2
    assert all(m.kind == SYSTEM for m in corpus.messages)


def test_parse_corpus_empty_input_set():
    with pytest.raises(ValueError, match="empty input set"):
        parse_corpus([])


def test_parse_corpus_unreadable_file_names_path(tmp_path):
    missing = tmp_path / "1999-01-01.txt"
    with pytest.raises(OSError, match="1999-01-01.txt"):
        parse_corpus([(str(missing), "1999-01-01")])


def test_parse_corpus_requires_increasing_dates(tmp_path):
    paths = [tmp_path / name for name in ("a.txt", "b.txt", "c.txt", "d.txt")]
    for path in paths:
        path.write_text("[01:00] <a> x\n", encoding="utf-8")
    dates = ["2011-01-01", "2011-01-03", "2011-01-02", "2011-01-01"]
    # the first pair out of order is named, both paths and both dates
    with pytest.raises(ValueError, match="strictly increasing") as info:
        parse_corpus([(str(path), day) for path, day in zip(paths, dates)])
    assert str(info.value).endswith(
        f"{paths[1]} (2011-01-03) is followed by {paths[2]} (2011-01-02)"
    )
    # a repeated date is out of order too
    with pytest.raises(ValueError, match="strictly increasing") as info:
        parse_corpus([(str(paths[0]), "2011-01-01"), (str(paths[3]), "2011-01-01")])
    assert f"{paths[0]} (2011-01-01) is followed by {paths[3]} (2011-01-01)" in str(info.value)


def test_fixture_corpus_shape(fixture_corpus):
    assert fixture_corpus.message_count == 11
    assert fixture_corpus.skipped_count == 1
    total = sum(st.total_lines for st in fixture_corpus.file_stats)
    assert total == 12


def test_fixture_corpus_golden_serialization(fixture_corpus, data_dir):
    golden = (data_dir / "corpus.golden.jsonl").read_text(encoding="utf-8")
    assert corpus_jsonl_text(fixture_corpus) == golden


def test_corpus_jsonl_round_trip(fixture_corpus, tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(fixture_corpus, path)
    loaded = read_corpus_jsonl(path)
    assert loaded.messages == fixture_corpus.messages
    assert loaded.message_count == fixture_corpus.message_count


GOOD_RECORD = (
    '{"date": "2011-01-01", "time": "09:00", "nick": "a", "body": "b", "kind": "user_message"}'
)
# A record that is not an object, whose field is not a string, whose date is
# in another ISO form, or whose log line does not read back as it: a clock
# that is not HH:MM, a nick the grammar refuses, a body with a line break, a
# system body that is no notice by its nick, a body ending in \r.
MALFORMED_RECORDS = [
    ("[1,2]", "expected a JSON object, got list"),
    (GOOD_RECORD.replace('"nick": "a"', '"nick": 5'), "field 'nick' must be a string"),
    (
        GOOD_RECORD.replace("09:00", "noon"),
        "no log line gives user_message 'b' from 'a' at 'noon'",
    ),
    (
        GOOD_RECORD.replace("09:00", "99:99"),
        "no log line gives user_message 'b' from 'a' at '99:99'",
    ),
    (
        GOOD_RECORD.replace('"nick": "a"', '"nick": ""'),
        "no log line gives user_message 'b' from '' at '09:00'",
    ),
    (
        GOOD_RECORD.replace('"nick": "a"', '"nick": "al ice"'),
        "no log line gives user_message 'b' from 'al ice' at '09:00'",
    ),
    (GOOD_RECORD.replace("2011-01-01", "20110101"), "date '20110101' is not a YYYY-MM-DD date"),
    (
        GOOD_RECORD.replace('"body": "b"', '"body": "a\\nb"'),
        r"no log line gives user_message 'a\\nb' from 'a' at '09:00'",
    ),
    (
        '{"date": "2011-01-01", "time": "09:00", "nick": "bob", "body": "hello", "kind": "system"}',
        "no log line gives system 'hello' from 'bob'",
    ),
    (
        '{"date": "2011-01-01", "time": "09:00", "nick": "bob", '
        '"body": "alice has joined #x", "kind": "system"}',
        "no log line gives system 'alice has joined #x' from 'bob'",
    ),
    (GOOD_RECORD.replace('"body": "b"', '"body": "b\\r"'), "no log line gives user_message 'b"),
    (GOOD_RECORD.replace("user_message", "notice"), "unknown message kind 'notice'"),
]


def test_read_corpus_jsonl_rejects_bad_records(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"date": "2011-01-01"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="bad corpus record"):
        read_corpus_jsonl(path)
    for record, reason in MALFORMED_RECORDS:
        path.write_text(GOOD_RECORD + "\n" + record + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"corpus.jsonl:2: bad corpus record: {reason}"):
            read_corpus_jsonl(path)
        with pytest.raises(PipelineError, match="bad corpus record") as info:
            run_pipeline(AnalysisConfig(corpus_path=str(path)))
        assert info.value.stage == "input"


def test_read_corpus_jsonl_names_the_first_bad_record(tmp_path):
    # Records are read back a run of one date at a time, after the JSON
    # checks; so among the pairs, a bad time on line 2 is named before a
    # list on line 3, and a bad body before a bad date.
    path = tmp_path / "corpus.jsonl"
    for first, _ in MALFORMED_RECORDS:
        for second, _ in MALFORMED_RECORDS:
            path.write_text("\n".join([GOOD_RECORD, first, second, ""]), encoding="utf-8")
            with pytest.raises(ValueError, match="corpus.jsonl:2: bad corpus record"):
                read_corpus_jsonl(path)


def test_read_corpus_jsonl_skips_blank_lines_but_counts_them(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(f"{GOOD_RECORD}\n\n  \n{GOOD_RECORD}\n", encoding="utf-8")
    assert read_corpus_jsonl(path).message_count == 2
    path.write_text(f"{GOOD_RECORD}\n\n{GOOD_RECORD.replace('09:00', '9:00')}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="corpus.jsonl:3: bad corpus record: .* at '9:00'"):
        read_corpus_jsonl(path)


def test_read_corpus_jsonl_splits_lines_at_newlines_only(tmp_path):
    # \r is JSON whitespace between tokens, not the end of a record.
    path = tmp_path / "corpus.jsonl"
    path.write_text(GOOD_RECORD.replace(", ", ",\r ") + "\r\n", encoding="utf-8", newline="")
    (msg,) = read_corpus_jsonl(path).messages
    assert (msg.nick, msg.body) == ("a", "b")


def test_read_corpus_jsonl_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\ufeff" + GOOD_RECORD + "\n", encoding="utf-8")
    (msg,) = read_corpus_jsonl(path).messages
    assert (msg.nick, msg.body) == ("a", "b")


def test_build_roster_sample_senders():
    lines = [
        SAMPLE_LINE,
        "[08:45] <fabbione> mdz: i think we could import the old comments via rsync",
    ]
    messages = tuple(parse_line(line, DAY) for line in lines)
    corpus = parse_corpus_from_messages(messages)
    roster = build_roster(corpus)
    assert roster == {"mdz": 1, "fabbione": 1}


def parse_corpus_from_messages(messages):
    from chatnet.ingest import ChatCorpus, FileStats

    stats = (FileStats("inline", messages[0].date, len(messages), 0, len(messages)),)
    return ChatCorpus(tuple(messages), stats)


def test_build_roster_case_folds():
    messages = (
        parse_line("[01:00] <Alice> hi", DAY),
        parse_line("[01:01] <alice> again", DAY),
    )
    roster = build_roster(parse_corpus_from_messages(messages))
    assert roster == {"alice": 2}


def test_build_roster_excludes_system(fixture_corpus):
    roster = build_roster(fixture_corpus)
    assert roster == {"alice": 2, "bob": 2, "carol": 1, "dave": 2, "eve": 2}


def test_build_roster_prior_nicks(fixture_corpus):
    roster = build_roster(fixture_corpus, prior_nicks=("Zed",))
    assert roster["zed"] == 0
    assert "zed" in roster


def test_roster_size_bounded_by_messages(fixture_corpus):
    roster = build_roster(fixture_corpus)
    speakers = sum(1 for m in fixture_corpus.messages if m.kind != SYSTEM)
    assert len(roster) <= speakers


def test_date_from_filename():
    assert date_from_filename("logs/2011-06-02.txt") == dt.date(2011, 6, 2)
    assert date_from_filename("notes.txt") is None


def test_discover_log_files(tmp_path):
    (tmp_path / "2011-01-02.txt").write_text("", encoding="utf-8")
    (tmp_path / "2011-01-01.txt").write_text("", encoding="utf-8")
    found = discover_log_files([str(tmp_path)])
    assert [date for _, date in found] == [dt.date(2011, 1, 1), dt.date(2011, 1, 2)]
    with pytest.raises(ValueError, match="manifest"):
        discover_log_files([str(tmp_path / "plain.txt")])
    # a name that looks like a date but is none
    (tmp_path / "2011-02-30.txt").write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="cannot infer a date from .*2011-02-30.txt"):
        discover_log_files([str(tmp_path)])


def test_run_reads_a_directory_of_upper_case_log_suffixes(tmp_path):
    text = (Path(__file__).parent / "data" / "2012-03-14.txt").read_bytes()
    (tmp_path / "2012-03-14.TXT").write_bytes(text)
    (tmp_path / "2012-03-15.Log").write_bytes(text)
    found = discover_log_files([str(tmp_path)])
    assert [Path(path).name for path, _ in found] == ["2012-03-14.TXT", "2012-03-15.Log"]
    report = run_pipeline(AnalysisConfig(log_paths=(str(tmp_path),), analyses=("stats",)))
    assert report.section("stats")["nodes"] > 0


def test_read_manifest(tmp_path):
    log = tmp_path / "day1.log"
    log.write_text("", encoding="utf-8")
    manifest = tmp_path / "files.csv"
    manifest.write_text("# comment\nday1.log,2011-01-01\n", encoding="utf-8")
    entries = read_manifest(manifest)
    assert entries == [(str(log), dt.date(2011, 1, 1))]
    manifest.write_text("day1.log\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad manifest line"):
        read_manifest(manifest)


@pytest.mark.parametrize("date", ["20110101", "2010-W52-6"])
def test_dates_are_only_read_as_yyyy_mm_dd(tmp_path, date):
    # date.fromisoformat reads both as 2011-01-01
    log = tmp_path / "day1.log"
    log.write_text("[09:00] <a> b\n", encoding="utf-8")
    manifest = tmp_path / "files.csv"
    manifest.write_text(f"day1.log,{date}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"files.csv:1: bad manifest line: 'day1.log,{date}'"):
        read_manifest(manifest)
    with pytest.raises(ValueError, match=f"date '{date}' is not a YYYY-MM-DD date"):
        parse_corpus([(str(log), date)])
    assert parse_corpus([(str(log), "2011-01-01")]).file_stats[0].date == dt.date(2011, 1, 1)


@pytest.mark.parametrize("mark", NOT_NEWLINES)
def test_read_roster_file_splits_lines_at_newlines_only(tmp_path, mark):
    roster = tmp_path / "people.txt"
    roster.write_text(f"# regulars {mark} ops\nalice\n", encoding="utf-8")
    assert read_roster_file(roster) == ["alice"]


@pytest.mark.parametrize("mark", NOT_NEWLINES)
def test_read_manifest_splits_lines_at_newlines_only(tmp_path, mark):
    manifest = tmp_path / "files.csv"
    manifest.write_text(
        f"# retired{mark}day0.log,2010-12-31\nday1.log,2011-01-01\n", encoding="utf-8"
    )
    assert read_manifest(manifest) == [(str(tmp_path / "day1.log"), dt.date(2011, 1, 1))]


@pytest.mark.parametrize("mark", NOT_NEWLINES)
def test_load_config_file_splits_lines_at_newlines_only(tmp_path, mark):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# tuned {mark} by hand\ntop_k = 4\n", encoding="utf-8")
    assert load_config_file(cfg) == {"top_k": 4}


def test_load_config_file_drops_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\ufefftop_k = 4\n", encoding="utf-8")
    assert load_config_file(cfg) == {"top_k": 4}


@pytest.mark.parametrize(
    "line",
    [
        "[08:43] <a\x01b> hello",
        "[08:45] * a\x01b nods",
        "[08:46] *** a\x01b has joined #channel",
    ],
)
def test_nick_with_control_character_is_skipped(tmp_path, line):
    assert parse_line(line, DAY) is None
    log = tmp_path / "2011-06-02.txt"
    log.write_text(line + "\n[08:47] <mdz> hi\n", encoding="utf-8")
    corpus = parse_corpus([(str(log), DAY)])
    assert corpus.message_count == 1
    assert corpus.skipped_count == 1


def test_corpus_nick_with_control_character_is_an_input_error(tmp_path):
    records = [
        {"date": "2011-06-02", "time": "09:00", "nick": "a\x01b",
         "body": "mdz: hi", "kind": USER_MESSAGE},
        {"date": "2011-06-02", "time": "09:01", "nick": "mdz",
         "body": "hello", "kind": USER_MESSAGE},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    message = r"no log line gives user_message 'mdz: hi' from 'a\\x01b' at '09:00'"
    with pytest.raises(PipelineError, match=message) as info:
        run_pipeline(AnalysisConfig(corpus_path=str(path)))
    assert info.value.stage == "input"


WORDS = "the a is on it apt grub boot kernel fix try log disk wifi thanks yes no".split()


def test_parsed_corpus_holds_under_150_bytes_per_message(tmp_path):
    # A day of busy channel: 300 nicks, bodies of 2 to 12 words, actions and
    # notices mixed in.  The corpus holds columns that share their clock and
    # nick strings, 132 bytes a message with CPython 3.11; one slotted
    # object per message held about 185, and one with its own clock and nick
    # strings about 320.
    rng = random.Random(15)
    nicks = [f"user{k}" for k in range(300)]
    lines = []
    for i in range(20_000):
        stamp = f"[{i // 60 % 24:02d}:{i % 60:02d}]"
        who = rng.choice(nicks)
        roll = rng.random()
        if roll < 0.05:
            lines.append(f"{stamp} *** {who} has joined #help")
        elif roll < 0.1:
            lines.append(f"{stamp} * {who} nods")
        else:
            words = rng.choices(WORDS, k=rng.randint(2, 12))
            lines.append(f"{stamp} <{who}> {rng.choice(nicks)}: {' '.join(words)}")
    log = tmp_path / "2011-06-02.txt"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        corpus = parse_corpus([(str(log), DAY)])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert corpus.message_count == 20_000
    assert held / corpus.message_count <= 150


def test_report_path_and_ingest_build_no_message_objects(
    fixture_files, fixture_graph, data_dir, tmp_path, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("a ChatMessage was built")

    monkeypatch.setattr(ChatMessage, "__init__", refuse)
    logs = [path for path, _ in fixture_files]
    manifest = tmp_path / "files.csv"
    manifest.write_text("".join(f"{path},{day}\n" for path, day in fixture_files))
    for config in (
        AnalysisConfig(log_paths=(str(data_dir),)),
        AnalysisConfig(manifest_path=str(manifest)),
        AnalysisConfig(corpus_path=str(data_dir / "corpus.golden.jsonl")),
    ):
        assert load_input_graph(config) == fixture_graph
    out = tmp_path / "corpus.jsonl"
    assert main(["ingest", *logs, "-o", str(out)]) == 0
    golden = (data_dir / "corpus.golden.jsonl").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == golden
    with pytest.raises(AssertionError, match="a ChatMessage was built"):
        parse_corpus(fixture_files).messages
