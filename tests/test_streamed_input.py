"""The report's streamed input against the whole-corpus path.

``load_input_graph`` reads logs one file at a time, and a corpus JSONL one
run of one date at a time, into a ``MentionCorpus`` and keeps no message
bodies; the library path parses a ``ChatCorpus``, builds the roster from it
and extracts.  Both must give the same graph and the same errors, and the
streamed path must hold much less memory.  ``chatnet ingest`` writes one
run at a time from the same stream.
"""

import gc
import tracemalloc

import pytest

from chatnet.cli import main
from chatnet.graph import extract_network
from chatnet.ingest import (
    MentionCorpus,
    build_roster,
    parse_corpus,
    read_roster_file,
    write_corpus_jsonl,
)
from chatnet.report import AnalysisConfig, load_corpus, load_input_graph

from synth import write_chat_logs


def corpus_path_graph(files, roster_path=None, **options):
    corpus = parse_corpus(files)
    prior = read_roster_file(roster_path) if roster_path else ()
    return extract_network(corpus, build_roster(corpus, prior), **options)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return write_chat_logs(tmp_path_factory.mktemp("logs"), seed=11, days=5, lines_per_day=800)


OPTIONS = [
    {},
    {"case_insensitive": False},
    {"min_nick_length": 5},
    {"min_nick_length": 1, "case_insensitive": False},
]


@pytest.mark.parametrize("options", OPTIONS)
@pytest.mark.parametrize("source", ["fixture", "generated"])
@pytest.mark.parametrize("form", ["logs", "manifest", "roster"])
def test_streamed_input_equals_the_corpus_path(
    source, form, options, fixture_files, generated, tmp_path
):
    files = fixture_files if source == "fixture" else generated
    roster = None
    if form == "roster":
        roster = tmp_path / "roster.txt"
        # users who are mentioned and never speak, and one who never appears
        prior = "# prior users\nGrub\nwifi\ndmesg\nQuiet0\nquiet1\nnobody_here\n"
        roster.write_text(prior, encoding="utf-8")
    if form == "manifest":
        manifest = tmp_path / "files.csv"
        manifest.write_text("".join(f"{path},{day}\n" for path, day in files), encoding="utf-8")
        cfg = AnalysisConfig(manifest_path=str(manifest), **options)
    else:
        cfg = AnalysisConfig(
            log_paths=tuple(path for path, _ in files),
            roster_path=str(roster) if roster else None,
            **options,
        )
    expected = corpus_path_graph(files, roster, **options)
    assert expected.edge_count > 0
    if roster:
        assert expected != corpus_path_graph(files, **options)
    assert load_input_graph(cfg) == expected
    streamed = load_corpus(cfg)
    assert isinstance(streamed, MentionCorpus)
    assert streamed.file_stats == parse_corpus(files).file_stats
    assert "columns" not in dir(streamed)


def test_a_nick_mentioned_before_it_first_speaks_is_counted(tmp_path):
    # "latecomer" is mentioned on the first day and speaks on the second: a
    # roster taken file by file would not hold it yet when day 1 is read.
    day1 = tmp_path / "2014-03-01.txt"
    day1.write_text("[09:00] <alice> latecomer: are you there?\n", encoding="utf-8")
    day2 = tmp_path / "2014-03-02.txt"
    day2.write_text("[09:00] <latecomer> alice: now I am\n", encoding="utf-8")
    graph = load_input_graph(AnalysisConfig(log_paths=(str(tmp_path),)))
    assert sorted(graph.edges_by_nick()) == [
        ("alice", "latecomer", 1.0),
        ("latecomer", "alice", 1.0),
    ]
    files = [(str(day1), "2014-03-01"), (str(day2), "2014-03-02")]
    assert graph == corpus_path_graph(files)


def error_of(call):
    with pytest.raises((OSError, ValueError)) as info:
        call()
    return type(info.value), str(info.value)


def test_streamed_input_fails_as_the_corpus_path_does(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    day = tmp_path / "2014-03-01.txt"
    day.write_text("[09:00] <alice> bob: hi\n", encoding="utf-8")
    other = tmp_path / "2014-03-02.txt"
    other.write_text("[09:00] <bob> alice: hi\n", encoding="utf-8")
    notices = tmp_path / "notices" / "2014-03-03.txt"
    notices.parent.mkdir()
    notices.write_text("[09:00] *** bob has joined #help\ngarbage\n", encoding="utf-8")
    gone = tmp_path / "gone.txt"
    cases = {
        "empty input set": [],
        "file dates must be strictly increasing": [
            (str(day), "2014-03-01"),
            (str(other), "2014-03-01"),
        ],
        "cannot read log file": [(str(day), "2014-03-01"), (str(gone), "2014-03-02")],
        "no participants": [(str(notices), "2014-03-03")],
    }
    for message, files in cases.items():
        manifest = tmp_path / "files.csv"
        manifest.write_text("".join(f"{path},{date}\n" for path, date in files), encoding="utf-8")
        streamed = error_of(lambda: load_input_graph(AnalysisConfig(manifest_path=str(manifest))))
        assert streamed == error_of(lambda: corpus_path_graph(files))
        assert message in streamed[1]
    # and from a directory, where discovery finds no file at all
    streamed = error_of(lambda: load_input_graph(AnalysisConfig(log_paths=(str(empty),))))
    assert streamed == (ValueError, "empty input set")


def peak_bytes(call):
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_input_peaks_well_below_the_corpus_path(tmp_path):
    # 20 daily files of 1,500 lines.  The corpus path holds every file's
    # columns until extraction ends; the streamed path holds one file's
    # columns at a time plus each file's senders and ASCII mention text
    # (about 38% of the corpus path's peak with CPython 3.11).
    files = write_chat_logs(tmp_path, seed=5, days=20, lines_per_day=1500, users=80)
    cfg = AnalysisConfig(log_paths=(str(tmp_path),))
    assert load_input_graph(cfg) == corpus_path_graph(files)
    streamed = peak_bytes(lambda: load_input_graph(cfg))
    whole = peak_bytes(lambda: corpus_path_graph(files))
    assert streamed < 0.6 * whole


@pytest.fixture(scope="module")
def twenty_days(tmp_path_factory):
    # 20 daily files of 1,500 lines, their corpus JSONL, and its bytes.
    directory = tmp_path_factory.mktemp("twenty")
    logs = directory / "logs"
    logs.mkdir()
    files = write_chat_logs(logs, seed=5, days=20, lines_per_day=1500, users=80)
    corpus = directory / "corpus.jsonl"
    write_corpus_jsonl(parse_corpus(files), corpus)
    return files, logs, corpus


def test_corpus_jsonl_input_peaks_near_the_log_input(twenty_days):
    # Both forms hold one run's messages at a time plus the MentionCorpus;
    # a JSONL run's records cost more than a log file's text (about 1.1x
    # the log input's peak with CPython 3.11; about 7x when the JSONL was
    # read whole).
    _, logs, corpus = twenty_days
    from_logs = AnalysisConfig(log_paths=(str(logs),))
    from_jsonl = AnalysisConfig(corpus_path=str(corpus))
    assert load_input_graph(from_jsonl) == load_input_graph(from_logs)
    assert peak_bytes(lambda: load_input_graph(from_jsonl)) <= 1.5 * peak_bytes(
        lambda: load_input_graph(from_logs)
    )


def test_a_corpus_jsonl_folds_as_the_logs_it_came_from(twenty_days):
    # A JSONL has no file stats, so the fold counts its own messages; its
    # runs of one date are the log files.
    files, logs, corpus = twenty_days
    from_logs = load_corpus(AnalysisConfig(log_paths=(str(logs),)))
    from_jsonl = load_corpus(AnalysisConfig(corpus_path=str(corpus)))
    assert from_jsonl.file_stats == ()
    assert from_jsonl.message_count == from_logs.message_count == parse_corpus(files).message_count
    assert from_jsonl.texts == from_logs.texts
    assert from_jsonl.counts == from_logs.counts


def test_ingest_peaks_well_below_the_library_path(twenty_days, tmp_path, capsys):
    # ingest holds one file's columns and JSONL text at a time (about 6% of
    # the library path's peak with CPython 3.11; the same peak when ingest
    # read everything before writing), and writes the same bytes.
    files, logs, corpus = twenty_days
    streamed = tmp_path / "streamed.jsonl"
    whole = tmp_path / "whole.jsonl"
    ingest_peak = peak_bytes(lambda: main(["ingest", str(logs), "-o", str(streamed)]))
    library_peak = peak_bytes(lambda: write_corpus_jsonl(parse_corpus(files), whole))
    assert streamed.read_bytes() == whole.read_bytes() == corpus.read_bytes()
    assert ingest_peak < 0.6 * library_peak
    capsys.readouterr()
