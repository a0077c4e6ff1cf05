import argparse
import hashlib
import json
import os
import re
import shlex
import shutil
import stat
import threading
from dataclasses import fields
from pathlib import Path

import pytest

from chatnet.cli import build_parser, main
from chatnet.ingest import read_corpus_jsonl
from chatnet.report import ALL_ANALYSES, INPUT_FIELDS, AnalysisConfig, load_config_file

PARAMETERS = [f.name for f in fields(AnalysisConfig) if f.name not in INPUT_FIELDS]

README = Path(__file__).resolve().parent.parent / "README.md"

RECORD = '{"date": "2011-01-01", "time": "09:00", "nick": "a", "body": "b", "kind": "user_message"}'
MALFORMED_RECORDS = [
    "[1,2]",
    '{"date": "2011-01-01", "time": "09:00", "nick": 5, "body": "b", "kind": "user_message"}',
    RECORD.replace("09:00", "noon"),
    RECORD.replace("09:00", "99:99"),
    RECORD.replace('"nick": "a"', '"nick": ""'),
    RECORD.replace('"nick": "a"', '"nick": "al ice"'),
    RECORD.replace('"body": "b"', '"body": "a\\nb"'),
    '{"date": "2011-01-01", "time": "09:00", "nick": "bob", "body": "hello", "kind": "system"}',
    '{"date": "2011-01-01", "time": "09:00", "nick": "bob", "body": "alice has joined #x", '
    '"kind": "system"}',
    RECORD.replace('"body": "b"', '"body": "b\\r"'),
    RECORD.replace("user_message", "notice"),
]


def test_cli_end_to_end(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    corpus = tmp_path / "corpus.jsonl"
    graph = tmp_path / "graph.csv"
    report = tmp_path / "report.json"
    summary = tmp_path / "report.md"
    assert main(["ingest", *logs, "-o", str(corpus)]) == 0
    assert main(["extract", str(corpus), "-o", str(graph)]) == 0
    assert graph.read_text(encoding="utf-8").startswith("source,target,weight")
    assert (
        main(
            [
                "report",
                str(graph),
                "-o",
                str(report),
                "--markdown",
                str(summary),
            ]
        )
        == 0
    )
    data = json.loads(report.read_text(encoding="utf-8"))
    assert data["stats"]["nodes"] == 5
    assert summary.read_text(encoding="utf-8").startswith("# Chat network analysis")
    out = tmp_path / "graph.dot"
    assert main(["export", str(graph), "--format", "dot", "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("digraph")
    capsys.readouterr()


def test_cli_analyze_stats_stdout(fixture_files, capsys):
    logs = [path for path, _ in fixture_files]
    assert main(["analyze", *logs, "--what", "stats"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["nodes"] == 5
    assert data["edges"] == 6


def test_cli_analyze_partition_csv(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "partition.csv"
    assert main(["analyze", *logs, "--what", "partition", "-o", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "nick,bowtie_label,skeleton_label"
    rows = dict(line.split(",", 1) for line in lines[1:])
    assert rows["alice"] == "SCC,A"
    assert rows["dave"] == "OTHERS,C"
    capsys.readouterr()


def test_cli_analyze_toplinks_csv(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "links.csv"
    assert main(["analyze", *logs, "--what", "toplinks", "-o", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "node_a,node_b,score"
    assert lines[1] == "alice,bob,4"
    capsys.readouterr()


def test_cli_analyze_hits_csv(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "hits.csv"
    assert main(["analyze", *logs, "--what", "hits-csv", "-o", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "nick,authority,hub,indegree,outdegree"
    assert len(lines) == 6
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["nick"] == "alice"
    assert row["indegree"] == "2"
    capsys.readouterr()


def test_cli_analyze_cliques_json(fixture_files, capsys):
    logs = [path for path, _ in fixture_files]
    assert main(["analyze", *logs, "--what", "cliques"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cliques"] == [["alice", "bob", "carol"]]


def test_cli_analyze_cliques_mutual_ties(fixture_files, capsys):
    logs = [path for path, _ in fixture_files]
    args = ["analyze", *logs, "--what", "cliques", "--clique-min-size", "2"]
    assert main(args + ["--mutual-ties"]) == 0
    mutual = json.loads(capsys.readouterr().out)
    assert mutual["cliques"] == [["alice", "bob"], ["alice", "carol"]]
    assert main(args) == 0
    loose = json.loads(capsys.readouterr().out)
    assert ["alice", "bob", "carol"] in loose["cliques"]


def test_cli_analyze_refuses_mutual_ties_outside_cliques(fixture_files, capsys):
    logs = [path for path, _ in fixture_files]
    assert main(["analyze", *logs, "--what", "hits", "--mutual-ties"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--mutual-ties applies to --what cliques only" in captured.err


def test_cli_analyze_rege_matrix(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "eq.csv"
    assert main(["analyze", *logs, "--what", "rege-matrix", "-o", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "nick,alice,bob,carol,dave,eve"
    assert len(lines) == 6
    # every similarity's repr, byte for byte
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "26208f676290c9ee566c063a723d91add15785bc3796bf608395971715ad56a9"
    )
    capsys.readouterr()


def test_cli_export_ego(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "ego.dot"
    assert (
        main(["export", *logs, "--format", "dot", "--ego", "alice", "-o", str(out)])
        == 0
    )
    text = out.read_text(encoding="utf-8")
    assert '"bob" -> "alice"' in text
    assert "dave" not in text
    capsys.readouterr()


def test_cli_extract_with_prior_roster(tmp_path, capsys):
    log = tmp_path / "2011-06-02.txt"
    log.write_text(
        "[08:43] <mdz> lifeless: ok, it sounds like you're agreeing with me, then\n"
        "[08:45] <fabbione> mdz: i think we could import the old comments via rsync\n",
        encoding="utf-8",
    )
    roster = tmp_path / "people.txt"
    roster.write_text("# known users\nlifeless\n", encoding="utf-8")
    out = tmp_path / "graph.csv"
    assert main(["extract", str(log), "--roster", str(roster), "-o", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert rows == ["fabbione,mdz,1", "mdz,lifeless,1"]
    capsys.readouterr()


def test_cli_export_with_attributes(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "attrs.dot"
    assert (
        main(["export", *logs, "--format", "dot", "--attrs", "-o", str(out)]) == 0
    )
    text = out.read_text(encoding="utf-8")
    assert "authority=" in text
    assert 'skeleton="A"' in text
    capsys.readouterr()


def test_cli_export_refuses_attrs_with_csv(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "graph.csv"
    assert main(["export", *logs, "--format", "csv", "--attrs", "-o", str(out)]) == 1
    assert "--attrs applies to --format dot and graphml only" in capsys.readouterr().err
    assert not out.exists()


def test_cli_ingest_with_manifest(fixture_files, tmp_path, capsys):
    manifest = tmp_path / "files.csv"
    manifest.write_text(
        "".join(f"{path},{date}\n" for path, date in fixture_files),
        encoding="utf-8",
    )
    corpus = tmp_path / "corpus.jsonl"
    assert main(["ingest", "--manifest", str(manifest), "-o", str(corpus)]) == 0
    assert len(corpus.read_text(encoding="utf-8").splitlines()) == 11
    capsys.readouterr()


def failing_ingest_input(kind, fixture_files, data_dir, tmp_path):
    # Input whose first run reads cleanly and whose last one fails: the
    # ingest arguments and what the error names.
    if kind == "manifest":
        first, date = fixture_files[0]
        missing = tmp_path / "2012-03-15.txt"
        manifest = tmp_path / "files.csv"
        manifest.write_text(f"{first},{date}\n{missing},2012-03-15\n", encoding="utf-8")
        return ["--manifest", str(manifest)], f"cannot read log file '{missing}'"
    lines = (data_dir / "corpus.golden.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["date"] < json.loads(lines[-1])["date"]
    lines[-1] = lines[-1].replace('"time": "', '"time": "9')
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [str(corpus)], f"corpus.jsonl:{len(lines)}: bad corpus record"


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("kind", ["manifest", "jsonl"])
def test_cli_ingest_that_fails_partway_leaves_the_output_as_it_was(
    kind, existing, fixture_files, data_dir, tmp_path, capsys
):
    args, named = failing_ingest_input(kind, fixture_files, data_dir, tmp_path)
    out = tmp_path / "out" / "corpus.jsonl"
    out.parent.mkdir()
    if existing:
        out.write_bytes(b"an earlier corpus\n")
    assert main(["ingest", *args, "-o", str(out)]) == 1
    assert named in capsys.readouterr().err
    if existing:
        assert out.read_bytes() == b"an earlier corpus\n"
    else:
        assert not out.exists()
    assert [path.name for path in out.parent.iterdir()] == ([out.name] if existing else [])


def test_cli_ingest_writes_through_a_symlink(data_dir, tmp_path, capsys):
    target = tmp_path / "target.jsonl"
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    assert main(["ingest", str(data_dir / "corpus.golden.jsonl"), "-o", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == (data_dir / "corpus.golden.jsonl").read_bytes()
    capsys.readouterr()


def test_cli_ingest_writes_into_a_pipe(data_dir, tmp_path, capsys):
    # A path that is no regular file is written in place, not replaced.
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert main(["ingest", str(data_dir / "corpus.golden.jsonl"), "-o", str(pipe)]) == 0
    reader.join(timeout=10)
    assert received == [(data_dir / "corpus.golden.jsonl").read_bytes()]
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    capsys.readouterr()


@pytest.mark.parametrize("date", ["20120314", "2012-W11-3"])
@pytest.mark.parametrize("command", ["ingest", "extract", "report"])
def test_cli_refuses_a_manifest_date_not_yyyy_mm_dd(fixture_files, tmp_path, capsys, date, command):
    # date.fromisoformat reads both as 2012-03-14
    manifest = tmp_path / "files.csv"
    manifest.write_text(f"{fixture_files[0][0]},{date}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--manifest", str(manifest), "-o", str(out)]) == 1
    assert "files.csv:1: bad manifest line" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["corpus.jsonl", "2012-01-01.jsonl", "2012-01-01.JSONL"])
def test_cli_ingest_reads_a_corpus_back(data_dir, tmp_path, capsys, name):
    # a date in a .jsonl name, of either case, does not make the corpus a log file
    golden = (data_dir / "corpus.golden.jsonl").read_bytes()
    source = tmp_path / name
    source.write_bytes(golden)
    out = tmp_path / "out.jsonl"
    assert main(["ingest", str(source), "-o", str(out)]) == 0
    assert out.read_bytes() == golden
    capsys.readouterr()


def test_cli_ingest_counts_the_same_days_for_logs_and_their_corpus(fixture_files, tmp_path, capsys):
    # A corpus JSONL has no file stats; ingest counts the dates of its messages.
    corpus = tmp_path / "corpus.jsonl"
    assert main(["ingest", *(path for path, _ in fixture_files), "-o", str(corpus)]) == 0
    from_logs = capsys.readouterr().err
    assert read_corpus_jsonl(corpus).file_stats == ()
    assert main(["ingest", str(corpus), "-o", str(tmp_path / "again.jsonl")]) == 0
    from_corpus = capsys.readouterr().err
    days = [re.search(r" over (\d+) day\(s\) ", err).group(1) for err in (from_logs, from_corpus)]
    assert days == ["2", "2"]


def test_cli_reads_an_upper_case_csv_suffix_as_a_graph(data_dir, tmp_path, capsys):
    graph = tmp_path / "2012-01-01.CSV"
    graph.write_bytes((data_dir / "graph.golden.csv").read_bytes())
    out = tmp_path / "r.json"
    assert main(["report", str(graph), "--analyses", "stats", "-o", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["stats"]["nodes"] == 5
    capsys.readouterr()


def test_cli_ingest_rejects_a_graph_csv(data_dir, tmp_path, capsys):
    graph = data_dir / "graph.golden.csv"
    out = tmp_path / "out.jsonl"
    assert main(["ingest", str(graph), "-o", str(out)]) == 1
    assert f"chatnet: ingest: '{graph}' is a graph CSV" in capsys.readouterr().err
    assert not out.exists()


def test_cli_ingest_takes_no_roster(fixture_files, tmp_path, capsys):
    log = fixture_files[0][0]
    with pytest.raises(SystemExit) as info:
        main(["ingest", log, "--roster", "people.txt", "-o", str(tmp_path / "c.jsonl")])
    assert info.value.code == 2
    assert "unrecognized arguments: --roster" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "extract", "report"])
def test_cli_logs_and_manifest_fail_at_config(fixture_files, tmp_path, capsys, command):
    (first, date), (second, _) = fixture_files
    manifest = tmp_path / "files.csv"
    manifest.write_text(f"{first},{date}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, second, "--manifest", str(manifest), "-o", str(out)]) == 1
    assert "chatnet: config: exactly one input source" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "report"])
@pytest.mark.parametrize("whole", ["corpus", "graph"])
def test_cli_corpus_or_graph_among_inputs_fails_at_config(
    fixture_files, data_dir, tmp_path, capsys, command, whole
):
    # Two corpora, or a graph CSV beside a log, were once read as IRC logs.
    corpus = tmp_path / "2012-01-01.jsonl"
    corpus.write_bytes((data_dir / "corpus.golden.jsonl").read_bytes())
    if whole == "corpus":
        second = tmp_path / "2012-01-02.jsonl"
        second.write_bytes(corpus.read_bytes())
        inputs = [str(corpus), str(second)]
    else:
        inputs = [fixture_files[0][0], str(data_dir / "graph.golden.csv")]
    named = inputs[0] if whole == "corpus" else inputs[1]
    out = tmp_path / "out"
    assert main([command, *inputs, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"chatnet: config: '{named}' is a corpus JSONL or graph CSV" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["report"], ["export", "--format", "dot"]], ids=["report", "export"]
)
def test_cli_rejects_roster_with_graph_csv(data_dir, tmp_path, capsys, command):
    graph = str(data_dir / "graph.golden.csv")
    out = tmp_path / "out"
    missing = str(tmp_path / "missing.txt")
    assert main([*command, graph, "--roster", missing, "-o", str(out)]) == 1
    assert "chatnet: config: a roster needs messages" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reads_log_paths_from_config_file(fixture_files, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    logs = ", ".join(path for path, _ in fixture_files)
    cfg.write_text(f"log_paths = {logs}\nanalyses = stats\n", encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["report", "--config", str(cfg), "-o", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["stats"]["nodes"] == 5
    capsys.readouterr()


def test_cli_reports_stage_on_error(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["report", str(tmp_path / "missing.csv"), "-o", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert "input" in err
    assert not report.exists()
    # malformed corpus records end the same way, not in a traceback
    corpus = tmp_path / "x.jsonl"
    for record in MALFORMED_RECORDS:
        corpus.write_text(record + "\n", encoding="utf-8")
        assert main(["report", str(corpus), "-o", str(report)]) == 1
        err = capsys.readouterr().err
        assert "chatnet: input: " in err and "x.jsonl:1: bad corpus record" in err
        assert not report.exists()
        assert main(["extract", str(corpus), "-o", str(tmp_path / "graph.csv")]) == 1
        assert "x.jsonl:1: bad corpus record" in capsys.readouterr().err
        assert not (tmp_path / "graph.csv").exists()


def test_cli_rejects_unknown_analysis(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    code = main(
        ["report", *logs, "--analyses", "nope", "-o", str(tmp_path / "r.json")]
    )
    assert code == 1
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_non_finite_hits_tolerance(fixture_files, tmp_path, capsys, value):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "r.json"
    code = main(
        ["report", *logs, "--hits-tolerance", value, "--analyses", "hits", "-o", str(out)]
    )
    assert code == 1
    assert "config: hits_tolerance must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_threads_flag_identical_report(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    first = tmp_path / "one.json"
    second = tmp_path / "eight.json"
    assert main(["report", *logs, "-o", str(first), "--threads", "1"]) == 0
    assert main(["report", *logs, "-o", str(second), "--threads", "8"]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_cli_config_file_and_override(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("analyses = stats\ntop_k = 3\n", encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["report", *logs, "--config", str(cfg), "-o", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data) == {"tool", "config", "stats"}
    assert data["config"]["top_k"] == 3
    assert (
        main(["report", *logs, "--config", str(cfg), "--top-k", "2", "-o", str(out)])
        == 0
    )
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["config"]["top_k"] == 2
    capsys.readouterr()


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("chatnet ")


def test_python_m_chatnet_runs_the_cli():
    # the children import chatnet from the same place this suite did, as in
    # test_report.test_deterministic_across_hash_seeds
    import os
    import subprocess
    import sys

    import chatnet

    import_root = str(Path(chatnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=import_root)
    done = subprocess.run(
        [sys.executable, "-m", "chatnet", "--version"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "chatnet 0.1.0\n"


def _subcommand(name):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def test_every_parameter_is_set_by_exactly_one_report_flag():
    dests = [action.dest for action in _subcommand("report")._actions]
    for name in PARAMETERS:
        assert dests.count(name) == 1, name
    assert not set(INPUT_FIELDS) & set(dests)


# The parameters each subcommand reads; analyze's --what stands in for analyses.
SUBCOMMAND_PARAMETERS = {
    "ingest": [],
    "extract": ["min_nick_length", "case_insensitive"],
    "export": [
        "min_nick_length", "case_insensitive",
        "hits_tolerance", "hits_max_iterations", "hits_weighted",
    ],
    "analyze": [name for name in PARAMETERS if name != "analyses"],
    "report": PARAMETERS,
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_PARAMETERS))
def test_each_subcommand_offers_the_parameters_it_reads(command):
    dests = [action.dest for action in _subcommand(command)._actions]
    assert [dest for dest in dests if dest in PARAMETERS] == SUBCOMMAND_PARAMETERS[command]
    assert ("threads" in dests) == (command == "report")
    assert ("config" in dests) == (command != "ingest")


def test_cli_refuses_a_parameter_its_subcommand_does_not_read(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "g.csv"
    for flags in (["--rege-iterations", "2"], ["--threads", "8"]):
        with pytest.raises(SystemExit) as info:
            main(["extract", *logs, *flags, "-o", str(out)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


# A valid value for each parameter, other than its default.
OTHER_VALUES = {
    "min_nick_length": 4,
    "case_insensitive": False,
    "hits_tolerance": 1e-3,
    "hits_max_iterations": 3,
    "hits_weighted": True,
    "clique_min_size": 4,
    "rege_iterations": 1,
    "eq_threshold": 0.9,
    "tie_cutoff": 0.9,
    "people_cutoff": 0.9,
    "lambda_mode": "weighted",
    "top_links_count": 2,
    "top_k": 2,
}


def _flag_args(name):
    flag = {"top_links_count": "--top-links", "case_insensitive": "--case-sensitive"}.get(
        name, "--" + name.replace("_", "-")
    )
    value = OTHER_VALUES[name]
    return [flag] if isinstance(value, bool) else [flag, str(value)]


def test_analyze_and_export_refuse_a_flag_their_target_does_not_read(
    fixture_files, tmp_path, capsys
):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "out"
    refused = [
        (["analyze", "--what", "stats", "--rege-iterations", "7"],
         "--what stats does not read --rege-iterations"),
        (["analyze", "--what", "cliques", "--top-k", "5", "--clique-min-size", "4"],
         "--what cliques does not read --top-k"),
        (["analyze", "--what", "toplinks", "--hits-weighted", "--lambda-mode", "weighted"],
         "--what toplinks does not read --hits-weighted, --lambda-mode"),
        (["export", "--format", "dot", "--hits-weighted"],
         "export without --attrs does not read --hits-weighted"),
        (["export", "--format", "graphml", "--hits-max-iterations", "5", "--ego", "mdz"],
         "export without --attrs does not read --hits-max-iterations"),
    ]
    for command, message in refused:
        assert main([command[0], *logs, *command[1:], "-o", str(out)]) == 1
        assert f"chatnet: config: {message}\n" == capsys.readouterr().err
        assert not out.exists()
    accepted = [
        ["analyze", "--what", "cliques", "--clique-min-size", "4", "--min-nick-length", "2"],
        ["analyze", "--what", "hits", "--top-k", "3", "--hits-weighted", "--case-sensitive"],
        ["analyze", "--what", "stats", "--min-nick-length", "4"],
        ["export", "--format", "dot", "--attrs", "--hits-weighted", "--hits-max-iterations", "5"],
        ["export", "--format", "csv", "--min-nick-length", "4"],
    ]
    for command in accepted:
        assert main([command[0], *logs, *command[1:], "-o", str(out)]) == 0, command
        out.unlink()


def test_each_target_offers_the_flags_it_reads_and_ignores_the_rest(fixture_files, tmp_path):
    # The table the refusals come from, checked against the program: every
    # flag a target reads is accepted, and setting any other parameter in a
    # config file leaves the target's output as it is.
    from chatnet.cli import _CSV_ANALYSES, _GRAPH_READS, _TARGET_READS

    logs = [path for path, _ in fixture_files]
    out = tmp_path / "out"
    conf = tmp_path / "other.conf"
    targets = [("analyze", "--what", what) for what in ALL_ANALYSES + _CSV_ANALYSES]
    targets += [("export", "--format", "dot", "--attrs"), ("export", "--format", "dot")]

    def output(command, *extra):
        assert main([command[0], *logs, *command[1:], *extra, "-o", str(out)]) == 0, extra
        return out.read_bytes()

    for command in targets:
        if command[0] == "analyze":
            reads = _GRAPH_READS + _TARGET_READS[command[2]]
        else:
            reads = _GRAPH_READS + (_TARGET_READS["attrs"] if "--attrs" in command else ())
        expected = output(command)
        for name in PARAMETERS:
            if name == "analyses":
                continue
            if name in reads:
                output(command, *_flag_args(name))
            else:
                conf.write_text(f"{name} = {str(OTHER_VALUES[name]).lower()}\n")
                assert output(command, "--config", str(conf)) == expected, (command, name)


def test_readme_flag_rule_matches_report_flags():
    # README: "A flag is the key with dashes, except `--top-links` (key
    # `top_links_count`) and `--case-sensitive` (key ...".
    text = " ".join(README.read_text(encoding="utf-8").split("### Configuration", 1)[1].split())
    found = re.search(
        r"A flag is the key with dashes, except `(--[\w-]+)` \(key `(\w+)`\) "
        r"and `(--[\w-]+)` \(key `(\w+)",
        text,
    )
    assert found, "README's flag rule is missing"
    exceptions = {found[2]: found[1], found[4]: found[3]}
    flags = {
        action.dest: action.option_strings
        for action in _subcommand("report")._actions
        if action.dest in PARAMETERS
    }
    assert set(flags) == set(PARAMETERS)
    for name, option_strings in flags.items():
        assert option_strings == [exceptions.get(name, "--" + name.replace("_", "-"))], name
    renamed = {name for name, (flag,) in flags.items() if flag != "--" + name.replace("_", "-")}
    assert renamed == set(exceptions)


def _changed(default, name):
    # A value of the field's type that differs from its default.
    if isinstance(default, bool):
        return not default
    if isinstance(default, (int, float)):
        return default * 2
    if isinstance(default, tuple):
        return ("stats", "hits")
    if default is None:
        return f"{name}.txt"
    return default + "x"


def _config_text(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(value)
    return str(value)


def test_config_file_accepts_every_field(tmp_path):
    expected = {f.name: _changed(f.default, f.name) for f in fields(AnalysisConfig)}
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        "".join(f"{key} = {_config_text(value)}\n" for key, value in expected.items()),
        encoding="utf-8",
    )
    assert load_config_file(cfg) == expected


def test_echo_keys_are_the_parameters_in_declaration_order(data_dir):
    assert list(AnalysisConfig().echo()) == PARAMETERS
    golden = json.loads((data_dir / "report.golden.json").read_text(encoding="utf-8"))
    assert list(golden["config"]) == PARAMETERS


def test_cli_empty_analyses_keeps_every_section(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "r.json"
    assert main(["report", *logs, "--analyses", "", "-o", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert list(data) == ["tool", "config", *ALL_ANALYSES]
    assert data["config"]["analyses"] == list(ALL_ANALYSES)
    capsys.readouterr()


def test_cli_case_sensitive_flag(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "r.json"
    assert main(["report", *logs, "--analyses", "stats", "-o", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["config"]["case_insensitive"] is True
    assert (
        main(["report", *logs, "--case-sensitive", "--analyses", "stats", "-o", str(out)])
        == 0
    )
    assert json.loads(out.read_text(encoding="utf-8"))["config"]["case_insensitive"] is False
    capsys.readouterr()


def _readme_commands():
    # `chatnet ...` lines in the README's ```sh blocks
    commands, in_sh = [], False
    for line in README.read_text(encoding="utf-8").split("\n"):
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("chatnet "):
            commands.append(line)
    return commands


def _readme_library_block():
    # the ```python block of the README's "Library use" section
    text = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_use_runs(fixture_files, tmp_path, monkeypatch):
    logs = tmp_path / "logs"
    logs.mkdir()
    shutil.copyfile(fixture_files[0][0], logs / "2011-06-02.txt")
    monkeypatch.chdir(tmp_path)
    exec(compile(_readme_library_block(), "README.md", "exec"), {})
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert list(report) == ["tool", "config", *ALL_ANALYSES]


def test_readme_commands_parse(capsys):
    commands = _readme_commands()
    assert len(commands) >= 13
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}\n{capsys.readouterr().err}")
