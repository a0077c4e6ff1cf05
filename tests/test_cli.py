import argparse
import json
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from chatnet.cli import build_parser, main
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


def test_cli_analyze_rege_matrix(fixture_files, tmp_path, capsys):
    logs = [path for path, _ in fixture_files]
    out = tmp_path / "eq.csv"
    assert main(["analyze", *logs, "--what", "rege-matrix", "-o", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "nick,alice,bob,carol,dave,eve"
    assert len(lines) == 6
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


def _subcommand(name):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def test_every_parameter_is_set_by_exactly_one_report_flag():
    dests = [action.dest for action in _subcommand("report")._actions]
    for name in PARAMETERS:
        assert dests.count(name) == 1, name
    assert not set(INPUT_FIELDS) & set(dests)


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


def test_readme_commands_parse(capsys):
    commands = _readme_commands()
    assert len(commands) >= 13
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}\n{capsys.readouterr().err}")
