import json
import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

from chatnet import equivalence
from chatnet.equivalence import classify_roles, rege
from chatnet.graph import MentionGraph, read_graph_csv, write_graph_csv
from chatnet.report import (
    ALL_ANALYSES,
    AnalysisConfig,
    PipelineError,
    export_graph,
    load_config_file,
    load_report_schema,
    run_pipeline,
)
from chatnet.skeleton import abcd_skeleton


def fixture_config(fixture_files, **overrides):
    base = AnalysisConfig(log_paths=tuple(path for path, _ in fixture_files))
    return replace(base, **overrides)


def test_report_matches_golden(fixture_files, data_dir):
    report = run_pipeline(fixture_config(fixture_files))
    golden = (data_dir / "report.golden.json").read_text(encoding="utf-8")
    assert report.to_json_text() == golden


def test_report_validates_against_schema(fixture_files):
    jsonschema = pytest.importorskip("jsonschema")
    report = run_pipeline(fixture_config(fixture_files))
    jsonschema.validate(json.loads(report.to_json_text()), load_report_schema())


def test_stats_only_config(fixture_files):
    report = run_pipeline(fixture_config(fixture_files, analyses=("stats",)))
    assert set(report.data) == {"tool", "config", "stats"}


def test_each_enabled_analysis_contributes_one_section(fixture_files):
    for name in ALL_ANALYSES:
        report = run_pipeline(fixture_config(fixture_files, analyses=(name,)))
        assert set(report.data) == {"tool", "config", name}


def test_graph_csv_input_equals_log_input(fixture_files, fixture_graph, tmp_path):
    path = tmp_path / "graph.csv"
    write_graph_csv(fixture_graph, path)
    from_logs = run_pipeline(fixture_config(fixture_files))
    from_csv = run_pipeline(AnalysisConfig(graph_path=str(path)))
    assert from_csv.to_json_text() == from_logs.to_json_text()


def test_corpus_input_equals_log_input(fixture_files, fixture_corpus, tmp_path):
    from chatnet.ingest import write_corpus_jsonl

    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(fixture_corpus, path)
    from_corpus = run_pipeline(AnalysisConfig(corpus_path=str(path)))
    from_logs = run_pipeline(fixture_config(fixture_files))
    assert from_corpus.to_json_text() == from_logs.to_json_text()


def test_deterministic_across_runs_and_threads(fixture_files):
    texts = {
        run_pipeline(fixture_config(fixture_files), threads=threads).to_json_text()
        for threads in (1, 8, 1)
    }
    assert len(texts) == 1


def test_deterministic_across_hash_seeds(fixture_files):
    # string-hash randomization must not leak into the report bytes
    import subprocess
    import sys
    from pathlib import Path

    import chatnet

    # the children import chatnet from the same place this suite did:
    # an editable install or PYTHONPATH=src, from any working directory
    import_root = str(Path(chatnet.__file__).resolve().parent.parent)
    log_paths = tuple(p for p, _ in fixture_files)
    program = (
        "from chatnet.report import AnalysisConfig, run_pipeline\n"
        f"cfg = AnalysisConfig(log_paths={log_paths!r})\n"
        "import sys; sys.stdout.write(run_pipeline(cfg, threads=4).to_json_text())\n"
    )
    outputs = set()
    for seed in ("0", "1", "431"):
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": import_root},
        )
        assert result.returncode == 0, f"PYTHONHASHSEED={seed}:\n{result.stderr}"
        outputs.add(result.stdout)
    assert len(outputs) == 1
    (output,) = outputs
    assert output
    assert output == run_pipeline(AnalysisConfig(log_paths=log_paths)).to_json_text()


def test_pipeline_error_names_stage():
    with pytest.raises(PipelineError) as info:
        run_pipeline(AnalysisConfig(graph_path="does-not-exist.csv"))
    assert info.value.stage == "input"
    with pytest.raises(PipelineError) as info:
        run_pipeline(AnalysisConfig())
    assert info.value.stage == "config"
    with pytest.raises(PipelineError) as info:
        run_pipeline(AnalysisConfig(graph_path="x.csv", analyses=("nope",)))
    assert info.value.stage == "config"


def test_config_validation_messages():
    cfg = AnalysisConfig(graph_path="g.csv", eq_threshold=1.5)
    with pytest.raises(ValueError, match="eq_threshold"):
        cfg.validate()
    cfg = AnalysisConfig(graph_path="g.csv", lambda_mode="misc")
    with pytest.raises(ValueError, match="lambda_mode"):
        cfg.validate()


def test_config_file_parsing_and_precedence(tmp_path):
    cfg_file = tmp_path / "analysis.cfg"
    cfg_file.write_text(
        "# fixture settings\n"
        "clique_min_size = 4\n"
        "hits_weighted = true\n"
        "analyses = stats, hits\n",
        encoding="utf-8",
    )
    overrides = load_config_file(cfg_file)
    assert overrides == {
        "clique_min_size": 4,
        "hits_weighted": True,
        "analyses": ("stats", "hits"),
    }
    merged = replace(AnalysisConfig(), **overrides)
    assert merged.clique_min_size == 4
    # explicit flag wins over the file
    final = replace(merged, clique_min_size=5)
    assert final.clique_min_size == 5


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "analysis.cfg"
    cfg_file.write_text("cliquemin = 4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config_file(cfg_file)


@pytest.mark.parametrize(
    "key, value",
    [
        ("top_k", "ten"),
        ("eq_threshold", "half"),
        ("hits_weighted", "maybe"),
        # a '#' after a value is not a comment
        ("top_k", "4  # a note"),
    ],
)
def test_config_file_bad_value_names_its_location(tmp_path, key, value):
    cfg_file = tmp_path / "analysis.cfg"
    cfg_file.write_text(f"# settings\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_config_file(cfg_file)
    message = str(info.value)
    assert message.startswith(f"{cfg_file}:2: bad value for {key}: ")
    assert repr(value) in message


def test_config_file_empty_analyses_is_a_bad_value(tmp_path):
    # An empty list would leave a report without sections.
    cfg_file = tmp_path / "analysis.cfg"
    cfg_file.write_text("top_k = 3\nanalyses =\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_config_file(cfg_file)
    assert str(info.value).startswith(f"{cfg_file}:2: bad value for analyses: ")


def test_config_file_keeps_a_hash_inside_a_value(tmp_path):
    # Only a line that starts with '#' is a comment; IRC channel names
    # often put one inside a path.
    cfg_file = tmp_path / "analysis.cfg"
    cfg_file.write_text(
        "  # logs of one channel\nlog_paths = /data/#ubuntu, day#2.log\n", encoding="utf-8"
    )
    assert load_config_file(cfg_file) == {"log_paths": ("/data/#ubuntu", "day#2.log")}


@pytest.mark.parametrize(
    "inputs",
    [{}, {"log_paths": ("2012-03-15.txt",), "manifest_path": "m.csv"}],
)
def test_validate_requires_exactly_one_input_source(inputs):
    with pytest.raises(ValueError, match="exactly one input source"):
        AnalysisConfig(**inputs).validate()


def test_validate_rejects_no_analyses():
    with pytest.raises(ValueError, match="analyses"):
        AnalysisConfig(graph_path="g.csv", analyses=()).validate()


@pytest.mark.parametrize("tolerance", [0.0, -1e-9, math.nan, math.inf])
def test_validate_requires_finite_positive_hits_tolerance(tolerance):
    with pytest.raises(ValueError, match="hits_tolerance must be positive and finite"):
        AnalysisConfig(graph_path="g.csv", hits_tolerance=tolerance).validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("top_k", "3"),
        ("top_k", True),
        ("hits_max_iterations", 3.0),
        ("eq_threshold", "0.5"),
        ("case_insensitive", 1),
        ("analyses", "stats"),
        ("log_paths", "logs/2014-01-01.txt"),
        ("roster_path", 5),
        ("analyses", ("stats", 3)),
        ("log_paths", (3,)),
    ],
)
def test_wrong_config_type_fails_the_config_stage(field, value):
    inputs = {} if field == "log_paths" else {"graph_path": "g.csv"}
    with pytest.raises(PipelineError, match=f"config: {field} must be") as info:
        run_pipeline(AnalysisConfig(**inputs, **{field: value}))
    assert info.value.stage == "config"


def test_config_takes_an_int_for_a_float_and_a_path_object():
    AnalysisConfig(graph_path=Path("g.csv"), tie_cutoff=1, hits_tolerance=1).validate()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_config_file_non_finite_hits_tolerance_fails_the_run(fixture_files, tmp_path, value):
    cfg_file = tmp_path / "analysis.cfg"
    cfg_file.write_text(f"hits_tolerance = {value}\n", encoding="utf-8")
    cfg = fixture_config(fixture_files, **load_config_file(cfg_file))
    with pytest.raises(PipelineError, match="config.*hits_tolerance"):
        run_pipeline(cfg)


def test_markdown_summary_renders(fixture_files):
    report = run_pipeline(fixture_config(fixture_files))
    text = report.to_markdown()
    assert "# Chat network analysis" in text
    assert "## Role cases" in text
    assert "case" in text


def test_export_dot_sample_edge(tmp_path):
    g = MentionGraph.from_edge_list(
        [("mdz", "lifeless", 1), ("fabbione", "mdz", 1)]
    )
    path = tmp_path / "graph.dot"
    export_graph(g, "dot", path)
    text = path.read_text(encoding="utf-8")
    assert '"mdz" -> "lifeless" [weight=1];' in text
    assert text.startswith("digraph")


def test_export_dot_empty_graph(tmp_path):
    path = tmp_path / "empty.dot"
    export_graph(MentionGraph([], {}), "dot", path)
    assert path.read_text(encoding="utf-8") == "digraph mentions {\n}\n"


def test_export_graphml_parses_and_types(tmp_path, fixture_graph):
    path = tmp_path / "graph.graphml"
    attrs = {nick: {"authority": 0.25, "skeleton": "A"} for nick in fixture_graph.nicks}
    export_graph(fixture_graph, "graphml", path, node_attrs=attrs)
    root = ET.parse(path).getroot()
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    keys = {
        k.get("attr.name"): k.get("attr.type") for k in root.findall("g:key", ns)
    }
    assert keys["weight"] == "double"
    assert keys["authority"] == "double"
    assert keys["skeleton"] == "string"
    edges = root.findall("g:graph/g:edge", ns)
    assert len(edges) == fixture_graph.edge_count


def test_export_graphml_empty_graph(tmp_path):
    path = tmp_path / "empty.graphml"
    export_graph(MentionGraph([], {}), "graphml", path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("graphml")


def test_export_csv_round_trip(tmp_path, fixture_graph):
    path = tmp_path / "graph.csv"
    export_graph(fixture_graph, "csv", path)
    assert read_graph_csv(path) == fixture_graph


def test_export_unknown_format(tmp_path, fixture_graph):
    with pytest.raises(ValueError, match="unknown export format"):
        export_graph(fixture_graph, "svg", tmp_path / "x.svg")


def test_pipeline_handles_edgeless_corpus(tmp_path):
    # actions build a roster but create no ties; every section must cope
    log = tmp_path / "2011-01-01.txt"
    log.write_text("[01:00] * alice waves\n", encoding="utf-8")
    report = run_pipeline(AnalysisConfig(log_paths=(str(log),)))
    data = report.data
    assert data["stats"]["nodes"] == 0
    assert data["lambda"]["levels"] == []
    assert data["lambda"]["top_links"] == []
    assert all(c == {"empty": True} for c in data["roles"]["components"].values())
    assert report.to_markdown()


def test_roles_section_empty_component_marker(fixture_files):
    report = run_pipeline(fixture_config(fixture_files, analyses=("roles",)))
    components = report.section("roles")["components"]
    assert components["D"] == {"empty": True}
    assert components["A"]["characteristics"]


@pytest.mark.parametrize("iterations", [1, 2, 4])
def test_roles_section_equals_full_rege(fixture_files, fixture_graph, iterations):
    # The section runs the last REGE round at the ties only; its cases must
    # be those of the full matrix.
    cfg = fixture_config(fixture_files, analyses=("roles",), rege_iterations=iterations)
    components = run_pipeline(cfg).section("roles")["components"]
    values = rege(fixture_graph, iterations).values
    fractions = {}
    for v, name in enumerate(fixture_graph.nicks):
        neighbors = set(fixture_graph.out_neighbors(v)) | set(fixture_graph.in_neighbors(v))
        high = sum(1 for w in neighbors if values[v, w] > cfg.eq_threshold)
        fractions[name] = high / len(neighbors) if neighbors else 0.0
    partition = abcd_skeleton(fixture_graph)
    expected = classify_roles(partition, fractions, cfg.tie_cutoff, cfg.people_cutoff)
    for name, case in expected.components.items():
        if case.empty:
            assert components[name] == {"empty": True}
        else:
            assert components[name]["mean_tie_fraction"] == case.mean_tie_fraction
            assert components[name]["people_fraction"] == case.people_fraction
            assert components[name]["case"] == case.case


def test_roles_section_builds_one_setup(fixture_files, monkeypatch):
    # rege builds the slot table once, and the tie fractions reuse it.
    calls = []
    slots = equivalence._slots

    def counted(*args, **kwargs):
        calls.append(args)
        return slots(*args, **kwargs)

    monkeypatch.setattr(equivalence, "_slots", counted)
    run_pipeline(fixture_config(fixture_files, analyses=("roles",)))
    assert len(calls) == 1


def fractional_weight_csv(tmp_path):
    path = tmp_path / "fractional.csv"
    path.write_text(
        "source,target,weight\naaa,bbb,1.5\nbbb,ccc,2\nccc,aaa,1\nccc,ddd,3\n",
        encoding="utf-8",
    )
    return str(path)


def test_fractional_weights_skip_top_links_in_unit_mode(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    report = run_pipeline(AnalysisConfig(graph_path=fractional_weight_csv(tmp_path)))
    lam = report.section("lambda")
    assert lam["mode"] == "unit"
    # the unit hierarchy is intact: the triangle joins at 2, the pendant at 1
    assert lam["levels"] == [
        {"value": 2.0, "sets": [["aaa", "bbb", "ccc"]]},
        {"value": 1.0, "sets": [["aaa", "bbb", "ccc", "ddd"]]},
    ]
    assert lam["top_links"] == []
    assert lam["top_links_skipped"] == (
        "weighted connectivity requires integral edge weights, got 1.5"
    )
    assert "roles" in report.data
    jsonschema.validate(json.loads(report.to_json_text()), load_report_schema())
    assert "top links: skipped, weighted connectivity" in report.to_markdown()


def test_fractional_weights_fail_weighted_lambda(tmp_path):
    cfg = AnalysisConfig(graph_path=fractional_weight_csv(tmp_path), lambda_mode="weighted")
    with pytest.raises(PipelineError, match="integral edge weights, got 1.5") as info:
        run_pipeline(cfg)
    assert info.value.stage == "lambda"
