"""The benchmark's span contract, checked against the pipeline.

``bench/spans.py`` names the layer functions a traced report must call.  A
report that stops calling one of them breaks the traced benchmark, so each
input kind is run traced here: every expected span must fire, and tracing
must not change a byte of the report.
"""

import importlib
import sys
from pathlib import Path

import pytest

from chatnet.graph import write_graph_csv
from chatnet.report import AnalysisConfig, run_pipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ stays as committed
    return importlib.import_module("spans")


@pytest.mark.parametrize("kind", ["logs", "csv"])
def test_traced_report_fires_every_expected_span(spans, kind, fixture_files, fixture_graph, tmp_path):
    if kind == "logs":
        cfg = AnalysisConfig(log_paths=tuple(path for path, _ in fixture_files))
    else:
        path = tmp_path / "graph.csv"
        write_graph_csv(fixture_graph, path)
        cfg = AnalysisConfig(graph_path=str(path))
    expected = set(spans.INPUT_SPANS[kind])
    for section in cfg.analyses:
        expected.update(spans.SECTION_SPANS[section])
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run_pipeline(cfg).to_json_text()
    assert expected <= {name for name, *_ in tracer.spans}
    assert traced == run_pipeline(cfg).to_json_text()
