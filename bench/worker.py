"""Produce one chatnet report in a fresh interpreter.

    python3 bench/worker.py SPEC.json

SPEC names the analysis config, where to write the report bytes and, for a
traced run, where to write the spans.  The worker prints one JSON line:
the seconds ``run_pipeline`` plus ``to_json_text`` took, the process's peak
resident memory, and the error if the report raised.  ``chatnet`` must
import from the ``src`` directory the spec names, never from elsewhere.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import chatnet
    from chatnet import AnalysisConfig, run_pipeline

    src = Path(spec["src"]).resolve()
    if src not in Path(chatnet.__file__).resolve().parents:
        print(f"chatnet imported from {chatnet.__file__}, not from {src}", file=sys.stderr)
        return 2
    config = {k: tuple(v) if isinstance(v, list) else v for k, v in spec["config"].items()}
    cfg = AnalysisConfig(**config)

    tracer = None
    if spec.get("trace_path"):
        from spans import ROOT_SPAN, TO_JSON_SPAN, Tracer

        tracer = Tracer()
        installed = tracer.installed()
        root_span = tracer.span(ROOT_SPAN)
        json_span = tracer.span(TO_JSON_SPAN)
    else:
        installed = root_span = json_span = contextlib.nullcontext()

    error = None
    with installed:
        start = time.perf_counter()
        with root_span:
            try:
                report = run_pipeline(cfg)
                with json_span:
                    text = report.to_json_text()
            except Exception as exc:  # the benchmark counts it as a failed run
                error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start

    if error is None:
        Path(spec["report_path"]).write_bytes(text.encode("utf-8"))
    if tracer is not None:
        tracer.finish_counters()
        Path(spec["trace_path"]).write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"report_s": elapsed, "peak_rss_mb": peak_mb, "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
