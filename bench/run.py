"""chatnet benchmark: seeded workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py --workload pa-report --seed 7 --seconds 60 --trace 0

Run from the root of a checkout.  The benchmark generates the workload's
input files from the seed under ``.bench_work/``, then drives chatnet's
public API in fresh interpreters that import the package from ``src/``:
one client, one report in flight, ``threads=1``.  Every report is checked
(schema, recorded digest, byte identity across runs).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"
WORK_DIR = ".bench_work"
SEEN_DIGESTS = "seen-digests.json"

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
# Share of the traced report's time that the layer spans must account for;
# below it, some layer's calls are no longer reaching the wrappers.
MIN_COVERAGE = 0.9

END_TO_END = {
    "report_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_share": "share",
}
_TIMED = [f"{layer}.{fn}" for layer, names in spans.LAYER_FUNCTIONS.items() for fn in names]
PER_LAYER = {
    **{f"{name}_s": "s" for name in _TIMED},
    "connectivity.maxflow_s": "s",
    "report.to_json_text_s": "s",
    "equivalence.rege_s_per_iteration": "s",
    "equivalence.rege_peak_mb": "MiB",
    "equivalence.slots": "count",
    "equivalence.distinct_keys": "count",
    "connectivity.gomory_hu_calls": "count",
    "connectivity.maxflow_calls": "count",
    "connectivity.bridges": "count",
    "graph.pendant_nodes": "count",
    "graph.nodes": "count",
    "graph.edges": "count",
    "ingest.lines": "count",
    "ingest.messages": "count",
    "ingest.skipped": "count",
    "cohesion.cliques": "count",
    "centrality.hits_iterations": "count",
    "report.bytes": "bytes",
    "trace.coverage": "share",
    "trace.overhead_s": "s",
}


def fits(start: float, seconds: float, done: int) -> bool:
    """Whether one more round, as long as the average so far, ends in the window."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


@dataclass
class ReportCheck:
    """Correctness gate applied to every report a run produces."""

    schema: dict
    recorded: str | None  # digest recorded for this workload, size and seed
    previous: str | None  # digest an earlier run in this checkout produced
    nodes_edges: tuple[int, int] | None
    validated: set[str] = field(default_factory=set)

    def failure(self, data: bytes) -> str | None:
        digest = hashlib.sha256(data).hexdigest()
        if self.recorded is not None and digest != self.recorded:
            return f"sha256 {digest} differs from the recorded {self.recorded}"
        if self.previous is not None and digest != self.previous:
            return f"sha256 {digest} differs from an earlier run's {self.previous}"
        if digest in self.validated:
            return None
        try:
            doc = json.loads(data)
            jsonschema.validate(doc, self.schema)
        except (ValueError, jsonschema.ValidationError) as exc:
            return f"report is not valid: {str(exc).splitlines()[0]}"
        if self.nodes_edges is not None:
            got = (doc["stats"]["nodes"], doc["stats"]["edges"])
            if got != self.nodes_edges:
                return f"graph has {got} nodes/edges, expected {self.nodes_edges}"
        self.validated.add(digest)
        self.previous = digest
        return None


@dataclass
class Attempt:
    report_s: float
    peak_rss_mb: float
    failure: str | None
    digest: str | None = None
    nbytes: int = 0
    trace: dict | None = None


class Bench:
    """One benchmark run of one workload and seed inside a checkout."""

    def __init__(self, root: Path, workload: str, seed: int, size: str, tamper: bool):
        self.root = root
        self.src = root / "src"
        if not (self.src / "chatnet" / "__init__.py").is_file():
            raise BenchError(f"no chatnet sources under {self.src}; run from a checkout root")
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.size = size
        self.tamper = tamper
        self.base = root / WORK_DIR
        self.work = self.base / f"{workload}-{size}-{seed}-{os.getpid()}"
        self.env = {**os.environ, "PYTHONPATH": str(self.src)}
        self.attempted = 0
        self.failed = 0
        self.last_digest: str | None = None

    # -- inputs -------------------------------------------------------------

    def prepare(self) -> dict:
        """Write the workload's input files; return the report config."""
        w = self.workload
        self.work.mkdir(parents=True)
        config: dict = {"lambda_mode": w.lambda_mode}
        if w.analyses is not None:
            config["analyses"] = list(w.analyses)
        if w.input_kind == "csv":
            graph_csv = self.work / "graph.csv"
            workloads.write_pa_csv(graph_csv, self.seed, self.size)
            config["graph_path"] = str(graph_csv)
        else:
            logs = self.work / "logs"
            workloads.write_chat_logs(logs, self.seed, self.size)
            config["log_paths"] = [str(logs)]
        return config

    def report_check(self) -> ReportCheck:
        schema_path = self.src / "chatnet" / "schemas" / "report.schema.json"
        recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
        pa = self.workload.input_kind == "csv"
        return ReportCheck(
            schema=json.loads(schema_path.read_text(encoding="utf-8")),
            recorded=recorded.get(self.workload.name, {}).get(self.size, {}).get(str(self.seed)),
            previous=self._seen().get(self._seen_key()),
            nodes_edges=workloads.PA_SIZES[self.size] if pa else None,
        )

    def _seen_key(self) -> str:
        return f"{self.workload.name}/{self.size}/{self.seed}"

    def _seen(self) -> dict:
        path = self.base / SEEN_DIGESTS
        return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}

    def remember(self) -> None:
        """Keep this seed's report digest so later runs compare against it."""
        if self.last_digest is None or self.failed:
            return
        seen = self._seen()
        if seen.get(self._seen_key()) == self.last_digest:
            return
        seen[self._seen_key()] = self.last_digest
        tmp = self.base / f"{SEEN_DIGESTS}.{os.getpid()}"
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.base / SEEN_DIGESTS)

    # -- measurements -------------------------------------------------------

    def setup_seconds(self) -> float:
        """Median CPU time (user + system) of a fresh interpreter importing chatnet.

        CPU rather than wall time: part of the import runs on helper
        threads, so its wall time depends on whether a second CPU happens
        to be free, while the work done does not.
        """
        samples = []
        for _ in range(SETUP_SAMPLES):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            subprocess.run(
                [sys.executable, "-c", "import chatnet"],
                env=self.env, cwd=self.root, check=True, timeout=WORKER_TIMEOUT_S,
            )
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            samples.append(
                after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
            )
        log(f"setup samples: {', '.join(f'{s:.4f}' for s in samples)}")
        return statistics.median(samples)

    def attempt(self, config: dict, check: ReportCheck, traced: bool) -> Attempt:
        """Produce one report in a fresh process and check it."""
        n = self.attempted
        self.attempted += 1
        report_path = self.work / f"report-{n}.json"
        trace_path = self.work / f"trace-{n}.json" if traced else None
        spec_path = self.work / f"spec-{n}.json"
        spec = {
            "src": str(self.src),
            "config": config,
            "report_path": str(report_path),
            "trace_path": str(trace_path) if traced else None,
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
                env=self.env, cwd=self.root, capture_output=True, text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            result = Attempt(time.perf_counter() - start, 0.0, "timed out")
        else:
            if proc.returncode != 0 or not proc.stdout.strip():
                raise BenchError(f"report worker exited with {proc.returncode}: {proc.stderr.strip()}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            result = Attempt(out["report_s"], out["peak_rss_mb"], out["error"])
            if result.failure is None:
                data = report_path.read_bytes()
                if self.tamper:
                    data = bytearray(data)
                    data[len(data) // 2] ^= 0x01
                    data = bytes(data)
                result.digest = hashlib.sha256(data).hexdigest()
                result.nbytes = len(data)
                result.failure = check.failure(data)
            if traced:
                result.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        log(
            f"{self.workload.name} seed={self.seed} report {n}{' traced' if traced else ''}: "
            f"{result.report_s:.4f} s, {result.peak_rss_mb:.1f} MiB, sha256={result.digest}"
            + (f", FAILED: {result.failure}" if result.failure else "")
        )
        if result.failure:
            self.failed += 1
        else:
            self.last_digest = result.digest
        return result

    def timed(self, config: dict, check: ReportCheck, seconds: float) -> dict:
        setup_s = self.setup_seconds()
        attempts = []
        start = time.perf_counter()
        while not attempts or fits(start, seconds, len(attempts)):
            attempts.append(self.attempt(config, check, traced=False))
        ok = [a for a in attempts if a.failure is None] or attempts
        return {
            "report_s": statistics.median(a.report_s for a in attempts),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(a.peak_rss_mb for a in ok),
            "ok_share": (self.attempted - self.failed) / self.attempted,
        }

    def traced(self, config: dict, check: ReportCheck, seconds: float) -> dict:
        """Untraced and traced reports in turn; per-layer medians."""
        plain, layered = [], []
        start = time.perf_counter()
        while not plain or fits(start, seconds, len(plain)):
            plain.append(self.attempt(config, check, traced=False).report_s)
            attempt = self.attempt(config, check, traced=True)
            if attempt.trace is None:
                continue
            metrics = self.layer_metrics(attempt.trace)
            metrics["report.bytes"] = attempt.nbytes
            layered.append((attempt.report_s, metrics))
        if not layered:
            raise BenchError("no traced report completed")
        result = {
            name: statistics.median(m[name] for _, m in layered)
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        result["trace.overhead_s"] = statistics.median(t for t, _ in layered) - statistics.median(plain)
        return result

    def layer_metrics(self, trace: dict) -> dict:
        own, calls, total = spans.self_times(trace["spans"])
        expected = set(spans.INPUT_SPANS[self.workload.input_kind])
        for section in self.workload.analyses or spans.SECTION_SPANS:
            expected.update(spans.SECTION_SPANS[section])
        missing = sorted(expected - set(calls))
        if missing:
            raise spans.TraceError(f"expected layer calls never happened: {', '.join(missing)}")
        metrics = {f"{name}_s": own.get(name, 0.0) for name in _TIMED}
        metrics["connectivity.maxflow_s"] = own.get(spans.MAXFLOW_SPAN, 0.0)
        metrics["report.to_json_text_s"] = own[spans.TO_JSON_SPAN]
        metrics["connectivity.gomory_hu_calls"] = calls.get("connectivity.gomory_hu", 0)
        metrics["connectivity.maxflow_calls"] = calls.get(spans.MAXFLOW_SPAN, 0)
        counters = trace["counters"]
        for name, unit in PER_LAYER.items():
            if unit in ("count", "MiB") and name not in metrics:
                metrics[name] = counters.get(name, 0)
        iterations = counters.get("equivalence.rege_iterations", 0)
        metrics["equivalence.rege_s_per_iteration"] = (
            metrics["equivalence.rege_s"] / iterations if iterations else 0.0
        )
        covered = sum(t for name, t in own.items() if name != spans.ROOT_SPAN)
        metrics["trace.coverage"] = covered / total
        if metrics["trace.coverage"] < MIN_COVERAGE:
            raise spans.TraceError(
                f"layer spans cover {metrics['trace.coverage']:.1%} of the traced report, "
                f"below {MIN_COVERAGE:.0%}: a layer's calls bypass the wrappers"
            )
        return metrics


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    size: str = "full",
    tamper: bool = False,
) -> dict:
    """Run one benchmark measurement and return the result object.

    ``size="tiny"`` and ``tamper=True`` (flip one byte of every report
    before it is checked) exist for the self-test.
    """
    bench = Bench(root, workload, seed, size, tamper)
    try:
        config = bench.prepare()
        check = bench.report_check()
        if trace:
            values = bench.traced(config, check, seconds)
            units = PER_LAYER
        else:
            values = bench.timed(config, check, seconds)
            units = END_TO_END
        bench.remember()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except (BenchError, spans.TraceError, subprocess.CalledProcessError, OSError) as exc:
        log(f"error: {exc}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
