"""Self-test of the benchmark at tiny input sizes.

    python3 bench/selftest.py

Run from the repository root; takes well under a minute.  For every
workload it checks that a timed and a traced run emit exactly the metrics
BENCHMARK.json lists, with their units, and pass the correctness gate; that
flipping one byte of every report makes every run fail; and that the
benchmark refuses to run, printing no result, where there are no chatnet
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    expect(set(declared["paths"]) == {run.BENCH_DIR.name}, "BENCHMARK.json paths")
    expect([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS), "workload list")

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.run(name, workloads.DEFAULT_SEED, 0, trace, root, size="tiny")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{name} trace={trace} metrics {sorted(got)}")
            expect(
                all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                f"{name} trace={trace}: non-numeric metric",
            )
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace} failed")
            expect(result["attempted"] >= 1, f"{name}: nothing attempted")
        tampered = run.run(name, workloads.DEFAULT_SEED, 0, False, root, size="tiny", tamper=True)
        expect(
            not tampered["correct"]
            and tampered["failed"] == tampered["attempted"]
            and tampered["metrics"]["ok_share"]["value"] == 0,
            f"{name}: a flipped byte was not caught",
        )
        print(f"selftest {name}: ok", flush=True)

    # A directory holding only BENCHMARK.json and the benchmark: no result.
    bare = root / run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "chat-report",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without chatnet sources")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
