"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its smallest size, untraced once and traced
twice with the same seed, and checks that:

* every metric named in BENCHMARK.json appears with its unit, and no other;
* every op passes its correctness check (fail_ratio is 0);
* the traced runs' counts are identical;
* no file outside .perfbench/ is created, changed or removed;
* without the package source next to it the runner exits non-zero and
  prints no result.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

SKIP_DIRS = {".perfbench", ".git", "__pycache__", ".pytest_cache", ".bench_build"}
SEED = 7
EXACT = spans.COUNT_METRICS + ("cli.stdout_bytes",)


def tree_digest() -> dict[str, str]:
    digests = {}
    for path in sorted(ROOT.rglob("*")):
        rel = path.relative_to(ROOT)
        if any(part in SKIP_DIRS for part in rel.parts) or not path.is_file():
            continue
        digests[str(rel)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems: list[str] = []
    before = tree_digest()

    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            code, out, err = run(workload, trace)
            tag = f"{workload} trace={trace}"
            if code != 0:
                problems.append(f"{tag}: exit {code}: {err[-1000:]}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}: {err[-1000:]}")
            if trace:
                if result["metrics"]["fail_ratio"]["value"] != 0:
                    problems.append(f"{tag}: fail_ratio is not 0")
                counts.append({k: result["metrics"][k]["value"] for k in EXACT})
            print(f"{tag}: attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in EXACT
                    if counts[0][k] != counts[1][k]}
            problems.append(f"{workload}: counts differ between runs: {diff}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, out, _ = run("pipeline", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or out.strip():
        problems.append(f"without src/ the runner exited {code} and printed {out!r}")

    after = tree_digest()
    if after != before:
        changed = sorted(k for k in set(before) | set(after)
                         if before.get(k) != after.get(k))
        problems.append(f"files changed by the runs: {changed}")

    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
