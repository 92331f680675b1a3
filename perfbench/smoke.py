#!/usr/bin/env python3
"""Check the benchmark itself in seconds: every workload and oracle on tiny inputs.

    python3 perfbench/smoke.py

Runs each workload untraced and traced with ``--sizes smoke``, requires a
correct result line with exactly the metrics and units BENCHMARK.json names, and
requires the benchmark to refuse a directory that holds no uqkit sources.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--sizes", "smoke"],
                capture_output=True, text=True, cwd=ROOT, timeout=300,
            )
            label = f"{workload} --trace {trace}"
            known = len(problems)
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no result line (exit {done.returncode})\n{done.stderr}")
                continue
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {done.returncode}, result {result}\n{done.stderr}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{label}: metric names or units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            print(f"{label}: {'ok' if len(problems) == known else 'FAILED'}", flush=True)

    bare = ROOT / ".perfbench_runs" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", spec["workloads"][0]["name"],
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"without sources: exit {done.returncode}, stdout {done.stdout!r}")
    else:
        print("without sources: refused", flush=True)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
