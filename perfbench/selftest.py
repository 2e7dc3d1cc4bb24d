#!/usr/bin/env python3
"""Self-tests of the benchmark at a tiny input size.

    python3 perfbench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json with
its unit and no failed op, that count metrics repeat exactly across two traced
runs, that ``--seed`` changes the inputs, and that the benchmark fails without
a result when the program's sources are missing. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, seed: int, trace: int, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(proc, lines) -> dict | None:
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(lines[-1])


def inputs_of(lines) -> set[str]:
    return {part.split("=", 1)[1] for line in lines if line.startswith("# pass ")
            for part in line.split() if part.startswith("inputs=")}


def check_metrics(workload: str, result: dict | None, wanted: list[dict], label: str):
    expect(result is not None, f"{workload} {label}: run exits 0 with a result")
    if result is None:
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} {label}: result has exactly the four keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} {label}: correct, {result['attempted']} ops, none failed")
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in wanted},
           f"{workload} {label}: every named metric, no other")
    expect(all(got[m["name"]]["unit"] == m["unit"] for m in wanted if m["name"] in got),
           f"{workload} {label}: every metric has its unit")


def main() -> int:
    for workload in WORKLOADS:
        proc, lines = bench(workload, 0, 0)
        plain = result_of(proc, lines)
        check_metrics(workload, plain, SPEC["end_to_end"], "untraced")
        if plain is not None:
            expect(all(m["value"] > 0 for m in plain["metrics"].values()),
                   f"{workload}: every end-to-end metric is above 0")

        _, lines_seed1 = bench(workload, 1, 0)
        a, b = inputs_of(lines), inputs_of(lines_seed1)
        expect(len(a) == 1 and len(b) == 1 and a != b,
               f"{workload}: passes of one seed share inputs and --seed changes them")

        traced = [result_of(*bench(workload, 0, 1)) for _ in range(2)]
        for run in traced:
            check_metrics(workload, run, SPEC["per_layer"], "traced")
        if all(traced):
            counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
            first, second = (run["metrics"] for run in traced)
            differ = [n for n in counts if first[n]["value"] != second[n]["value"]]
            expect(not differ, f"{workload}: count metrics repeat across traced runs {differ}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines = bench(WORKLOADS[0], 0, 0, root=bare)
        expect(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
               "without the program's sources the run fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
