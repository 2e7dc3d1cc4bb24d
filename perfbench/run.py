#!/usr/bin/env python3
"""coreaug benchmark: one run of one workload.

    python3 perfbench/run.py --workload subset_train --seed 0 --seconds 15 --trace 0

Runs passes of one workload, each in a fresh interpreter (``worker.py``) with
one BLAS thread, one after another (a closed loop with one client), until
``--seconds`` have passed and at least two passes have run. The program is
imported from ``src/`` of the checkout this file sits in.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are the
medians over passes. With ``--trace 1`` passes alternate untraced and traced
(untraced first); the per-layer metrics come from the traced passes, and
``trace_overhead_s`` is the traced minus the untraced median wall time.

The last line of standard output is the result JSON; the lines before it
(starting with ``#``) record the environment, each pass and every failed op.
Metric names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("subset_train", "select_large", "full_train", "spectrum_audit")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# a run must end within 180 s; no pass starts that could not finish before this
RUN_DEADLINE_S = 165.0


class BenchError(RuntimeError):
    pass


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coreaug").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env.pop("COREAUG_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def _run_pass(args, index: int, traced: bool, workdir: Path, spans: Path,
              deadline: float) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--trace", str(int(traced)),
           "--spawned", repr(spawned), "--workdir", str(workdir), "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} did not finish before the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise BenchError(f"pass {index} exited with code {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    result["traced"] = traced
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def _layer_value(name: str, summaries: list[dict], overhead_s: float) -> float:
    if name == "trace_overhead_s":
        return overhead_s

    def one(summary: dict) -> float:
        if name.startswith("layer.") and name.endswith(".self_ms"):
            return summary["layer_ms"][name.split(".")[1]]
        if name.startswith("trainer.refresh."):
            values = sorted(summary["refresh_ms"])
            if name.endswith(".count"):
                return len(values)
            if not values:
                return 0.0
            share = 0.5 if name.endswith("ms_p50") else 0.9
            return values[max(0, math.ceil(share * len(values)) - 1)]
        span, key = name.rsplit(".", 1)
        if key == "calls":
            return summary["calls"].get(span, 0)
        if key == "ms":
            return summary["ms"].get(span, 0.0)
        return summary["counts"].get(name, 0)

    return statistics.median(one(s) for s in summaries)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the benchmark's self-tests")
    args = ap.parse_args()

    if not (ROOT / "src" / "coreaug" / "__init__.py").is_file():
        print(f"error: no coreaug sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    spans = ROOT / ".bench_work" / f"{args.workload}.spans.jsonl"
    env_info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_env": BLAS_ENV, "loadavg_before": os.getloadavg(),
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
    }
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    passes: list[dict] = []
    try:
        while len(passes) < 2 or time.monotonic() - start < args.seconds:
            if passes and time.monotonic() + passes[-1]["elapsed_s"] > deadline:
                break
            index = len(passes)
            traced = bool(args.trace) and index % 2 == 1
            workdir = work / f"pass{index}"
            passes.append(_run_pass(args, index, traced, workdir, spans, deadline))
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env_info["loadavg_after"] = os.getloadavg()
    env_info["versions"] = passes[0]["versions"]
    print("# env " + json.dumps(env_info))

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    for i, p in enumerate(passes):
        print(f"# pass {i} traced={int(p['traced'])} wall_s={p['wall_s']:.4f} "
              f"setup_s={p['setup_s']:.4f} cpu_s={p['cpu_s']:.4f} "
              f"peak_rss_mb={p['peak_rss_mb']:.1f} host_probe_ms={p['host_probe_ms']:.1f} "
              f"ops={len(p['ops'])} "
              f"failed={sum(not o['ok'] for o in p['ops'])} "
              f"inputs={p['inputs_sha256'][:16]} outputs={p['outputs_sha256'][:16]}")
    print("# info " + json.dumps(passes[0]["info"], sort_keys=True))
    ops = [o for p in passes for o in p["ops"]]
    failed = [o for o in ops if not o["ok"]]
    for o in failed:
        print("# failed op " + json.dumps(o))
    print(f"# ops_total={len(ops)} ops_failed={len(failed)}")

    if args.trace:
        summaries = [p["trace"] for p in traced]
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in plain))
        values = {m["name"]: _layer_value(m["name"], summaries, overhead) for m in wanted}
        consistent = all(s["self_times_add_up"] for s in summaries)
        if not consistent:
            print("# trace self times do not add up to the region span")
    else:
        values = {m["name"]: statistics.median(p[m["name"]] for p in plain) for m in wanted}
        consistent = True
    same_outputs = len({p["outputs_sha256"] for p in passes}) == 1
    if not same_outputs:
        print("# passes of the same seed produced different outputs")
    print(json.dumps({
        "correct": not failed and same_outputs and consistent,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
