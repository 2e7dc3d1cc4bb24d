#!/usr/bin/env python3
"""Run every workload untraced and traced, print every metric, save the results.

    python3 perfbench/baseline.py --seed 0 --out perfbench/baseline/<name>.json

Prints each end-to-end metric by name with its unit for every workload, the
ops attempted and failed, each layer's share of the traced timed region, and
whether those shares still match the workload design in README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# (workload, layers, "min" or "max", share): the layer mix each workload was
# chosen for; a program change that breaks one changes what the workload tests.
DESIGN = [
    ("subset_train", ("coreset",), "min", 0.70),
    ("select_large", ("coreset",), "min", 0.70),
    ("full_train", ("coreset",), "max", 0.15),
    ("spectrum_audit", ("coreset",), "max", 0.15),
    ("full_train", ("model", "trainer"), "min", 0.50),
    ("spectrum_audit", ("linalg",), "min", 0.50),
]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    notes = [line for line in lines[:-1] if line.startswith("# ")]
    env = next(json.loads(n[6:]) for n in notes if n.startswith("# env "))
    info = next(json.loads(n[7:]) for n in notes if n.startswith("# info "))
    return {"result": json.loads(lines[-1]), "env": env, "info": info,
            "passes": [n[2:] for n in notes if n.startswith("# pass ")]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--out", default=None, help="JSON file for the results")
    args = ap.parse_args()

    saved = {}
    shares = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        saved[workload] = {"untraced": plain, "traced": traced}
        res = plain["result"]
        print(f"{workload}: ops_total={res['attempted']} ops_failed={res['failed']} "
              f"correct={res['correct']}")
        for name, metric in res["metrics"].items():
            print(f"  {name:<14} {metric['value']:>12.4f} {metric['unit']}")
        layers = {k.split(".")[1]: v["value"] for k, v in traced["result"]["metrics"].items()
                  if k.startswith("layer.")}
        total = sum(layers.values())
        shares[workload] = {k: v / total for k, v in layers.items()}
        print("  traced layer shares: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in shares[workload].items() if v >= 0.0005))
        print(f"  trace_overhead_s {traced['result']['metrics']['trace_overhead_s']['value']:.3f}"
              f"  info {json.dumps(plain['info'], sort_keys=True)}")

    design = []
    for workload, layers, kind, share in DESIGN:
        got = sum(shares[workload][layer] for layer in layers)
        ok = got >= share if kind == "min" else got <= share
        design.append({"workload": workload, "layers": layers, kind: share,
                       "share": got, "holds": ok})
        print(f"design {'holds' if ok else 'BROKEN'}: {'+'.join(layers)} is "
              f"{100 * got:.1f}% of {workload} ({kind} {100 * share:.0f}%)")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                              "workloads": saved, "design": design},
                                             indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
