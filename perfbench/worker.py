"""One pass of one workload, in a fresh interpreter started by ``run.py``.

Prints one JSON line: the pass's wall, set-up and CPU times, peak RSS, its op
results and, when traced, the per-layer summary. Set-up time runs from the
moment ``run.py`` started this interpreter (``--spawned``, a CLOCK_MONOTONIC
reading) to the start of the timed region, so it covers interpreter start,
imports, data generation and CSV writing.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _host_probe_ms() -> float:
    """Time of a fixed mix of interpreter and BLAS work. It does not measure
    the program; it shows how fast the host ran during the pass, so that a
    shift in the metrics can be told apart from a shift in host speed."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((120, 120))
    t0 = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i
    for _ in range(25):
        np.linalg.svd(a)
    return (time.perf_counter() - t0) * 1000.0


def _versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import coreaug

    if Path(coreaug.__file__).resolve().parent != SRC / "coreaug":
        print(f"coreaug imported from {coreaug.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    p = workloads.Pass(args.workload, args.seed, args.scale, workdir)
    tracer = tracing.Tracer() if args.trace else None
    span = tracer.span if tracer is not None else (lambda name: nullcontext(0))
    error = None
    with tracing.instrument(tracer, p.observers()):
        with span("bench.setup"):
            setup(p)
        cpu0 = _cpu_s()
        t0 = time.monotonic()
        try:
            with span("bench.region") as region_id:
                run(p)
        except Exception as exc:  # reported as a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.monotonic()
        cpu1 = _cpu_s()
    probe_ms = _host_probe_ms()
    if error is None:
        try:
            check(p)
        except Exception as exc:
            p.op("check", [f"{type(exc).__name__}: {exc}"])
    else:
        p.op("run", [error])
    result = {
        "versions": _versions(),
        "wall_s": t1 - t0,
        "setup_s": t0 - args.spawned,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": _peak_rss_mb(),
        "host_probe_ms": probe_ms,
        "ops": p.ops,
        "info": p.info,
        "inputs_sha256": p.inputs.hexdigest(),
        "outputs_sha256": p.outputs.hexdigest(),
    }
    if tracer is not None:
        result["trace"] = tracing.summarize(tracer, region_id)
        result["trace"]["refresh_ms"] = [row.selection_ms for record in p.records
                                         for row in record.rows if row.refreshed]
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
