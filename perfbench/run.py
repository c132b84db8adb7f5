"""Run one sketchlr benchmark workload and print its metrics.

    python3 -m perfbench.run --workload full_desk --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads in turn. With ``--trace 0`` the
last line is the JSON result with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of the traced run. A fuller record of the
run, stamped with the commit and the numeric stack, goes to
``perfbench/out/``, with the spans when traced. The program is imported from
``src/`` of the checkout the command runs in, and the run stops with exit
code 2 when that is missing.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
NAMES = ("full_desk", "sparse_large", "bench_oracle")


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _parse(argv):
    ap = argparse.ArgumentParser(prog="python3 -m perfbench.run", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "sketchlr" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'sketchlr'} is missing", file=sys.stderr)
        return 2
    # one load-generating process on one BLAS thread, so a busy neighbour core
    # cannot stall a factorization; set before numpy loads OpenBLAS
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import sketchlr

    from .bench import openblas_threads, run
    from .workloads import WORKLOADS

    if Path(sketchlr.__file__).resolve().parent != (SRC / "sketchlr").resolve():
        print(f"perfbench: imported sketchlr from {sketchlr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = {
        "commit": _commit(),
        "nproc": _nproc(),
        "openblas_threads": openblas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    print(f"# env {json.dumps(env)}")
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT.mkdir(exist_ok=True)

    names = NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, details, tracer = run(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace), OUT)
        stem = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "env": env}
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({**record, "metrics": metrics, "details": details}, fh, indent=1)
        if tracer is not None:
            tracer.dump(f"{stem}.spans.json", record)
        _print(name, metrics, details, units)
        prefix = f"{name}." if args.workload == "all" else ""
        combined["correct"] &= details["failed"] == 0
        combined["attempted"] += details["attempted"]
        combined["failed"] += details["failed"]
        for key, value in metrics.items():
            combined["metrics"][prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps(combined))
    return 0


def _print(name: str, metrics: dict, details: dict, units: dict) -> None:
    print(f"== {name}: {details['ops']} ops measured, {details['failed']} of {details['attempted']} attempted failed")
    for key, value in metrics.items():
        print(f"  {key:<36} {value:>14.6g} {units[key]}")
    if "tail_percentile" in details:
        print(
            f"  op_ref_tail is p{details['tail_percentile']:.1f} "
            f"({details['tail_ops_beyond']} ops beyond, {details['ops']} timed ops)"
        )
        print(
            f"  wall time per op: p50 {details['op_s_p50']:.4f} s, tail {details['op_s_tail']:.4f} s; "
            f"reference SVD p50 {details['ref_s_p50']:.5f} s"
        )
    if "dominant_self_s" in details:
        print(
            f"  tracing overhead {metrics['trace.overhead_s']:+.4f} s/op "
            f"(traced p50 {details['traced_op_s_p50']:.4f} s, untraced {details['untraced_op_s_p50']:.4f} s)"
        )
        for span, seconds in details["dominant_self_s"]:
            print(f"  self time per op  {span:<48} {seconds:.4f} s")
    print(f"  checks ran: {details['checks_ran']}")
    for err in details["errors"]:
        print(f"  FAILED {err}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
