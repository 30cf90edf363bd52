"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --workloads search,lattice,report --seeds 1-10 \
        --seconds 20 [--out perfbench/baseline.json]

Runs perfbench/run.py once per (workload, seed), one after another, and
prints for every metric its median, quartiles and spread, the distance
between the quartiles as a share of the median
(statistics.quantiles(values, n=4)).  With --out it also writes every
value, with the Python version, platform and CPU count, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default="search,lattice,report")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    results: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            if not doc["correct"]:
                print(f"{workload} seed {seed}: {doc['failed']} failed jobs", file=sys.stderr)
                print(proc.stderr, file=sys.stderr)
                return 1
            for name, m in doc["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={m['value']:.4g}" for k, m in doc["metrics"].items()),
                  flush=True)
        results[workload] = {name: {"unit": units[name], **summary(v)} for name, v in values.items()}
        for name, s in results[workload].items():
            print(f"  {workload:8s} {name:28s} median {s['median']:.5g} {s['unit']}"
                  f"  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f}", flush=True)

    if args.out:
        doc = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "seconds": args.seconds,
            "seeds": parse_seeds(args.seeds),
            "workloads": results,
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
