#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload vp-storm --runs 10 --seconds 30

Runs ``perfbench/run.py`` once per seed (1, 2, ...), one run at a time,
and prints per metric the median, the quartiles and the inter-quartile
distance as a share of the median — the steadiness figure each metric's
bound in ``BENCHMARK.json`` is compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: result not correct", file=sys.stderr)
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + json.dumps(row), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        print(f"{name:36s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
