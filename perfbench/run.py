#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense-push --seed 0 --seconds 30 --trace 0

A single process is a closed-loop load generator with one caller: it
submits a request, waits for its verified result, then submits the next,
until ``--seconds`` have passed (and enough results arrived for the
percentile rule).  ``--trace 0`` prints every end-to-end metric;
``--trace 1`` runs one untraced request, then traced ones, and prints
every per-layer metric plus the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Run details (environment fingerprint, sample counts, failures, the
metric table) and, for traced runs, the span file are written under
``.perfbench_out/`` in the checkout.  ``--record-oracle`` re-records
``perfbench/oracle.json`` from one request of each workload on the default
seed.

Exits with status 2, printing no result, when the checkout has no
``src/repro`` package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: The runs are pinned to the repo default executor and kernel backend;
#: every other ``REPRO_*`` variable is cleared so an ambient environment
#: cannot switch the executor, dispatch path or worker count.
PINNED_ENV = {"REPRO_EXECUTOR": "serial", "REPRO_KERNEL_BACKEND": "python"}


def pin_environment(environ=os.environ) -> None:
    for key in [k for k in environ if k.startswith("REPRO_")]:
        del environ[key]
    environ.update(PINNED_ENV)


def fingerprint() -> dict:
    """Resolved executor + kernel backend and the host's software."""
    import numpy

    from repro.config.env import resolve_executor, resolve_kernel_backend
    from repro.runtime.executor import make_executor

    with make_executor(
        resolve_executor(), kernel_backend=resolve_kernel_backend()
    ) as ex:
        executor, backend = ex.name, ex.kernel_backend
    if (executor, backend) != ("serial", "python"):
        raise RuntimeError(
            f"executor resolved to {executor}/{backend}, expected serial/python"
        )
    return {
        "executor": executor,
        "kernel_backend": backend,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def parse_args(argv=None):
    from perfbench import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-oracle", action="store_true")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record_oracle:
        ap.error("--workload is required")
    return args


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run the closed loop; return the report (metrics, checks, details)."""
    from perfbench import drive, metrics, stats
    from perfbench.tracing import Tracer

    checks = drive.Checks()
    wl = drive.make_workload(name, seed, OUT_DIR, checks)
    min_results = stats.min_samples(75)
    setups: list[float] = []

    def loop(t0: float) -> list:
        done = []
        while (
            not done
            or time.perf_counter() - t0 < seconds
            or (not traced and sum(len(r.arrivals) for r in done) < min_results)
        ):
            try:
                if not traced:
                    setups.extend(drive.burst(wl.setup, drive.SETUP_BURST_S))
                done.append(wl.request())
            except Exception:
                traceback.print_exc()
                checks.check(False, traceback.format_exc(limit=1).strip())
                break
        return done

    report = {"workload": name, "seed": seed, "trace": int(traced)}
    if not traced:
        requests = loop(time.perf_counter())
        if not requests:
            raise RuntimeError("no request completed")
        values = metrics.end_to_end(setups, requests)
        report["samples"] = {
            "setups": len(setups) + len(requests),
            "requests": len(requests),
            "results": sum(len(r.arrivals) for r in requests),
            "warm_passes": sum(len(r.warm_rates) for r in requests),
        }
    else:
        t0 = time.perf_counter()
        baseline = wl.request()
        tracer = Tracer(run_id=f"{name}-seed{seed}-{os.getpid()}-{time.time_ns()}")
        with tracer:
            requests = loop(t0)
        if not requests:
            raise RuntimeError("no traced request completed")
        # The untraced baseline was the workload's first request, so every
        # traced request's simulated outputs were already checked against
        # it (no-perturbation check; see drive._Workload._mismatches).
        values = metrics.per_layer(
            tracer.summary(), tracer.counters, requests, [baseline]
        )
        expected = sum(r.pushes for r in requests)
        checks.check(
            values["core.kernel.pushes"] == expected,
            f"kernel pushed {values['core.kernel.pushes']} particles, "
            f"expected {expected}", 0,
        )
        # One span file per workload (the latest traced run): a rank-heavy
        # run records close to a million spans.
        tracer.write(os.path.join(OUT_DIR, f"{name}-spans.jsonl.gz"))
        report["spans"] = len(tracer.spans)
        report["samples"] = {"traced_requests": len(requests)}
    report["metrics"] = values
    report["checks"] = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
    }
    report["correct"] = checks.failed == 0 and not checks.problems
    return report


def record_oracle(seed: int) -> None:
    """Re-record perfbench/oracle.json from one request per workload."""
    from perfbench import drive, workloads

    oracle = {"seed": seed}
    for name in workloads.WORKLOADS:
        wl = drive.make_workload(name, seed, OUT_DIR, drive.Checks())
        wl.oracle = None
        oracle[name] = wl.request().outputs
        print(f"{name}: {oracle[name]}")
    with open(drive.ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, indent=2, sort_keys=True)
        fh.write("\n")


def print_report(report: dict, env: dict) -> None:
    from perfbench import metrics

    print(
        f"perfbench workload={report['workload']} seed={report['seed']} "
        f"trace={report['trace']} "
        + " ".join(f"{k}={v}" for k, v in env.items())
    )
    print("  samples: " + ", ".join(f"{k}={v}" for k, v in report["samples"].items()))
    for name, value in report["metrics"].items():
        print(f"  {name:36s} {value:>16.6g} {metrics.UNITS[name]}")
    checks = report["checks"]
    ratio = checks["failed"] / checks["attempted"] if checks["attempted"] else 0.0
    print(
        f"  {'fail_ratio':36s} {ratio:>16.6g} ratio "
        f"({checks['failed']} failed / {checks['attempted']} attempted)"
    )
    for problem in checks["problems"]:
        print(f"  FAIL: {problem}")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no src/repro package under {ROOT}; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2
    pin_environment()
    sys.path[:0] = [SRC, ROOT]
    args = parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.record_oracle:
        record_oracle(args.seed)
        return 0

    from perfbench import metrics

    env = fingerprint()
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report["environment"] = env
    suffix = "trace" if args.trace else "e2e"
    with open(
        os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{suffix}.json"),
        "w", encoding="utf-8",
    ) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print_report(report, env)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["checks"]["attempted"],
        "failed": report["checks"]["failed"],
        "metrics": metrics.as_json(report["metrics"]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
