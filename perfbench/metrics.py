"""Metric definitions and how each is computed from a run's measurements.

:data:`END_TO_END` and :data:`PER_LAYER` are the single source of the
names, units and directions listed in ``BENCHMARK.json`` (a self-test
keeps the two in step).  End-to-end metrics come from untraced requests;
per-layer metrics from the traced requests of a ``--trace 1`` run.
"""

from __future__ import annotations

import math
import resource
import statistics

from perfbench import stats

#: ``(name, unit, better, bound)``; bound = share of the parent's median by
#: which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pushes_per_s", "1/s", "higher", 0.25),
    ("result_p50_s", "s", "lower", 0.25),
    ("result_p75_s", "s", "lower", 0.25),
    ("cached_points_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: ``(name, unit, better)`` per layer.
PER_LAYER = (
    ("core.kernel.calls", "count", "lower"),
    ("core.kernel.pushes", "count", "higher"),
    ("core.kernel.busy_s", "s", "lower"),
    ("core.kernel.pushes_per_busy_s", "1/s", "higher"),
    ("core.kernel.flops", "flop", "higher"),
    ("core.kernel.bytes_computed", "B", "higher"),
    ("core.particles.compact_s", "s", "lower"),
    ("core.particles.pack_s", "s", "lower"),
    ("core.init.busy_s", "s", "lower"),
    ("core.verify.busy_s", "s", "lower"),
    ("parallel.program.resumes", "count", "lower"),
    ("parallel.program.self_s", "s", "lower"),
    ("parallel.exchange.resumes", "count", "lower"),
    ("parallel.exchange.busy_s", "s", "lower"),
    ("parallel.diffusion.calls", "count", "lower"),
    ("parallel.diffusion.busy_s", "s", "lower"),
    ("runtime.engine.ticks", "count", "lower"),
    ("runtime.engine.flushes", "count", "lower"),
    ("runtime.engine.self_s", "s", "lower"),
    ("runtime.comm.messages", "count", "lower"),
    ("runtime.comm.bytes", "B", "lower"),
    ("runtime.comm.collectives", "count", "lower"),
    ("runtime.executor.batches", "count", "lower"),
    ("runtime.executor.tasks", "count", "lower"),
    ("runtime.executor.tasks_per_batch", "ratio", "higher"),
    ("runtime.executor.busy_s", "s", "lower"),
    ("runtime.multiplex.slices", "count", "lower"),
    ("runtime.multiplex.self_s", "s", "lower"),
    ("ampi.migrate.calls", "count", "lower"),
    ("ampi.migrate.busy_s", "s", "lower"),
    ("ampi.migrate.vps_moved", "count", "lower"),
    ("ampi.lb.rebalance_s", "s", "lower"),
    ("campaign.canonicalize.calls", "count", "lower"),
    ("campaign.canonicalize.busy_s", "s", "lower"),
    ("campaign.cache.lookups", "count", "lower"),
    ("campaign.cache.hit_ratio", "ratio", "higher"),
    ("campaign.artifact.writes", "count", "lower"),
    ("campaign.artifact.write_s", "s", "lower"),
    ("campaign.artifact.read_s", "s", "lower"),
    ("campaign.manifest.write_s", "s", "lower"),
    ("config.build_impl.calls", "count", "lower"),
    ("config.build_impl.busy_s", "s", "lower"),
    ("config.spec_hash.busy_s", "s", "lower"),
    ("trace.pushes_per_s", "1/s", "higher"),
    ("trace.overhead_pushes_per_s", "1/s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: Bytes one push reads and writes in ``advance_arrays``: x, y, vx, vy and
#: q (float64) read, x, y, vx and vy written back.
KERNEL_BYTES_PER_PUSH = (5 + 4) * 8


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pushes_per_s(requests) -> float:
    return sum(r.pushes for r in requests) / sum(r.work_s for r in requests)


def end_to_end(setups, requests) -> dict[str, float]:
    """Every end-to-end metric from untraced set-ups and requests."""
    arrivals = [t for r in requests for t in r.arrivals]
    return {
        "setup_s": statistics.median(list(setups) + [r.setup_s for r in requests]),
        "pushes_per_s": pushes_per_s(requests),
        "result_p50_s": statistics.median(arrivals),
        "result_p75_s": stats.percentile(arrivals, 75),
        # The rate three passes in four meet or beat (the p75 pass time):
        # millisecond-scale passes swing up to 1.7x with host load for
        # seconds at a time, which moves a median far more than this.
        "cached_points_per_s": stats.percentile(
            [rate for r in requests for rate in r.warm_rates], 25
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(summary, counters, traced, untraced) -> dict[str, float]:
    """Every per-layer metric from a tracer's summary and counters.

    ``traced`` are the traced requests, ``untraced`` the untraced request
    of the same run (the tracing-overhead baseline).
    """
    from repro.core.kernel import flops_per_particle_step

    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def outputs(key: str) -> int:
        return sum(r.outputs[key] for r in traced)

    pushes = counters.get("core.kernel.pushes", 0)
    lookups = span("campaign.cache.lookup", "calls")
    traced_rate = pushes_per_s(traced)
    untraced_rate = pushes_per_s(untraced)
    return {
        "core.kernel.calls": span("core.kernel", "calls"),
        "core.kernel.pushes": pushes,
        "core.kernel.busy_s": span("core.kernel", "busy_s"),
        "core.kernel.pushes_per_busy_s": ratio(pushes, span("core.kernel", "busy_s")),
        "core.kernel.flops": pushes * flops_per_particle_step(),
        "core.kernel.bytes_computed": pushes * KERNEL_BYTES_PER_PUSH,
        "core.particles.compact_s": span("core.particles.compact", "busy_s"),
        "core.particles.pack_s": span("core.particles.pack", "busy_s"),
        "core.init.busy_s": span("core.init", "busy_s"),
        "core.verify.busy_s": span("core.verify", "busy_s"),
        "parallel.program.resumes": span("parallel.program", "calls"),
        "parallel.program.self_s": span("parallel.program", "self_s"),
        "parallel.exchange.resumes": span("parallel.exchange", "calls"),
        "parallel.exchange.busy_s": span("parallel.exchange", "busy_s"),
        "parallel.diffusion.calls": span("parallel.diffusion", "calls"),
        "parallel.diffusion.busy_s": span("parallel.diffusion", "busy_s"),
        "runtime.engine.ticks": counters.get("runtime.engine.ticks", 0),
        "runtime.engine.flushes": counters.get("runtime.engine.flushes", 0),
        "runtime.engine.self_s": span("runtime.engine.tick", "self_s")
        + span("runtime.engine.flush", "self_s"),
        "runtime.comm.messages": outputs("messages_sent"),
        "runtime.comm.bytes": outputs("bytes_sent"),
        "runtime.comm.collectives": outputs("collectives"),
        "runtime.executor.batches": span("runtime.executor", "calls"),
        "runtime.executor.tasks": counters.get("runtime.executor.tasks", 0),
        "runtime.executor.tasks_per_batch": ratio(
            counters.get("runtime.executor.tasks", 0),
            span("runtime.executor", "calls"),
        ),
        "runtime.executor.busy_s": span("runtime.executor", "busy_s"),
        "runtime.multiplex.slices": span("runtime.multiplex.slice", "calls"),
        "runtime.multiplex.self_s": span("runtime.multiplex.step", "self_s")
        + span("runtime.multiplex.slice", "self_s"),
        "ampi.migrate.calls": counters.get("ampi.migrate.calls", 0),
        "ampi.migrate.busy_s": span("ampi.migrate", "busy_s"),
        "ampi.migrate.vps_moved": counters.get("ampi.migrate.vps_moved", 0),
        "ampi.lb.rebalance_s": span("ampi.lb.rebalance", "busy_s"),
        "campaign.canonicalize.calls": span("campaign.canonicalize", "calls"),
        "campaign.canonicalize.busy_s": span("campaign.canonicalize", "busy_s"),
        "campaign.cache.lookups": lookups,
        "campaign.cache.hit_ratio": ratio(counters.get("campaign.cache.hits", 0), lookups),
        "campaign.artifact.writes": span("campaign.artifact.write", "calls"),
        "campaign.artifact.write_s": span("campaign.artifact.write", "busy_s"),
        "campaign.artifact.read_s": span("campaign.artifact.read", "busy_s"),
        "campaign.manifest.write_s": span("campaign.manifest.write", "busy_s"),
        "config.build_impl.calls": span("config.build_impl", "calls"),
        "config.build_impl.busy_s": span("config.build_impl", "busy_s"),
        "config.spec_hash.busy_s": span("config.spec_hash", "busy_s"),
        "trace.pushes_per_s": traced_rate,
        "trace.overhead_pushes_per_s": untraced_rate - traced_rate,
        "trace.overhead_ratio": ratio(untraced_rate - traced_rate, untraced_rate),
    }


def as_json(values: dict[str, float]) -> dict[str, dict]:
    """``{"name": {"value": v, "unit": u}}`` with finite numbers only."""
    out = {}
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value!r}")
        out[name] = {"value": value, "unit": UNITS[name]}
    return out
