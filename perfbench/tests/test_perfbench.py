"""Self-tests of the benchmark harness (not of the program it measures).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import metrics, stats, workloads  # noqa: E402
from perfbench.run import pin_environment  # noqa: E402
from perfbench.tracing import Tracer, summarize  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Metric names and counts
# ----------------------------------------------------------------------
def test_metric_names_and_units_are_well_formed():
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_metric_counts_within_limits():
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128


def test_benchmark_json_matches_metric_definitions():
    doc = _benchmark_json()
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER
    ]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_metric_functions_produce_exactly_the_listed_metrics():
    from perfbench.drive import Request

    outputs = {"messages_sent": 3, "bytes_sent": 40, "collectives": 2}
    req = Request(setup_s=0.5, work_s=2.0, pushes=1000,
                  arrivals=[0.1 * i for i in range(1, 41)],
                  warm_rates=[100.0 + i for i in range(20)], outputs=outputs)
    e2e = metrics.end_to_end([0.4, 0.6], [req])
    assert list(e2e) == [m[0] for m in metrics.END_TO_END]
    assert e2e["pushes_per_s"] == 500.0 and e2e["setup_s"] == 0.5
    assert e2e["result_p75_s"] == pytest.approx(3.0)
    assert e2e["cached_points_per_s"] == 104.0  # p25 of the pass rates
    layers = metrics.per_layer({}, {"core.kernel.pushes": 1000}, [req], [req])
    assert list(layers) == [m[0] for m in metrics.PER_LAYER]
    assert layers["runtime.comm.messages"] == 3
    assert layers["trace.overhead_ratio"] == 0.0
    assert set(metrics.as_json(e2e)) == set(e2e)


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_p75_needs_ten_samples_beyond_it():
    assert stats.min_samples(75) == 40
    assert stats.reportable(40, 75) and not stats.reportable(39, 75)
    assert stats.samples_beyond(40, 75) == 10
    samples = list(range(1, 41))
    assert stats.percentile(samples, 75) == 30
    assert sum(s > 30 for s in samples) == 10
    with pytest.raises(ValueError):
        stats.percentile(samples[:-1], 75)


def test_percentile_is_order_independent():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert stats.percentile(samples, 75) == stats.percentile(sorted(samples), 75) == 4.0


# ----------------------------------------------------------------------
# Span self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_on_synthetic_span_tree():
    # id, parent, name, start, end, outermost-of-its-name
    spans = [
        [0, -1, "a", 0.0, 10.0, True],
        [1, 0, "b", 1.0, 3.0, True],
        [2, 0, "b", 2.0, 4.0, True],   # overlaps span 1: union covers 1..4
        [3, 1, "c", 1.5, 2.5, True],
        [4, 0, "d", 6.0, 8.0, True],
        [5, 4, "d", 6.5, 7.5, False],  # nested call of the same name
    ]
    s = summarize(spans)
    assert s["a"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert s["b"]["self_s"] == pytest.approx((2.0 - 1.0) + 2.0)
    assert s["b"]["calls"] == 2 and s["b"]["busy_s"] == pytest.approx(4.0)
    assert s["c"]["self_s"] == pytest.approx(1.0)
    # Only the outermost "d" counts toward calls and busy time; self time
    # still splits the interval between the two.
    assert s["d"]["calls"] == 1 and s["d"]["busy_s"] == pytest.approx(2.0)
    assert s["d"]["self_s"] == pytest.approx(2.0)


def test_tracer_wraps_calls_and_generator_resumes_transparently():
    def inner(x):
        return x * 2

    def worker(n):
        total = 0
        for _ in range(n):
            total += yield total
        return total

    def outer(n):
        result = yield from ns.worker(n)
        return ns.inner(result)

    ns = types.SimpleNamespace(inner=inner, worker=worker, outer=outer)
    tr = Tracer("test")
    tr.wrap(ns, "inner", "inner", lambda a, k, r: tr.counters.update(x=r))
    tr.wrap_generator(ns, "worker", "worker")
    gen = tr.traced_resumes(ns.outer(3), "outer")
    assert next(gen) == 0
    assert gen.send(1) == 1
    assert gen.send(2) == 3
    with pytest.raises(StopIteration) as stop:
        gen.send(3)
    assert stop.value.value == 12
    assert tr.counters["x"] == 12 and tr.counters["worker.calls"] == 1
    s = tr.summary()
    assert s["outer"]["calls"] == 4 and s["worker"]["calls"] == 4
    assert s["inner"]["calls"] == 1
    assert all(sp[1] == -1 for sp in tr.spans if sp[2] == "outer")
    assert all(tr.spans[sp[1]][2] == "outer" for sp in tr.spans if sp[2] != "outer")
    tr.uninstall()
    assert ns.inner is inner and ns.worker is worker


def test_traced_generator_forwards_thrown_exceptions():
    def gen():
        try:
            yield 1
        except KeyError:
            yield 2
        return 3

    tr = Tracer("test")
    g = tr.traced_resumes(gen(), "g")
    assert next(g) == 1
    assert g.throw(KeyError()) == 2
    with pytest.raises(StopIteration):
        next(g)


# ----------------------------------------------------------------------
# Workload generator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


def test_every_seed_gives_the_same_amount_of_work():
    for name in ("dense-push", "vp-storm"):
        pushes = {workloads.run_pushes(workloads.generate(name, s)["workload"])
                  for s in range(5)}
        assert len(pushes) == 1
    assert workloads.run_pushes(workloads.vp_storm(0)["workload"]) == 8_400_000
    assert workloads.run_pushes(workloads.dense_push(0)["workload"]) == 20_000_000
    assert {len(workloads.sweep_mux(s)["axes"][0]["values"]) for s in range(5)} == {16}


def test_generated_inputs_are_valid_program_inputs():
    from repro.bench.perf import _fig6_spec
    from repro.campaign.spec import CampaignSpec
    from repro.config.runspec import RunSpec

    fig6 = _fig6_spec(workloads.DENSE_PUSH_PARTICLES, workloads.DENSE_PUSH_STEPS)
    spec = RunSpec.from_dict(workloads.dense_push(0)).workload
    assert (spec.cells, spec.r, spec.distribution) == (
        fig6.cells, fig6.r, fig6.distribution
    )
    RunSpec.from_dict(workloads.vp_storm(0))
    points = CampaignSpec.from_dict(workloads.sweep_mux(0)).expand()
    assert len(points) == 48
    assert len({p.spec.spec_hash() for p in points}) == 48


# ----------------------------------------------------------------------
# Environment pinning and the bare-directory contract
# ----------------------------------------------------------------------
def test_pin_environment_clears_ambient_repro_settings():
    env = {"REPRO_EXECUTOR": "process", "REPRO_WORKERS": "8",
           "REPRO_DISPATCH": "pipe", "REPRO_RING_SLOTS": "4", "HOME": "/x"}
    pin_environment(env)
    assert env == {"REPRO_EXECUTOR": "serial", "REPRO_KERNEL_BACKEND": "python",
                   "HOME": "/x"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vp-storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
