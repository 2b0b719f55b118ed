"""One closed-loop request of each workload, with its correctness checks.

A request is what one caller submits and waits for:

* ``dense-push`` / ``vp-storm`` (:class:`RunWorkload`): parse the RunSpec,
  build executor, driver and engine (the *set-up*), drive the engine to
  completion while noting when each simulated step's result is complete,
  then publish the verified result to a fresh campaign cache and, for
  :data:`WARM_BURST_S` seconds, have :data:`WARM_CALLERS` callers request
  the same spec again at once, served from the cache.
* ``sweep-mux`` (:class:`SweepWorkload`): parse and expand the campaign
  declaration (the set-up), run it cold through
  ``run_campaign(..., runner="engines")`` into a fresh cache, noting when
  each point's progress line arrives, then re-run the same declaration
  warm for :data:`WARM_BURST_S` seconds, each pass served entirely from
  the cache.

Every delivered result — a finished run, a campaign point, a cache serve —
counts as one attempt; :class:`Checks` counts the ones that fail.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from perfbench import workloads

from repro.campaign.fabric import ArtifactBatch
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.config import build
from repro.config.runspec import RunSpec
from repro.runtime.engine import ENGINE_FINISHED

ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.json")

#: Seconds of extra set-ups timed before each untraced request, and of warm
#: passes after each cold one.  Host speed flips within seconds on small
#: shared machines, so these millisecond-scale samples are taken in bursts
#: long enough to average over the flips, once per request.
SETUP_BURST_S = 0.3
WARM_BURST_S = 1.0

#: Callers that repeat a single-run request at once in a warm pass: one
#: campaign declaration with this many identical points, which the runner
#: dedupes by spec hash and serves with one cache read.
WARM_CALLERS = 16


@dataclass
class Request:
    """Measurements and simulated outputs of one request."""

    setup_s: float
    #: Wall seconds of the cold work the pushes were done in.
    work_s: float
    pushes: int
    #: Seconds from submission to each result (step or point) arriving.
    arrivals: list[float]
    #: Points per second of each warm (cache-served) pass.
    warm_rates: list[float]
    #: Deterministic simulated outputs, compared across requests.
    outputs: dict


@dataclass
class Checks:
    """Attempted/failed result counts plus the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.problems.append(what)


def load_oracle(name: str) -> dict | None:
    """Recorded outputs of workload ``name`` on the default seed."""
    with open(ORACLE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)[name]


class _Workload:
    """Shared request plumbing: reference outputs, oracle, cache dirs."""

    def __init__(self, name: str, seed: int, work_dir: str, checks: Checks):
        self.name = name
        self.seed = seed
        self.doc = workloads.generate(name, seed)
        self.text = json.dumps(self.doc, sort_keys=True)
        self.work_dir = work_dir
        self.checks = checks
        self.oracle = load_oracle(name) if seed == workloads.DEFAULT_SEED else None
        #: Outputs of the first request; every later one must repeat them.
        self.reference: dict | None = None

    def _mismatches(self, outputs: dict) -> list[str]:
        """Differences from the oracle (first request) or the first request."""
        if self.reference is None:
            self.reference = outputs
            if self.oracle is None:
                return []
            expected = self.oracle
            where = "oracle.json"
        else:
            expected = self.reference
            where = "the first request"
        diff = sorted(k for k in expected if expected[k] != outputs.get(k))
        return [f"outputs differ from {where} in {diff}"] if diff else []

    def _cache_dir(self) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-cache-", dir=self.work_dir)

    def _warm(self, declaration: dict, cache_dir: str, expected: list[dict]) -> list[float]:
        """Serve ``declaration`` from ``cache_dir`` for :data:`WARM_BURST_S`.

        Returns the points/s of each pass.  Every pass must be served
        entirely from the cache with the cold results, and must leave the
        artifacts byte-identical.
        """
        artifacts = _artifacts(cache_dir)
        digest = _digest(cache_dir, artifacts)

        def serve() -> float:
            t0 = time.perf_counter()
            res = run_campaign(
                CampaignSpec.from_dict(declaration),
                cache_dir=cache_dir, runner="engines",
            )
            rate = len(res.outcomes) / (time.perf_counter() - t0)
            self.checks.check(
                res.executed == 0
                and [o.result for o in res.outcomes] == expected
                and _digest(cache_dir, artifacts) == digest,
                "warm pass was not served byte-identically from the cache",
                len(expected),
            )
            return rate

        return burst(serve, WARM_BURST_S)


def burst(fn, seconds: float) -> list:
    """Call ``fn`` repeatedly for ``seconds`` (at least once); its results."""
    out = []
    end = time.perf_counter() + seconds
    while not out or time.perf_counter() < end:
        out.append(fn())
    return out


def _release() -> None:
    """Free a finished engine's particle store before the next build.

    Driver and engine reference each other, so without a collection the
    previous run's particles would stay resident next to the new ones and
    ``peak_rss_mb`` would measure the collector's timing.
    """
    gc.collect()


def _artifacts(cache_dir: str) -> list[str]:
    """The result artifacts in ``cache_dir`` (not the manifest), sorted."""
    return sorted(
        n for n in os.listdir(cache_dir) if not n.endswith(".manifest.json")
    )


def _digest(cache_dir: str, names) -> str:
    """SHA-256 over the named cache files' bytes, in the given order."""
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(cache_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class RunWorkload(_Workload):
    """A single simulation per request (``dense-push``, ``vp-storm``)."""

    def __init__(self, name, seed, work_dir, checks):
        super().__init__(name, seed, work_dir, checks)
        self.expected_pushes = workloads.run_pushes(self.doc["workload"])
        self.steps = self.doc["workload"]["steps"]

    def _build(self):
        rs = RunSpec.from_json(self.text)
        executor = build.build_executor(rs)
        try:
            impl = build.build_impl(rs, executor=executor)
            engine = impl.build_engine()
        except BaseException:
            executor.close()
            raise
        return rs, executor, engine

    def setup(self) -> float:
        t0 = time.perf_counter()
        _, executor, engine = self._build()
        elapsed = time.perf_counter() - t0
        engine.close()
        executor.close()
        del engine
        _release()
        return elapsed

    def request(self) -> Request:
        t_submit = time.perf_counter()
        rs, executor, engine = self._build()
        t_built = time.perf_counter()
        try:
            arrivals = self._drive(engine, t_submit)
            t_done = time.perf_counter()
            result = engine.result()
        finally:
            engine.close()
            executor.close()
        del engine
        _release()
        outputs = {
            "sim_time_s": result.total_time,
            "messages_sent": result.messages_sent,
            "bytes_sent": result.bytes_sent,
            "collectives": result.collectives,
            "final_particles": sum(result.particles_per_core.values()),
            "checksum": result.verification.id_checksum,
            "pushes": sum(r.pushes for r in result.rank_returns),
        }
        problems = self._mismatches(outputs)
        if not result.verification.ok:
            problems.append(f"verification FAIL: {result.verification}")
        if outputs["pushes"] != self.expected_pushes:
            problems.append(
                f"pushed {outputs['pushes']} particles, "
                f"expected {self.expected_pushes}"
            )
        self.checks.check(not problems, "; ".join(problems))
        return Request(
            setup_s=t_built - t_submit,
            work_s=t_done - t_built,
            pushes=outputs["pushes"],
            arrivals=arrivals,
            warm_rates=self._publish_and_serve(rs, build.parallel_result_doc(result)),
            outputs=outputs,
        )

    def _drive(self, engine, t_submit: float) -> list[float]:
        """``engine.run()``'s tick/flush loop, noting finished steps.

        A step's result is complete once every rank has begun the next
        step (the scheduler's per-rank step counter), or the run ended.
        """
        step = engine.scheduler.step
        arrivals: list[float] = []

        def note(done: int) -> None:
            now = time.perf_counter() - t_submit
            arrivals.extend([now] * (done - len(arrivals)))

        while True:
            status = engine.tick()
            note(max(0, min(step)))
            if status == ENGINE_FINISHED:
                break
            engine.flush()
        note(self.steps)
        return arrivals

    def _publish_and_serve(self, rs: RunSpec, doc: dict) -> list[float]:
        """Publish the run's result to a fresh cache, then re-request it."""
        cache_dir = self._cache_dir()
        try:
            canon = build.canonical_runspec(rs)
            batch = ArtifactBatch(cache_dir)
            batch.add(canon.spec_hash(), canon, doc)
            batch.flush()
            declaration = {
                "schema": 1,
                "campaign": self.name,
                "base": self.doc,
                "points": [
                    {"labels": {"caller": i}, "set": {}} for i in range(WARM_CALLERS)
                ],
            }
            return self._warm(declaration, cache_dir, [doc] * WARM_CALLERS)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


class SweepWorkload(_Workload):
    """A seed-varied campaign per request (``sweep-mux``)."""

    def __init__(self, name, seed, work_dir, checks):
        super().__init__(name, seed, work_dir, checks)
        points = CampaignSpec.from_dict(self.doc).expand()
        self.n_points = len(points)
        self.expected_pushes = sum(
            workloads.run_pushes(p.spec.to_dict()["workload"]) for p in points
        )

    def setup(self) -> float:
        t0 = time.perf_counter()
        CampaignSpec.from_json(self.text).expand()
        return time.perf_counter() - t0

    def request(self) -> Request:
        setup_s = self.setup()
        cache_dir = self._cache_dir()
        try:
            arrivals: list[float] = []
            t0 = time.perf_counter()
            res = run_campaign(
                CampaignSpec.from_json(self.text),
                cache_dir=cache_dir,
                runner="engines",
                order_seed=self.seed,
                progress=lambda line: arrivals.append(time.perf_counter() - t0),
            )
            cold_s = time.perf_counter() - t0
            results = [o.result for o in res.outcomes]
            outputs = {
                "points": len(results),
                "artifacts_sha256": _digest(cache_dir, _artifacts(cache_dir)),
                "sim_time_s": math.fsum(r["sim_time_s"] for r in results),
                "messages_sent": sum(r["messages_sent"] for r in results),
                "bytes_sent": sum(r["bytes_sent"] for r in results),
                "collectives": sum(r["collectives"] for r in results),
                "final_particles": sum(r["final_particles"] for r in results),
            }
            problems = self._mismatches(outputs)
            if res.executed != self.n_points or not all(
                r.get("verified") is True for r in results
            ):
                problems.append("cold pass did not execute and verify every point")
            self.checks.check(not problems, "; ".join(problems), self.n_points)
            warm_rates = self._warm(self.doc, cache_dir, results)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return Request(
            setup_s=setup_s,
            work_s=cold_s,
            pushes=self.expected_pushes,
            arrivals=arrivals,
            warm_rates=warm_rates,
            outputs=outputs,
        )


def make_workload(name: str, seed: int, work_dir: str, checks: Checks) -> _Workload:
    cls = SweepWorkload if name == "sweep-mux" else RunWorkload
    return cls(name, seed, work_dir, checks)
