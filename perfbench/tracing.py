"""Span tracing from outside the program: wrappers around layer entry points.

:class:`Tracer` installs wrappers around public functions and methods of
each measured layer (kernel, particle store, exchange, diffusion, engine,
executor, multiplexer, AMPI migration and balancers, campaign cache and
artifact IO, RunSpec building and hashing).  Each call — or, for
generator-valued functions such as ``exchange_particles`` and the rank
programs, each resume — becomes a span ``[id, parent, name, start, end]``
kept in memory; all spans of one benchmark run share the tracer's run id
and are written out once, when the run ends.

Wrapping never changes what a call computes, so simulated outputs of a
traced run must equal the untraced run's (the benchmark checks this).

A span's *self time* is its duration minus the part of it covered by its
child spans.  Calls nested in a call of the same name (a decorator
balancer delegating to its inner strategy, an executor handle forwarding
to its pool) are spans too, but only the outermost one counts toward a
name's calls and busy time.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

_ID, _PARENT, _NAME, _START, _END, _OUTER = range(6)
_MISSING = object()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        #: Migration reports already counted (every VP returns the same one).
        self._reports: dict[int, object] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _begin(self, name: str) -> list:
        parent = self._stack[-1][_ID] if self._stack else -1
        span = [len(self.spans), parent, name, time.perf_counter(), 0.0,
                self._open[name] == 0]
        self.spans.append(span)
        self._stack.append(span)
        self._open[name] += 1
        return span

    def _end(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack.pop()
        self._open[span[_NAME]] -= 1

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        saved = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, saved))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``observe(args, kwargs, result)`` runs after each outermost call,
        outside the span, to update counters.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(span)
            if observe is not None and span[_OUTER]:
                observe(args, kwargs, result)
            return result

        self._patch(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str, on_return=None) -> None:
        """Time every resume of the generators ``owner.attr`` returns.

        Calls are counted in ``counters[name + ".calls"]``; the spans (and
        a summary's ``calls``) count resumes.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.counters[name + ".calls"] += 1
            return self.traced_resumes(original(*args, **kwargs), name, on_return)

        self._patch(owner, attr, traced)

    def traced_resumes(self, gen, name: str, on_return=None):
        """Drive ``gen`` transparently, one span per resume.

        Forwards sent values, thrown exceptions and the return value, so
        ``yield from`` over the wrapper behaves exactly like ``yield from``
        over ``gen``.
        """
        send, throw = gen.send, None
        value = None
        while True:
            span = self._begin(name)
            try:
                out = send(value) if throw is None else gen.throw(throw)
            except StopIteration as stop:
                self._end(span)
                if on_return is not None:
                    on_return(stop.value)
                return stop.value
            except BaseException:
                self._end(span)
                raise
            self._end(span)
            throw = None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                throw = exc

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse installation order)."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def __enter__(self) -> "Tracer":
        install_layer_wrappers(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: outer ``calls``, outer ``busy_s`` and ``self_s``."""
        return summarize(self.spans)

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines (a header, then one per span)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"run_id": self.run_id, "fields": [
                "id", "parent", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span[:_OUTER]) + "\n")


def summarize(spans) -> dict[str, dict[str, float]]:
    """Calls, busy time and self time per span name.

    ``spans`` are ``[id, parent, name, start, end, outer]`` records with
    ids equal to their index and ``parent == -1`` at the root.  Self time
    subtracts the union of the child intervals clipped to the parent, so it
    stays correct even for children that overlap each other.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[_PARENT] >= 0:
            children[span[_PARENT]].append((span[_START], span[_END]))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        start, end = span[_START], span[_END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[_ID], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        entry = out[span[_NAME]]
        entry["self_s"] += (end - start) - covered
        if span[_OUTER]:
            entry["calls"] += 1
            entry["busy_s"] += end - start
    return dict(out)


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------
def install_layer_wrappers(tr: Tracer) -> None:
    """Wrap each measured layer's entry points (see module docstring)."""
    from repro.ampi import loadbalancer
    from repro.campaign import runner
    from repro.campaign.fabric import CacheIndex
    from repro.config import build
    from repro.config.runspec import RunSpec
    from repro.core import kernel, verification
    from repro.core.particles import ParticleArray
    from repro.parallel import ampi, base, mpi2d_lb
    from repro.runtime import executor
    from repro.runtime.engine import SimEngine
    from repro.runtime.multiplex import EngineGroup

    c = tr.counters

    # core -------------------------------------------------------------
    def kernel_pushes(args, kwargs, result):
        c["core.kernel.pushes"] += len(args[1])  # (mesh, x, y, vx, vy, q, dt)

    # The python backend reaches the kernel through kernel.advance; the
    # fused batch path calls the executor module's imported name.
    tr.wrap(kernel, "advance_arrays", "core.kernel", kernel_pushes)
    tr.wrap(executor, "advance_arrays", "core.kernel", kernel_pushes)
    tr.wrap(ParticleArray, "compact", "core.particles.compact")
    tr.wrap(ParticleArray, "pack_into", "core.particles.pack")
    tr.wrap(ParticleArray, "extend_packed", "core.particles.pack")
    tr.wrap(base, "initialize", "core.init")
    tr.wrap(verification, "verify_distributed", "core.verify")

    # parallel ---------------------------------------------------------
    original_make_program = base.ParallelPICBase._make_program

    def make_program(self, *args, **kwargs):
        program = original_make_program(self, *args, **kwargs)
        return lambda comm: tr.traced_resumes(program(comm), "parallel.program")

    tr._patch(base.ParallelPICBase, "_make_program", make_program)
    tr.wrap_generator(base, "exchange_particles", "parallel.exchange")
    tr.wrap_generator(mpi2d_lb, "exchange_particles", "parallel.exchange")
    tr.wrap(mpi2d_lb, "diffuse_splits", "parallel.diffusion")

    # runtime ----------------------------------------------------------
    original_tick = SimEngine.tick

    def tick(self, budget=None):
        before = self.ticks
        span = tr._begin("runtime.engine.tick")
        try:
            return original_tick(self, budget)
        finally:
            tr._end(span)
            c["runtime.engine.ticks"] += self.ticks - before

    tr._patch(SimEngine, "tick", functools.wraps(original_tick)(tick))

    def flushed(args, kwargs, result):
        c["runtime.engine.flushes"] += 1

    tr.wrap(SimEngine, "flush", "runtime.engine.flush", flushed)

    def batch_tasks(args, kwargs, result):
        c["runtime.executor.tasks"] += len(args[1])  # (self, batch, ...)

    for cls in (executor.Executor, executor.ExecutorHandle,
                executor.SerialExecutor, executor.BatchedExecutor,
                executor.ProcessExecutor):
        for attr in ("start_batch", "run_batch"):
            if attr in cls.__dict__:
                tr.wrap(cls, attr, "runtime.executor", batch_tasks)
    tr.wrap(EngineGroup, "step", "runtime.multiplex.step")
    tr.wrap(EngineGroup, "_slice", "runtime.multiplex.slice")

    # ampi -------------------------------------------------------------
    def migrated(report):
        if id(report) not in tr._reports:
            tr._reports[id(report)] = report
            c["ampi.migrate.vps_moved"] += report.migrated

    tr.wrap_generator(ampi, "migrate", "ampi.migrate", migrated)
    for cls in vars(loadbalancer).values():
        if isinstance(cls, type) and "rebalance" in cls.__dict__:
            tr.wrap(cls, "rebalance", "ampi.lb.rebalance")

    # campaign ---------------------------------------------------------
    def looked_up(args, kwargs, result):
        c["campaign.cache.hits"] += result is not None

    tr.wrap(build, "canonical_runspec", "campaign.canonicalize")
    tr.wrap(CacheIndex, "lookup", "campaign.cache.lookup", looked_up)
    tr.wrap(runner, "_write_artifact", "campaign.artifact.write")
    tr.wrap(runner, "_read_artifact", "campaign.artifact.read")
    tr.wrap(runner, "_write_manifest", "campaign.manifest.write")

    # config -----------------------------------------------------------
    tr.wrap(build, "build_impl", "config.build_impl")
    tr.wrap(RunSpec, "spec_hash", "config.spec_hash")
