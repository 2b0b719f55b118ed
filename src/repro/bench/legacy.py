"""Faithful copies of replaced hot-path code, kept as perf baselines.

The wall-clock harness (:mod:`repro.bench.perf`) measures the optimised hot
path *against the code it replaced*, in the same process and on the same
machine, so the reported speedups are self-normalising.  The kernel side of
the comparison lives next to the optimised code
(:func:`repro.core.kernel.advance_reference`); this module preserves the
particle-exchange side: the seed's ``exchange_particles`` pipeline, which
allocated fresh select/pack/concatenate arrays for the full population on
every routing hop.  It also preserves two superseded parallel paths:

* :class:`PipeDispatchExecutor` — the process pool's pickled-descriptor
  pipe dispatch, the baseline of :func:`repro.bench.perf.bench_dispatch`
  against the shared-memory task rings;
* :func:`run_campaign_pool` — the ``ProcessPoolExecutor`` campaign
  runner, the baseline of :func:`repro.bench.perf.bench_campaign_throughput`
  against the work-stealing fabric.

These functions are verbatim ports of the seed implementation (commit
"PR 1") modulo renames, and must stay behaviourally identical to it — they
are the "before" in every BENCH_wallclock.json entry.  Do not optimise them.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any

import numpy as np

from repro.core.kernel import KernelWorkspace, advance_arrays
from repro.core.kernel_compiled import (
    advance_arrays_compiled,
    advance_arrays_parallel,
    warmup,
)
from repro.core.mesh import Mesh
from repro.core.particles import PARTICLE_RECORD_FIELDS, ParticleArray
from repro.decomp.partition import BlockPartition
from repro.parallel.base import (
    TAG_X_LEFT,
    TAG_X_RIGHT,
    TAG_Y_DOWN,
    TAG_Y_UP,
)
from repro.runtime.cart import CartComm
from repro.runtime.comm import Comm
from repro.runtime.costmodel import CostModel
from repro.runtime.executor import (
    _EAGER_HANDLE,
    BatchHandle,
    ProcessExecutor,
    _attach_segment,
    _partition,
)
from repro.runtime.reduce_ops import SUM

#: Shared zero-particle wire buffer (read-only by convention).
_EMPTY_BUF = np.empty((0, PARTICLE_RECORD_FIELDS), dtype=np.float64)


def exchange_particles_legacy(
    comm: Comm,
    cart: CartComm,
    partition: BlockPartition,
    mesh: Mesh,
    particles: ParticleArray,
    cost: CostModel,
    scratch=None,
):
    """The seed's particle router: fresh allocations on every hop.

    Accepts (and ignores) ``scratch`` so it can be monkeypatched in place of
    the optimised :func:`repro.parallel.base.exchange_particles`.
    """
    my_px, my_py = cart.coords
    px, py = cart.px, cart.py
    while True:
        if px > 1:
            particles = yield from _route_axis_legacy(
                comm, cart, particles, mesh, cost,
                owner_of=partition.x_owner,
                coord_of=lambda p: p.cell_columns(mesh),
                my_index=my_px, n_index=px, axis=0,
                tag_fwd=TAG_X_RIGHT, tag_bwd=TAG_X_LEFT,
            )
        if py > 1:
            particles = yield from _route_axis_legacy(
                comm, cart, particles, mesh, cost,
                owner_of=partition.y_owner,
                coord_of=lambda p: p.cell_rows(mesh),
                my_index=my_py, n_index=py, axis=1,
                tag_fwd=TAG_Y_UP, tag_bwd=TAG_Y_DOWN,
            )
        misplaced = _count_misplaced_legacy(cart, partition, mesh, particles)
        total = yield comm.allreduce(misplaced, op=SUM)
        if total == 0:
            return particles


def _count_misplaced_legacy(cart, partition, mesh, particles) -> int:
    if len(particles) == 0:
        return 0
    owner = partition.owner_rank(
        particles.cell_columns(mesh), particles.cell_rows(mesh)
    )
    return int(np.count_nonzero(owner != cart.rank))


def _route_axis_legacy(
    comm, cart, particles, mesh, cost,
    *, owner_of, coord_of, my_index, n_index, axis, tag_fwd, tag_bwd,
):
    """One forwarding hop along one axis (generator; returns particle set)."""
    n_fwd = n_bwd = 0
    if len(particles):
        owner = owner_of(coord_of(particles))
        dist = (owner - my_index) % n_index
        go_fwd = (dist > 0) & (dist <= n_index // 2)
        go_bwd = dist > n_index // 2
        n_fwd = int(np.count_nonzero(go_fwd))
        n_bwd = int(np.count_nonzero(go_bwd))

    fwd_buf = particles.pack(go_fwd) if n_fwd else _EMPTY_BUF
    bwd_buf = particles.pack(go_bwd) if n_bwd else _EMPTY_BUF
    n_out = n_fwd + n_bwd
    if n_out:
        yield comm.compute(cost.pack_time(n_out))

    src_bwd, dst_fwd = cart.shift(axis, 1)
    src_fwd, dst_bwd = cart.shift(axis, -1)
    from_bwd = yield comm.sendrecv(
        fwd_buf, dst=dst_fwd, src=src_bwd, sendtag=tag_fwd, recvtag=tag_fwd,
        nbytes=cost.particle_wire_bytes(fwd_buf.nbytes),
    )
    from_fwd = yield comm.sendrecv(
        bwd_buf, dst=dst_bwd, src=src_fwd, sendtag=tag_bwd, recvtag=tag_bwd,
        nbytes=cost.particle_wire_bytes(bwd_buf.nbytes),
    )

    n_in = len(from_bwd) + len(from_fwd)
    if n_in == 0:
        if n_out == 0:
            return particles
        return particles.select(~(go_fwd | go_bwd))
    yield comm.compute(cost.pack_time(n_in))
    kept = particles.select(~(go_fwd | go_bwd)) if n_out else particles
    parts = [kept]
    if len(from_bwd):
        parts.append(ParticleArray.from_packed(from_bwd))
    if len(from_fwd):
        parts.append(ParticleArray.from_packed(from_fwd))
    return ParticleArray.concatenate(parts)


# ----------------------------------------------------------------------
# Pipe dispatch (the process pool before the shared-memory task rings)
# ----------------------------------------------------------------------
def _pipe_worker_main(conn, warm_backends: tuple = ()) -> None:
    """Pipe-dispatch worker loop: recv task descriptors, push in place.

    A descriptor is ``(field_locs, n, mesh_args, dt, backend)`` where
    ``field_locs`` is five ``(segment_name, byte_offset)`` pairs for x, y,
    vx, vy, q and ``backend`` names the kernel to run it under.  All work
    happens through shared-memory views; the reply is
    ``(execute_seconds, particles_pushed, per_task)`` with ``per_task`` a
    list of ``(seconds, n)`` in descriptor order.
    """
    segments: dict[str, Any] = {}
    workspace = KernelWorkspace()
    mesh_cache: dict[tuple, Mesh] = {}
    warm_s = sum(warmup(b) for b in warm_backends)
    conn.send(("ready", os.getpid(), warm_s))
    views = []
    while True:
        try:
            msg = conn.recv()
        except EOFError:  # pragma: no cover - parent died
            break
        if msg is None:
            break
        t0 = time.perf_counter()
        pushed = 0
        per_task = []
        for field_locs, n, mesh_args, dt, backend in msg:
            t1 = time.perf_counter()
            del views[:]
            for seg_name, off in field_locs:
                shm = segments.get(seg_name)
                if shm is None:
                    shm = _attach_segment(seg_name)
                    segments[seg_name] = shm
                views.append(
                    np.frombuffer(shm.buf, dtype=np.float64, count=n, offset=off)
                )
            mesh = mesh_cache.get(mesh_args)
            if mesh is None:
                mesh = Mesh(*mesh_args)
                mesh_cache[mesh_args] = mesh
            if backend == "python":
                advance_arrays(mesh, *views, dt, workspace=workspace)
            elif backend == "compiled":
                advance_arrays_compiled(mesh, *views, dt)
            else:
                advance_arrays_parallel(mesh, *views, dt)
            pushed += n
            per_task.append((time.perf_counter() - t1, n))
        del views[:]
        conn.send((time.perf_counter() - t0, pushed, per_task))
    for shm in segments.values():
        try:
            shm.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass
    conn.close()


class _PipeHandle(BatchHandle):
    """In-flight pipe-dispatch batch: one recv per used worker."""

    __slots__ = (
        "_ex", "_work", "_work_of", "_bins", "_owner", "_used",
        "_t_d0", "_t_sent", "_cpu_s", "_durations", "_per_task", "_pushed",
        "_finished",
    )

    def __init__(self, ex, work, work_of, bins, t_d0, t_sent, cpu_s) -> None:
        self._ex = ex
        self._work = work
        self._work_of = work_of
        self._bins = bins
        self._owner = {i: w for w, b in enumerate(bins) for i in b}
        self._used = [w for w, b in enumerate(bins) if b]
        self._t_d0 = t_d0
        self._t_sent = t_sent
        self._cpu_s = cpu_s
        self._durations: dict[int, float] = {}
        self._per_task: dict[int, list] = {}
        self._pushed = 0
        self._finished = False

    def _collect(self, w: int) -> None:
        if w in self._durations:
            return
        dur, pushed, per_task = self._ex._conns[w].recv()
        self._durations[w] = dur
        self._per_task[w] = per_task
        self._pushed += pushed

    def wait(self, i: int) -> None:
        wi = self._work_of[i]
        if wi is None:
            return
        # Worker granularity: one reply covers the whole bin.
        self._collect(self._owner[wi])

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        ex = self._ex
        for w in self._used:
            self._collect(w)
        t_merged = ex._now()
        ex.particles_pushed += self._pushed
        ex.batches += 1
        ex.tasks_executed += len(self._work)
        if ex.work_meter is not None:
            for w in self._used:
                for i, (task_s, n) in zip(self._bins[w], self._per_task[w]):
                    ex.work_meter.record(self._work[i][0], n, task_s)
        tr = ex.exec_tracer
        if tr is not None:
            t_sent = self._t_sent
            tr.record(
                "dispatch", -1, ex.batches, self._t_d0, t_sent,
                tasks=len(self._work), cpu_s=self._cpu_s,
            )
            for w in self._used:
                tr.record(
                    "execute", w, ex.batches, t_sent,
                    t_sent + self._durations[w], tasks=len(self._bins[w]),
                )
                t_task = t_sent
                for i, (task_s, n) in zip(self._bins[w], self._per_task[w]):
                    tr.record(
                        "task", w, ex.batches, t_task, t_task + task_s,
                        rank=self._work[i][0], n=n,
                    )
                    t_task += task_s
            tr.record(
                "merge", -1, ex.batches, t_sent, t_merged,
                tasks=len(self._used),
            )


class PipeDispatchExecutor(ProcessExecutor):
    """The process pool with pickled-descriptor pipe dispatch.

    Every batch rebuilds one descriptor per task, re-runs the LPT
    partition and pickles each worker's descriptor list down its pipe; no
    task rings, no cached dispatch plan.  Workers, arena, handshakes and
    shutdown are the production :class:`ProcessExecutor`'s.
    """

    def start(self) -> None:
        if self._procs:
            return
        import multiprocessing as mp

        self._spawn_t0 = time.perf_counter()
        ctx = mp.get_context("spawn")
        warm_backends = self._warm_backends()
        for i in range(self.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_pipe_worker_main, args=(child_conn, warm_backends),
                name=f"repro-exec-{i}", daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def start_batch(
        self, batch: list[tuple[int, Any]], tag: str | None = None
    ) -> BatchHandle:
        self._note_tag(tag, batch)
        work = []
        work_of: list[int | None] = []
        for rank, task in batch:
            if len(task.particles):
                work_of.append(len(work))
                work.append((rank, task))
            else:
                work_of.append(None)
        if not work:
            return _EAGER_HANDLE
        self.start()
        cpu0 = time.process_time()
        t_d0 = self._now() if self._ready else None
        descs = []
        for rank, task in work:
            m = task.mesh
            descs.append(
                (
                    self._field_locs(task.particles),
                    len(task.particles),
                    (m.cells, m.h, m.q),
                    task.dt,
                    self._backend_for(rank),
                )
            )
        self.ensure_ready()
        if t_d0 is None:
            t_d0 = self._now()
        sizes = [d[1] for d in descs]
        bins = _partition(sizes, self.workers)
        for w, idxs in enumerate(bins):
            if idxs:
                self._conns[w].send([descs[i] for i in idxs])
        cpu_s = time.process_time() - cpu0
        t_sent = self._now()
        return _PipeHandle(self, work, work_of, bins, t_d0, t_sent, cpu_s)


# ----------------------------------------------------------------------
# Campaign pool runner (before the work-stealing fabric)
# ----------------------------------------------------------------------
def run_campaign_pool(campaign, cache_dir: str, jobs: int) -> list:
    """Run every point of ``campaign`` over a vanilla process pool.

    Canonicalizes and hashes each point, submits every point upfront in
    expansion order (each pays its own executor startup inside
    ``_execute_point``), and writes one artifact per point as its result
    is collected in expansion order.  No cache probe and no manifest: the
    baseline always executes the whole sweep.  Returns the points'
    :class:`~repro.campaign.runner.PointOutcome` list in expansion order.
    """
    from repro.campaign.runner import PointOutcome, _execute_point, _write_artifact
    from repro.config.build import canonical_runspec

    points = campaign.expand()
    canon = {p.index: canonical_runspec(p.spec) for p in points}
    hashes = {index: rs.spec_hash() for index, rs in canon.items()}
    outcomes = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        t0 = time.perf_counter()
        futures = {
            p.index: pool.submit(_execute_point, p.spec.to_dict()) for p in points
        }
        for p in points:
            result = futures[p.index].result()
            _write_artifact(cache_dir, hashes[p.index], canon[p.index], result)
            outcomes.append(PointOutcome(
                index=p.index, labels=p.labels, spec_hash=hashes[p.index],
                result=result, cached=False,
                # Concurrent points overlap; charge elapsed-so-far once each.
                wall_s=time.perf_counter() - t0,
            ))
    return outcomes
