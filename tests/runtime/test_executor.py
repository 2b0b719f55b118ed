"""Unit tests for the compute-execution backends (:mod:`repro.runtime.executor`)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import kernel as kernel_mod
from repro.core.kernel import (
    KERNEL_BLOCK,
    KernelWorkspace,
    advance,
    advance_arrays,
)
from repro.bench.legacy import PipeDispatchExecutor
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.runtime import executor as executor_mod
from repro.runtime import ops
from repro.runtime.executor import (
    FUSE_BELOW,
    ProcessExecutor,
    PushTask,
    SerialExecutor,
    ShmArena,
    _partition,
    make_executor,
)
from repro.core.kernel_compiled import HAVE_NUMBA, CompiledKernelUnavailable
from repro.instrument import ExecutorTrace
from repro.runtime.costmodel import WorkRateMeter
from repro.runtime.scheduler import run_spmd


def _particles(n: int, mesh: Mesh, seed: int = 3) -> ParticleArray:
    rng = np.random.default_rng(seed)
    p = ParticleArray.empty(n)
    p.x[:] = rng.uniform(0.0, mesh.L, n)
    p.y[:] = rng.uniform(0.0, mesh.L, n)
    p.vx[:] = rng.normal(size=n) * 0.1
    p.vy[:] = rng.normal(size=n) * 0.1
    p.q[:] = np.where(rng.integers(0, 2, n) == 0, 1.0, -1.0)
    return p


def _push_batch(mesh, dt, sizes, seed0=10):
    return [
        (r, PushTask(mesh, _particles(n, mesh, seed=seed0 + r), dt))
        for r, n in enumerate(sizes)
    ]


def _serial_oracle(mesh, dt, sizes, seed0=10):
    out = []
    for r, n in enumerate(sizes):
        p = _particles(n, mesh, seed=seed0 + r)
        advance(mesh, p, dt)
        out.append(p)
    return out


def _assert_fields_equal(p, q):
    for f in ("x", "y", "vx", "vy", "q", "pid"):
        np.testing.assert_array_equal(getattr(p, f), getattr(q, f))


class TestAdvanceArrays:
    def test_matches_advance_on_container(self):
        mesh = Mesh(cells=8)
        a = _particles(500, mesh)
        b = a.copy()
        advance(mesh, a, 0.01)
        advance_arrays(mesh, b.x, b.y, b.vx, b.vy, b.q, 0.01)
        _assert_fields_equal(a, b)

    def test_segments_of_concatenation_match(self):
        """Pushing a concatenation equals pushing the parts: chunk-invariant."""
        mesh = Mesh(cells=8)
        parts = [_particles(n, mesh, seed=20 + i) for i, n in enumerate((7, 300, 40))]
        fused = ParticleArray.concatenate(parts)
        advance_arrays(mesh, fused.x, fused.y, fused.vx, fused.vy, fused.q, 0.01)
        o = 0
        for p in parts:
            advance(mesh, p, 0.01)
            n = len(p)
            np.testing.assert_array_equal(fused.x[o : o + n], p.x)
            np.testing.assert_array_equal(fused.vy[o : o + n], p.vy)
            o += n

    def test_own_workspace_is_independent(self):
        mesh = Mesh(cells=8)
        a = _particles(100, mesh)
        b = a.copy()
        advance_arrays(mesh, a.x, a.y, a.vx, a.vy, a.q, 0.01)
        advance_arrays(
            mesh, b.x, b.y, b.vx, b.vy, b.q, 0.01, workspace=KernelWorkspace()
        )
        _assert_fields_equal(a, b)


class TestPartition:
    def test_covers_all_items_exactly_once(self):
        bins = _partition([5, 1, 9, 3, 3, 7], 3)
        flat = sorted(i for b in bins for i in b)
        assert flat == list(range(6))

    def test_deterministic(self):
        sizes = [17, 17, 4, 9, 0, 25]
        assert _partition(sizes, 4) == _partition(sizes, 4)

    def test_largest_first_balance(self):
        bins = _partition([10, 10, 1, 1], 2)
        loads = [sum([10, 10, 1, 1][i] for i in b) for b in bins]
        assert sorted(loads) == [11, 11]

    def test_more_workers_than_tasks(self):
        bins = _partition([3], 4)
        assert bins[0] == [0] and all(not b for b in bins[1:])


class TestShmArena:
    def test_alloc_is_writable_and_located(self):
        arena = ShmArena(min_segment_bytes=1 << 12)
        try:
            a = arena.alloc(100, np.float64)
            a[:] = np.arange(100.0)
            loc = arena.locate(a)
            assert loc is not None
            name, off = loc
            assert isinstance(name, str) and off >= 0
            assert arena.locate(np.zeros(4)) is None
        finally:
            del a
            arena.close()

    def test_offsets_are_aligned(self):
        arena = ShmArena(min_segment_bytes=1 << 12)
        try:
            arrs = [arena.alloc(3, np.float64) for _ in range(4)]
            offs = [arena.locate(a)[1] for a in arrs]
            assert all(o % 64 == 0 for o in offs)
            assert len(set(offs)) == len(offs)  # distinct allocations
        finally:
            del arrs
            arena.close()

    def test_recycles_when_all_arrays_dead(self):
        arena = ShmArena(min_segment_bytes=1 << 12)
        try:
            a = arena.alloc(64, np.float64)
            first_off = arena.locate(a)[1]
            bytes_before = arena.total_bytes
            del a
            b = arena.alloc(64, np.float64)
            # Same bump offset reused, no new segment.
            assert arena.locate(b)[1] == first_off
            assert arena.total_bytes == bytes_before
        finally:
            del b
            arena.close()

    def test_grows_new_segment_when_full(self):
        arena = ShmArena(min_segment_bytes=1 << 12)
        try:
            a = arena.alloc(400, np.float64)  # ~3.2 KB of the 4 KB segment
            b = arena.alloc(400, np.float64)  # must open a second segment
            assert arena.total_bytes > 1 << 12
            assert arena.locate(a)[0] != arena.locate(b)[0]
        finally:
            del a, b
            arena.close()

    def test_closed_arena_rejects_alloc(self):
        arena = ShmArena()
        arena.close()
        with pytest.raises(RuntimeError, match="closed"):
            arena.alloc(8, np.float64)


class TestRebaseBacking:
    def test_rebase_preserves_content_and_future_growth(self):
        arena = ShmArena(min_segment_bytes=1 << 14)
        try:
            mesh = Mesh(cells=8)
            p = _particles(50, mesh)
            ref = p.copy()
            p.rebase_backing(arena.alloc)
            _assert_fields_equal(p, ref)
            assert arena.locate(p.x) is not None
            # Growth after rebasing stays arena-resident.
            p.extend(_particles(300, mesh, seed=9))
            assert arena.locate(p.x) is not None
            assert len(p) == 350
        finally:
            del p
            arena.close()


class TestBackends:
    @pytest.mark.parametrize("name", ["serial"])
    def test_backend_matches_serial_oracle(self, name):
        mesh = Mesh(cells=8)
        sizes = (40, 0, 333, 17)
        batch = _push_batch(mesh, 0.01, sizes)
        make_executor(name).run_batch(batch)
        for (_, task), oracle in zip(batch, _serial_oracle(mesh, 0.01, sizes)):
            _assert_fields_equal(task.particles, oracle)

    def test_process_backend_matches_serial_oracle(self):
        mesh = Mesh(cells=8)
        sizes = (40, 0, 333, 17)
        batch = _push_batch(mesh, 0.01, sizes)
        ex = ProcessExecutor(workers=2)
        try:
            ex.run_batch(batch)
        finally:
            stats = ex.stats()
            ex.close()
        for (_, task), oracle in zip(batch, _serial_oracle(mesh, 0.01, sizes)):
            _assert_fields_equal(task.particles, oracle)
        assert stats["tasks_executed"] == 3  # empty task skipped
        assert stats["particles_pushed"] == sum(sizes)
        assert stats["pool_startup_s"] > 0.0

    def test_process_pool_reused_across_batches(self):
        mesh = Mesh(cells=8)
        ex = ProcessExecutor(workers=2)
        try:
            ex.run_batch(_push_batch(mesh, 0.01, (50, 60)))
            startup = ex.pool_startup_s
            ex.run_batch(_push_batch(mesh, 0.01, (50, 60), seed0=40))
            assert ex.pool_startup_s == startup  # no re-spawn
            assert ex.stats()["batches"] == 2
        finally:
            ex.close()

    def test_close_is_idempotent(self):
        ex = ProcessExecutor(workers=1)
        ex.run_batch(_push_batch(Mesh(cells=8), 0.01, (10,)))
        ex.close()
        ex.close()

    def test_closed_process_executor_restarts_for_next_run(self):
        """A closed pool (e.g. the shared default reaped on a crash path)
        runs the next simulation on a fresh arena, bitwise like serial."""
        from repro.core.spec import Distribution, PICSpec
        from repro.parallel.mpi2d import Mpi2dPIC

        spec = PICSpec(
            cells=16, n_particles=200, steps=3,
            distribution=Distribution.UNIFORM,
        )
        oracle = Mpi2dPIC(spec, 4, executor=make_executor("serial")).run()
        ex = ProcessExecutor(workers=2)
        try:
            assert Mpi2dPIC(spec, 4, executor=ex).run().verification.ok
            closed_arena = ex.arena
            ex.close()
            with pytest.raises(RuntimeError, match="closed ShmArena"):
                closed_arena.alloc(4, np.float64)
            again = Mpi2dPIC(spec, 4, executor=ex).run()
            assert ex.arena is not closed_arena
            assert ex._procs, "the pool should have restarted"
        finally:
            ex.close()
        assert again.verification.ok
        assert again.total_time == oracle.total_time
        assert again.verification.id_checksum == oracle.verification.id_checksum
        assert again.verification.max_abs_error == oracle.verification.max_abs_error

    def test_serial_stats_count_calls_and_fusions(self):
        mesh = Mesh(cells=8)
        ex = SerialExecutor()
        ex.run_batch(_push_batch(mesh, 0.01, (30, 30, 30, FUSE_BELOW)))
        assert ex.stats() == {"batches": 1, "kernel_calls": 2, "fused_tasks": 3}

    @staticmethod
    def _mixed_batch():
        """Fusion edge sizes plus 40 ~200-particle tasks, interleaving two
        meshes and two dts; odd ranks take ``auto`` through a backend_map
        (a second kernel backend when numba is installed)."""
        meshes = (Mesh(cells=8), Mesh(cells=16))
        sizes = [0, 1, FUSE_BELOW - 1, FUSE_BELOW, KERNEL_BLOCK + 1]
        sizes += [180 + 3 * k for k in range(40)]
        batch = []
        for r, n in enumerate(sizes):
            mesh = meshes[r % 2]
            dt = (0.01, 0.02)[(r // 2) % 2]
            batch.append((r, PushTask(mesh, _particles(n, mesh, seed=r), dt)))
        backend_map = {r: "auto" for r in range(1, len(sizes), 2)}
        return batch, backend_map

    def test_fusion_matches_per_task_oracle(self):
        batch, backend_map = self._mixed_batch()
        oracle = [t.particles.copy() for _, t in batch]
        for (_, t), p in zip(batch, oracle):
            advance(t.mesh, p, t.dt)
        SerialExecutor(backend_map=backend_map).run_batch(batch)
        for (_, task), p in zip(batch, oracle):
            _assert_fields_equal(task.particles, p)

    def test_fused_kernel_calls_bounded_per_flush(self, monkeypatch):
        """At most ceil(sum small / KERNEL_BLOCK) calls per (mesh, dt,
        backend), plus one per large task, on every flush."""
        calls = []

        def counting(original):
            def wrapped(mesh, x, *args, **kwargs):
                calls.append(len(x))
                return original(mesh, x, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(
            executor_mod, "advance_arrays", counting(advance_arrays)
        )
        monkeypatch.setattr(
            kernel_mod, "advance_arrays", counting(advance_arrays)
        )
        batch, _ = self._mixed_batch()
        small: dict[tuple, int] = {}
        large = 0
        for _, t in batch:
            n = len(t.particles)
            if n >= FUSE_BELOW:
                large += 1
            elif n:
                key = (t.mesh, t.dt)
                small[key] = small.get(key, 0) + n
        bound = large + sum(-(-s // KERNEL_BLOCK) for s in small.values())
        ex = SerialExecutor()
        for _ in range(2):  # a warm flush must keep the bound too
            calls.clear()
            ex.run_batch(batch)
            assert len(calls) <= bound
            assert sum(calls) == sum(len(t.particles) for _, t in batch)

    def test_warm_fused_batch_allocates_little(self):
        import tracemalloc

        mesh = Mesh(cells=16)
        batch = _push_batch(mesh, 0.01, [400] * 128)
        ex = SerialExecutor()
        ex.run_batch(batch)
        tracemalloc.start()
        try:
            ex.run_batch(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_make_executor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu")


class TestRingDispatch:
    """Zero-copy ring path: bitwise parity, plan cache, chunking, knobs."""

    @pytest.mark.parametrize(
        "cls", [ProcessExecutor, PipeDispatchExecutor], ids=["ring", "pipe"]
    )
    def test_both_paths_match_serial_oracle(self, cls):
        mesh = Mesh(cells=8)
        sizes = (40, 0, 333, 17)
        batch = _push_batch(mesh, 0.01, sizes)
        ex = cls(workers=2)
        try:
            ex.run_batch(batch)
        finally:
            ex.close()
        for (_, task), oracle in zip(batch, _serial_oracle(mesh, 0.01, sizes)):
            _assert_fields_equal(task.particles, oracle)

    def test_plan_cache_hits_and_generation_invalidation(self):
        mesh = Mesh(cells=8)
        batch = _push_batch(mesh, 0.01, (50, 60, 70))
        ex = ProcessExecutor(workers=2)
        try:
            for _ in range(3):
                ex.run_batch(batch)
            stats = ex.stats()
            assert stats["plan_misses"] == 1  # cold plan only
            assert stats["plan_hits"] == 2
            # Growth past capacity bumps the container generation: the
            # next batch must re-resolve that task's field locations
            # (a partial-refresh miss), and the results stay exact.
            p = batch[0][1].particles
            gen0 = p.generation
            p.reserve(len(p) * 10)
            assert p.generation > gen0
            ex.run_batch(batch)
            assert ex.stats()["plan_misses"] == 2
            ex.run_batch(batch)  # steady again
            assert ex.stats()["plan_hits"] == 3
        finally:
            ex.close()
        # 5 pushes of the same batch vs 5 serial pushes.
        oracles = [
            _particles(n, mesh, seed=10 + r) for r, n in enumerate((50, 60, 70))
        ]
        for p in oracles:
            for _ in range(5):
                advance(mesh, p, 0.01)
        for (_, task), oracle in zip(batch, oracles):
            _assert_fields_equal(task.particles, oracle)

    def test_drift_triggers_repartition(self):
        """A cached plan whose sizes went lopsided re-runs LPT (counted as
        a miss) instead of dispatching against a stale partition."""
        mesh = Mesh(cells=8)
        batch = _push_batch(mesh, 0.01, (100, 100, 100, 100))
        ex = ProcessExecutor(workers=2)
        try:
            ex.run_batch(batch)
            ex.run_batch(batch)
            assert ex.stats()["plan_hits"] == 1
            # Shrink two tasks sharing a bin: loads go 200 vs 20.
            bins = ex._plan_bins
            w = max(range(len(bins)), key=lambda j: len(bins[j]))
            for i in bins[w]:
                p = batch[i][1].particles
                keep = np.zeros(len(p), dtype=bool)
                keep[:10] = True
                p.compact(keep)
            misses0 = ex.stats()["plan_misses"]
            ex.run_batch(batch)
            assert ex.stats()["plan_misses"] == misses0 + 1
        finally:
            ex.close()

    def test_tiny_ring_publishes_in_chunks(self, monkeypatch):
        """A bin larger than the ring drains through follow-on chunks."""
        monkeypatch.setattr(executor_mod, "RING_SLOTS", 2)
        mesh = Mesh(cells=8)
        sizes = (30, 31, 32, 33, 34, 35, 36)
        batch = _push_batch(mesh, 0.01, sizes)
        ex = ProcessExecutor(workers=1)
        try:
            for _ in range(2):  # second pass exercises chunked re-publish
                ex.run_batch(batch)
        finally:
            ex.close()
        oracles = _serial_oracle(mesh, 0.01, sizes)
        for p in oracles:
            advance(mesh, p, 0.01)
        for (_, task), oracle in zip(batch, oracles):
            _assert_fields_equal(task.particles, oracle)

    def test_stats_report_dispatch_knobs(self):
        ex = ProcessExecutor(workers=1)
        try:
            stats = ex.stats()
        finally:
            ex.close()
        assert {"plan_epoch", "plan_hits", "plan_misses"} <= set(stats)
        assert not {"dispatch", "ring_slots"} & set(stats)

    def test_invalid_dispatch_and_ring_slots_rejected(self):
        """The dispatch path and ring depth are fixed, not options."""
        with pytest.raises(TypeError, match="dispatch"):
            ProcessExecutor(workers=1, dispatch="pipe")
        with pytest.raises(TypeError, match="ring_slots"):
            make_executor("process", workers=1, ring_slots=2)

    def test_ensure_ready_is_idempotent(self):
        ex = ProcessExecutor(workers=1)
        try:
            ex.ensure_ready()
            startup = ex.pool_startup_s
            assert startup > 0.0
            ex.ensure_ready()
            assert ex.pool_startup_s == startup
        finally:
            ex.close()

    def test_dispatch_spans_carry_cpu_seconds(self):
        """Both paths attach parent CPU seconds to their dispatch spans —
        the figure the ring-vs-pipe gate compares (wall time would
        double-count worker kernel time on oversubscribed hosts)."""
        mesh = Mesh(cells=8)
        for cls in (ProcessExecutor, PipeDispatchExecutor):
            tr = ExecutorTrace()
            ex = cls(workers=1, exec_tracer=tr)
            try:
                ex.run_batch(_push_batch(mesh, 0.01, (40, 50)))
            finally:
                ex.close()
            spans = [s for s in tr.spans if s.phase == "dispatch"]
            assert spans, cls.__name__
            for s in spans:
                assert s.args_dict()["cpu_s"] >= 0.0


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="needs >= 4 cores to see overlap"
)
def test_concurrent_prewarm_startup_is_flat():
    """Worker boot overlaps: a 4-worker pool must not cost 4x a 1-worker
    pool's startup (generous 2.5x bound for scheduler noise)."""
    t_one = t_four = None
    for workers in (1, 4):
        ex = ProcessExecutor(workers=workers)
        try:
            ex.ensure_ready()
            if workers == 1:
                t_one = ex.pool_startup_s
            else:
                t_four = ex.pool_startup_s
        finally:
            ex.close()
    assert t_four < 2.5 * t_one, (t_one, t_four)


class TestSchedulerBatching:
    def test_compute_tasks_flush_as_one_batch(self):
        """All ranks parked on the same step's push reach the executor together."""
        mesh = Mesh(cells=8)
        seen: list[list[int]] = []

        class Spy(SerialExecutor):
            def run_batch(self, batch):
                seen.append([r for r, _ in batch])
                super().run_batch(batch)

        def program(comm):
            p = _particles(20, mesh, seed=comm.rank)
            for _ in range(2):
                yield comm.compute(1e-6, task=PushTask(mesh, p, 0.01))
                yield comm.barrier()
            return len(p)

        result = run_spmd(3, program, executor=Spy())
        assert result.returns == [20, 20, 20]
        assert seen == [[0, 1, 2], [0, 1, 2]]

    def test_taskless_compute_unchanged(self):
        def program(comm):
            yield comm.compute(1.0)
            return comm.rank

        result = run_spmd(2, program, executor=SerialExecutor())
        assert result.total_time == 1.0

    def test_task_runs_before_rank_resumes(self):
        """The rank observes its own push done immediately after the yield."""
        mesh = Mesh(cells=8)

        def program(comm):
            p = _particles(10, mesh, seed=5)
            before = p.x.copy()
            yield comm.compute(1e-6, task=PushTask(mesh, p, 0.01))
            return bool(np.any(p.x != before))

        result = run_spmd(2, program, executor=SerialExecutor())
        assert result.returns == [True, True]

    def test_compute_op_carries_task(self):
        op = ops.ComputeOp(1.0, task="marker")
        assert op.task == "marker"
        assert ops.ComputeOp(1.0).task is None


class TestKernelBackendPlumbing:
    """Backend selection, work-rate metering and warm-up accounting."""

    def test_default_backend_is_python(self):
        for ex in (SerialExecutor(), ProcessExecutor(workers=1)):
            assert ex.kernel_backend == "python"
            ex.close()

    def test_auto_resolves_eagerly_to_a_concrete_backend(self):
        ex = SerialExecutor(kernel_backend="auto")
        assert ex.kernel_backend == ("compiled" if HAVE_NUMBA else "python")

    @pytest.mark.skipif(HAVE_NUMBA, reason="needs a numba-less environment")
    def test_compiled_without_numba_fails_at_construction(self):
        for name in ("serial", "process"):
            with pytest.raises(CompiledKernelUnavailable):
                make_executor(name, workers=1, kernel_backend="compiled")
        with pytest.raises(CompiledKernelUnavailable):
            SerialExecutor(backend_map={2: "compiled"})

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            SerialExecutor(kernel_backend="fortran")

    def test_backend_map_overrides_fleet_default(self):
        ex = SerialExecutor(kernel_backend="python", backend_map={1: "auto"})
        assert ex._backend_for(0) == "python"
        assert ex._backend_for(1) == ("compiled" if HAVE_NUMBA else "python")

    @pytest.mark.parametrize("name,workers", [("serial", 0), ("process", 2)])
    def test_work_meter_records_per_rank_rates(self, name, workers):
        mesh = Mesh(cells=8)
        meter = WorkRateMeter()
        ex = make_executor(name, workers=workers, work_meter=meter)
        try:
            ex.run_batch(_push_batch(mesh, 0.05, [5000, 8000]))
        finally:
            ex.close()
        rates = meter.rates()
        assert set(rates) == {0, 1}
        assert all(r > 0.0 for r in rates.values())

    def test_metered_run_stays_bitwise_exact(self):
        mesh = Mesh(cells=8)
        ex = SerialExecutor(work_meter=WorkRateMeter())
        batch = _push_batch(mesh, 0.05, [3000, 700])
        ex.run_batch(batch)
        for (_, task), oracle in zip(batch, _serial_oracle(mesh, 0.05, [3000, 700])):
            _assert_fields_equal(task.particles, oracle)

    def test_process_stats_report_backend_and_warmup(self):
        ex = ProcessExecutor(workers=1)
        ex.start()
        try:
            stats = ex.stats()
        finally:
            ex.close()
        assert stats["kernel_backend"] == "python"
        assert stats["jit_warmup_s"] == 0.0  # python backend: no JIT to warm

    def test_serial_task_spans_carry_ranks(self):
        mesh = Mesh(cells=8)
        tr = ExecutorTrace()
        ex = SerialExecutor(exec_tracer=tr)
        ex.run_batch(_push_batch(mesh, 0.05, [500, 600, 700]))
        task_spans = [s for s in tr.spans if s.phase == "task"]
        assert {s.args_dict()["rank"] for s in task_spans} == {0, 1, 2}
        assert all(s.duration >= 0.0 for s in task_spans)
