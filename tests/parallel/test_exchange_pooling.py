"""Tests for the pooled, zero-churn particle exchange.

Three concerns:

* **Zero-migration safety** — the seed's ``_route_axis`` only defined
  ``go_fwd``/``go_bwd`` inside the ``if len(particles)`` branch; the pooled
  rewrite restructured that path, and these tests pin the regression: a
  non-empty, fully-settled population must route as a no-op, repeatedly,
  with a shared scratch.

* **Allocation freedom** — "zero per-step full-population array
  allocations": with every particle settled, and with ~0.1 % of them
  crossing a boundary per exchange, repeated exchanges must not allocate
  anything proportional to the population (tracemalloc sees numpy
  buffers).

* **Differential equivalence** — the sparse exchange and the verbatim seed
  implementation (:mod:`repro.bench.legacy`) must deliver identical
  particles in identical order, including the int64 fields, over the same
  traffic and simulated clocks, for arbitrary migration patterns.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.bench.legacy import exchange_particles_legacy
from repro.core.mesh import Mesh
from repro.core.particles import ParticleArray
from repro.decomp.partition import BlockPartition
from repro.parallel.base import ExchangeScratch, _count_misplaced, exchange_particles
from repro.runtime import run_spmd
from repro.runtime.costmodel import CostModel

_FIELDS = ("x", "y", "vx", "vy", "q", "pid", "x0", "y0", "kdisp", "mdisp", "birth")


def make_population(n, mesh, seed, *, x_range=None, y_range=None):
    """Particles with all 11 fields populated, optionally confined to a block."""
    rng = np.random.default_rng(seed)
    p = ParticleArray.empty(n)
    xlo, xhi = x_range if x_range else (0.0, mesh.L)
    ylo, yhi = y_range if y_range else (0.0, mesh.L)
    p.x[:] = rng.uniform(xlo, xhi, n)
    p.y[:] = rng.uniform(ylo, yhi, n)
    p.vx[:] = rng.normal(size=n)
    p.vy[:] = rng.normal(size=n)
    p.q[:] = rng.choice([-1.0, 1.0], size=n)
    p.pid[:] = rng.integers(0, 2**40, size=n)
    p.x0[:] = p.x
    p.y0[:] = p.y
    p.kdisp[:] = rng.integers(-5, 5, size=n)
    p.mdisp[:] = rng.integers(-5, 5, size=n)
    p.birth[:] = rng.integers(0, 1000, size=n)
    return p


def run_exchange_spmd(
    cells, dims, placed, exchange=exchange_particles, rounds=1, h=1.0
):
    """Run ``rounds`` exchanges over a cart; the SPMD result's ``returns``
    are the ranks' final particle sets."""
    mesh = Mesh(cells, h)
    part = BlockPartition.uniform(cells, *dims)
    cost = CostModel()
    n = dims[0] * dims[1]
    scratches = {}

    def prog(comm):
        cart = yield comm.create_cart(dims)
        scratch = scratches.setdefault(cart.rank, ExchangeScratch())
        mine = placed.get(cart.rank, ParticleArray.empty(0))
        for _ in range(rounds):
            mine = yield from exchange(
                comm, cart, part, mesh, mine, cost, scratch
            )
        return mine

    return run_spmd(n, prog)


def run_exchange(cells, dims, placed, exchange=exchange_particles, rounds=1):
    """Run ``rounds`` exchanges over a cart; returns {rank: ParticleArray}."""
    res = run_exchange_spmd(cells, dims, placed, exchange, rounds)
    return dict(enumerate(res.returns))


def assert_same_particles(a: ParticleArray, b: ParticleArray):
    """Same particles in the same order, field for field and dtype."""
    assert len(a) == len(b)
    for name in _FIELDS:
        fa, fb = getattr(a, name), getattr(b, name)
        assert fa.dtype == fb.dtype, name
        np.testing.assert_array_equal(fa, fb, err_msg=name)


# ----------------------------------------------------------------------
# Zero-migration regression (the go_fwd/go_bwd hazard)
# ----------------------------------------------------------------------
class TestZeroMigration:
    def test_settled_population_repeated_exchanges(self):
        """Non-empty settled sets through many exchanges with one scratch."""
        cells, dims = 16, (2, 2)
        mesh = Mesh(cells)
        part = BlockPartition.uniform(cells, *dims)
        placed = {}
        for rank in range(4):
            cx, cy = divmod(rank, 2)
            placed[rank] = make_population(
                200, mesh, seed=rank,
                x_range=part.x_range(cx), y_range=part.y_range(cy),
            )
        before = {r: p.copy() for r, p in placed.items()}
        out = run_exchange(cells, dims, placed, rounds=5)
        for rank in range(4):
            assert_same_particles(out[rank], before[rank])

    def test_one_axis_migrates_other_is_clean(self):
        """x-phase moves particles while the y-phase sees zero movers —
        exercising the clean-axis skip with a non-empty population."""
        cells, dims = 16, (2, 2)
        mesh = Mesh(cells)
        part = BlockPartition.uniform(cells, *dims)
        # Rank 0 holds particles that belong in rank 2's block (x moves,
        # y already correct) plus some of its own.
        stay = make_population(50, mesh, 1, x_range=(0, 8), y_range=(0, 8))
        move = make_population(30, mesh, 2, x_range=(8, 16), y_range=(0, 8))
        placed = {0: ParticleArray.concatenate([stay, move])}
        out = run_exchange(cells, dims, placed)
        assert len(out[0]) == 50
        assert len(out[2]) == 30
        assert_same_particles(out[0], stay)
        assert_same_particles(out[2], move)

    def test_count_misplaced_clean_flags(self):
        cells, dims = 16, (2, 2)
        mesh = Mesh(cells)
        part = BlockPartition.uniform(cells, *dims)

        def prog(comm):
            cart = yield comm.create_cart(dims)
            if cart.rank == 0:
                p = make_population(64, mesh, 3, x_range=(0, 8), y_range=(0, 8))
                scratch = ExchangeScratch()
                full = _count_misplaced(cart, part, mesh, p, scratch=scratch)
                legacy = _count_misplaced(cart, part, mesh, p)
                assert full == legacy == 0
                # Axes proven in range over the whole array skip their
                # scans entirely; a partly proven one scans the suffix.
                assert _count_misplaced(
                    cart, part, mesh, p,
                    scratch=scratch, proven=(len(p), len(p)),
                ) == 0
                assert _count_misplaced(
                    cart, part, mesh, p, scratch=scratch, proven=(40, len(p)),
                ) == 0
            return None

        run_spmd(4, prog)


# ----------------------------------------------------------------------
# Steady-state allocation freedom
# ----------------------------------------------------------------------
def test_steady_state_exchange_allocates_no_population_arrays():
    """After warm-up, settled exchanges allocate nothing proportional to n.

    With 100k particles per rank, a single legacy-style full-population
    temporary (select / pack / searchsorted output) would be ~8.8 MB; the
    budget below is two orders of magnitude under one such array, while
    leaving room for the scheduler's small per-op bookkeeping objects.
    """
    cells, dims, n_per_rank = 16, (2, 1), 100_000
    mesh = Mesh(cells)
    part = BlockPartition.uniform(cells, *dims)
    cost = CostModel()
    placed = {
        0: make_population(n_per_rank, mesh, 10, x_range=(0, 8)),
        1: make_population(n_per_rank, mesh, 11, x_range=(8, 16)),
    }
    scratches = {0: ExchangeScratch(), 1: ExchangeScratch()}
    measured = {}

    def prog(comm):
        cart = yield comm.create_cart(dims)
        scratch = scratches[cart.rank]
        mine = placed[cart.rank]
        # Warm-up: sizes the scratch buffers and the workspace.
        for _ in range(2):
            mine = yield from exchange_particles(
                comm, cart, part, mesh, mine, cost, scratch
            )
        if cart.rank == 0:
            gc.collect()
            tracemalloc.start()
        for _ in range(5):
            mine = yield from exchange_particles(
                comm, cart, part, mesh, mine, cost, scratch
            )
        if cart.rank == 0:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            measured["peak"] = peak
        return len(mine)

    res = run_spmd(2, prog)
    assert res.returns == [n_per_rank, n_per_rank]
    # Both ranks' steady-state work (plus scheduler bookkeeping) ran inside
    # the measured window; a population-sized allocation is ~8.8 MB.
    assert measured["peak"] < 256 * 1024, f"allocated {measured['peak']} bytes"


# ----------------------------------------------------------------------
# Allocation freedom on the migration path
# ----------------------------------------------------------------------
def test_migrating_exchange_allocates_no_population_arrays():
    """~100 of 100k particles per rank cross a block boundary on every
    exchange, yet the hop allocates nothing proportional to n.

    The movers are the particles that arrived on the previous exchange
    (the tail of the array), sent straight back across the boundary —
    the FIFO pattern a drifting PIC population settles into.  A single
    full-population temporary (a searchsorted owner array, a whole-array
    mask gather in ``compact``) is ~800 KB here, over three times the
    budget.
    """
    cells, dims, n_per_rank, movers = 16, (2, 1), 100_000, 100
    mesh = Mesh(cells)
    part = BlockPartition.uniform(cells, *dims)
    cost = CostModel()
    placed = {
        0: make_population(n_per_rank, mesh, 20, x_range=(0, 8)),
        1: make_population(n_per_rank, mesh, 21, x_range=(8, 16)),
    }
    scratches = {0: ExchangeScratch(), 1: ExchangeScratch()}
    measured = {}
    tails = {0: [], 1: []}  # tail pids before and after each exchange

    def prog(comm):
        cart = yield comm.create_cart(dims)
        scratch = scratches[cart.rank]
        mine = placed[cart.rank]

        def send_tail_across():
            tail = mine.x[-movers:]
            tail += mesh.L / 2
            np.mod(tail, mesh.L, out=tail)

        # Warm-up: sizes the scratch and wire buffers and the tail region.
        for _ in range(2):
            send_tail_across()
            mine = yield from exchange_particles(
                comm, cart, part, mesh, mine, cost, scratch
            )
        if cart.rank == 0:
            gc.collect()
            tracemalloc.start()
        for _ in range(5):
            tails[cart.rank].append(mine.pid[-movers:].copy())
            send_tail_across()
            mine = yield from exchange_particles(
                comm, cart, part, mesh, mine, cost, scratch
            )
        if cart.rank == 0:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            measured["peak"] = peak
        tails[cart.rank].append(mine.pid[-movers:].copy())
        return len(mine)

    res = run_spmd(2, prog)
    assert res.returns == [n_per_rank, n_per_rank]
    # Every measured exchange migrated: each rank's tail was replaced by
    # the particles its neighbour sent.
    for rank_tails in tails.values():
        assert len(rank_tails) == 6
        for before, after in zip(rank_tails, rank_tails[1:]):
            assert not np.isin(before, after).any()
    assert measured["peak"] < 256 * 1024, f"allocated {measured['peak']} bytes"


# ----------------------------------------------------------------------
# Differential: pooled vs verbatim seed implementation
# ----------------------------------------------------------------------
def assert_exchange_matches_legacy(cells, dims, placed, *, h=1.0, rounds=2):
    """Both routers deliver the same particles in the same order to every
    rank, over the same traffic and simulated clocks; returns the SPMD
    result of the pooled run."""
    runs = [
        run_exchange_spmd(
            cells, dims, {r: p.copy() for r, p in placed.items()},
            exchange=exchange, rounds=rounds, h=h,
        )
        for exchange in (exchange_particles, exchange_particles_legacy)
    ]
    pooled, legacy = runs
    for rank in range(dims[0] * dims[1]):
        assert_same_particles(pooled.returns[rank], legacy.returns[rank])
    assert pooled.messages_sent == legacy.messages_sent
    assert pooled.bytes_sent == legacy.bytes_sent
    assert pooled.collectives == legacy.collectives
    assert pooled.times == legacy.times
    return pooled


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dims", [(2, 1), (4, 2), (3, 3), (1, 4), (6, 1)])
def test_pooled_exchange_matches_legacy(dims, seed):
    cells = 18
    mesh = Mesh(cells)
    rng = np.random.default_rng(seed)
    n_ranks = dims[0] * dims[1]
    placed = {
        r: make_population(int(rng.integers(0, 120)), mesh, seed=100 * seed + r)
        for r in range(n_ranks)
    }
    assert_exchange_matches_legacy(cells, dims, placed)


def block_population(n, mesh, part, bx, by, seed):
    """``n`` particles inside processor block ``(bx, by)`` (periodic)."""
    (x0, x1), (y0, y1) = part.x_range(bx % part.px), part.y_range(by % part.py)
    return make_population(
        n, mesh, seed,
        x_range=(x0 * mesh.h, x1 * mesh.h), y_range=(y0 * mesh.h, y1 * mesh.h),
    )


def _settled_collectives(cells, dims):
    """Collectives of one exchange round trip with nothing to move."""
    return run_exchange_spmd(cells, dims, {}, rounds=1).collectives


_SCENARIOS = ["far", "diagonal", "front", "middle", "tail", "fine-mesh"]


@pytest.mark.parametrize("scenario", _SCENARIOS)
def test_pooled_exchange_matches_legacy_scenarios(scenario):
    """Migration shapes the uniform placement above rarely produces.

    * ``far`` — every rank's population sits two blocks away along both
      axes, so settlement needs a second routing round;
    * ``diagonal`` — populations one block away along both axes, so x and
      y migrate in the same round;
    * ``front`` / ``middle`` / ``tail`` — a settled population with the
      departures at that position of the array (the compaction start);
    * ``fine-mesh`` — uniform placement on a mesh with ``h != 1``.
    """
    h = 0.37 if scenario == "fine-mesh" else 1.0
    cells, dims = {
        "far": (24, (4, 4)), "diagonal": (18, (3, 3)),
        "fine-mesh": (16, (4, 2)),
    }.get(scenario, (16, (2, 2)))
    mesh = Mesh(cells, h)
    part = BlockPartition.uniform(cells, *dims)
    placed = {}
    for rank in range(dims[0] * dims[1]):
        bx, by = divmod(rank, dims[1])
        own = block_population(300, mesh, part, bx, by, seed=rank)
        if scenario == "far":
            away = block_population(80, mesh, part, bx + 2, by + 2, 50 + rank)
            placed[rank] = ParticleArray.concatenate([own, away])
        elif scenario == "diagonal":
            placed[rank] = ParticleArray.concatenate([
                own,
                block_population(40, mesh, part, bx + 1, by + 1, 50 + rank),
                block_population(40, mesh, part, bx - 1, by - 1, 90 + rank),
            ])
        elif scenario == "fine-mesh":
            placed[rank] = make_population(200, mesh, seed=rank)
        else:
            movers = ParticleArray.concatenate([
                block_population(10, mesh, part, bx + 1, by, 50 + rank),
                block_population(10, mesh, part, bx, by + 1, 70 + rank),
                block_population(10, mesh, part, bx + 1, by + 1, 90 + rank),
            ])
            at = {"front": 0, "middle": 150, "tail": 300}[scenario]
            placed[rank] = ParticleArray.concatenate(
                [own.select(slice(0, at)), movers, own.select(slice(at, None))]
            )
    pooled = assert_exchange_matches_legacy(
        cells, dims, placed, h=h, rounds=1
    )
    if scenario == "far":
        assert pooled.collectives > _settled_collectives(cells, dims)
