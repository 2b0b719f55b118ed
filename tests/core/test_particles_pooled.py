"""Equivalence of the pooled ``ParticleArray`` storage with the legacy ops.

The zero-churn hot path replaced select/append/pack/from_packed (fresh
allocations every call) with in-place compact/extend/pack_into/extend_packed
over a capacity-managed backing store.  These property tests pin the
contract the exchange and event paths rely on: for *any* population and
*any* mask, the pooled operations produce element-for-element (and
dtype-for-dtype) the same particles as the legacy ones — including the
int64 fields' value round-trip through the float64 wire format.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.particles import PARTICLE_RECORD_FIELDS, ParticleArray

_FIELDS = ("x", "y", "vx", "vy", "q", "pid", "x0", "y0", "kdisp", "mdisp", "birth")
_INT_FIELDS = ("pid", "kdisp", "mdisp", "birth")


def random_particles(n: int, seed: int) -> ParticleArray:
    """A population with non-trivial values in every field.

    Int64 fields get values up to 2**52 — within the float64-exact integer
    range the wire format guarantees, and far beyond what int32 could hold.
    """
    rng = np.random.default_rng(seed)
    p = ParticleArray.empty(n)
    for name in _FIELDS:
        if name in _INT_FIELDS:
            getattr(p, name)[:] = rng.integers(-(2**52), 2**52, size=n)
        else:
            getattr(p, name)[:] = rng.normal(scale=100.0, size=n)
    return p


def assert_same(a: ParticleArray, b: ParticleArray) -> None:
    assert len(a) == len(b)
    for name in _FIELDS:
        fa, fb = getattr(a, name), getattr(b, name)
        assert fa.dtype == fb.dtype, name
        np.testing.assert_array_equal(fa, fb, err_msg=name)


pop = st.integers(0, 200)
seeds = st.integers(0, 2**31)


@given(n=pop, seed=seeds, mask_seed=seeds)
@settings(max_examples=60, deadline=None)
def test_compact_equals_select(n, seed, mask_seed):
    p_new = random_particles(n, seed)
    p_old = random_particles(n, seed)
    keep = np.random.default_rng(mask_seed).integers(0, 2, size=n).astype(bool)
    expected = p_old.select(keep)
    p_new.compact(keep)
    assert_same(p_new, expected)


@given(n=pop, m=pop, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_extend_equals_append(n, m, seed):
    p_new = random_particles(n, seed)
    other = random_particles(m, seed + 1)
    expected = random_particles(n, seed).append(other)
    p_new.extend(other)
    assert_same(p_new, expected)


@given(n=pop, seed=seeds, mask_seed=seeds, headroom=st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_pack_into_equals_pack(n, seed, mask_seed, headroom):
    p = random_particles(n, seed)
    mask = np.random.default_rng(mask_seed).integers(0, 2, size=n).astype(bool)
    k = int(np.count_nonzero(mask))
    out = np.full((k + headroom, PARTICLE_RECORD_FIELDS), np.nan)
    got = p.pack_into(mask, out)
    expected = p.pack(mask)
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    assert got.base is out or got is out  # a view of the caller's buffer


@given(n=pop, m=pop, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_extend_packed_equals_from_packed_roundtrip(n, m, seed):
    p_new = random_particles(n, seed)
    wire = random_particles(m, seed + 1).pack()
    expected = random_particles(n, seed).append(ParticleArray.from_packed(wire))
    p_new.extend_packed(wire)
    assert_same(p_new, expected)
    # Int64 values survive the float64 wire format exactly.
    for name in _INT_FIELDS:
        assert getattr(p_new, name).dtype == np.int64


@given(n=pop, seed=seeds, mask_seed=seeds, m=pop)
@settings(max_examples=40, deadline=None)
def test_compact_then_extend_chain(n, seed, mask_seed, m):
    """The exchange's per-hop sequence: compact survivors, extend arrivals."""
    p_new = random_particles(n, seed)
    keep = np.random.default_rng(mask_seed).integers(0, 2, size=n).astype(bool)
    arrivals = random_particles(m, seed + 2)
    expected = random_particles(n, seed).select(keep).append(arrivals)
    p_new.compact(keep)
    p_new.extend(arrivals)
    assert_same(p_new, expected)


def test_reserve_is_amortized():
    p = ParticleArray.empty(4)
    grows = 0
    last_cap = p.capacity
    for _ in range(200):
        p.extend(random_particles(3, 1))
        if p.capacity != last_cap:
            grows += 1
            assert p.capacity >= 2 * last_cap or last_cap < 16
            last_cap = p.capacity
    assert len(p) == 4 + 600
    assert grows <= 10  # doubling: O(log n) reallocations, not O(n)


def test_compact_all_survivors_is_noop():
    p = random_particles(50, 9)
    backing = [getattr(p, name) for name in _FIELDS]
    p.compact(np.ones(50, dtype=bool))
    for name, arr in zip(_FIELDS, backing):
        assert getattr(p, name) is arr  # no copy, no new views


def test_extend_within_capacity_does_not_reallocate():
    p = random_particles(10, 3)
    p.reserve(1000)
    store_before = list(p._backing())
    p.extend(random_particles(500, 4))
    assert [a is b for a, b in zip(store_before, p._backing())] == [True] * 11


def test_concatenate_single_part_fast_path():
    p = random_particles(20, 5)
    assert ParticleArray.concatenate([p], copy=False) is p
    copied = ParticleArray.concatenate([p], copy=True)
    assert copied is not p
    assert_same(copied, p)
    # Empty inputs are dropped before the single-survivor check.
    assert ParticleArray.concatenate([ParticleArray.empty(0), p], copy=False) is p


def test_pack_into_rejects_undersized_buffer():
    p = random_particles(8, 6)
    out = np.empty((4, PARTICLE_RECORD_FIELDS))
    try:
        p.pack_into(np.ones(8, dtype=bool), out)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for undersized wire buffer")


_DROP_SETS = {
    "none": [],
    "all": list(range(40)),
    "first": [0],
    "last": [39],
    "scattered": [3, 4, 17, 22, 31, 38],
    "tail": list(range(33, 40)),
}


@pytest.mark.parametrize("drop", list(_DROP_SETS), ids=list(_DROP_SETS))
@pytest.mark.parametrize("from_first", [False, True], ids=["whole", "suffix"])
def test_compact_drop_sets_equal_select(drop, from_first):
    """``compact`` over the whole mask or, with ``start``, over the suffix
    from the first dropped particle: same survivors as ``select(keep)``,
    with the backing store (capacity, generation) left in place."""
    n = 40
    keep = np.ones(n, dtype=bool)
    keep[_DROP_SETS[drop]] = False
    expected = random_particles(n, 11).select(keep)
    p = random_particles(n, 11)
    p.reserve(64)
    capacity, generation = p.capacity, p.generation
    start = min(_DROP_SETS[drop], default=n) if from_first else 0
    p.compact(keep[start:], start=start)
    assert_same(p, expected)
    assert p.capacity == capacity
    assert p.generation == generation
