"""Property tests for RunSpec: round-trip identity and hash stability.

Three properties the whole config layer rests on:

* spec -> JSON -> spec is the identity for every constructible spec;
* the content hash is stable across *process boundaries* (a fresh
  interpreter hashing the same document gets the same digest — nothing
  id()/order/PYTHONHASHSEED-dependent leaks in);
* documents with unknown or invalid fields are rejected, never silently
  dropped.
"""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ConfigError, ImplConfig, RunSpec, canonical_json
from repro.core.spec import PICSpec

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
workloads = st.builds(
    PICSpec,
    cells=st.sampled_from([16, 32, 64, 128]),
    n_particles=st.integers(min_value=1, max_value=10_000),
    steps=st.integers(min_value=1, max_value=200),
    r=st.floats(min_value=0.5, max_value=1.5, allow_nan=False),
    k=st.integers(min_value=0, max_value=3),
    m_vertical=st.integers(min_value=0, max_value=3),
    rotate90=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

mpi2d_impls = st.builds(
    ImplConfig,
    name=st.just("mpi-2d"),
    cores=st.integers(min_value=1, max_value=512),
)

lb_impls = st.builds(
    ImplConfig,
    name=st.just("mpi-2d-LB"),
    cores=st.integers(min_value=1, max_value=512),
    lb_interval=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
    threshold_fraction=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    ),
    border_width=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    axes=st.one_of(st.none(), st.sampled_from(["x", "y", "xy"])),
)

ampi_impls = st.builds(
    ImplConfig,
    name=st.just("ampi"),
    cores=st.integers(min_value=1, max_value=512),
    overdecomposition=st.one_of(st.none(), st.integers(min_value=1, max_value=32)),
    lb_interval=st.one_of(st.none(), st.integers(min_value=1, max_value=200)),
    strategy=st.one_of(
        st.none(),
        st.sampled_from(["NullLB", "GreedyLB", "GreedyTransferLB", "RefineLB"]),
    ),
)

specs = st.builds(
    RunSpec,
    workload=workloads,
    impl=st.one_of(mpi2d_impls, lb_impls, ampi_impls),
)


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
class TestRoundTripProperty:
    @given(rs=specs)
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_identity(self, rs):
        assert RunSpec.from_json(rs.to_json()) == rs

    @given(rs=specs)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_hash(self, rs):
        assert RunSpec.from_dict(rs.to_dict()).spec_hash() == rs.spec_hash()

    @given(rs=specs)
    @settings(max_examples=30, deadline=None)
    def test_canonical_json_is_order_independent(self, rs):
        doc = rs.identity_dict()
        shuffled = json.loads(json.dumps(doc))  # dict order may differ
        assert canonical_json(doc) == canonical_json(shuffled)


# ----------------------------------------------------------------------
# Hash stability across process boundaries
# ----------------------------------------------------------------------
class TestHashStability:
    def test_hash_stable_in_fresh_interpreter(self):
        rs = RunSpec(
            workload=PICSpec(cells=32, n_particles=400, steps=8),
            impl=ImplConfig(
                name="ampi", cores=4, overdecomposition=4,
                lb_interval=100, strategy="GreedyLB",
            ),
        )
        code = (
            "import sys, json\n"
            "from repro.config import RunSpec\n"
            "rs = RunSpec.from_json(sys.stdin.read())\n"
            "print(rs.spec_hash())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=rs.to_json(),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == rs.spec_hash()

    def test_hash_ignores_pythonhashseed(self):
        rs = RunSpec(
            workload=PICSpec(cells=32, n_particles=400, steps=8),
            impl=ImplConfig(name="mpi-2d", cores=4),
        )
        code = (
            "import sys\n"
            "from repro.config import RunSpec\n"
            "print(RunSpec.from_json(sys.stdin.read()).spec_hash())\n"
        )
        digests = set()
        for seed in ("0", "1", "random"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                input=rs.to_json(),
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": ":".join(sys.path)},
            )
            digests.add(out.stdout.strip())
        assert digests == {rs.spec_hash()}


# ----------------------------------------------------------------------
# Rejection of unknown / invalid fields
# ----------------------------------------------------------------------
SECTIONS = ("workload", "impl", "machine", "cost", "executor", "resilience",
            "tracing")


class TestRejection:
    @given(section=st.sampled_from(SECTIONS), junk=st.text(min_size=1).filter(
        lambda s: s.isidentifier()))
    @settings(max_examples=40, deadline=None)
    def test_unknown_field_in_any_section_rejected(self, section, junk):
        rs = RunSpec(
            workload=PICSpec(cells=32, n_particles=100, steps=2),
            impl=ImplConfig(name="mpi-2d", cores=2),
        )
        doc = rs.to_dict()
        if junk in doc[section]:
            return
        doc[section][junk] = 1
        with pytest.raises(ConfigError):
            RunSpec.from_dict(doc)

    def test_non_numeric_cost_rejected(self):
        clean = RunSpec(
            workload=PICSpec(cells=32, n_particles=100, steps=2),
            impl=ImplConfig(name="mpi-2d", cores=2),
        ).to_dict()
        # Integer fields are validated, not coerced: a word, a bool or a
        # fraction must not silently become a different simulated machine.
        cases = [("cost", "particle_push_s", "fast", "number")] + [
            (section, key, bad, f"{section}.{key} must be int")
            for section, key in (
                ("executor", "workers"),
                ("machine", "cores_per_socket"),
                ("machine", "sockets_per_node"),
                ("resilience", "checkpoint_every"),
            )
            for bad in ("two", True, 1.5, 2.9)
        ]
        for section, key, bad, message in cases:
            doc = json.loads(json.dumps(clean))
            doc[section][key] = bad
            with pytest.raises(ConfigError, match=message):
                RunSpec.from_dict(doc)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigError, match="cores"):
            ImplConfig(name="mpi-2d", cores=0)

    def test_nan_never_hashable(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})
