"""The workload generator: every input the benchmark feeds the program.

Each workload is built from one ``--seed`` as plain JSON documents — a
RunSpec document for the two single-run workloads, a campaign declaration
for ``sweep-mux`` — so the program under test receives only generated
inputs.  The same seed always yields the same documents; every seed yields
the same amount of work (particle counts, steps and the point matrix are
fixed, only the random placement and the sweep's per-point seeds move), so
runs on different seeds are comparable.

Nothing here imports the program: the generator stays a pure function of
the seed and can be tested without it.
"""

from __future__ import annotations

import hashlib

DEFAULT_SEED = 0

#: The paper's Fig. 6 geometric column distribution as scaled in this repo
#: (``repro.bench.perf._fig6_spec``): a 288-cell mesh with ``r`` rescaled so
#: ``r ** cells`` matches the paper's 2998-cell run.  Pinned here so a change
#: to the figure helpers cannot silently change the benchmark's input.
FIG6_CELLS = 288
FIG6_R = 0.999 ** (2998 / FIG6_CELLS)

#: Executor section of every generated spec: the repo default (serial
#: executor, numpy kernel).  No worker process runs.
EXECUTOR = {"kind": "serial", "kernel_backend": "python"}

DENSE_PUSH_PARTICLES = 2_000_000
DENSE_PUSH_STEPS = 10

VP_STORM_PARTICLES = 24_000
VP_STORM_STEPS = 150
#: Injection burst (paper §III-E5): at one third of the run, twice the
#: initial population lands in a 48x48 corner patch.
VP_STORM_INJECT_STEP = VP_STORM_STEPS // 3
VP_STORM_PATCH = FIG6_CELLS // 6

SWEEP_SEEDS = 16
SWEEP_STEPS = 40


def derive_seed(seed: int, tag: str) -> int:
    """A stable 31-bit sub-seed of ``seed`` for one input stream."""
    digest = hashlib.sha256(f"{int(seed)}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def dense_push(seed: int) -> dict:
    """Fig. 6 drift on mpi-2d-LB, diffusion LB every step, ~2 M particles."""
    return {
        "workload": {
            "cells": FIG6_CELLS,
            "n_particles": DENSE_PUSH_PARTICLES,
            "steps": DENSE_PUSH_STEPS,
            "distribution": "geometric",
            "r": FIG6_R,
            "seed": derive_seed(seed, "dense-push"),
        },
        "impl": {"name": "mpi-2d-LB", "cores": 4, "lb_interval": 1},
        "executor": dict(EXECUTOR),
    }


def vp_storm(seed: int) -> dict:
    """AMPI, 16 cores x d=8 VPs, uniform background plus a corner burst."""
    return {
        "workload": {
            "cells": FIG6_CELLS,
            "n_particles": VP_STORM_PARTICLES,
            "steps": VP_STORM_STEPS,
            "distribution": "uniform",
            "seed": derive_seed(seed, "vp-storm"),
            "events": [
                {
                    "kind": "inject",
                    "step": VP_STORM_INJECT_STEP,
                    "count": 2 * VP_STORM_PARTICLES,
                    "region": {
                        "x_lo": 0, "x_hi": VP_STORM_PATCH,
                        "y_lo": 0, "y_hi": VP_STORM_PATCH,
                    },
                }
            ],
        },
        "impl": {
            "name": "ampi",
            "cores": 16,
            "overdecomposition": 8,
            "lb_interval": 10,
            "strategy": "GreedyTransferLB",
        },
        "executor": dict(EXECUTOR),
    }


def sweep_mux(seed: int) -> dict:
    """48-point campaign: 16 seeds x {mpi-2d, mpi-2d-LB, ampi d=4}."""
    return {
        "schema": 1,
        "campaign": "sweep-mux",
        "base": {
            "workload": {"cells": 64, "n_particles": 4000, "steps": SWEEP_STEPS},
            "impl": {"name": "mpi-2d", "cores": 4},
            "executor": dict(EXECUTOR),
        },
        "axes": [
            {
                "axis": "seed",
                "path": "workload.seed",
                "values": [
                    derive_seed(seed, f"sweep-mux/{i}") for i in range(SWEEP_SEEDS)
                ],
            },
            {
                "axis": "impl",
                "values": [
                    {"label": "mpi-2d", "set": {"impl.name": "mpi-2d"}},
                    {
                        "label": "mpi-2d-LB",
                        "set": {"impl.name": "mpi-2d-LB", "impl.lb_interval": 2},
                    },
                    {
                        "label": "ampi-d4",
                        "set": {
                            "impl.name": "ampi",
                            "impl.overdecomposition": 4,
                            "impl.lb_interval": 5,
                        },
                    },
                ],
            },
        ],
    }


#: Workload name -> generator.  ``sweep-mux`` yields a campaign declaration,
#: the others a RunSpec document.
GENERATORS = {"dense-push": dense_push, "vp-storm": vp_storm, "sweep-mux": sweep_mux}
WORKLOADS = tuple(GENERATORS)


def generate(name: str, seed: int) -> dict:
    """The input document of workload ``name`` for ``seed`` (a fresh dict)."""
    return GENERATORS[name](seed)


def run_pushes(workload: dict) -> int:
    """Particle pushes a run of this RunSpec ``workload`` section performs.

    Every particle alive at the top of a step is pushed once; an injection
    at step ``s`` adds ``count`` particles pushed in steps ``s .. steps-1``.
    The benchmark's generated workloads remove no particles.
    """
    steps = workload["steps"]
    pushes = workload["n_particles"] * steps
    for event in workload.get("events", ()):
        if event["kind"] != "inject":
            raise ValueError(f"unexpected event kind {event['kind']!r}")
        pushes += event["count"] * max(0, steps - event["step"])
    return pushes
