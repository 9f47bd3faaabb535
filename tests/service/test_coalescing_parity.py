"""Coalescing parity property fuzz: batch composition independence.

The service's load-bearing invariant, randomizedly enforced: **any
partition of N requests into service micro-batches yields bit-identical
per-request results to one standalone ``BatchEngine`` run over all N —
and to each request simulated alone** — across device models and
executor backends.

Each seed draws a coalescible request set (mixed corners, threshold
shifts, workloads, optional schedules and initial corrections, plus a
duplicated request to exercise dedup scatter), then checks three views
of the same work:

1. the standalone batch (``simulate_requests`` over the full set — one
   plain engine run, the reference),
2. every request simulated alone (a batch of one),
3. a service with a randomized ``max_batch_dies`` fed the requests in a
   shuffled order (randomized partition into micro-batches).

Per seed, the matrix also replays under one alternative execution
combination — tabulated device model or a fleet executor backend
(serial/thread/process) — so every axis the engine fuzz harness covers
is exercised through the service path too.  Seeds
follow the shared protocol (:mod:`repro.testing`); replay with
``REPRO_FUZZ_SEEDS=<seed>``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.service import ServiceConfig, SimRequest, SimulationService, WorkloadSpec
from repro.testing import fuzz_seeds, replay_message

SEEDS = fuzz_seeds()

CORNERS = ("SS", "TT", "FS")

ALT_COMBOS = (
    {"device_model": "tabulated"},
    {"execution": "serial"},
    {"execution": "thread"},
    {"execution": "process"},
    {"device_model": "tabulated", "execution": "process"},
)
"""Per-seed alternative (request knobs, service execution) combination;
cycled deterministically so the default 8-seed budget covers every
axis."""


def assert_values_identical(actual, expected, message):
    assert set(actual) == set(expected), message
    for name, value in expected.items():
        got = actual[name]
        if isinstance(value, float) and math.isnan(value):
            assert isinstance(got, float) and math.isnan(got), (
                f"{name}: {got!r} != NaN {message}"
            )
        else:
            assert got == value, (
                f"{name}: {got!r} != {value!r} {message}"
            )


def draw_requests(seed: int):
    rng = np.random.default_rng(seed)
    dies = int(rng.integers(2, 7))
    cycles = int(rng.integers(20, 61))
    averaging_window = 4 if rng.random() < 0.5 else int(rng.integers(1, 7))
    compensation = bool(rng.random() < 0.8)
    feedback = "voltage_sense"
    if rng.random() < 0.15:
        feedback = "delay_servo"
        compensation = False
    scheduled = rng.random() < 0.25
    requests = []
    for i in range(dies):
        kind = ("constant", "poisson", "explicit", "none")[
            int(rng.integers(0, 4))
        ]
        if kind == "poisson":
            workload = WorkloadSpec(
                kind="poisson",
                rate=float(rng.uniform(2e4, 2e5)),
                seed=int(rng.integers(0, 2**31)),
            )
        elif kind == "explicit":
            workload = WorkloadSpec(
                kind="explicit",
                arrivals=tuple(
                    int(v) for v in rng.integers(0, 4, size=cycles)
                ),
            )
        elif kind == "constant":
            workload = WorkloadSpec(
                kind="constant", rate=float(rng.uniform(2e4, 2e5))
            )
        else:
            workload = WorkloadSpec(kind="none")
        schedule = None
        if scheduled:
            schedule = tuple(
                int(v) for v in rng.integers(0, 64, size=cycles)
            )
        requests.append(
            SimRequest(
                cycles=cycles,
                corner=CORNERS[int(rng.integers(0, len(CORNERS)))],
                nmos_vth_shift=float(rng.normal(0.0, 0.02)),
                pmos_vth_shift=float(rng.normal(0.0, 0.02)),
                workload=workload,
                schedule_codes=schedule,
                compensation_enabled=compensation,
                feedback=feedback,
                averaging_window=averaging_window,
                initial_correction=int(rng.integers(-2, 3)),
            )
        )
    # A duplicate request exercises within-batch dedup and the cache.
    requests.append(requests[int(rng.integers(0, dies))])
    return rng, requests


def apply_combo(requests, combo):
    request_knobs = {
        knob: combo[knob]
        for knob in ("step_kernel", "device_model")
        if knob in combo
    }
    if request_knobs:
        requests = [replace(r, **request_knobs) for r in requests]
    execution = combo.get("execution", "direct")
    return requests, execution


def check_partitions(library, requests, execution, rng, message):
    reference_service = SimulationService(
        library=library,
        config=ServiceConfig(execution=execution, workers=2),
    )
    reference = reference_service.simulate_requests(requests)

    # Each request alone must equal its slot in the standalone batch.
    for i, request in enumerate(requests):
        single = reference_service.simulate_requests([request])[0]
        assert_values_identical(
            single, reference[i], f"(batch-of-one, request {i}) {message}"
        )

    # A randomized partition (bounded micro-batches, shuffled submit
    # order) must scatter the same per-request values.
    max_batch = int(rng.integers(1, len(requests) + 1))
    shard_size = int(rng.integers(1, 4))
    service = SimulationService(
        library=library,
        config=ServiceConfig(
            execution=execution,
            workers=2,
            shard_size=shard_size,
            max_batch_dies=max_batch,
        ),
    )
    order = rng.permutation(len(requests))
    futures = {
        int(i): service.submit(requests[int(i)]) for i in order
    }
    results = {i: future.result() for i, future in futures.items()}
    for i, result in results.items():
        assert_values_identical(
            result.values,
            reference[i],
            f"(partition max_batch={max_batch}, request {i}) {message}",
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_partitioning_is_bit_identical(seed, library):
    message = replay_message(
        seed, "tests/service/test_coalescing_parity.py"
    )
    rng, requests = draw_requests(seed)
    check_partitions(library, requests, "direct", rng, message)

    combo = ALT_COMBOS[seed % len(ALT_COMBOS)]
    combo_requests, execution = apply_combo(requests, combo)
    check_partitions(
        library,
        combo_requests,
        execution,
        rng,
        f"(combo {combo}) {message}",
    )


@pytest.mark.parametrize(
    "combo",
    [
        {},
        {"device_model": "tabulated"},
        {"execution": "thread"},
        {"execution": "process"},
    ],
    ids=("fused", "tabulated", "thread", "process"),
)
def test_pinned_partition_parity_every_axis(library, combo):
    """A fixed scenario through every axis on every run (the fuzz
    budget above rotates axes per seed; this pins all of them)."""
    rng, requests = draw_requests(987654321)
    requests, execution = apply_combo(requests, combo)
    check_partitions(
        library,
        requests,
        execution,
        rng,
        f"(pinned combo {combo})",
    )
