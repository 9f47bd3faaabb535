"""Engine throughput bench: scalar loops, batched engine, sharded fleet.

Records the headline numbers into ``BENCH_engine.json`` at the repo
root **only when** ``REPRO_BENCH_RECORD=1`` is set (the CI bench job
sets it; a plain pytest run must not dirty the working tree):

* closed-loop controller throughput — system die-cycles per second for
  the legacy scalar loop (one die) versus the batched engine (a Monte
  Carlo fleet of dies advancing together),
* Monte Carlo MEP analysis throughput — samples per second for the
  seed's per-sample solve loop versus the single ``(N, S)`` energy-grid
  evaluation,
* sharded fleet throughput — die-cycles per second of the single-shard
  engine versus a multi-worker :class:`FleetEngine` (plus the
  bit-identity check between the two),
* the step-kernel sweep — fused kernel on the exact vs the tabulated
  device model, die-cycles/s on the dense 512-die closed loop and the
  256-die streaming configuration (the ``step_kernel`` section),
* the streaming long run — a ``>= 100k cycles x 256 dies`` closed-loop
  run under :class:`StreamingTrace`, completing within a fixed
  telemetry-memory bound where a dense trace cannot (timed over a
  bounded slice and extrapolated — streaming throughput is cycle-count
  independent),
* the persistent-fleet overhead sweep (the PR-6 ``fleet.persistent``
  section) — resident thread and process fleets at the resolved worker
  count versus a warm single engine, with a <= 1.10x dispatch-overhead
  bar that asserts even on 1 CPU,
* the process-fleet sweep (the PR-4 ``procfleet`` section) — the
  shared-memory ``executor="process"`` backend versus a single shard,
  with the same CPU-gated scaling bar as the thread fleet and an
  unconditional bit-identity smoke.

The batched speedup bars assert on every run; the fleet *scaling* bar
only where it is physically meaningful (>= 2 CPUs).  The fleet parity
check (sharded == single shard, bit for bit) runs unconditionally.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.monte_carlo import monte_carlo_mep
from repro.circuits.loads import DigitalLoad
from repro.core.controller import AdaptiveController
from repro.core.rate_controller import program_lut_for_load
from repro.devices.variation import MonteCarloSampler
from repro.engine import (
    BatchEngine,
    BatchPopulation,
    BatchTrace,
    FleetConfig,
    FleetEngine,
    NullTrace,
)
from repro.workloads import ConstantArrivals
from repro.workloads.batch import constant_arrival_matrix

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

RECORD = os.environ.get("REPRO_BENCH_RECORD") == "1"
FLEET_WORKERS = int(os.environ.get("REPRO_FLEET_WORKERS", "4"))

MC_SAMPLES = 256
CONTROLLER_CYCLES = 400
FLEET_SIZE = 512
ARRIVAL_RATE = 1e5
SYSTEM_PERIOD = 1e-6

FLEET_BENCH_DIES = 4096
FLEET_BENCH_CYCLES = 200
# 4096 dies keeps each shard numpy-dominated: the engine has a fixed
# ~1 ms/cycle Python dispatch cost per shard, so thread scaling needs
# shards large enough that the GIL-released kernel time dwarfs it.

LONG_RUN_DIES = 256
LONG_RUN_CYCLES = int(
    os.environ.get("REPRO_BENCH_LONGRUN_CYCLES", "100000")
)
LONG_RUN_RECORD_CYCLES = int(
    os.environ.get("REPRO_BENCH_LONGRUN_RECORD_CYCLES", "20000")
)
"""Cycles actually *timed* for the streaming long run.  Streaming
throughput is cycle-count independent (bounded ring buffers, zero
per-cycle growth), so the full nominal horizon is extrapolated from a
bounded recording instead of crawled through — the PR-5 RECORD run
spent 437 s here for a number a fifth of the cycles reproduces."""

PERSISTENT_CHUNK = 50
"""Chunk size of the persistent fleet's chunked-dispatch measurement."""
TELEMETRY_MEMORY_BOUND = 256 * 1024 * 1024
"""Fixed telemetry budget (bytes) the streaming long run must fit in."""

STEP_KERNEL_BASELINE_CYCLES = 5000
"""Cycles for the (slow) exact-model baseline of the step_kernel
streaming measurement — streaming throughput is cycle-count
independent, so the baseline need not crawl through the full long run."""

PR2_DENSE_DIE_CYCLES_PER_SECOND = 275102.2184069381
PR2_STREAMING_DIE_CYCLES_PER_SECOND = 51151.40127881346
"""The PR-2 BENCH_engine.json numbers for the 512-die dense closed loop
(`closed_loop.batched_die_cycles_per_second`) and the 256-die x 100k
streaming run (`fleet.streaming_long_run.die_cycles_per_second`),
recorded on this same container — the reference the step_kernel speedup
bars are quoted against."""


def _best_of(callable_, repeats=3):
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        timings.append(time.perf_counter() - start)
    return min(timings)


MIN_REGION_SECONDS = 0.1
"""Shortest timed region of an interleaved measurement."""
INTERLEAVED_ROUNDS = 5


def _region_seconds(callable_):
    """Seconds per call over a region of >= MIN_REGION_SECONDS."""
    calls = 0
    start = time.perf_counter()
    while True:
        callable_()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_REGION_SECONDS:
            return elapsed / calls


def _interleaved_best_of(callables, rounds=INTERLEAVED_ROUNDS):
    """Best-of-``rounds`` seconds per call for each variant, the
    variants interleaved so a host slowdown hits every series alike,
    each timed over a region of at least MIN_REGION_SECONDS."""
    best = {name: float("inf") for name in callables}
    for _ in range(rounds):
        for name, callable_ in callables.items():
            best[name] = min(best[name], _region_seconds(callable_))
    return best


@pytest.fixture(scope="module")
def reference_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


def _fleet_bench(library, reference_lut):
    """Single-shard engine versus the sharded multi-worker fleet."""
    samples = MonteCarloSampler(seed=23).draw_arrays(FLEET_BENCH_DIES)
    population = BatchPopulation.from_samples(library, samples)
    # A shared (cycles,) arrival vector broadcasts with zero copies.
    arrivals = constant_arrival_matrix(
        [ARRIVAL_RATE], SYSTEM_PERIOD, FLEET_BENCH_CYCLES
    )[0]

    def single_shard():
        BatchEngine(population, lut=reference_lut).run(
            arrivals, FLEET_BENCH_CYCLES, sink=NullTrace()
        )

    def sharded():
        FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(workers=FLEET_WORKERS, telemetry="null"),
        ).run(arrivals, FLEET_BENCH_CYCLES)

    single_seconds = _best_of(single_shard)
    sharded_seconds = _best_of(sharded)
    die_cycles = FLEET_BENCH_DIES * FLEET_BENCH_CYCLES
    return {
        "dies": FLEET_BENCH_DIES,
        "system_cycles": FLEET_BENCH_CYCLES,
        "workers": FLEET_WORKERS,
        "single_shard_seconds": single_seconds,
        "sharded_seconds": sharded_seconds,
        "single_shard_die_cycles_per_second": die_cycles / single_seconds,
        "sharded_die_cycles_per_second": die_cycles / sharded_seconds,
        "speedup": single_seconds / sharded_seconds,
    }


def _process_fleet_bench(library, reference_lut):
    """Single-shard engine versus the shared-memory process fleet.

    Unlike the thread bench (which rebuilds its fleet per repeat), the
    process fleet is built **once** and its pool/shared-memory warmed
    outside the timed region: pool startup and segment creation are
    per-fleet costs that amortise over a fleet's lifetime, while the
    per-run cost — task dispatch, shard execution, result pickling — is
    what the executor choice actually changes.
    """
    samples = MonteCarloSampler(seed=23).draw_arrays(FLEET_BENCH_DIES)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        [ARRIVAL_RATE], SYSTEM_PERIOD, FLEET_BENCH_CYCLES
    )[0]

    def single_shard():
        BatchEngine(population, lut=reference_lut).run(
            arrivals, FLEET_BENCH_CYCLES, sink=NullTrace()
        )

    single_seconds = _best_of(single_shard)
    fleet = FleetEngine(
        population,
        reference_lut,
        fleet=FleetConfig(
            workers=FLEET_WORKERS, telemetry="null", executor="process"
        ),
    )
    try:
        fleet.run(arrivals[:1], 1)  # fork workers + attach segments
        process_seconds = _best_of(
            lambda: fleet.run(arrivals, FLEET_BENCH_CYCLES)
        )
    finally:
        fleet.close()
    die_cycles = FLEET_BENCH_DIES * FLEET_BENCH_CYCLES
    return {
        "dies": FLEET_BENCH_DIES,
        "system_cycles": FLEET_BENCH_CYCLES,
        "workers": FLEET_WORKERS,
        "single_shard_seconds": single_seconds,
        "process_seconds": process_seconds,
        "single_shard_die_cycles_per_second": die_cycles / single_seconds,
        "process_die_cycles_per_second": die_cycles / process_seconds,
        "speedup": single_seconds / process_seconds,
    }


def _streaming_long_run(library, reference_lut):
    """A run whose dense trace cannot fit the telemetry memory bound.

    Times a bounded ``LONG_RUN_RECORD_CYCLES`` slice and extrapolates
    the nominal horizon from it: streaming throughput is constant per
    cycle (ring buffers never grow), so ``seconds`` for the full run is
    ``recorded_seconds * nominal / recorded``.  The memory-bound claim
    keys — ``streaming_buffer_bytes`` (cycle-count independent) versus
    ``dense_trace_required_bytes`` — are still quoted at the nominal
    ``LONG_RUN_CYCLES`` geometry.
    """
    recorded_cycles = min(LONG_RUN_CYCLES, LONG_RUN_RECORD_CYCLES)
    samples = MonteCarloSampler(seed=29).draw_arrays(LONG_RUN_DIES)
    population = BatchPopulation.from_samples(library, samples)
    engine = FleetEngine(
        population,
        reference_lut,
        fleet=FleetConfig(
            workers=FLEET_WORKERS, telemetry="streaming", stream_window=64
        ),
    )
    arrivals = constant_arrival_matrix(
        [ARRIVAL_RATE], SYSTEM_PERIOD, recorded_cycles
    )[0]
    try:
        start = time.perf_counter()
        sink = engine.run(arrivals, recorded_cycles)
        recorded_seconds = time.perf_counter() - start
        buffer_bytes = sink.buffer_bytes()
    finally:
        engine.close()
    rate = LONG_RUN_DIES * recorded_cycles / recorded_seconds
    return {
        "dies": LONG_RUN_DIES,
        "system_cycles": LONG_RUN_CYCLES,
        "recorded_cycles": recorded_cycles,
        "workers": FLEET_WORKERS,
        "recorded_seconds": recorded_seconds,
        "seconds": recorded_seconds * LONG_RUN_CYCLES / recorded_cycles,
        "die_cycles_per_second": rate,
        "streaming_buffer_bytes": buffer_bytes,
        "dense_trace_required_bytes": BatchTrace.required_bytes(
            LONG_RUN_CYCLES, LONG_RUN_DIES
        ),
        "telemetry_memory_bound_bytes": TELEMETRY_MEMORY_BOUND,
    }


def _persistent_fleet_bench(library, reference_lut):
    """Dispatch overhead of a *persistent* fleet vs a warm single engine.

    The question this section answers is different from the cold
    ``fleet``/``procfleet`` speedup sweeps: not "does sharding scale?"
    but "what does the fleet *abstraction* cost per run once workers
    are resident?".  Everything is warm on both sides — the single
    ``BatchEngine`` is built and warmed once and only ``run()`` is
    timed; the fleets are built at the **resolved** worker count
    (``workers=None``, i.e. the CPUs actually available, so on a 1-CPU
    container this is one shard), their residents started and kernels
    warmed by a 1-cycle run, and then only the steady-state ``run()``
    round-trip is timed.  The headline ``thread_overhead`` /
    ``process_overhead`` ratios must stay <= 1.10 on any machine,
    including 1 CPU — that is the RECORD-gated bar.

    Forced ``FLEET_WORKERS``-worker numbers (the geometry the cold
    sweeps use, oversubscribed on small containers) and a chunked
    dispatch measurement ride along for transparency.
    """
    samples = MonteCarloSampler(seed=23).draw_arrays(FLEET_BENCH_DIES)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        [ARRIVAL_RATE], SYSTEM_PERIOD, FLEET_BENCH_CYCLES
    )[0]

    engine = BatchEngine(population, lut=reference_lut)
    engine.run(np.zeros((FLEET_BENCH_DIES, 1), dtype=np.int64), 1,
               sink=NullTrace())
    single_seconds = _best_of(
        lambda: engine.run(arrivals, FLEET_BENCH_CYCLES, sink=NullTrace())
    )

    def persistent(executor, workers):
        fleet = FleetEngine(
            population,
            reference_lut,
            fleet=FleetConfig(
                workers=workers, telemetry="null", executor=executor
            ),
        )
        try:
            fleet.run(arrivals[:1], 1)  # residents up, kernels warm
            run_seconds = _best_of(
                lambda: fleet.run(arrivals, FLEET_BENCH_CYCLES)
            )
            chunked_seconds = _best_of(
                lambda: fleet.run_chunked(
                    arrivals, FLEET_BENCH_CYCLES, PERSISTENT_CHUNK
                )
            )
        finally:
            fleet.close()
        return run_seconds, chunked_seconds

    resolved = FleetConfig(telemetry="null").resolved_workers()
    thread_seconds, thread_chunked = persistent("thread", None)
    process_seconds, process_chunked = persistent("process", None)
    forced_thread, forced_thread_chunked = persistent(
        "thread", FLEET_WORKERS
    )
    forced_process, forced_process_chunked = persistent(
        "process", FLEET_WORKERS
    )
    die_cycles = FLEET_BENCH_DIES * FLEET_BENCH_CYCLES
    return {
        "dies": FLEET_BENCH_DIES,
        "system_cycles": FLEET_BENCH_CYCLES,
        "chunk_cycles": PERSISTENT_CHUNK,
        "resolved_workers": resolved,
        "single_warm_seconds": single_seconds,
        "single_warm_die_cycles_per_second": die_cycles / single_seconds,
        "thread_seconds": thread_seconds,
        "process_seconds": process_seconds,
        "thread_overhead": thread_seconds / single_seconds,
        "process_overhead": process_seconds / single_seconds,
        "thread_chunked_seconds": thread_chunked,
        "process_chunked_seconds": process_chunked,
        "thread_chunked_overhead": thread_chunked / single_seconds,
        "process_chunked_overhead": process_chunked / single_seconds,
        "forced_workers": FLEET_WORKERS,
        "forced_thread_seconds": forced_thread,
        "forced_process_seconds": forced_process,
        "forced_thread_overhead": forced_thread / single_seconds,
        "forced_process_overhead": forced_process / single_seconds,
        "forced_thread_chunked_seconds": forced_thread_chunked,
        "forced_process_chunked_seconds": forced_process_chunked,
    }


def _step_kernel_bench(library, reference_lut):
    """Tabulated-response throughput vs the exact model (fused kernel).

    Two workload configurations, matching the PR-2 headline numbers:
    the 512-die x 400-cycle dense closed loop and the 256-die x
    ``LONG_RUN_CYCLES`` streaming run.  Each variant times
    ``BatchEngine.run`` only — engines (and, for the tabulated variant,
    the one-time response tables) are built and warmed outside the
    timed region, since tables amortise over a run's lifetime.
    """
    from repro.engine import StreamingTrace

    def timed_run(population, arrivals, cycles, sink_factory, repeats,
                  **engine_kwargs):
        dies = population.n
        best = None
        for _ in range(repeats):
            engine = BatchEngine(
                population, lut=reference_lut, **engine_kwargs
            )
            # Warm outside the timed region: builds the kernel scratch
            # and (tabulated) response tables, touches every code path.
            engine.run(
                np.zeros((dies, 1), dtype=np.int64), 1, sink=NullTrace()
            )
            start = time.perf_counter()
            engine.run(arrivals, cycles, sink=sink_factory())
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return dies * cycles / best

    # --- dense closed loop: 512 dies, DenseTrace ----------------------
    samples = MonteCarloSampler(seed=17).draw_arrays(FLEET_SIZE)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        np.full(FLEET_SIZE, ARRIVAL_RATE), SYSTEM_PERIOD, CONTROLLER_CYCLES
    )

    def dense(**kwargs):
        return timed_run(
            population, arrivals, CONTROLLER_CYCLES,
            lambda: None, repeats=3, **kwargs
        )

    dense_fused = dense()
    dense_tabulated = dense(device_model="tabulated")
    dense_section = {
        "dies": FLEET_SIZE,
        "system_cycles": CONTROLLER_CYCLES,
        "fused_exact_die_cycles_per_second": dense_fused,
        "fused_tabulated_die_cycles_per_second": dense_tabulated,
        "tabulated_vs_exact_speedup": dense_tabulated / dense_fused,
        "pr2_die_cycles_per_second": PR2_DENSE_DIE_CYCLES_PER_SECOND,
        "tabulated_speedup_vs_pr2": (
            dense_tabulated / PR2_DENSE_DIE_CYCLES_PER_SECOND
        ),
    }

    # --- streaming long run: 256 dies, StreamingTrace, one engine -----
    samples = MonteCarloSampler(seed=29).draw_arrays(LONG_RUN_DIES)
    population = BatchPopulation.from_samples(library, samples)
    baseline_cycles = min(STEP_KERNEL_BASELINE_CYCLES, LONG_RUN_CYCLES)
    baseline_arrivals = constant_arrival_matrix(
        [ARRIVAL_RATE], SYSTEM_PERIOD, baseline_cycles
    )[0]
    long_arrivals = constant_arrival_matrix(
        [ARRIVAL_RATE], SYSTEM_PERIOD, LONG_RUN_CYCLES
    )[0]
    stream_fused = timed_run(
        population, baseline_arrivals, baseline_cycles,
        StreamingTrace, repeats=1,
    )
    stream_tabulated = timed_run(
        population, long_arrivals, LONG_RUN_CYCLES,
        StreamingTrace, repeats=1, device_model="tabulated",
    )
    stream_section = {
        "dies": LONG_RUN_DIES,
        "system_cycles": LONG_RUN_CYCLES,
        "baseline_system_cycles": baseline_cycles,
        "fused_exact_die_cycles_per_second": stream_fused,
        "fused_tabulated_die_cycles_per_second": stream_tabulated,
        "tabulated_vs_exact_speedup": stream_tabulated / stream_fused,
        "pr2_die_cycles_per_second": PR2_STREAMING_DIE_CYCLES_PER_SECOND,
        "tabulated_speedup_vs_pr2": (
            stream_tabulated / PR2_STREAMING_DIE_CYCLES_PER_SECOND
        ),
    }
    return {
        "dense_closed_loop": dense_section,
        "streaming_long_run": stream_section,
    }


@pytest.fixture(scope="module")
def bench_results(library, reference_lut):
    """Time all configurations once; persist JSON when recording."""
    # --- Monte Carlo MEP analysis: per-sample loop vs batched grid ----
    monte_carlo_mep(samples=4, library=library, method="scalar")
    monte_carlo_mep(samples=4, library=library, method="batched")
    mc_best = _interleaved_best_of(
        {
            method: (
                lambda method=method: monte_carlo_mep(
                    samples=MC_SAMPLES, library=library, method=method
                )
            )
            for method in ("scalar", "batched")
        }
    )
    scalar_mc, batched_mc = mc_best["scalar"], mc_best["batched"]

    # --- Closed-loop controller: scalar loop vs batched fleet ---------
    def scalar_controller():
        controller = AdaptiveController(
            load=DigitalLoad(
                library.ring_oscillator_load, library.delay_model()
            ),
            lut=program_lut_for_load(
                DigitalLoad(
                    library.ring_oscillator_load,
                    library.reference_delay_model,
                ),
                sample_rate=1e5,
            ),
            reference_delay_model=library.reference_delay_model,
        )
        controller.run_reference(
            ConstantArrivals(ARRIVAL_RATE), CONTROLLER_CYCLES
        )

    samples = MonteCarloSampler(seed=17).draw_arrays(FLEET_SIZE)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        np.full(FLEET_SIZE, ARRIVAL_RATE), SYSTEM_PERIOD, CONTROLLER_CYCLES
    )

    def batched_fleet():
        engine = BatchEngine(population, lut=reference_lut)
        engine.run(arrivals, CONTROLLER_CYCLES)

    scalar_loop = _best_of(scalar_controller)
    batched_loop = _best_of(batched_fleet)

    results = {
        "environment": {
            "cpu_count": os.cpu_count(),
            "fleet_workers": FLEET_WORKERS,
        },
        "monte_carlo_mep": {
            "samples": MC_SAMPLES,
            "scalar_seconds": scalar_mc,
            "batched_seconds": batched_mc,
            "scalar_samples_per_second": MC_SAMPLES / scalar_mc,
            "batched_samples_per_second": MC_SAMPLES / batched_mc,
            "speedup": scalar_mc / batched_mc,
        },
        "closed_loop": {
            "system_cycles": CONTROLLER_CYCLES,
            "fleet_size": FLEET_SIZE,
            "scalar_cycles_per_second": CONTROLLER_CYCLES / scalar_loop,
            "batched_die_cycles_per_second": (
                FLEET_SIZE * CONTROLLER_CYCLES / batched_loop
            ),
            "throughput_gain": (
                (FLEET_SIZE * CONTROLLER_CYCLES / batched_loop)
                / (CONTROLLER_CYCLES / scalar_loop)
            ),
        },
    }
    if RECORD:
        # The fleet timing sweep, the step-kernel sweep and the (long)
        # streaming run only execute on recording runs; plain pytest
        # stays fast and leaves the committed BENCH_engine.json
        # untouched.
        results["step_kernel"] = _step_kernel_bench(library, reference_lut)
        results["fleet"] = _fleet_bench(library, reference_lut)
        results["fleet"]["streaming_long_run"] = _streaming_long_run(
            library, reference_lut
        )
        results["fleet"]["persistent"] = _persistent_fleet_bench(
            library, reference_lut
        )
        results["procfleet"] = _process_fleet_bench(library, reference_lut)
        # Read-modify-write: sections other benches own survive.
        record = {}
        if RESULT_PATH.exists():
            record = json.loads(RESULT_PATH.read_text())
        record.update(results)
        RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    return results


def test_engine_throughput_recorded(bench_results):
    mc = bench_results["monte_carlo_mep"]
    loop = bench_results["closed_loop"]
    mode = "recorded in BENCH_engine.json" if RECORD else (
        "not recorded; set REPRO_BENCH_RECORD=1"
    )
    print(f"\nEngine throughput ({mode})")
    print(
        f"  Monte Carlo MEP ({mc['samples']} samples): "
        f"{mc['scalar_samples_per_second']:8.0f} samples/s scalar vs "
        f"{mc['batched_samples_per_second']:8.0f} samples/s batched "
        f"({mc['speedup']:.1f}x)"
    )
    print(
        f"  Closed loop: {loop['scalar_cycles_per_second']:8.0f} cycles/s "
        f"scalar vs {loop['batched_die_cycles_per_second']:8.0f} "
        f"die-cycles/s batched over {loop['fleet_size']} dies "
        f"({loop['throughput_gain']:.0f}x)"
    )
    assert RESULT_PATH.exists()
    assert json.loads(RESULT_PATH.read_text())


def test_batched_monte_carlo_meets_speedup_bar(bench_results):
    """Acceptance: >= 10x over the seed's per-sample Monte Carlo loop.

    Both sides are interleaved best-of-5 measurements over timed
    regions of at least 100 ms (the batched call alone lasts ~10 ms)."""
    assert bench_results["monte_carlo_mep"]["speedup"] >= 10.0


def test_batched_fleet_outscales_scalar_controller(bench_results):
    """The fleet must deliver far more die-cycles/s than one scalar die."""
    assert bench_results["closed_loop"]["throughput_gain"] >= 10.0


def test_sharded_fleet_matches_single_shard(library, reference_lut):
    """Determinism smoke (always runs): sharded == single shard, bit for
    bit, at the worker count the CI bench job configures."""
    dies, cycles = 40, 100
    samples = MonteCarloSampler(seed=41).draw_arrays(dies)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        np.full(dies, ARRIVAL_RATE), SYSTEM_PERIOD, cycles
    )
    single = BatchEngine(population, lut=reference_lut).run(arrivals, cycles)
    sharded = FleetEngine(
        population,
        reference_lut,
        fleet=FleetConfig(shard_size=16, workers=max(2, FLEET_WORKERS)),
    ).run(arrivals, cycles)
    for channel in (
        "times",
        "queue_lengths",
        "desired_codes",
        "output_voltages",
        "duty_values",
        "operations_completed",
        "samples_dropped",
        "energies",
        "lut_corrections",
        "decisions",
    ):
        np.testing.assert_array_equal(
            getattr(sharded, channel),
            getattr(single, channel),
            err_msg=channel,
        )


@pytest.mark.skipif(
    not RECORD, reason="fleet timing sweep needs REPRO_BENCH_RECORD=1"
)
def test_fleet_speedup_bar(bench_results):
    """Acceptance: >= 1.5x die-cycles/s over single-core at 4 workers.

    Thread-level scaling is physically impossible on a single-CPU
    machine (the bit-identity contract is still asserted above), so the
    scaling bar applies where >= 2 CPUs are available.
    """
    fleet = bench_results["fleet"]
    print(
        f"\nFleet: {fleet['single_shard_die_cycles_per_second']:8.0f} "
        f"die-cycles/s single shard vs "
        f"{fleet['sharded_die_cycles_per_second']:8.0f} die-cycles/s at "
        f"{fleet['workers']} workers ({fleet['speedup']:.2f}x)"
    )
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip("single-CPU machine: no parallel speedup available")
    if FLEET_WORKERS >= 4 and cpus >= 4:
        assert fleet["speedup"] >= 1.5
    else:
        # Fewer workers/CPUs (e.g. the CI smoke at 2 workers): threading
        # must still pay for its own sharding overhead.
        assert fleet["speedup"] >= 1.1


def test_process_fleet_matches_single_shard(library, reference_lut):
    """Process-backend determinism smoke (always runs): the
    shared-memory process fleet is bit-identical to a single-shard
    batch, at the worker count the CI bench job configures."""
    dies, cycles = 24, 60
    samples = MonteCarloSampler(seed=43).draw_arrays(dies)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        np.full(dies, ARRIVAL_RATE), SYSTEM_PERIOD, cycles
    )
    single = BatchEngine(population, lut=reference_lut).run(arrivals, cycles)
    with FleetEngine(
        population,
        reference_lut,
        fleet=FleetConfig(
            shard_size=8,
            workers=max(2, FLEET_WORKERS),
            executor="process",
        ),
    ) as fleet:
        sharded = fleet.run(arrivals, cycles)
        final_correction = fleet.final_correction()
    for channel in (
        "times",
        "queue_lengths",
        "desired_codes",
        "output_voltages",
        "duty_values",
        "operations_completed",
        "samples_dropped",
        "energies",
        "lut_corrections",
        "decisions",
    ):
        np.testing.assert_array_equal(
            getattr(sharded, channel),
            getattr(single, channel),
            err_msg=channel,
        )
    np.testing.assert_array_equal(
        final_correction, single.final_correction()
    )


@pytest.mark.skipif(
    not RECORD, reason="process fleet sweep needs REPRO_BENCH_RECORD=1"
)
def test_process_fleet_speedup_bar(bench_results):
    """Acceptance: the process fleet scales like the thread bar where
    scaling is physically possible (>= 2 CPUs); bit-identity is
    asserted unconditionally above."""
    fleet = bench_results["procfleet"]
    print(
        f"\nProcess fleet: "
        f"{fleet['single_shard_die_cycles_per_second']:8.0f} die-cycles/s "
        f"single shard vs {fleet['process_die_cycles_per_second']:8.0f} "
        f"die-cycles/s at {fleet['workers']} workers "
        f"({fleet['speedup']:.2f}x)"
    )
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip("single-CPU machine: no parallel speedup available")
    if FLEET_WORKERS >= 4 and cpus >= 4:
        assert fleet["speedup"] >= 1.5
    else:
        # Fewer workers/CPUs (the CI smoke at 2 workers): the process
        # backend must at least pay for its own IPC overhead.
        assert fleet["speedup"] >= 1.1


def test_bench_record_has_procfleet_section():
    """The committed BENCH_engine.json carries the process-fleet
    results."""
    record = json.loads(RESULT_PATH.read_text())
    fleet = record["procfleet"]
    for key in (
        "single_shard_die_cycles_per_second",
        "process_die_cycles_per_second",
        "speedup",
        "workers",
        "dies",
        "system_cycles",
    ):
        assert key in fleet
    # The scaling claim itself is host-dependent (the committed record
    # may come from a single-CPU container, where a process fleet can
    # only add overhead); the portable invariant is that the sweep ran
    # at the recorded geometry.
    assert fleet["dies"] * fleet["system_cycles"] >= 100_000


@pytest.mark.skipif(
    not RECORD, reason="long run needs REPRO_BENCH_RECORD=1"
)
def test_streaming_long_run_fits_memory_bound(bench_results):
    """Acceptance: the >= 100k x 256 run completes under the telemetry
    bound while a dense trace of the same run cannot fit it."""
    long_run = bench_results["fleet"]["streaming_long_run"]
    print(
        f"\nStreaming long run: {long_run['system_cycles']} cycles x "
        f"{long_run['dies']} dies in {long_run['seconds']:.1f}s, "
        f"{long_run['streaming_buffer_bytes']/1e6:.2f} MB streaming vs "
        f"{long_run['dense_trace_required_bytes']/1e9:.2f} GB dense"
    )
    bound = long_run["telemetry_memory_bound_bytes"]
    assert long_run["streaming_buffer_bytes"] < bound
    assert long_run["dense_trace_required_bytes"] > bound


@pytest.mark.skipif(
    not RECORD, reason="step-kernel sweep needs REPRO_BENCH_RECORD=1"
)
def test_step_kernel_speedup_bars(bench_results):
    """Acceptance: the tabulated response delivers >= 3x the exact
    model's die-cycles/s on the 512-die dense closed loop and on the
    256-die streaming configuration; on the single-CPU reference host
    also >= 3x / >= 5x over the pre-fused-kernel reference numbers."""
    kernel = bench_results["step_kernel"]
    dense = kernel["dense_closed_loop"]
    stream = kernel["streaming_long_run"]
    for label, section in (("dense", dense), ("streaming", stream)):
        print(
            f"\nStep kernel ({label} {section['dies']} dies): "
            f"{section['fused_exact_die_cycles_per_second']:8.0f} exact vs "
            f"{section['fused_tabulated_die_cycles_per_second']:8.0f} "
            f"tabulated die-cycles/s "
            f"({section['tabulated_vs_exact_speedup']:.2f}x)"
        )
    assert dense["tabulated_vs_exact_speedup"] >= 3.0
    assert stream["tabulated_vs_exact_speedup"] >= 3.0
    # The vs-PR-2 bar is a *same-host* comparison: it only applies on
    # the single-CPU reference container the PR-2 numbers were recorded
    # on.  Elsewhere (CI runners of arbitrary speed) the relative
    # same-host gates above are the portable acceptance criteria.
    if os.cpu_count() == 1:
        assert stream["tabulated_speedup_vs_pr2"] >= 5.0
        assert dense["tabulated_speedup_vs_pr2"] >= 3.0


def test_bench_record_has_step_kernel_section():
    """The committed BENCH_engine.json carries the step-kernel results
    and meets the PR's speedup bars."""
    record = json.loads(RESULT_PATH.read_text())
    kernel = record["step_kernel"]
    for section in ("dense_closed_loop", "streaming_long_run"):
        for key in (
            "fused_exact_die_cycles_per_second",
            "fused_tabulated_die_cycles_per_second",
            "tabulated_vs_exact_speedup",
        ):
            assert key in kernel[section], (section, key)
    assert kernel["dense_closed_loop"]["tabulated_vs_exact_speedup"] >= 3.0
    assert kernel["streaming_long_run"]["tabulated_vs_exact_speedup"] >= 3.0
    # Same-host claim: only meaningful when the record was produced on
    # the single-CPU container the PR-2 reference numbers came from.
    if record["environment"]["cpu_count"] == 1:
        assert (
            kernel["streaming_long_run"]["tabulated_speedup_vs_pr2"] >= 5.0
        )


def test_bench_record_has_fleet_section():
    """The committed BENCH_engine.json carries the fleet results."""
    record = json.loads(RESULT_PATH.read_text())
    fleet = record["fleet"]
    for key in (
        "single_shard_die_cycles_per_second",
        "sharded_die_cycles_per_second",
        "speedup",
        "workers",
        "streaming_long_run",
        "persistent",
    ):
        assert key in fleet
    long_run = fleet["streaming_long_run"]
    assert long_run["streaming_buffer_bytes"] < (
        long_run["telemetry_memory_bound_bytes"]
    )
    assert long_run["dense_trace_required_bytes"] > (
        long_run["telemetry_memory_bound_bytes"]
    )


@pytest.mark.skipif(
    not RECORD, reason="persistent fleet sweep needs REPRO_BENCH_RECORD=1"
)
def test_persistent_fleet_overhead_bar(bench_results):
    """Acceptance: a persistent fleet at the *resolved* worker count
    adds <= 10% dispatch overhead over a warm single engine.

    Unlike the scaling bars above, this one asserts on every machine —
    including 1 CPU, where the resolved fleet is one resident shard and
    the ratio isolates pure fleet-abstraction cost (command dispatch,
    shard-view indirection, result merge / IPC round-trip)."""
    persistent = bench_results["fleet"]["persistent"]
    print(
        f"\nPersistent fleet ({persistent['resolved_workers']} resolved "
        f"workers): warm single "
        f"{persistent['single_warm_seconds']:.3f}s vs thread "
        f"{persistent['thread_seconds']:.3f}s "
        f"({persistent['thread_overhead']:.3f}x) vs process "
        f"{persistent['process_seconds']:.3f}s "
        f"({persistent['process_overhead']:.3f}x)"
    )
    assert persistent["thread_overhead"] <= 1.10
    assert persistent["process_overhead"] <= 1.10


def test_bench_record_has_persistent_section():
    """The committed BENCH_engine.json carries the persistent-fleet
    dispatch-overhead results and meets the <= 1.10x bar (the record is
    self-relative, so the bar is portable to any reader)."""
    record = json.loads(RESULT_PATH.read_text())
    persistent = record["fleet"]["persistent"]
    for key in (
        "resolved_workers",
        "single_warm_seconds",
        "thread_seconds",
        "process_seconds",
        "thread_overhead",
        "process_overhead",
        "thread_chunked_overhead",
        "process_chunked_overhead",
        "forced_workers",
        "forced_thread_overhead",
        "forced_process_overhead",
    ):
        assert key in persistent
    assert persistent["thread_overhead"] <= 1.10
    assert persistent["process_overhead"] <= 1.10
    long_run = record["fleet"]["streaming_long_run"]
    # Satellite: RECORD runs time a bounded slice and extrapolate.
    assert long_run["recorded_cycles"] <= long_run["system_cycles"]
    assert long_run["recorded_seconds"] <= long_run["seconds"]
