"""``mc-fleet``: repeated Monte Carlo closed-loop fleet calls.

A population study of the kind used to judge variation resilience:
``monte_carlo_closed_loop(dies=4096, cycles=100, device_model="exact",
executor="process")`` at two workers, called again and again with seeds
derived from the workload seed.  This is the only workload that runs
``engine.fleet`` / ``engine.procfleet`` (shared memory, worker spawn,
fan-out and merge).  Calls are kept short (under a second) so that a
run holds a few dozen of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from harness import (
    Outcome,
    SpanLog,
    children_peak_rss_mb,
    decompose,
    median,
    quantile,
    residual_share,
    self_peak_rss_mb,
    stop_resource_tracker,
)

RESULT_ARRAYS = ("energy", "operations", "drops", "lut_correction")
WORKERS = 2


@dataclass(frozen=True)
class FleetConfig:
    seconds: float = 25.0
    dies: int = 4096
    cycles: int = 100
    setups: int = 9
    corrupt_one_answer: bool = False
    """Test hook: alter one observed answer before the check."""


Config = FleetConfig


def call_seed(seed: int, index: int) -> int:
    return (seed * 7_919 + index * 104_729) % (1 << 31)


def _fleet(executor: str):
    from repro.engine.fleet import FleetConfig as EngineFleetConfig

    return EngineFleetConfig(
        telemetry="streaming", workers=WORKERS, executor=executor
    )


def _call(library, config: FleetConfig, seed: int, executor: str = "process"):
    from repro.analysis.monte_carlo import monte_carlo_closed_loop

    return monte_carlo_closed_loop(
        dies=config.dies,
        cycles=config.cycles,
        library=library,
        seed=seed,
        fleet=_fleet(executor),
        device_model="exact",
    )


def _totals(result) -> Dict[str, np.ndarray]:
    return {name: np.asarray(getattr(result, name)) for name in RESULT_ARRAYS}


def _same(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    return all(
        a[name].dtype == b[name].dtype
        and a[name].tobytes() == b[name].tobytes()
        for name in RESULT_ARRAYS
    )


def set_up(config: FleetConfig):
    """Library construction plus one small call: module imports, worker
    spawn and shared-memory set-up paid once before timing."""
    from repro.library import SubthresholdLibrary

    library = SubthresholdLibrary()
    small = FleetConfig(dies=8 * WORKERS, cycles=4)
    _call(library, small, seed=1)
    return library


def _calls(library, config: FleetConfig, seed: int, count=None, traced=None):
    """Calls until ``config.seconds`` pass (or exactly ``count`` calls)."""
    done: List[Tuple[float, float, Dict[str, np.ndarray]]] = []
    start = time.perf_counter()
    index = 0
    while (
        count is None and time.perf_counter() - start < config.seconds
    ) or (count is not None and index < count):
        t0 = time.perf_counter()
        if traced is None:
            totals = _totals(_call(library, config, call_seed(seed, index)))
        else:
            totals = traced(library, config, call_seed(seed, index), index)
        done.append((t0, time.perf_counter(), totals))
        index += 1
    return done


def _end_to_end(calls, config: FleetConfig) -> Dict[str, float]:
    walls = [t1 - t0 for t0, t1, _ in calls]
    # Rates over the whole window (all dies / all call time): the host's
    # speed drifts over seconds, and a total averages the drift where a
    # median of per-call rates picks whichever phase was most common.
    dies_per_s = config.dies * len(walls) / sum(walls)
    return {
        "latency_p50_ms": median(walls) * 1e3,
        "latency_p99_ms": quantile(walls, 0.99) * 1e3,
        "throughput_rps": dies_per_s,
        "die_cycles_per_s": dies_per_s * config.cycles,
        "slo_miss_share": 0.0,
    }


def run(seed: int, trace: bool, config: FleetConfig = FleetConfig()) -> Outcome:
    outcome = Outcome("mc-fleet")
    setups = []
    for _ in range(config.setups):
        t0 = time.perf_counter()
        library = set_up(config)
        setups.append(time.perf_counter() - t0)
    calls = _calls(library, config, seed)
    # Read before the serial check and the traced pass, which are not
    # the workload's own work.
    peak_rss = self_peak_rss_mb() + WORKERS * children_peak_rss_mb()
    metrics = _end_to_end(calls, config)
    metrics["setup_s"] = median(setups)
    outcome.attempted = outcome.completed = len(calls)

    # Answer check: the first call again on the serial executor.
    observed = {k: v.copy() for k, v in calls[0][2].items()}
    if config.corrupt_one_answer:
        observed["energy"][0] *= 1.5
    serial = _totals(_call(library, config, call_seed(seed, 0), "serial"))
    outcome.checked += 1
    if not _same(observed, serial):
        outcome.wrong += 1

    if trace:
        _traced(library, seed, calls, config, metrics, outcome)
    metrics["peak_rss_mb"] = peak_rss
    metrics["error_share"] = outcome.error_share()
    outcome.metrics = metrics
    outcome.info["calls"] = len(calls)
    stop_resource_tracker()
    return outcome


def _traced(library, seed, untraced_calls, config, untraced, outcome) -> None:
    """The same calls again, performed step by step as
    ``monte_carlo_closed_loop`` performs them, each step in a span."""
    log = SpanLog()
    fleet_timings: List[Dict[str, Dict[int, float]]] = []

    def traced_call(library, config, seed, index):
        return _traced_call(library, config, seed, log, f"call-{index}",
                            fleet_timings)

    calls = _calls(library, config, seed, count=len(untraced_calls),
                   traced=traced_call)
    for (_, _, expected), (_, _, got) in zip(untraced_calls, calls):
        outcome.checked += 1
        if not _same(expected, got):
            outcome.wrong += 1
    traced = _end_to_end(calls, config)
    roots = [s.span_id for s in log.spans if s.name == "analysis.monte_carlo.call"]
    for root in roots:
        split = log.tree_self_by_name(root)
        split.pop("analysis.monte_carlo.call", None)
        span = log.spans[root]
        outcome.decompositions.append(
            decompose(span.request, span.duration, split)
        )
    outcome.spans = log

    def ms(name: str) -> float:
        return median(log.self_by_name(name)) * 1e3

    run_ms = [d * 1e3 for d in log.durations("engine.fleet.run")]
    shard_max = [max(t["shard_run_s"].values()) * 1e3 for t in fleet_timings]
    shard_sum = [sum(t["shard_run_s"].values()) * 1e3 for t in fleet_timings]
    roundtrip = [
        max(t["worker_roundtrip_s"].values(), default=0.0) * 1e3
        for t in fleet_timings
    ]
    layers = outcome.layers
    layers["analysis.monte_carlo.population_ms"] = ms(
        "analysis.monte_carlo.population")
    layers["analysis.monte_carlo.unattributed_ms"] = median(
        [d.residual_s for d in outcome.decompositions]) * 1e3
    layers["core.tdc_calibration_ms"] = ms("core.tdc_calibration")
    layers["core.lut_program_ms"] = ms("core.lut_program")
    layers["workloads.batch.arrivals_ms"] = ms("workloads.batch.arrivals")
    layers["engine.fleet.ctor_ms"] = ms("engine.fleet.ctor")
    layers["engine.fleet.run_ms"] = median(run_ms)
    layers["engine.fleet.shard_run_ms_max"] = median(shard_max)
    layers["engine.fleet.fanout_ms"] = median(
        [r - s for r, s in zip(run_ms, shard_max)])
    layers["engine.fleet.roundtrip_ms_max"] = median(roundtrip)
    layers["engine.fleet.parallel_efficiency"] = median(
        [s / (WORKERS * r) for s, r in zip(shard_sum, run_ms)])
    layers["engine.fleet.close_ms"] = ms("engine.fleet.close")
    layers["engine.kernels.cycle_us"] = median(shard_max) * 1e3 / config.cycles
    layers["trace.overhead_share"] = (
        untraced["die_cycles_per_s"] - traced["die_cycles_per_s"]
    ) / untraced["die_cycles_per_s"]
    layers["trace.residual_share"] = residual_share(outcome.decompositions)


def _traced_call(library, config: FleetConfig, seed: int, log: SpanLog,
                 rid: str, fleet_timings) -> Dict[str, np.ndarray]:
    """``monte_carlo_closed_loop`` step by step (same calls, same order)."""
    from repro.circuits.loads import DigitalLoad
    from repro.core.config import ControllerConfig
    from repro.core.rate_controller import program_lut_for_load
    from repro.core.tdc import TdcCalibration, TimeToDigitalConverter
    from repro.devices.temperature import ROOM_TEMPERATURE_C
    from repro.devices.variation import MonteCarloSampler, VariationModel
    from repro.engine.device_math import BatchDeviceSet
    from repro.engine.engine import BatchPopulation
    from repro.engine.fleet import FleetEngine
    from repro.library import OperatingCondition
    from repro.workloads.batch import poisson_arrival_matrix

    sample_rate = 1e5
    temperature_c = ROOM_TEMPERATURE_C
    t_call = time.perf_counter()
    root = log.add("analysis.monte_carlo.call", t_call, t_call, rid)

    t0 = time.perf_counter()
    population_span = log.add(
        "analysis.monte_carlo.population", t0, t0, rid, root
    )
    samples = MonteCarloSampler(VariationModel(), seed=seed).draw_arrays(
        config.dies
    )
    # BatchPopulation.from_samples, with the calibration in its own span.
    controller = ControllerConfig()
    technology = library.technology_at(
        OperatingCondition(corner="TT", temperature_c=temperature_c)
    )
    devices = BatchDeviceSet.from_technology(
        technology,
        library.reference_delay_model.delay_constant,
        nmos_vth_shifts=np.asarray(samples.nmos_vth_shift, dtype=float),
        pmos_vth_shifts=np.asarray(samples.pmos_vth_shift, dtype=float),
    )
    c0 = time.perf_counter()
    reference_tdc = TimeToDigitalConverter(
        library.reference_delay_model, controller.tdc,
        temperature_c=temperature_c,
    )
    expected_counts = TdcCalibration(
        reference_tdc,
        resolution_bits=controller.resolution_bits,
        full_scale=controller.full_scale_voltage,
    ).expected_counts
    log.add("core.tdc_calibration", c0, time.perf_counter(), rid,
            population_span)
    population = BatchPopulation(
        load=library.ring_oscillator_load,
        load_devices=devices,
        expected_counts=expected_counts,
        temperature_c=temperature_c,
    )
    log.spans[population_span].end = time.perf_counter()

    t0 = time.perf_counter()
    lut = program_lut_for_load(
        DigitalLoad(library.ring_oscillator_load, library.reference_delay_model),
        sample_rate=sample_rate,
    )
    log.add("core.lut_program", t0, time.perf_counter(), rid, root)

    t0 = time.perf_counter()
    engine = FleetEngine(
        population, lut, fleet=_fleet("process"), device_model="exact"
    )
    log.add("engine.fleet.ctor", t0, time.perf_counter(), rid, root)
    try:
        t0 = time.perf_counter()
        arrivals = poisson_arrival_matrix(
            np.full(config.dies, sample_rate),
            engine.config.system_cycle_period,
            config.cycles,
            seeds=seed,
        )
        log.add("workloads.batch.arrivals", t0, time.perf_counter(), rid, root)

        t0 = time.perf_counter()
        engine.run(arrivals, config.cycles)
        t1 = time.perf_counter()
        run_span = log.add("engine.fleet.run", t0, t1, rid, root)
        timings = {k: dict(v) for k, v in engine.last_timings.items()}
        fleet_timings.append(timings)
        # Synthetic child: workers report durations, not instants, so the
        # slowest shard is anchored at the run start; the run's self
        # time is then fan-out, waiting and merge.
        log.add("engine.kernels.shard_run", t0,
                t0 + max(timings["shard_run_s"].values()), rid, run_span)
        totals = {
            "energy": np.asarray(engine.total_energy()),
            "operations": np.asarray(engine.total_operations()),
            "drops": np.asarray(engine.total_drops()),
            "lut_correction": np.asarray(engine.final_correction()),
        }
    finally:
        t0 = time.perf_counter()
        engine.close()
        log.add("engine.fleet.close", t0, time.perf_counter(), rid, root)
    log.spans[root].end = time.perf_counter()
    return totals
