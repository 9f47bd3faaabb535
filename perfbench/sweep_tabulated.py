"""``sweep-tabulated``: a bulk caller running never-repeating sweeps.

One caller hands :meth:`SimulationService.run` sweeps of
``dies × rates × temperatures`` scenarios (default 32 × 4 × 2 = 256,
200 cycles, tabulated device model) with the disk cache tier on.  Every
sweep draws new silicon and two new temperatures, so no scenario
repeats: the work is response-table build, the tabulated kernel and
cache *writes* to both tiers, with no hits.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from harness import (
    WORK_DIR,
    Outcome,
    SpanLog,
    decompose,
    median,
    quantile,
    residual_share,
    self_peak_rss_mb,
)
from replay import (
    BatchRecorder,
    BatchReplayer,
    batch_layer_metrics,
    check_against_reference,
    probe_cache,
    replay_batches,
)

CORNERS = ("TT", "SS", "FF", "SF", "FS")
SETUP_TEMPERATURE_C = 25.0


@dataclass(frozen=True)
class SweepConfig:
    seconds: float = 25.0
    dies: int = 32
    rates: int = 4
    temperatures: int = 2
    cycles: int = 200
    setups: int = 9
    check_sample: int = 16
    persist_probe: int = 256
    corrupt_one_answer: bool = False
    """Test hook: alter one observed answer before the check."""


Config = SweepConfig


def make_sweep(config: SweepConfig, seed: int, index: int) -> List[object]:
    """Sweep ``index`` of the seeded series (no scenario ever repeats:
    every sweep has temperatures of its own)."""
    from repro.service.request import SimRequest, WorkloadSpec

    rng = random.Random(seed * 1_000_003 + index)
    dies = [
        (
            rng.choice(CORNERS),
            round(rng.gauss(0.0, 0.008), 6),
            round(rng.gauss(0.0, 0.008), 6),
        )
        for _ in range(config.dies)
    ]
    rates = [round(rng.uniform(2e4, 2e5), 1) for _ in range(config.rates)]
    temperatures: List[float] = []
    while len(temperatures) < config.temperatures:
        # Offsets by sweep index keep temperatures distinct across sweeps.
        t = round(-20.0 + 0.01 * index + 0.5 * rng.randrange(240), 2)
        if t not in temperatures and t != SETUP_TEMPERATURE_C:
            temperatures.append(t)
    return [
        SimRequest(
            cycles=config.cycles,
            corner=corner,
            nmos_vth_shift=nmos,
            pmos_vth_shift=pmos,
            temperature_c=temperature,
            workload=WorkloadSpec(
                kind="poisson", rate=rate, seed=rng.randrange(1 << 31)
            ),
            device_model="tabulated",
        )
        for temperature in temperatures
        for corner, nmos, pmos in dies
        for rate in rates
    ]


def setup_request(config: SweepConfig):
    """The cold request of set-up, at a temperature no sweep uses."""
    from repro.service.request import SimRequest

    return SimRequest(
        cycles=config.cycles,
        temperature_c=SETUP_TEMPERATURE_C,
        device_model="tabulated",
    )


def set_up_service(directory: Path, config: SweepConfig):
    """Library, service with a fresh disk tier, and one cold request."""
    from repro.library import SubthresholdLibrary
    from repro.service.core import ServiceConfig, SimulationService

    shutil.rmtree(directory, ignore_errors=True)
    service = SimulationService(
        library=SubthresholdLibrary(),
        config=ServiceConfig(persist_dir=str(directory)),
    )
    service.run([setup_request(config)])
    return service


RSS_AFTER_SWEEPS = 8
"""Peak memory is read after this many sweeps, so that it describes the
same amount of work however many sweeps fit into the time window."""


def _sweeps(service, config: SweepConfig, seed: int, count=None):
    """Run sweeps until ``config.seconds`` pass (or ``count`` sweeps).

    Returns ``(start, end, requests, results)`` per sweep and the peak
    resident memory after :data:`RSS_AFTER_SWEEPS` sweeps.
    """
    done: List[Tuple[float, float, List[object], list]] = []
    start = time.perf_counter()
    index = 0
    peak_rss = 0.0
    while (
        count is None and time.perf_counter() - start < config.seconds
    ) or (count is not None and index < count):
        requests = make_sweep(config, seed, index)
        t0 = time.perf_counter()
        results = service.run(requests)
        done.append((t0, time.perf_counter(), requests, results))
        index += 1
        if index <= RSS_AFTER_SWEEPS:
            peak_rss = self_peak_rss_mb()
    return done, peak_rss


def _end_to_end(sweeps, config: SweepConfig) -> Dict[str, float]:
    walls = [t1 - t0 for t0, t1, _, _ in sweeps]
    # All scenarios over all sweep time, for the reason given in
    # mc_fleet._end_to_end.
    rate = sum(len(requests) for _, _, requests, _ in sweeps) / sum(walls)
    return {
        "latency_p50_ms": median(walls) * 1e3,
        "latency_p99_ms": quantile(walls, 0.99) * 1e3,
        "throughput_rps": rate,
        "die_cycles_per_s": rate * config.cycles,
        "slo_miss_share": 0.0,
    }


def run(seed: int, trace: bool, config: SweepConfig = SweepConfig()) -> Outcome:
    outcome = Outcome("sweep-tabulated")
    directory = WORK_DIR / "sweep-disk-tier"
    try:
        setups = []
        service = None
        for _ in range(config.setups):
            if service is not None:
                service.close()
            t0 = time.perf_counter()
            service = set_up_service(directory, config)
            setups.append(time.perf_counter() - t0)
        sweeps, peak_rss = _sweeps(service, config, seed)
        library = service.library
        service.close()
        metrics = _end_to_end(sweeps, config)
        metrics["setup_s"] = median(setups)
        outcome.attempted = sum(len(r) for _, _, r, _ in sweeps)
        outcome.completed = sum(len(r) for _, _, _, r in sweeps)
        check_against_reference(
            [
                (request, result.values)
                for _, _, requests, results in sweeps
                for request, result in zip(requests, results)
            ],
            config.check_sample, seed, config.corrupt_one_answer, outcome, library,
        )
        metrics["peak_rss_mb"] = peak_rss
        metrics["error_share"] = outcome.error_share()
        outcome.metrics = metrics
        outcome.info["sweeps"] = len(sweeps)
        outcome.info["scenarios_per_sweep"] = len(sweeps[0][2])
        if trace:
            _traced(seed, len(sweeps), config, metrics, directory, outcome)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return outcome


def _traced(seed, count, config, untraced, directory, outcome: Outcome) -> None:
    """Same sweeps again with spans, then batch replays and probes."""
    from repro.service.persist import PersistentCache

    service = set_up_service(directory, config)
    recorder = BatchRecorder(service)
    submits: List[Tuple[float, float, str]] = []
    inner_submit = service.submit

    def timed_submit(request, **kwargs):
        t0 = time.perf_counter()
        future = inner_submit(request, **kwargs)
        submits.append((t0, time.perf_counter(), future.key))
        return future

    service.submit = timed_submit
    sweeps, _ = _sweeps(service, config, seed, count=count)
    stats = service.stats()
    traced = _end_to_end(sweeps, config)

    log = SpanLog()
    replayer = BatchReplayer(service, log)
    replayer.warm([setup_request(config)])
    splits = replay_batches(replayer, recorder.batches, outcome)

    batch_start = {}
    for b0, _, requests, _ in recorder.batches:
        for request in requests:
            batch_start.setdefault(request.cache_key(), b0)
    submit_s = [t1 - t0 for t0, t1, _ in submits]
    queue_s = [batch_start[key] - t1 for _, t1, key in submits]
    tick_s = []
    for k, (r0, r1, requests, _) in enumerate(sweeps):
        rid = f"sweep-{k}"
        root = log.add("sweep", r0, r1, rid)
        mine = [s for s in submits if r0 <= s[0] <= r1]
        for t0, t1, _ in mine:
            log.add("service.core.submit", t0, t1, rid, root)
        layers = {"service.core.submit": sum(t1 - t0 for t0, t1, _ in mine)}
        batches = [
            i for i, b in enumerate(recorder.batches) if r0 <= b[0] <= r1
        ]
        cursor = max(t1 for _, t1, _ in mine)
        tick = 0.0
        for i in batches:
            b0, b1 = recorder.batches[i][0], recorder.batches[i][1]
            log.add("service.core.tick", cursor, b0, rid, root)
            tick += b0 - cursor
            cursor = b1
            for name, seconds in splits[i].items():
                layers[name] = layers.get(name, 0.0) + seconds
        log.add("service.core.tick", cursor, r1, rid, root)
        tick += r1 - cursor
        tick_s.append(tick / max(len(batches), 1))
        layers["service.core.tick"] = tick
        outcome.decompositions.append(decompose(rid, r1 - r0, layers))
    outcome.spans = log

    probes = probe_cache(service, sweeps[-1][2][:512])
    values = [
        (result.key, dict(result.values)) for result in sweeps[0][3]
    ][: config.persist_probe]
    service.close()
    probe_dir = WORK_DIR / "sweep-persist-probe"
    shutil.rmtree(probe_dir, ignore_errors=True)
    probe = PersistentCache(probe_dir)
    put_ms = []
    for key, value in values:
        t0 = time.perf_counter()
        probe.put(key, value)
        put_ms.append((time.perf_counter() - t0) * 1e3)
    shutil.rmtree(probe_dir, ignore_errors=True)

    layers = outcome.layers
    layers.update(batch_layer_metrics(recorder.batches, splits, stats, log))
    layers.update(probes)
    layers["service.persist.put_ms"] = median(put_ms)
    layers["service.core.submit_us_p50"] = median(submit_s) * 1e6
    layers["service.core.submit_us_p99"] = quantile(submit_s, 0.99) * 1e6
    layers["service.core.queue_wait_ms_p50"] = median(queue_s) * 1e3
    layers["service.core.queue_wait_ms_p99"] = quantile(queue_s, 0.99) * 1e3
    layers["service.core.tick_ms"] = median(tick_s) * 1e3
    layers["trace.overhead_share"] = (
        untraced["throughput_rps"] - traced["throughput_rps"]
    ) / untraced["throughput_rps"]
    layers["trace.residual_share"] = residual_share(outcome.decompositions)
