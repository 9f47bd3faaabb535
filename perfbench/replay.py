"""Replay one recorded service batch through the public building blocks.

:meth:`SimulationService.simulate_requests` assembles a population from
the requests, programs the LUT, calibrates the TDC, builds an engine,
runs it into a streaming sink and reads the per-die reducers.  The
replayer performs the same public calls one by one, each inside a span,
so a batch's wall time splits into layers.  Its answers must equal the
service's bit for bit, which shows that the split measured the same
program.
"""

from __future__ import annotations

import random
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import SpanLog, median, quantile, same_bits


class BatchReplayer:
    """Mirror of the ``direct`` execution path of one service instance."""

    def __init__(self, service, log: SpanLog):
        self.library = service.library
        self.controller = service.controller
        self.stream_window = service.config.stream_window
        self.engine_cache = service.config.engine_cache
        self.log = log
        self._luts: Dict[float, object] = {}
        self._calibrations: Dict[float, np.ndarray] = {}
        self._engines: "OrderedDict[tuple, object]" = OrderedDict()

    # The service keeps one LUT per sample rate and one calibration per
    # temperature; so does the replayer, so that a batch replays the
    # one-off work the live batch paid, and no more.
    def lut(self, sample_rate: float, request: str, parent: Optional[int]):
        lut = self._luts.get(sample_rate)
        if lut is None:
            from repro.circuits.loads import DigitalLoad
            from repro.core.rate_controller import program_lut_for_load

            t0 = time.perf_counter()
            reference_load = DigitalLoad(
                self.library.ring_oscillator_load,
                self.library.reference_delay_model,
            )
            lut = program_lut_for_load(reference_load, sample_rate=sample_rate)
            self.log.add(
                "core.lut_program", t0, time.perf_counter(), request, parent
            )
            self._luts[sample_rate] = lut
        return lut

    def calibration(
        self, temperature_c: float, request: str, parent: Optional[int]
    ) -> np.ndarray:
        counts = self._calibrations.get(temperature_c)
        if counts is None:
            from repro.core.tdc import TdcCalibration, TimeToDigitalConverter

            t0 = time.perf_counter()
            reference_tdc = TimeToDigitalConverter(
                self.library.reference_delay_model,
                self.controller.tdc,
                temperature_c=temperature_c,
            )
            counts = TdcCalibration(
                reference_tdc,
                resolution_bits=self.controller.resolution_bits,
                full_scale=self.controller.full_scale_voltage,
            ).expected_counts
            self.log.add(
                "core.tdc_calibration", t0, time.perf_counter(), request,
                parent,
            )
            self._calibrations[temperature_c] = counts
        return counts

    def warm(self, requests: Sequence) -> None:
        """Replay the service's set-up batch, so that the replayer holds
        the LUT, calibration and warm engine the service started with."""
        self.replay(requests, "replay-setup")

    def engine(self, requests: Sequence, population, lut, tables, corrections):
        """The service's warm-engine LRU: a batch whose ``(group_key,
        size)`` matches a resident engine ``reset``s it, any other builds
        one and may evict the least recently used."""
        from repro.core.dcdc import FeedbackMode
        from repro.engine.engine import BatchEngine

        first = requests[0]
        key = (first.group_key(), len(requests))
        engine = self._engines.get(key)
        if engine is not None:
            self._engines.move_to_end(key)
            engine.reset(
                population=population,
                initial_correction=corrections,
                response_tables=tables,
            )
            return engine
        engine = BatchEngine(
            population,
            lut,
            config=self.controller,
            compensation_enabled=first.compensation_enabled,
            feedback_mode=FeedbackMode[first.feedback.upper()],
            averaging_window=first.averaging_window,
            initial_correction=corrections,
            device_model=first.device_model,
            step_kernel=first.step_kernel,
            response_tables=tables,
        )
        if self.engine_cache > 0:
            self._engines[key] = engine
            while len(self._engines) > self.engine_cache:
                self._engines.popitem(last=False)
        return engine

    def replay(
        self, requests: Sequence, request: str
    ) -> Tuple[List[Dict[str, object]], int]:
        """Run one homogeneous batch; return (reducer dicts, root span)."""
        from repro.engine.device_math import BatchDeviceSet
        from repro.engine.engine import BatchPopulation
        from repro.engine.response_tables import ResponseTables
        from repro.engine.trace import StreamingTrace
        from repro.library import OperatingCondition
        from repro.service.core import SINK_RESULT_FIELDS, STATE_RESULT_FIELDS

        log = self.log
        first = requests[0]
        n = len(requests)
        period = self.controller.system_cycle_period
        t_root = time.perf_counter()
        root = log.add("service.core.batch_replay", t_root, t_root, request)

        t0 = time.perf_counter()
        prep = log.add("service.core.prep", t0, t0, request, root)
        technologies = [
            self.library.technology_at(
                OperatingCondition(
                    corner=r.corner, temperature_c=r.temperature_c
                )
            )
            for r in requests
        ]
        devices = BatchDeviceSet.from_technologies(
            technologies,
            self.library.reference_delay_model.delay_constant,
            nmos_vth_shifts=np.array(
                [r.nmos_vth_shift for r in requests], dtype=float
            ),
            pmos_vth_shifts=np.array(
                [r.pmos_vth_shift for r in requests], dtype=float
            ),
        )
        population = BatchPopulation(
            load=self.library.ring_oscillator_load,
            load_devices=devices,
            expected_counts=self.calibration(first.temperature_c, request, prep),
            temperature_c=first.temperature_c,
        )
        t_arr = time.perf_counter()
        arrivals = np.stack(
            [r.workload.arrival_row(period, first.cycles) for r in requests]
        )
        log.add("workloads.batch.arrivals", t_arr, time.perf_counter(),
                request, prep)
        schedule = None
        if first.schedule_codes is not None:
            schedule = np.stack(
                [np.asarray(r.schedule_codes, dtype=np.int64) for r in requests]
            )
        corrections = np.array(
            [r.initial_correction for r in requests], dtype=np.int64
        )
        lut = self.lut(first.sample_rate, request, prep)
        log.spans[prep].end = time.perf_counter()

        tables = None
        if first.device_model == "tabulated":
            t0 = time.perf_counter()
            tables = ResponseTables.from_population(population, self.controller)
            log.add("engine.response_tables.build", t0, time.perf_counter(),
                    request, root)

        t0 = time.perf_counter()
        engine = self.engine(requests, population, lut, tables, corrections)
        log.add("engine.engine.build", t0, time.perf_counter(), request, root)

        t0 = time.perf_counter()
        sink = StreamingTrace(window=self.stream_window)
        engine.run(arrivals, first.cycles, scheduled_codes=schedule, sink=sink)
        log.add("engine.kernels.run", t0, time.perf_counter(), request, root)

        t0 = time.perf_counter()
        reducers = sink.die_reducers()
        results: List[Dict[str, object]] = []
        for i in range(n):
            values: Dict[str, object] = {}
            for name, caster in STATE_RESULT_FIELDS:
                values[name] = caster(getattr(engine.state, name)[i])
            for name, caster in SINK_RESULT_FIELDS:
                values[name] = caster(reducers[name][i])
            results.append(values)
        log.add("engine.trace.reducers", t0, time.perf_counter(), request, root)
        log.spans[root].end = time.perf_counter()
        return results, root


REPLAY_LAYERS = (
    "service.core.prep",
    "workloads.batch.arrivals",
    "core.lut_program",
    "core.tdc_calibration",
    "engine.response_tables.build",
    "engine.engine.build",
    "engine.kernels.run",
    "engine.trace.reducers",
)
"""Span names a batch replay splits into (the root's self time is the
replayer's own overhead and is left to the residual)."""


class BatchRecorder:
    """Wraps a service instance's public ``simulate_requests`` so every
    coalesced batch is logged as ``(start, end, requests, values)``."""

    def __init__(self, service) -> None:
        self.batches: List[Tuple[float, float, list, list]] = []
        self._inner = service.simulate_requests
        service.simulate_requests = self

    def __call__(self, requests, **kwargs):
        t0 = time.perf_counter()
        values = self._inner(requests, **kwargs)
        self.batches.append((t0, time.perf_counter(), list(requests), values))
        return values


def replay_batches(replayer: BatchReplayer, batches, outcome) -> List[Dict[str, float]]:
    """Replay every recorded batch; return each one's layer split.

    A replay whose answers differ from the live batch counts as a wrong
    answer: the split would then describe another program.
    """
    splits: List[Dict[str, float]] = []
    for k, (b0, b1, requests, values) in enumerate(batches):
        name = f"batch-{k}"
        replayer.log.add("service.core.batch", b0, b1, name)
        replayed, root = replayer.replay(requests, name)
        outcome.checked += 1
        if not all(same_bits(a, b) for a, b in zip(replayed, values)):
            outcome.wrong += 1
            outcome.info.setdefault("replay_mismatch", []).append(k)
        split = replayer.log.tree_self_by_name(root)
        splits.append({layer: split.get(layer, 0.0) for layer in REPLAY_LAYERS})
    return splits


def batch_layer_metrics(batches, splits, stats, log: SpanLog) -> Dict[str, float]:
    """Per-layer metrics shared by the service workloads' traced runs."""
    walls = [b1 - b0 for b0, b1, _, _ in batches]
    dies = [len(requests) for _, _, requests, _ in batches]
    unattributed = [w - sum(s.values()) for w, s in zip(walls, splits)]
    cycle_us = [
        s["engine.kernels.run"] * 1e6 / requests[0].cycles
        for s, (_, _, requests, _) in zip(splits, batches)
    ]
    tables = [
        s["engine.response_tables.build"] * 1e3 / len(requests)
        for s, (_, _, requests, _) in zip(splits, batches)
        if requests[0].device_model == "tabulated"
    ]

    def ms(name: str) -> float:
        return median([s[name] for s in splits]) * 1e3

    def once_ms(name: str) -> float:
        return median(log.durations(name)) * 1e3

    return {
        "service.cache.hit_ratio": stats.cache_hit_rate,
        "service.core.batch_ms_p50": median(walls) * 1e3,
        "service.core.batch_ms_p99": quantile(walls, 0.99) * 1e3,
        "service.core.batches": float(len(batches)),
        "service.core.coalesce_factor": stats.coalesce_factor,
        "service.core.batch_dies_p50": median(dies),
        "service.core.prep_ms": ms("service.core.prep"),
        "service.core.engine_reuse_ratio": stats.engine_reuse_rate,
        "service.core.unattributed_ms": median(unattributed) * 1e3,
        "core.lut_program_ms": once_ms("core.lut_program"),
        "core.tdc_calibration_ms": once_ms("core.tdc_calibration"),
        "engine.response_tables.build_ms_per_die": median(tables),
        "engine.engine.build_ms": ms("engine.engine.build"),
        "engine.kernels.cycle_us": median(cycle_us),
        "engine.trace.reducers_ms": ms("engine.trace.reducers"),
        "workloads.batch.arrivals_ms": ms("workloads.batch.arrivals"),
    }


def probe_cache(service, requests) -> Dict[str, float]:
    """Time ``SimRequest.cache_key`` and ``ResultCache.get`` on the
    workload's own requests, against the service's memory tier."""
    key_us, get_us = [], []
    for request in requests:
        t0 = time.perf_counter()
        key = request.cache_key()
        t1 = time.perf_counter()
        service.cache.get(key)
        t2 = time.perf_counter()
        key_us.append((t1 - t0) * 1e6)
        get_us.append((t2 - t1) * 1e6)
    return {
        "service.canonical.cache_key_us": median(key_us),
        "service.cache.get_us": median(get_us),
    }


def check_against_reference(pairs, sample_size: int, seed: int, corrupt: bool,
                            outcome, library) -> None:
    """Compare a seeded sample of ``(request, values)`` pairs bit for bit
    with standalone :meth:`SimulationService.simulate_requests` batches
    (the coalescing-parity reference).  ``corrupt`` alters one observed
    answer first, so tests can see a wrong answer being counted."""
    from repro.service.core import SimulationService

    sample = random.Random(seed ^ 0x5EED).sample(
        pairs, min(sample_size, len(pairs))
    )
    observed = [dict(values) for _, values in sample]
    if corrupt and observed:
        observed[0]["energy_total"] = observed[0]["energy_total"] * 1.5
    groups: Dict[tuple, List[int]] = {}
    for i, (request, _) in enumerate(sample):
        groups.setdefault(request.group_key(), []).append(i)
    reference = SimulationService(library=library)
    try:
        for members in groups.values():
            expected = reference.simulate_requests(
                [sample[i][0] for i in members]
            )
            for i, values in zip(members, expected):
                outcome.checked += 1
                if not same_bits(observed[i], values):
                    outcome.wrong += 1
    finally:
        reference.close()
