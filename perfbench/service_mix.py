"""``service-mix``: open-loop Poisson traffic into an in-process service.

One generator thread submits requests at their scheduled (due) times
into a :class:`SimulationService` running its background coalescer; a
second thread notices resolutions.  Latency runs from each request's due
time to its resolution, so a stall also charges the requests queued
behind it.  Two tenants, about 40% repeats of earlier scenarios, and
horizons of 50/100/100/200 cycles (three coalescing groups).
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from harness import (
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
TENANTS = 2
REPEAT_SHARE = 0.4
HORIZONS = (50, 100, 100, 200)
"""Three coalescing groups; 100-cycle requests are twice as common."""
P99_LIMIT_S = 2.0
DRAIN_TIMEOUT_S = 60.0
POLL_S = 0.004


@dataclass(frozen=True)
class MixConfig:
    seconds: float = 25.0
    rate: float = 100.0
    setups: int = 9
    check_sample: int = 24
    corrupt_one_answer: bool = False
    """Test hook: alter one observed answer before the check."""


@dataclass
class Arrival:
    index: int
    due: float
    """Seconds after the start of the run."""
    request: object


def make_schedule(config: MixConfig, seed: int) -> List[Arrival]:
    """Seeded Poisson schedule for ``config.seconds`` of traffic."""
    from repro.service.request import SimRequest, WorkloadSpec

    rng = random.Random(seed)
    arrivals: List[Arrival] = []
    scenarios: List[object] = []
    t = rng.expovariate(config.rate)
    while t < config.seconds:
        tenant = f"tenant-{rng.randrange(TENANTS)}"
        if scenarios and rng.random() < REPEAT_SHARE:
            base = scenarios[rng.randrange(len(scenarios))]
            request = dataclasses.replace(base, tenant=tenant)
        else:
            request = SimRequest(
                cycles=rng.choice(HORIZONS),
                corner=rng.choice(CORNERS),
                nmos_vth_shift=round(rng.gauss(0.0, 0.008), 6),
                pmos_vth_shift=round(rng.gauss(0.0, 0.008), 6),
                workload=WorkloadSpec(
                    kind="poisson",
                    rate=round(rng.uniform(2e4, 1.6e5), 1),
                    seed=rng.randrange(1 << 31),
                ),
                tenant=tenant,
            )
            scenarios.append(request)
        arrivals.append(Arrival(len(arrivals), t, request))
        t += rng.expovariate(config.rate)
    return arrivals


def warmup_request():
    """A request outside every schedule: schedules draw Poisson seeds
    below 2**31, this one lies above."""
    from repro.service.request import SimRequest, WorkloadSpec

    return SimRequest(
        cycles=100,
        workload=WorkloadSpec(kind="poisson", rate=1e5, seed=(1 << 31) + 17),
        tenant="warmup",
    )


def set_up_service():
    """Construct library and service, start the coalescer and run one
    cold request (LUT programming, TDC calibration, engine build)."""
    from repro.library import SubthresholdLibrary
    from repro.service.core import SimulationService

    service = SimulationService(library=SubthresholdLibrary()).start()
    service.submit(warmup_request()).result(timeout=60.0)
    return service


@dataclass
class Sent:
    arrival: Arrival
    submit_start: float
    submit_end: float
    future: Optional[object]
    error: Optional[str] = None
    resolved: float = 0.0
    values: Optional[Dict[str, object]] = None


class _Waiter(threading.Thread):
    """Notices resolutions by polling ``done`` on outstanding futures.

    Polling every :data:`POLL_S` bounds the stamp error by about the
    interpreter's 5 ms switch interval while keeping the waiter from
    taking the interpreter lock from the coalescer a thousand times a
    second.
    """

    def __init__(self) -> None:
        super().__init__(name="perfbench-waiter", daemon=True)
        self._lock = threading.Lock()
        self._pending: List[Sent] = []
        self._halt = threading.Event()

    def watch(self, sent: Sent) -> None:
        with self._lock:
            self._pending.append(sent)

    def outstanding(self) -> int:
        with self._lock:
            return len(self._pending)

    def run(self) -> None:
        while not self._halt.is_set():
            now = time.perf_counter()
            with self._lock:
                still = []
                for sent in self._pending:
                    if sent.future.done:
                        sent.resolved = now
                    else:
                        still.append(sent)
                self._pending = still
            time.sleep(POLL_S)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)


def drive(service, schedule: List[Arrival]) -> Tuple[List[Sent], float]:
    """Submit ``schedule`` open-loop; return what was sent and t0."""
    from repro.service.core import AdmissionError

    waiter = _Waiter()
    waiter.start()
    sent: List[Sent] = []
    t0 = time.perf_counter()
    try:
        for arrival in schedule:
            due = t0 + arrival.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            s0 = time.perf_counter()
            try:
                future = service.submit(arrival.request)
            except AdmissionError as exc:
                sent.append(Sent(arrival, s0, time.perf_counter(), None,
                                 f"refused: {exc}"))
                continue
            s1 = time.perf_counter()
            record = Sent(arrival, s0, s1, future)
            if future.done:
                record.resolved = s1
            else:
                waiter.watch(record)
            sent.append(record)
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while waiter.outstanding() and time.perf_counter() < deadline:
            time.sleep(0.005)
    finally:
        waiter.stop()
    for record in sent:
        if record.future is None:
            continue
        if not record.future.done:
            record.error = "unresolved"
            continue
        exc = record.future.exception()
        if exc is not None:
            record.error = f"{type(exc).__name__}: {exc}"
            continue
        record.values = record.future.result().values
    return sent, t0


def _end_to_end(sent: List[Sent], t0: float, config: MixConfig) -> Dict[str, float]:
    window_end = t0 + config.seconds
    latencies = [
        s.resolved - (t0 + s.arrival.due) for s in sent if s.values is not None
    ]
    in_window = [s for s in sent if s.values is not None and s.resolved <= window_end]
    misses = sum(
        1 for s in sent
        if s.values is None
        or s.resolved - (t0 + s.arrival.due) > P99_LIMIT_S
    )
    return {
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p99_ms": quantile(latencies, 0.99) * 1e3,
        "throughput_rps": len(in_window) / config.seconds,
        "die_cycles_per_s": sum(s.arrival.request.cycles for s in in_window)
        / config.seconds,
        "slo_miss_share": misses / len(sent) if sent else 1.0,
    }


Config = MixConfig


def run(seed: int, trace: bool, config: MixConfig = MixConfig()) -> Outcome:
    outcome = Outcome("service-mix")
    schedule = make_schedule(config, seed)

    setups = []
    service = None
    for _ in range(config.setups):
        if service is not None:
            service.close()
        t0 = time.perf_counter()
        service = set_up_service()
        setups.append(time.perf_counter() - t0)
    library = service.library

    sent, t0 = drive(service, schedule)
    peak_rss = self_peak_rss_mb()
    service.close()
    metrics = _end_to_end(sent, t0, config)
    metrics["setup_s"] = median(setups)
    outcome.attempted = len(sent)
    outcome.completed = sum(1 for s in sent if s.values is not None)
    outcome.refused = sum(1 for s in sent if s.future is None)
    outcome.failed = sum(1 for s in sent if s.future is not None and s.values is None)
    outcome.info["errors"] = [s.error for s in sent if s.error][:5]
    outcome.info["scheduled_rps"] = len(schedule) / config.seconds
    last_submit = max((s.submit_end for s in sent), default=t0)
    outcome.info["offered_rps"] = len(sent) / max(last_submit - t0, 1e-9)
    outcome.info["lag_ms_p99"] = quantile(
        [s.submit_start - (t0 + s.arrival.due) for s in sent], 0.99) * 1e3
    check_against_reference(
        [(s.arrival.request, s.values) for s in sent if s.values is not None],
        config.check_sample, seed, config.corrupt_one_answer, outcome, library,
    )
    metrics["peak_rss_mb"] = peak_rss
    metrics["error_share"] = outcome.error_share()
    outcome.metrics = metrics
    if trace:
        _traced(seed, schedule, config, metrics, outcome)
    return outcome


def _traced(seed: int, schedule: List[Arrival], config: MixConfig,
            untraced: Dict[str, float], outcome: Outcome) -> None:
    """Second pass on the same seed with spans, then batch replays."""
    service = set_up_service()
    recorder = BatchRecorder(service)
    sent, t0 = drive(service, schedule)
    stats = service.stats()
    traced = _end_to_end(sent, t0, config)
    log = SpanLog()
    replayer = BatchReplayer(service, log)
    replayer.warm([warmup_request()])

    splits = replay_batches(replayer, recorder.batches, outcome)

    # Per-request spans and decomposition.
    batch_keys = [{r.cache_key() for r in b[2]} for b in recorder.batches]
    submit_s, queue_s, lag_s = [], [], []
    for s in sent:
        if s.values is None:
            continue
        rid = f"req-{s.arrival.index}"
        due = t0 + s.arrival.due
        root = log.add("request", due, s.resolved, rid)
        log.add("loadgen.lag", due, s.submit_start, rid, root)
        log.add("service.core.submit", s.submit_start, s.submit_end, rid, root)
        lag_s.append(s.submit_start - due)
        submit_s.append(s.submit_end - s.submit_start)
        layers = {
            "loadgen.lag": s.submit_start - due,
            "service.core.submit": s.submit_end - s.submit_start,
        }
        k = _owning_batch(recorder.batches, batch_keys, s)
        if k is not None:
            b0, b1 = recorder.batches[k][0], recorder.batches[k][1]
            log.add("service.core.queue_wait", s.submit_end, b0, rid, root)
            log.add("service.core.resolve", b1, s.resolved, rid, root)
            queue_s.append(b0 - s.submit_end)
            layers["service.core.queue_wait"] = b0 - s.submit_end
            layers.update(splits[k])
            layers["service.core.resolve"] = s.resolved - b1
        outcome.decompositions.append(
            decompose(rid, s.resolved - due, layers)
        )
    outcome.spans = log

    probes = probe_cache(service, [a.request for a in schedule[:512]])
    service.close()

    layers = outcome.layers
    layers.update(batch_layer_metrics(recorder.batches, splits, stats, log))
    layers.update(probes)
    layers["service.core.submit_us_p50"] = median(submit_s) * 1e6
    layers["service.core.submit_us_p99"] = quantile(submit_s, 0.99) * 1e6
    layers["service.core.queue_wait_ms_p50"] = median(queue_s) * 1e3
    layers["service.core.queue_wait_ms_p99"] = quantile(queue_s, 0.99) * 1e3
    layers["loadgen.lag_ms_p50"] = median(lag_s) * 1e3
    layers["loadgen.lag_ms_p99"] = quantile(lag_s, 0.99) * 1e3
    layers["loadgen.offered_rps"] = outcome.info["offered_rps"]
    layers["loadgen.scheduled_rps"] = outcome.info["scheduled_rps"]
    layers["trace.overhead_share"] = (
        traced["latency_p50_ms"] - untraced["latency_p50_ms"]
    ) / untraced["latency_p50_ms"]
    layers["trace.residual_share"] = residual_share(outcome.decompositions)


def _owning_batch(batches, batch_keys, sent: Sent) -> Optional[int]:
    """The batch that resolved a queued request: the first one holding
    its key that started after the submit and ended before resolution."""
    if sent.resolved <= sent.submit_end:
        return None
    key = sent.future.key
    for k, (b0, b1, _, _) in enumerate(batches):
        if b0 >= sent.submit_end and b1 <= sent.resolved and key in batch_keys[k]:
            return k
    return None
