"""``gateway-hot``: cache-hot HTTP traffic against ``repro-serve --listen``.

The gateway runs in a child process (``python -m repro.service.cli
--listen 127.0.0.1:0``), so it shares no interpreter lock with the
client.  Two keep-alive connections, one client thread each, run a
closed loop over a 64-scenario working set that set-up has already
warmed into the gateway's memory cache: every timed request is a hit, so
the HTTP codec, canonical hashing and cache reads are all the work.
Each request goes out in a single ``sendall`` so that the client does
not itself cause the Nagle/delayed-ACK stall this workload exposes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from harness import (
    SRC,
    WORK_DIR,
    Outcome,
    SpanLog,
    children_peak_rss_mb,
    decompose,
    median,
    process_peak_rss_mb,
    quantile,
    residual_share,
    same_bits,
)

CORNERS = ("TT", "SS", "FF", "SF", "FS")
CONNECTIONS = 2
P99_LIMIT_S = 0.1
START_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class GatewayConfig:
    seconds: float = 25.0
    working_set: int = 64
    cycles: int = 50
    setups: int = 3
    corrupt_one_answer: bool = False
    """Test hook: alter one observed answer before the check."""


Config = GatewayConfig


def working_set(config: GatewayConfig, seed: int) -> List[object]:
    from repro.service.request import SimRequest, WorkloadSpec

    rng = random.Random(seed)
    return [
        SimRequest(
            cycles=config.cycles,
            corner=rng.choice(CORNERS),
            nmos_vth_shift=round(rng.gauss(0.0, 0.008), 6),
            pmos_vth_shift=round(rng.gauss(0.0, 0.008), 6),
            workload=WorkloadSpec(
                kind="poisson",
                rate=round(rng.uniform(2e4, 1.6e5), 1),
                seed=rng.randrange(1 << 31),
            ),
            tenant=f"tenant-{i % 2}",
        )
        for i in range(config.working_set)
    ]


def wire_request(request) -> bytes:
    """Headers and body of one ``POST /simulate`` as a single buffer."""
    from repro.service.server import request_to_wire

    body = json.dumps(request_to_wire(request)).encode("utf-8")
    head = (
        "POST /simulate HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.reader = self.sock.makefile("rb")

    def exchange(self, data: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(data)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("gateway closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def get(self, path: str) -> Tuple[int, bytes]:
        return self.exchange(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode("ascii")
        )

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Gateway:
    """A ``repro-serve --listen`` child process."""

    def __init__(self, persist_dir: Path, timeout_s: float) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service.cli",
                "--listen", "127.0.0.1:0",
                "--persist-dir", str(persist_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        self.port = self._await_port(timeout_s)

    def _await_port(self, timeout_s: float) -> int:
        found: Dict[str, int] = {}

        def read() -> None:
            line = self.process.stdout.readline()
            if "http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                found["port"] = int(address.rsplit(":", 1)[1])

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout_s)
        if "port" not in found:
            self.stop()
            raise RuntimeError("gateway did not start listening")
        return found["port"]

    def peak_rss_mb(self) -> Optional[float]:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        # SIGTERM rather than SIGINT: a process started from a background
        # shell inherits SIGINT ignored, and the gateway would never see it.
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        if self.process.stdout is not None:
            self.process.stdout.close()


def warm(port: int, payloads: List[bytes], connections: int) -> None:
    """Send every working-set request once over ``connections`` clients."""
    errors: List[str] = []

    def client(k: int) -> None:
        conn = Connection(port)
        try:
            for data in payloads[k::connections]:
                status, body = conn.exchange(data)
                if status != 200:
                    errors.append(f"warm-up status {status}: {body[:200]!r}")
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(k,)) for k in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(errors[0])


@dataclass
class Exchange:
    scenario: int
    sent: float
    received: float
    status: int


def closed_loop(port: int, payloads: List[bytes], order: List[int],
                config: GatewayConfig):
    """Closed loop over ``connections`` clients for ``config.seconds``.

    Returns the exchanges, every distinct successful response body per
    scenario, and the loop's start time.
    """
    exchanges: List[List[Exchange]] = [[] for _ in range(CONNECTIONS)]
    bodies: Dict[int, Set[bytes]] = {}
    lock = threading.Lock()
    start = time.perf_counter()
    end = start + config.seconds

    def client(k: int) -> None:
        conn = Connection(port)
        mine = exchanges[k]
        position = k
        try:
            while time.perf_counter() < end:
                scenario = order[position % len(order)]
                position += CONNECTIONS
                t0 = time.perf_counter()
                status, body = conn.exchange(payloads[scenario])
                t1 = time.perf_counter()
                mine.append(Exchange(scenario, t0, t1, status))
                seen = bodies.get(scenario)
                if status == 200 and (seen is None or body not in seen):
                    with lock:
                        bodies.setdefault(scenario, set()).add(body)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(k,))
        for k in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = sorted(
        (x for per in exchanges for x in per), key=lambda x: x.sent
    )
    return merged, bodies, start


def _cache_counts(port: int) -> Tuple[int, int]:
    conn = Connection(port)
    try:
        _, body = conn.get("/stats")
    finally:
        conn.close()
    stats = json.loads(body)
    return int(stats["cache_hits"]), int(stats["cache_misses"])


def _hit_ratio(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    hits = after[0] - before[0]
    return hits / max(hits + after[1] - before[1], 1)


def _end_to_end(exchanges: List[Exchange], start: float,
                config: GatewayConfig) -> Dict[str, float]:
    ok = [x for x in exchanges if x.status == 200]
    latencies = [x.received - x.sent for x in ok]
    elapsed = max((x.received for x in exchanges), default=start) - start
    misses = sum(
        1 for x in exchanges
        if x.status != 200 or x.received - x.sent > P99_LIMIT_S
    )
    return {
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p99_ms": quantile(latencies, 0.99) * 1e3,
        "throughput_rps": len(ok) / elapsed if elapsed > 0 else 0.0,
        "die_cycles_per_s": len(ok) * config.cycles / elapsed
        if elapsed > 0 else 0.0,
        "slo_miss_share": misses / len(exchanges) if exchanges else 1.0,
    }


def _reference(requests) -> Tuple[object, List[Dict[str, object]]]:
    """In-process answers for the working set, cached in a service that
    the traced run later replays the wire stream against."""
    from repro.service.core import SimulationService

    service = SimulationService()
    results = service.run(requests)
    return service, [dict(r.values) for r in results]


def _check(bodies: Dict[int, Set[bytes]], expected, config, outcome) -> None:
    observed = [
        (scenario, json.loads(body)["values"])
        for scenario in sorted(bodies)
        for body in sorted(bodies[scenario])
    ]
    if config.corrupt_one_answer and observed:
        observed[0][1]["energy_total"] = observed[0][1]["energy_total"] * 1.5
    for scenario, values in observed:
        outcome.checked += 1
        if not same_bits(values, expected[scenario]):
            outcome.wrong += 1


def run(seed: int, trace: bool, config: GatewayConfig = GatewayConfig()) -> Outcome:
    outcome = Outcome("gateway-hot")
    requests = working_set(config, seed)
    payloads = [wire_request(r) for r in requests]
    order = list(range(len(requests)))
    random.Random(seed ^ 0xC0FFEE).shuffle(order)
    directory = WORK_DIR / "gateway-disk-tier"
    shutil.rmtree(directory, ignore_errors=True)
    gateway = None
    try:
        # The first start simulates the working set (and writes the disk
        # tier); later starts reload it from disk into memory.
        setups = []
        for _ in range(config.setups):
            if gateway is not None:
                gateway.stop()
            t0 = time.perf_counter()
            gateway = Gateway(directory, START_TIMEOUT_S)
            warm(gateway.port, payloads, CONNECTIONS)
            setups.append(time.perf_counter() - t0)
        counts = _cache_counts(gateway.port)
        exchanges, bodies, start = closed_loop(
            gateway.port, payloads, order, config
        )
        outcome.info["timed_hit_ratio"] = _hit_ratio(
            counts, _cache_counts(gateway.port)
        )
        metrics = _end_to_end(exchanges, start, config)
        metrics["setup_s"] = median(setups)
        outcome.attempted = len(exchanges)
        outcome.completed = sum(1 for x in exchanges if x.status == 200)
        outcome.refused = sum(1 for x in exchanges if x.status == 429)
        outcome.failed = outcome.attempted - outcome.completed - outcome.refused
        reference, expected = _reference(requests)
        _check(bodies, expected, config, outcome)
        if trace:
            _traced(gateway, payloads, order, config, metrics, reference,
                    outcome)
        rss = gateway.peak_rss_mb()
        gateway.stop()
        gateway = None
        reference.close()
        metrics["peak_rss_mb"] = rss if rss is not None else children_peak_rss_mb()
        metrics["error_share"] = outcome.error_share()
        outcome.metrics = metrics
    finally:
        if gateway is not None:
            gateway.stop()
        shutil.rmtree(directory, ignore_errors=True)
    return outcome


def _traced(gateway: Gateway, payloads, order, config, untraced, reference,
            outcome: Outcome) -> None:
    """Same loop again, then the wire stream replayed in-process."""
    from repro.service.server import request_from_wire, result_to_wire

    counts = _cache_counts(gateway.port)
    exchanges, _, start = closed_loop(gateway.port, payloads, order, config)
    hit_ratio = _hit_ratio(counts, _cache_counts(gateway.port))
    traced = _end_to_end(exchanges, start, config)
    log = SpanLog()
    bodies = [p.split(b"\r\n\r\n", 1)[1] for p in payloads]
    decode_s, submit_s, encode_s, transport_s, key_us, get_us = (
        [], [], [], [], [], []
    )
    for i, x in enumerate(exchanges):
        if x.status != 200:
            continue
        rid = f"req-{i}"
        log.add("http.request", x.sent, x.received, rid)
        t0 = time.perf_counter()
        request = request_from_wire(json.loads(bodies[x.scenario]))
        t1 = time.perf_counter()
        result = reference.submit(request).result()
        t2 = time.perf_counter()
        json.dumps(result_to_wire(result)).encode("utf-8")
        t3 = time.perf_counter()
        replay = log.add("replay", t0, t3, rid)
        log.add("service.server.decode", t0, t1, rid, replay)
        log.add("service.core.submit", t1, t2, rid, replay)
        log.add("service.server.encode", t2, t3, rid, replay)
        k0 = time.perf_counter()
        key = request.cache_key()
        k1 = time.perf_counter()
        reference.cache.get(key)
        k2 = time.perf_counter()
        key_us.append((k1 - k0) * 1e6)
        get_us.append((k2 - k1) * 1e6)
        wire = x.received - x.sent
        layers = {
            "service.server.decode": t1 - t0,
            "service.core.submit": t2 - t1,
            "service.server.encode": t3 - t2,
        }
        transport = wire - sum(layers.values())
        layers["service.server.transport"] = transport
        decode_s.append(t1 - t0)
        submit_s.append(t2 - t1)
        encode_s.append(t3 - t2)
        transport_s.append(transport)
        outcome.decompositions.append(decompose(rid, wire, layers))
    outcome.spans = log
    layers = outcome.layers
    layers["service.server.decode_us"] = median(decode_s) * 1e6
    layers["service.server.encode_us"] = median(encode_s) * 1e6
    layers["service.server.transport_ms_p50"] = median(transport_s) * 1e3
    layers["service.server.transport_ms_p99"] = quantile(transport_s, 0.99) * 1e3
    layers["service.core.submit_us_p50"] = median(submit_s) * 1e6
    layers["service.core.submit_us_p99"] = quantile(submit_s, 0.99) * 1e6
    layers["service.canonical.cache_key_us"] = median(key_us)
    layers["service.cache.get_us"] = median(get_us)
    layers["service.cache.hit_ratio"] = hit_ratio
    layers["trace.overhead_share"] = (
        traced["latency_p50_ms"] - untraced["latency_p50_ms"]
    ) / untraced["latency_p50_ms"]
    layers["trace.residual_share"] = residual_share(outcome.decompositions)
