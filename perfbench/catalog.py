"""The benchmark's metric catalogue.

``BENCHMARK.json`` at the checkout root registers the workloads and the
metrics with their units, directions and bounds; this module reads them
from there and adds what that file has no room for: which end-to-end
metric on which workload each per-layer metric should move, where it
should stay flat, and the seeds.
"""

from __future__ import annotations

import json
from typing import Dict, NamedTuple, Tuple

from harness import ROOT

DEFAULT_SEED = 2009
"""Seed used while the benchmark and later changes are written."""

HELDOUT_SEED = 7919
"""Seed kept aside to re-check a claim made on :data:`DEFAULT_SEED`."""

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in SPEC["workloads"])

END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
"""Registered end-to-end metric -> unit."""

LAYERS: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
"""Per-layer metric -> unit."""

UNREGISTERED: Dict[str, str] = {
    "slo_miss_share": "fraction",
    "error_share": "fraction",
}
"""End-to-end metrics printed and recorded but not registered: both are
0 on a healthy run, and a spread relative to a median of 0 is undefined.
The final JSON line carries them as ``failed``/``attempted``."""


class Prediction(NamedTuple):
    moves: Tuple[Tuple[str, str], ...]
    """``(end-to-end metric, workload)`` pairs this layer should move."""
    flat: Tuple[str, ...]
    """Workloads on which this layer metric should not change."""


def _p(moves, flat) -> Prediction:
    return Prediction(tuple(moves), tuple(flat))


_GW = "gateway-hot"
_MIX = "service-mix"
_SWEEP = "sweep-tabulated"
_MC = "mc-fleet"
_SERVICE = (_MIX, _SWEEP, _GW)

PREDICTIONS: Dict[str, Prediction] = {
    # service.server — the HTTP codec and the wire.
    "service.server.decode_us": _p(
        [("throughput_rps", _GW), ("latency_p50_ms", _GW)], [_MIX, _SWEEP, _MC]
    ),
    "service.server.encode_us": _p(
        [("throughput_rps", _GW), ("latency_p50_ms", _GW)], [_MIX, _SWEEP, _MC]
    ),
    "service.server.transport_ms_p50": _p(
        [("throughput_rps", _GW), ("latency_p50_ms", _GW)], [_MIX, _SWEEP, _MC]
    ),
    "service.server.transport_ms_p99": _p(
        [("latency_p99_ms", _GW)], [_MIX, _SWEEP, _MC]
    ),
    # service.canonical, service.cache, service.persist.
    "service.canonical.cache_key_us": _p([("throughput_rps", _GW)], [_MC]),
    "service.cache.hit_ratio": _p([("latency_p50_ms", _MIX)], [_MC]),
    "service.cache.get_us": _p([("throughput_rps", _GW)], [_MC]),
    "service.persist.put_ms": _p([("throughput_rps", _SWEEP)], [_MC]),
    # service.core — admission, coalescing, batches.
    "service.core.submit_us_p50": _p(
        [
            ("latency_p50_ms", _MIX),
            ("throughput_rps", _SWEEP),
            ("throughput_rps", _GW),
        ],
        [_MC],
    ),
    "service.core.submit_us_p99": _p(
        [("latency_p99_ms", _MIX), ("latency_p99_ms", _GW)], [_MC]
    ),
    "service.core.queue_wait_ms_p50": _p([("latency_p50_ms", _MIX)], [_GW, _MC]),
    "service.core.queue_wait_ms_p99": _p([("latency_p99_ms", _MIX)], [_GW, _MC]),
    "service.core.batch_ms_p50": _p(
        [("latency_p50_ms", _MIX), ("throughput_rps", _SWEEP)], [_GW, _MC]
    ),
    "service.core.batch_ms_p99": _p([("latency_p99_ms", _MIX)], [_GW, _MC]),
    "service.core.batches": _p([("latency_p50_ms", _MIX)], [_GW, _MC]),
    "service.core.coalesce_factor": _p([("latency_p50_ms", _MIX)], [_GW, _MC]),
    "service.core.batch_dies_p50": _p([("latency_p50_ms", _MIX)], [_GW, _MC]),
    "service.core.prep_ms": _p(
        [("latency_p50_ms", _MIX), ("throughput_rps", _SWEEP)], [_GW, _MC]
    ),
    "service.core.tick_ms": _p([("throughput_rps", _SWEEP)], [_GW, _MC]),
    "service.core.engine_reuse_ratio": _p(
        [("latency_p50_ms", _MIX), ("throughput_rps", _SWEEP)], [_GW, _MC]
    ),
    "service.core.unattributed_ms": _p(
        [("latency_p50_ms", _MIX), ("throughput_rps", _SWEEP)], [_GW, _MC]
    ),
    # The open-loop load generator (service-mix only).
    "loadgen.lag_ms_p50": _p([("latency_p50_ms", _MIX)], []),
    "loadgen.lag_ms_p99": _p([("latency_p99_ms", _MIX)], []),
    "loadgen.offered_rps": _p([("throughput_rps", _MIX)], []),
    "loadgen.scheduled_rps": _p([("throughput_rps", _MIX)], []),
    # core — the controller's one-off programming and calibration.  The
    # gateway's median set-up reloads the working set from its disk tier
    # and programs nothing, so gateway-hot is flat, set-up included.
    "core.lut_program_ms": _p(
        [("setup_s", w) for w in (_MIX, _SWEEP, _MC)], [_GW]
    ),
    "core.tdc_calibration_ms": _p(
        [("setup_s", w) for w in (_MIX, _SWEEP, _MC)]
        + [("throughput_rps", _SWEEP)],
        [_GW],
    ),
    # engine — tables, engine construction, the cycle kernel, sinks.
    "engine.response_tables.build_ms_per_die": _p(
        [("throughput_rps", _SWEEP)], [_MIX, _GW, _MC]
    ),
    "engine.engine.build_ms": _p(
        [("latency_p50_ms", _MIX), ("throughput_rps", _SWEEP)], [_GW]
    ),
    "engine.kernels.cycle_us": _p(
        [
            ("latency_p50_ms", _MIX),
            ("throughput_rps", _SWEEP),
            ("die_cycles_per_s", _MC),
        ],
        [_GW],
    ),
    "engine.trace.reducers_ms": _p(
        [("latency_p50_ms", _MIX), ("throughput_rps", _SWEEP)], [_GW]
    ),
    "engine.fleet.ctor_ms": _p([("die_cycles_per_s", _MC)], _SERVICE),
    "engine.fleet.run_ms": _p([("die_cycles_per_s", _MC)], _SERVICE),
    "engine.fleet.shard_run_ms_max": _p([("die_cycles_per_s", _MC)], _SERVICE),
    "engine.fleet.fanout_ms": _p([("die_cycles_per_s", _MC)], _SERVICE),
    "engine.fleet.roundtrip_ms_max": _p([("die_cycles_per_s", _MC)], _SERVICE),
    "engine.fleet.parallel_efficiency": _p(
        [("die_cycles_per_s", _MC)], _SERVICE
    ),
    "engine.fleet.close_ms": _p([("die_cycles_per_s", _MC)], _SERVICE),
    # workloads.batch and analysis.monte_carlo.
    "workloads.batch.arrivals_ms": _p([("die_cycles_per_s", _MC)], [_GW]),
    "analysis.monte_carlo.population_ms": _p(
        [("die_cycles_per_s", _MC)], _SERVICE
    ),
    "analysis.monte_carlo.unattributed_ms": _p(
        [("die_cycles_per_s", _MC)], _SERVICE
    ),
    # The benchmark's own validity figures.
    "trace.overhead_share": _p([], []),
    "trace.residual_share": _p([], []),
}


def unit(name: str) -> str:
    """Unit of any metric the benchmark reports."""
    for table in (END_TO_END, UNREGISTERED, LAYERS):
        if name in table:
            return table[name]
    raise KeyError(name)
