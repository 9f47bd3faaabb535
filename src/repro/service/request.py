"""Typed request/result model of the simulation service.

A :class:`SimRequest` describes one die's closed-loop simulation — the
silicon (corner + local threshold shifts + temperature), the workload,
the controller knobs and the horizon — in plain hashable values, so the
service can

* **coalesce** requests that can legally share one engine run (same
  :meth:`SimRequest.group_key`) into a single
  :class:`~repro.engine.engine.BatchEngine` batch, and
* **cache** results content-addressed by :meth:`SimRequest.cache_key`
  (canonical hashing via :mod:`repro.service.canonical`), so repeated
  scenarios across "users" cost a dictionary lookup.

Anything that changes the simulated trajectory is part of the cache
key; pure quality-of-service fields (``deadline_s``) and output
selection (``reducers``) are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.devices.temperature import ROOM_TEMPERATURE_C
from repro.service.canonical import content_hash

WORKLOAD_KINDS = ("none", "constant", "poisson", "explicit")
"""Supported arrival processes a request can carry."""

FEEDBACK_MODES = ("voltage_sense", "delay_servo")
"""String spellings of :class:`repro.core.dcdc.FeedbackMode` (strings
keep the request model hashable and canonical)."""


def _as_int_tuple(values: Sequence[int]) -> Tuple[int, ...]:
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError("per-cycle vectors must be one-dimensional")
    return tuple(int(v) for v in array)


@dataclass(frozen=True)
class WorkloadSpec:
    """What arrives at one die's FIFO, described without arrays.

    ``kind`` selects the process:

    * ``"none"`` — no input traffic,
    * ``"constant"`` — the scalar fractional-rate accumulator at
      ``rate`` samples/s,
    * ``"poisson"`` — an independent Poisson stream at ``rate``; the
      stream is keyed by ``seed`` alone (spawned like a one-die fleet,
      see :func:`repro.workloads.batch.poisson_arrival_row`), never by
      batch position,
    * ``"explicit"`` — a verbatim per-cycle arrival vector
      (``arrivals``, stored as a tuple of ints).
    """

    kind: str = "constant"
    rate: float = 1e5
    seed: Optional[int] = None
    arrivals: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"workload kind must be one of {WORKLOAD_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind in ("constant", "poisson") and self.rate < 0:
            raise ValueError("rate must be non-negative")
        if self.kind == "poisson" and self.seed is None:
            raise ValueError("a poisson workload needs a seed")
        if self.kind != "poisson" and self.seed is not None:
            raise ValueError(
                f"seed only applies to the poisson kind, "
                f"not {self.kind!r}"
            )
        if self.kind == "explicit":
            if self.arrivals is None:
                raise ValueError("an explicit workload needs arrivals")
            object.__setattr__(
                self, "arrivals", _as_int_tuple(self.arrivals)
            )
        elif self.arrivals is not None:
            raise ValueError(
                f"arrivals only apply to the explicit kind, "
                f"not {self.kind!r}"
            )

    def arrival_row(self, period: float, cycles: int) -> np.ndarray:
        """Materialise this workload as a ``(cycles,)`` int64 row.

        Generated purely from the spec (and, for Poisson, its own
        seed), so the row is identical whether the request runs alone
        or inside any coalesced batch.
        """
        from repro.workloads.batch import (
            constant_arrival_matrix,
            poisson_arrival_row,
        )

        if self.kind == "none":
            return np.zeros(cycles, dtype=np.int64)
        if self.kind == "constant":
            return constant_arrival_matrix([self.rate], period, cycles)[0]
        if self.kind == "poisson":
            assert self.seed is not None  # enforced in __post_init__
            return poisson_arrival_row(
                self.rate, period, cycles, int(self.seed)
            )
        row = np.asarray(self.arrivals, dtype=np.int64)
        if row.shape[0] != cycles:
            raise ValueError(
                f"explicit workload carries {row.shape[0]} cycles, "
                f"request asks for {cycles}"
            )
        return row

    def payload(self) -> Dict[str, object]:
        """Return the canonical-hash payload of this workload.

        Only fields that influence the generated arrival row are
        encoded: ``rate`` is inert for ``"none"``/``"explicit"`` and
        ``seed`` exists only for ``"poisson"``, so equal scenarios hash
        equal whatever the inert fields were spelled as.
        """
        payload: Dict[str, object] = {"kind": self.kind}
        if self.kind in ("constant", "poisson"):
            payload["rate"] = float(self.rate)
        if self.kind == "poisson":
            assert self.seed is not None  # enforced in __post_init__
            payload["seed"] = int(self.seed)
        if self.kind == "explicit":
            assert self.arrivals is not None  # enforced in __post_init__
            payload["arrivals"] = list(self.arrivals)
        return payload


@dataclass(frozen=True)
class SimRequest:
    """One die's simulation ask, hashable and coalescible.

    Fields split three ways:

    * **per-die** (may differ between batchmates): ``corner``,
      ``nmos_vth_shift`` / ``pmos_vth_shift``, ``workload``,
      ``schedule_codes``, ``initial_correction``;
    * **per-engine** (must match to coalesce — :meth:`group_key`):
      ``cycles``, ``temperature_c``, ``compensation_enabled``,
      ``feedback``, ``averaging_window``, ``sample_rate`` (which LUT the
      rate controller is programmed with), ``device_model``,
      ``step_kernel``, and whether the run is schedule-driven;
    * **quality of service** (never part of :meth:`cache_key`):
      ``deadline_s``, ``reducers``, ``tenant``, ``priority``.

    ``tenant`` names the fair-queuing bucket the request waits in (the
    service dequeues tenants weighted round-robin) and ``priority``
    orders requests *within* a tenant (higher first, FIFO among
    equals).  Both shape scheduling only — two requests differing only
    there share a cache entry and coalesce into one engine run.
    """

    cycles: int
    corner: str = "TT"
    nmos_vth_shift: float = 0.0
    pmos_vth_shift: float = 0.0
    temperature_c: float = ROOM_TEMPERATURE_C
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    schedule_codes: Optional[Tuple[int, ...]] = None
    compensation_enabled: bool = True
    feedback: str = "voltage_sense"
    averaging_window: int = 4
    initial_correction: int = 0
    sample_rate: float = 1e5
    device_model: str = "exact"
    step_kernel: str = "fused"
    reducers: Optional[Tuple[str, ...]] = None
    deadline_s: Optional[float] = None
    tenant: str = "default"
    priority: int = 0

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError("cycles must be positive")
        if self.feedback not in FEEDBACK_MODES:
            raise ValueError(
                f"feedback must be one of {FEEDBACK_MODES}, "
                f"got {self.feedback!r}"
            )
        if self.averaging_window <= 0:
            raise ValueError("averaging_window must be positive")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.schedule_codes is not None:
            codes = _as_int_tuple(self.schedule_codes)
            if len(codes) != self.cycles:
                raise ValueError(
                    f"schedule_codes covers {len(codes)} cycles, "
                    f"request asks for {self.cycles}"
                )
            object.__setattr__(self, "schedule_codes", codes)
        if (
            self.workload.kind == "explicit"
            and len(self.workload.arrivals) != self.cycles
        ):
            raise ValueError(
                f"explicit workload carries "
                f"{len(self.workload.arrivals)} cycles, request asks "
                f"for {self.cycles}"
            )
        if self.reducers is not None:
            object.__setattr__(
                self, "reducers", tuple(str(r) for r in self.reducers)
            )
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("deadline_s must be non-negative")
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ValueError("tenant must be a non-empty string")
        if isinstance(self.priority, bool) or not isinstance(
            self.priority, int
        ):
            raise ValueError("priority must be an int")
        # Fail on unknown device_model/step_kernel at submit time, not
        # deep inside a coalesced engine build.
        from repro.engine.engine import DEVICE_MODELS, STEP_KERNELS

        if self.device_model not in DEVICE_MODELS:
            raise ValueError(
                f"device_model must be one of {DEVICE_MODELS}, "
                f"got {self.device_model!r}"
            )
        if self.step_kernel not in STEP_KERNELS:
            raise ValueError(
                f"step_kernel must be one of {STEP_KERNELS}, "
                f"got {self.step_kernel!r}"
            )

    # ------------------------------------------------------------------
    # Coalescing and caching keys
    # ------------------------------------------------------------------
    def group_key(self) -> Tuple[object, ...]:
        """Return the key two requests must share to ride one engine run.

        Everything here is a per-engine constant of
        :class:`~repro.engine.engine.BatchEngine`: the horizon, the
        shared population temperature, the controller knobs, the LUT
        programming rate and the execution model.  Whether the run is
        schedule-driven is included because one engine step either
        applies a schedule to every die or to none.
        """
        return (
            int(self.cycles),
            float(self.temperature_c),
            bool(self.compensation_enabled),
            self.feedback,
            int(self.averaging_window),
            float(self.sample_rate),
            self.device_model,
            self.step_kernel,
            self.schedule_codes is not None,
        )

    def cache_payload(self) -> Dict[str, object]:
        """Return the canonicalisable content of this request.

        Excludes ``deadline_s``, ``reducers``, ``tenant`` and
        ``priority``: they shape service behaviour, not the simulated
        trajectory, so requests differing only there share a cache
        entry.
        """
        return {
            "cycles": int(self.cycles),
            "corner": self.corner,
            "nmos_vth_shift": float(self.nmos_vth_shift),
            "pmos_vth_shift": float(self.pmos_vth_shift),
            "temperature_c": float(self.temperature_c),
            "workload": self.workload.payload(),
            "schedule_codes": (
                None if self.schedule_codes is None
                else list(self.schedule_codes)
            ),
            "compensation_enabled": bool(self.compensation_enabled),
            "feedback": self.feedback,
            "averaging_window": int(self.averaging_window),
            "initial_correction": int(self.initial_correction),
            "sample_rate": float(self.sample_rate),
            "device_model": self.device_model,
            "step_kernel": self.step_kernel,
        }

    def cache_key(self) -> str:
        """Return the canonical content hash of this request."""
        return content_hash(self.cache_payload())


@dataclass(frozen=True)
class SimResult:
    """What the service hands back for one request.

    ``values`` maps reducer names to plain Python scalars and is the
    *only* part of the result covered by the bit-identity contract;
    ``cached``/``batch_size`` describe how this particular response was
    produced (cache hit or coalesced run) and legitimately vary with
    service configuration.
    """

    key: str
    """The request's canonical cache key."""

    values: Dict[str, Union[int, float]]
    """Requested per-die reducers (see ``service.core.RESULT_FIELDS``)."""

    cached: bool = False
    """Whether this response came from the scenario cache."""

    batch_size: int = 0
    """Dies coalesced into the engine run that produced the values
    (0 when the run happened for an earlier, cached response)."""


RequestLike = Union[SimRequest, Sequence[SimRequest]]
