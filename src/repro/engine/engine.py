"""Batched closed-loop simulation engine (the tentpole of ``repro.engine``).

:class:`BatchEngine` advances a *population* of adaptive controllers —
each die with its own threshold shifts and LUT correction — through the
full paper loop (FIFO → rate controller → DC-DC → load → compensation)
using struct-of-arrays numpy math.  One engine cycle performs a fixed
number of vectorised operations regardless of the population size, so
thousands of Monte Carlo dies or workload scenarios simulate in the time
the scalar stack needs for a handful.

The engine reproduces the scalar semantics of
:class:`repro.core.controller.AdaptiveController` exactly (operation
order included): a batch of one is cycle-for-cycle identical to the
legacy loop, which is what lets the scalar controller delegate to the
engine without moving any published number.  Every cycle runs the fused
:class:`~repro.engine.kernels.CycleKernel`; its bits are pinned against
digests recorded from the earlier shifted-window step
(``tests/engine/goldens/legacy_step.json``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.loads import DigitalLoad
from repro.core.config import ControllerConfig
from repro.core.dcdc import FeedbackMode
from repro.core.lut import VoltageLut
from repro.core.tdc import TdcCalibration, TimeToDigitalConverter
from repro.delay.energy import LoadCharacteristics
from repro.delay.gate_delay import GateDelayModel
from repro.devices.temperature import ROOM_TEMPERATURE_C
from repro.engine.device_math import (
    BatchDeviceSet,
    BatchEnergyModel,
    batch_measure_tdc_counts,
)
from repro.engine.state import BatchState, STATE_ARRAY_FIELDS
from repro.engine.trace import DenseTrace, TraceSink

ArrivalsLike = Union[np.ndarray, Sequence[int], None]


def normalise_arrivals(
    arrivals: ArrivalsLike,
    cycles: int,
    n: int,
    period: float,
    start_cycle: int = 0,
) -> np.ndarray:
    """Normalise an arrivals argument to an ``(n, cycles)`` int matrix.

    Accepts the same forms as :meth:`BatchEngine.run`; shared by the
    engine and the fleet executor (which normalises once for the whole
    population and hands each shard a row slice, so a sharded run sees
    exactly the arrivals a single-shard run would).
    """
    if arrivals is None:
        # Broadcast rather than materialise: the cycle loop only reads
        # arrival columns, and the process fleet collapses zero-stride
        # rows back to a single row instead of pickling N x cycles
        # zeros to every worker.
        return np.broadcast_to(
            np.zeros(cycles, dtype=np.int64), (n, cycles)
        )
    if callable(arrivals):
        # Arrival processes are stateful (fractional-rate accumulators),
        # so the callable itself must be invoked once per cycle in
        # order; everything around it is vectorised — the cycle start
        # times in one pass, the counts straight into an int64 vector
        # (C-cast truncation == the old per-element int()), and a single
        # zero-copy broadcast to the (n, cycles) matrix.
        times = (start_cycle + np.arange(cycles, dtype=np.int64)) * period
        counts = np.fromiter(
            (arrivals(t, period) for t in times.tolist()),
            dtype=np.int64,
            count=cycles,
        )
        return np.broadcast_to(counts, (n, cycles))
    matrix = np.asarray(arrivals, dtype=np.int64)
    if matrix.ndim == 1:
        if matrix.shape[0] != cycles:
            raise ValueError("arrival vector length must equal cycles")
        return np.broadcast_to(matrix, (n, cycles))
    if matrix.shape != (n, cycles):
        raise ValueError(
            f"arrival matrix must have shape ({n}, {cycles}), "
            f"got {matrix.shape}"
        )
    return matrix


def expand_schedule(schedule: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Flatten a ``(code, cycles)`` schedule into a per-cycle code vector."""
    if not schedule:
        raise ValueError("schedule must not be empty")
    codes = []
    for scheduled_code, cycles in schedule:
        if cycles <= 0:
            raise ValueError("each schedule entry needs >= 1 cycle")
        codes.extend([int(scheduled_code)] * int(cycles))
    return np.asarray(codes, dtype=np.int64)


class BatchPopulation:
    """The silicon a :class:`BatchEngine` simulates: N dies + their sensor.

    Bundles the per-die device arrays for the load, the per-die device
    arrays for the TDC replica (usually the same silicon), and the
    design-reference calibration table the compensation path compares
    against.
    """

    def __init__(
        self,
        load: LoadCharacteristics,
        load_devices: BatchDeviceSet,
        sensor_devices: Optional[BatchDeviceSet] = None,
        expected_counts: Optional[np.ndarray] = None,
        temperature_c: float = ROOM_TEMPERATURE_C,
    ) -> None:
        self.load = load
        self.load_devices = load_devices
        self.sensor_devices = sensor_devices or load_devices
        if self.sensor_devices.n != load_devices.n:
            raise ValueError("sensor and load populations must match in size")
        self.expected_counts = (
            None if expected_counts is None
            else np.asarray(expected_counts, dtype=float)
        )
        self.temperature_c = float(temperature_c)
        self.energy = BatchEnergyModel(load_devices, load)

    @property
    def n(self) -> int:
        """Return the population size."""
        return self.load_devices.n

    @classmethod
    def from_digital_load(
        cls,
        load: DigitalLoad,
        reference_delay_model: GateDelayModel,
        config: Optional[ControllerConfig] = None,
        sensor_delay_model: Optional[GateDelayModel] = None,
        n: int = 1,
    ) -> "BatchPopulation":
        """Lift one scalar :class:`DigitalLoad` into a batch of ``n`` clones.

        This is the constructor the scalar :class:`AdaptiveController`
        wrapper uses; the reference calibration table is characterised
        with the existing scalar :class:`TdcCalibration` so the table is
        bit-identical to the legacy path.
        """
        config = config or ControllerConfig()
        replica = sensor_delay_model or load.delay_model
        reference_tdc = TimeToDigitalConverter(
            reference_delay_model, config.tdc, temperature_c=load.temperature_c
        )
        calibration = TdcCalibration(
            reference_tdc,
            resolution_bits=config.resolution_bits,
            full_scale=config.full_scale_voltage,
        )
        return cls(
            load=load.characteristics,
            load_devices=BatchDeviceSet.from_delay_model(load.delay_model, n=n),
            sensor_devices=BatchDeviceSet.from_delay_model(replica, n=n),
            expected_counts=calibration.expected_counts,
            temperature_c=load.temperature_c,
        )

    @classmethod
    def from_samples(
        cls,
        library,
        samples,
        load: Optional[LoadCharacteristics] = None,
        corner: str = "TT",
        temperature_c: float = ROOM_TEMPERATURE_C,
        config: Optional[ControllerConfig] = None,
    ) -> "BatchPopulation":
        """Build a Monte Carlo fleet from variation samples.

        ``samples`` is either a list of
        :class:`~repro.devices.variation.VariationSample` or a
        :class:`~repro.devices.variation.VariationSampleBatch`; every die
        shares the library's corner technology and carries its own
        threshold shifts.
        """
        from repro.library import OperatingCondition

        config = config or ControllerConfig()
        if hasattr(samples, "nmos_vth_shift"):  # VariationSampleBatch
            nmos = np.asarray(samples.nmos_vth_shift, dtype=float)
            pmos = np.asarray(samples.pmos_vth_shift, dtype=float)
        else:
            nmos = np.array([s.nmos_vth_shift for s in samples], dtype=float)
            pmos = np.array([s.pmos_vth_shift for s in samples], dtype=float)
        condition = OperatingCondition(corner=corner, temperature_c=temperature_c)
        technology = library.technology_at(condition)
        devices = BatchDeviceSet.from_technology(
            technology,
            library.reference_delay_model.delay_constant,
            nmos_vth_shifts=nmos,
            pmos_vth_shifts=pmos,
        )
        reference_tdc = TimeToDigitalConverter(
            library.reference_delay_model, config.tdc, temperature_c=temperature_c
        )
        calibration = TdcCalibration(
            reference_tdc,
            resolution_bits=config.resolution_bits,
            full_scale=config.full_scale_voltage,
        )
        return cls(
            load=load or library.ring_oscillator_load,
            load_devices=devices,
            expected_counts=calibration.expected_counts,
            temperature_c=temperature_c,
        )

    @classmethod
    def from_corners(
        cls,
        library,
        corners: Sequence[str],
        load: Optional[LoadCharacteristics] = None,
        temperature_c: float = ROOM_TEMPERATURE_C,
        config: Optional[ControllerConfig] = None,
    ) -> "BatchPopulation":
        """Build one die per process corner (SS/TT/FS sweep population)."""
        if not corners:
            raise ValueError("corners must not be empty")
        from repro.library import OperatingCondition

        config = config or ControllerConfig()
        technologies = [
            library.technology_at(
                OperatingCondition(corner=corner, temperature_c=temperature_c)
            )
            for corner in corners
        ]
        devices = BatchDeviceSet.from_technologies(
            technologies, library.reference_delay_model.delay_constant
        )
        reference_tdc = TimeToDigitalConverter(
            library.reference_delay_model, config.tdc,
            temperature_c=temperature_c,
        )
        calibration = TdcCalibration(
            reference_tdc,
            resolution_bits=config.resolution_bits,
            full_scale=config.full_scale_voltage,
        )
        return cls(
            load=load or library.ring_oscillator_load,
            load_devices=devices,
            expected_counts=calibration.expected_counts,
            temperature_c=temperature_c,
        )

    def shard(self, index) -> "BatchPopulation":
        """Return a die shard of this population.

        For a slice, device arrays are numpy views onto the parent
        population (safe: they are never mutated); an index array
        gathers copies of its rows.  The reference calibration table, load
        description and temperature are shared.  Because every per-die
        quantity the engine computes is elementwise across dies, a
        shard's simulation is bit-identical to the same dies inside the
        full population — the invariant the fleet executor's
        deterministic merge rests on.
        """
        sensor = (
            None
            if self.sensor_devices is self.load_devices
            else self.sensor_devices.shard(index)
        )
        return BatchPopulation(
            load=self.load,
            load_devices=self.load_devices.shard(index),
            sensor_devices=sensor,
            expected_counts=self.expected_counts,
            temperature_c=self.temperature_c,
        )


DEVICE_MODELS = ("exact", "tabulated")
"""How the engine answers per-cycle device queries: ``"exact"`` runs the
full EKV pipeline (bit-identical to the scalar stack), ``"tabulated"``
interpolates precomputed :class:`~repro.engine.response_tables.ResponseTables`."""

STEP_KERNELS = ("fused",)
"""Cycle-loop implementations: the preallocated-scratch / ring-buffer
:class:`~repro.engine.kernels.CycleKernel`.  Kept as a one-value field
because requests, wire payloads and persisted cache keys carry it."""


class BatchEngine:
    """Vectorised closed-loop simulator of N adaptive controllers."""

    def __init__(
        self,
        population: BatchPopulation,
        lut: Union[VoltageLut, Sequence[int]],
        config: Optional[ControllerConfig] = None,
        compensation_enabled: bool = True,
        feedback_mode: FeedbackMode = FeedbackMode.VOLTAGE_SENSE,
        nominal_throughput: Optional[float] = None,
        averaging_window: int = 4,
        initial_correction=None,
        enabled_segments: Optional[int] = None,
        log_corrections: bool = False,
        device_model: str = "exact",
        step_kernel: str = "fused",
        response_tables=None,
        table_points: Optional[int] = None,
    ) -> None:
        if device_model not in DEVICE_MODELS:
            raise ValueError(
                f"device_model must be one of {DEVICE_MODELS}, "
                f"got {device_model!r}"
            )
        if step_kernel not in STEP_KERNELS:
            raise ValueError(
                f"step_kernel must be one of {STEP_KERNELS}, "
                f"got {step_kernel!r}"
            )
        self.population = population
        self.config = config or ControllerConfig()
        self.compensation_enabled = compensation_enabled
        self.feedback_mode = feedback_mode
        self.nominal_throughput = nominal_throughput
        self.device_model = device_model
        self.step_kernel = step_kernel
        self._response_tables = response_tables
        self._table_points = table_points
        self._response = None
        self._kernel = None
        # The FIFO *capacity* comes from the controller config; the LUT
        # carries its own (possibly different) depth that only scales the
        # occupancy-to-bin mapping — exactly like the scalar stack, where
        # Fifo(depth=config.fifo_depth) and VoltageLut.bin_for disagree
        # when a LUT was programmed for another depth.
        self.fifo_depth = self.config.fifo_depth
        if isinstance(lut, VoltageLut):
            entries = lut.raw_entries()
            if initial_correction is None:
                initial_correction = lut.correction
            self.lut_fifo_depth = lut.fifo_depth
        else:
            entries = list(lut)
            self.lut_fifo_depth = self.config.fifo_depth
        self.lut_entries = np.asarray(entries, dtype=np.int64)
        if self.lut_entries.size == 0:
            raise ValueError("the LUT needs at least one entry")
        if feedback_mode is FeedbackMode.DELAY_SERVO or compensation_enabled:
            if population.expected_counts is None:
                raise ValueError(
                    "population needs a reference calibration table for "
                    "compensation or delay-servo feedback"
                )
        # The resolved power-on correction (LUT default unless the
        # caller overrode it) is kept so :meth:`reset` can restore the
        # exact cold-construction state without re-resolving the LUT.
        self._initial_correction = (
            0 if initial_correction is None else initial_correction
        )
        self.state = BatchState.initial(
            population.n,
            self.config,
            averaging_window=averaging_window,
            initial_correction=self._initial_correction,
        )
        # r_on of the power array for this run.  Segment selection happens
        # before a run (PowerTransistorArray.select_for_load), never inside
        # the cycle loop, so the enabled count is a per-run constant — but
        # it must reflect whatever the caller configured, not always the
        # full array.
        segments = (
            self.config.power_stage.segments
            if enabled_segments is None
            else max(1, min(self.config.power_stage.segments, int(enabled_segments)))
        )
        self._r_on = self.config.power_stage.segment_on_resistance / segments
        self._max_code = (1 << self.config.resolution_bits) - 1
        self._log_corrections = bool(log_corrections)
        self.correction_log: list = []
        """Snapshots of ``state.lut_correction`` taken at every cycle a
        correction was applied, in order — a sparse change log that lets
        wrappers replay LUT correction history without a dense trace.
        Only populated with ``log_corrections=True`` (the batch-of-one
        controller wrapper sets it); population-scale runs keep it off
        so a pathologically oscillating fleet cannot grow it without
        bound and defeat the streaming sinks' fixed memory footprint."""

    # ------------------------------------------------------------------
    # State, device response and sensor
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Return the population size."""
        return self.population.n

    def adopt_state(self, state: BatchState) -> None:
        """Replace the engine's state with an externally owned one.

        The process fleet backend swaps in shared-memory shard *views*
        so worker writes land in the parent's arrays; the scalar wrapper
        and tests may swap in copies.  The state must cover the same
        population — the step loop reads ``self.state`` afresh every
        cycle, so adoption is effective immediately.
        """
        if state.n != self.n:
            raise ValueError(
                f"state covers {state.n} dies, engine simulates {self.n}"
            )
        self.state = state
        if self._kernel is not None:
            self._kernel.rebind()

    def reset(
        self,
        population: Optional[BatchPopulation] = None,
        initial_correction=None,
        response_tables=None,
    ) -> None:
        """Return the engine to its cold-construction state, in place.

        The reuse contract behind persistent fleets and warm service
        engines: after ``reset()`` the next run is bit-identical to the
        run a freshly constructed engine would produce.  ``population``
        swaps in new silicon of the **same size** (device-response and
        kernel caches are invalidated; pass ``response_tables`` to reuse
        precomputed tables, else tabulated engines rebuild lazily).
        ``initial_correction`` overrides the per-die power-on correction;
        ``None`` restores the value resolved at construction (the LUT
        default).

        State arrays are reinitialised **in place** — the state object
        (possibly a shared-memory shard view adopted via
        :meth:`adopt_state`) keeps its identity and its backing buffers,
        so process-fleet workers attached to the same block observe the
        reset without re-attaching.
        """
        if population is not None:
            if population.n != self.n:
                raise ValueError(
                    f"replacement population covers {population.n} dies, "
                    f"engine simulates {self.n}"
                )
            if (
                self.feedback_mode is FeedbackMode.DELAY_SERVO
                or self.compensation_enabled
            ) and population.expected_counts is None:
                raise ValueError(
                    "population needs a reference calibration table for "
                    "compensation or delay-servo feedback"
                )
            self.population = population
            self._response_tables = response_tables
            self._response = None
            self._kernel = None
        elif response_tables is not None:
            self._response_tables = response_tables
            self._response = None
            self._kernel = None
        if initial_correction is None:
            initial_correction = self._initial_correction
        fresh = BatchState.initial(
            self.n,
            self.config,
            averaging_window=self.state.history.shape[1],
            initial_correction=initial_correction,
        )
        state = self.state
        for name in STATE_ARRAY_FIELDS:
            getattr(state, name)[...] = getattr(fresh, name)
        state.apply_scalars(fresh.scalar_fields())
        self.correction_log.clear()
        if self._kernel is not None:
            self._kernel.rebind()

    @property
    def response(self):
        """Return the device-response model answering per-cycle queries.

        Built lazily: ``"exact"`` wraps the population's
        :class:`~repro.engine.device_math.BatchEnergyModel` directly;
        ``"tabulated"`` builds (or adopts a pre-sharded set of)
        :class:`~repro.engine.response_tables.ResponseTables`.
        """
        if self._response is None:
            from repro.engine.response_tables import (
                ExactDeviceResponse,
                ResponseTables,
            )

            if self.device_model == "tabulated":
                tables = self._response_tables
                if tables is None:
                    tables = ResponseTables.from_population(
                        self.population,
                        self.config,
                        nominal_throughput=self.nominal_throughput,
                        points=self._table_points,
                    )
                if tables.n != self.n:
                    raise ValueError(
                        "response tables cover a different population size"
                    )
                self._response = tables
            else:
                self._response = ExactDeviceResponse(
                    self.population.energy,
                    self.population.temperature_c,
                    nominal_throughput=self.nominal_throughput,
                )
        return self._response

    def _measure_tdc(self, vout: np.ndarray):
        cfg = self.config.tdc
        return batch_measure_tdc_counts(
            self.population.sensor_devices,
            vout,
            self.population.temperature_c,
            cfg.measurement_window,
            cfg.max_count,
            cfg.minimum_supply,
        )

    # ------------------------------------------------------------------
    # One system cycle
    # ------------------------------------------------------------------
    def step(
        self,
        arriving: np.ndarray,
        scheduled_codes: Optional[np.ndarray] = None,
    ) -> dict:
        """Advance every die by one system cycle.

        ``arriving`` is the per-die input sample count for this cycle;
        ``scheduled_codes`` bypasses the rate controller with an explicit
        desired word per die (Fig. 6 schedule mode).  Returns the
        telemetry row as a dict of ``(N,)`` arrays; row arrays are live
        views that the **next** ``step`` call overwrites (sinks copy what
        they keep).  Runs the fused
        :class:`~repro.engine.kernels.CycleKernel`.
        """
        if self._kernel is None:
            from repro.engine.kernels import CycleKernel

            self._kernel = CycleKernel(self)
        return self._kernel.step(arriving, scheduled_codes)

    # ------------------------------------------------------------------
    # Run loops
    # ------------------------------------------------------------------
    def _arrival_matrix(self, arrivals: ArrivalsLike, cycles: int) -> np.ndarray:
        """Normalise the arrivals argument to an ``(N, cycles)`` int matrix."""
        return normalise_arrivals(
            arrivals,
            cycles,
            self.n,
            self.config.system_cycle_period,
            start_cycle=self.state.cycles,
        )

    def run(
        self,
        arrivals: ArrivalsLike,
        system_cycles: int,
        scheduled_codes: Optional[np.ndarray] = None,
        sink: Optional[TraceSink] = None,
    ):
        """Run the closed loop for ``system_cycles`` cycles on all dies.

        ``arrivals`` may be an ``(N, cycles)`` matrix, a shared
        ``(cycles,)`` vector, a scalar arrival callable
        ``f(time, period) -> int``, or ``None`` (no input traffic).
        ``scheduled_codes`` optionally bypasses the rate controller with
        per-cycle scheduled words, shape ``(cycles,)`` or ``(N, cycles)``.
        ``sink`` selects the telemetry layer: ``None`` keeps the default
        dense recording and returns a :class:`BatchTrace`; a
        :class:`~repro.engine.trace.StreamingTrace` bounds telemetry
        memory for very long runs; a
        :class:`~repro.engine.trace.NullTrace` records nothing.  The run
        returns ``sink.result()``.
        """
        if system_cycles <= 0:
            raise ValueError("system_cycles must be positive")
        matrix = self._arrival_matrix(arrivals, system_cycles)
        schedule = None
        if scheduled_codes is not None:
            schedule = np.asarray(scheduled_codes, dtype=np.int64)
            if schedule.ndim == 1:
                schedule = np.broadcast_to(schedule, (self.n, system_cycles))
            if schedule.shape != (self.n, system_cycles):
                raise ValueError("scheduled_codes shape mismatch")
        if sink is None:
            sink = DenseTrace()
        sink.begin(system_cycles, self.n)
        for i in range(system_cycles):
            row = self.step(
                matrix[:, i],
                None if schedule is None else schedule[:, i],
            )
            sink.record(row)
        return sink.result()

    def run_schedule(
        self,
        schedule: Sequence[Tuple[int, int]],
        arrivals: ArrivalsLike = None,
        sink: Optional[TraceSink] = None,
    ):
        """Drive an explicit ``(code, cycles)`` schedule on every die."""
        codes = expand_schedule(schedule)
        return self.run(
            arrivals, len(codes), scheduled_codes=codes, sink=sink
        )
