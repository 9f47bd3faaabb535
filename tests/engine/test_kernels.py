"""Bit-identity of the fused kernel against the recorded legacy step.

The fused :class:`~repro.engine.kernels.CycleKernel` (preallocated
scratch, ``out=`` ufuncs, ring-buffered history/vote windows) must
reproduce the deleted shifted-window step **bit for bit** under the
exact device model — across partially filled windows, full windows,
and vote-collection resets (supply-ceiling resets and applied
corrections).  Each scenario below is checked against the digests that
step recorded (``goldens/legacy_step.json``, see ``conftest.py``).
These tests also pin the vectorised ``normalise_arrivals`` shape/dtype
contract.
"""

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.rate_controller import program_lut_for_load
from repro.devices.variation import MonteCarloSampler, VariationModel
from repro.engine import (
    BatchEngine,
    BatchPopulation,
    normalise_arrivals,
)
from repro.workloads import ConstantArrivals
from repro.workloads.batch import constant_arrival_matrix


@pytest.fixture(scope="module")
def reference_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


def make_engine(library, reference_lut, n=6, seed=13, **kwargs):
    samples = MonteCarloSampler(
        VariationModel(global_sigma_v=0.02), seed=seed
    ).draw_arrays(n)
    population = BatchPopulation.from_samples(library, samples)
    return BatchEngine(population, lut=reference_lut, **kwargs)


def replay(test: str) -> str:
    return (
        "pytest 'tests/engine/test_kernels.py::"
        f"TestRingVsShiftedBitIdentity::{test}'"
    )


class TestRingVsShiftedBitIdentity:
    def test_partial_window_run(self, library, reference_lut, legacy_goldens):
        """Fewer cycles than the averaging window: partial history."""
        engine = make_engine(library, reference_lut, averaging_window=8)
        arrivals = constant_arrival_matrix(np.full(6, 1e5), 1e-6, 5)
        trace = engine.run(arrivals, 5)
        assert engine.state.history_filled == 5
        legacy_goldens.check(
            "ring_vs_shifted/partial_window", [trace], engine.state,
            replay("test_partial_window_run"),
        )

    def test_full_window_closed_loop(
        self, library, reference_lut, legacy_goldens
    ):
        """Long closed loop: wrapped history ring + vote collection."""
        cycles = 500
        engine = make_engine(library, reference_lut)
        arrivals = constant_arrival_matrix(np.full(6, 1e5), 1e-6, cycles)
        trace = engine.run(arrivals, cycles)
        legacy_goldens.check(
            "ring_vs_shifted/full_window", [trace], engine.state,
            replay("test_full_window_closed_loop"),
        )

    def test_vote_reset_transitions(
        self, library, reference_lut, legacy_goldens
    ):
        """Corner dies converge to non-zero corrections: the run crosses
        vote-window fills and applied-correction resets, then a
        high-voltage schedule segment exercises the over-ceiling reset
        before dropping back into the sensing range."""
        corners = ("SS", "TT", "FS")
        population = BatchPopulation.from_corners(library, corners)
        cycles = 900
        arrivals = constant_arrival_matrix(np.full(3, 1e5), 1e-6, cycles)
        engine = BatchEngine(population, lut=reference_lut)
        trace = engine.run(arrivals, cycles)
        # The scenario must actually exercise a correction (vote reset).
        assert np.any(trace.final_correction() != 0)
        scheduled = engine.run_schedule([(47, 200), (11, 250)])
        # The first segment regulates above the signature ceiling, so
        # the over-ceiling vote reset ran while settled.
        ceiling = engine.config.signature_supply_ceiling
        assert np.any(scheduled.output_voltages > ceiling)
        legacy_goldens.check(
            "ring_vs_shifted/vote_reset", [trace, scheduled], engine.state,
            replay("test_vote_reset_transitions"),
        )

    def test_schedule_mode_and_sequential_runs(
        self, library, reference_lut, legacy_goldens
    ):
        """Ring state carries across sequential runs exactly."""
        engine = make_engine(library, reference_lut)
        first = engine.run(ConstantArrivals(1e5), 150)
        second = engine.run_schedule([(19, 80), (11, 90)])
        legacy_goldens.check(
            "ring_vs_shifted/sequential_runs", [first, second], engine.state,
            replay("test_schedule_mode_and_sequential_runs"),
        )

    def test_row_arrays_stable_until_next_step(self, library, reference_lut):
        """A recorded row must not change before the following step."""
        engine = make_engine(library, reference_lut)
        row = engine.step(np.full(6, 3, dtype=np.int64))
        snapshot = {key: np.copy(value) for key, value in row.items()}
        for key, value in snapshot.items():
            np.testing.assert_array_equal(row[key], value, err_msg=key)


class TestNormaliseArrivals:
    def test_callable_matches_sequential_reference(self):
        """The vectorised path must call the (stateful) process in cycle
        order and truncate like the old per-cycle int()."""
        cycles, period = 37, 1e-6
        matrix = normalise_arrivals(
            ConstantArrivals(3.3e5), cycles, 4, period, start_cycle=11
        )
        reference_process = ConstantArrivals(3.3e5)
        reference = [
            int(reference_process((11 + i) * period, period))
            for i in range(cycles)
        ]
        assert matrix.shape == (4, cycles)
        assert matrix.dtype == np.int64
        np.testing.assert_array_equal(matrix[0], reference)
        # Every row is the same shared stream (zero-copy broadcast).
        np.testing.assert_array_equal(matrix, np.tile(reference, (4, 1)))
        assert matrix.base is not None

    def test_vector_and_matrix_shapes_pinned(self):
        vector = np.arange(5)
        matrix = normalise_arrivals(vector, 5, 3, 1e-6)
        assert matrix.shape == (3, 5)
        assert matrix.dtype == np.int64
        full = normalise_arrivals(np.ones((3, 5)), 5, 3, 1e-6)
        assert full.shape == (3, 5)
        assert full.dtype == np.int64
        none = normalise_arrivals(None, 4, 2, 1e-6)
        assert none.shape == (2, 4)
        assert none.dtype == np.int64
        assert not none.any()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            normalise_arrivals(np.arange(3), 5, 2, 1e-6)
        with pytest.raises(ValueError):
            normalise_arrivals(np.ones((4, 5)), 5, 2, 1e-6)
