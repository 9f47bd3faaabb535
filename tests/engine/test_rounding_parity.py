"""Rounding parity between the scalar and batch paths at .5 boundaries.

Audit result, pinned by these tests: **both** paths round half-integers
to even ("banker's rounding") everywhere a real-valued quantity becomes
a digital word —

* Python's built-in ``round()`` (used by ``core/dcdc.py`` duty preset,
  ``digital/signals.voltage_to_code`` and the scalar rate controller's
  occupancy average) rounds half to even on binary floats, and
* ``np.rint`` (used by the engine's :class:`CycleKernel`
  ``_rate_decision``, ``_sense_codes`` and duty preset) implements the
  same IEEE round-half-to-even.

So a half-integer average of 2.5 maps to code 2 (not 3) on *both*
paths.  These tests construct inputs that land exactly on .5 and assert
the two paths agree value-for-value, so any future change to either
rounding primitive fails loudly instead of silently breaking the
engine's bit-exactness guarantee.
"""

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.config import ControllerConfig, PowerStageConfig
from repro.core.controller import AdaptiveController
from repro.core.rate_controller import RateController, program_lut_for_load
from repro.digital.signals import voltage_to_code
from repro.engine import BatchEngine, BatchPopulation
from repro.engine.kernels import CycleKernel
from repro.library import OperatingCondition


@pytest.fixture(scope="module")
def reference_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


class TestRoundingConvention:
    def test_half_integers_round_to_even_on_both_primitives(self):
        halves = np.arange(-6, 7) + 0.5  # ..., -0.5, 0.5, 1.5, ...
        for value in halves:
            assert int(round(float(value))) == int(np.rint(value)), value
        # Pin the convention itself, not just the agreement: ties to even.
        assert int(np.rint(0.5)) == 0
        assert int(np.rint(1.5)) == 2
        assert int(np.rint(2.5)) == 2
        assert int(np.rint(3.5)) == 4
        assert int(round(2.5)) == 2
        assert int(round(3.5)) == 4


class TestRateControllerAveraging:
    def test_half_integer_occupancy_averages_agree(
        self, library, reference_lut
    ):
        """Feed both paths a queue-length sequence whose running window
        averages hit exact halves (1, 1.5, 1.0, 1.5, 1.75, ...)."""
        queue_lengths = [1, 2, 0, 3, 2, 1, 4, 1, 0, 5, 2, 2]
        scalar = RateController(reference_lut)
        scalar_codes = [
            scalar.evaluate(q).desired_code for q in queue_lengths
        ]
        saw_half = any(
            (sum(queue_lengths[max(0, i - 3): i + 1])
             / len(queue_lengths[max(0, i - 3): i + 1])) % 1 == 0.5
            for i in range(len(queue_lengths))
        )
        assert saw_half, "sequence must exercise a .5 average"
        engine = BatchEngine(
            BatchPopulation.from_digital_load(
                DigitalLoad(
                    library.ring_oscillator_load,
                    library.reference_delay_model,
                ),
                library.reference_delay_model,
            ),
            lut=reference_lut,
        )
        kernel = CycleKernel(engine)
        batch_codes = []
        for q in queue_lengths:
            engine.state.queue_length[:] = q
            kernel._rate_decision()
            batch_codes.append(int(kernel.scratch.out_desired[0]))
        assert batch_codes == scalar_codes


class TestDutyPresetRounding:
    def test_half_integer_duty_estimates_agree(self):
        """With a 2.4 V battery every odd desired code puts the duty
        estimate exactly on a half-integer: the batch preset must match
        the scalar preset code for code (ties to even)."""
        config = ControllerConfig(
            power_stage=PowerStageConfig(battery_voltage=2.4)
        )
        bits = config.resolution_bits
        max_code = (1 << bits) - 1
        exact_halves = 0
        for desired in range(max_code + 1):
            desired_voltage = (
                desired * config.full_scale_voltage / (1 << bits)
            )
            estimate = (
                desired_voltage / config.power_stage.battery_voltage
            )
            scalar_duty = int(round(estimate * (1 << bits)))
            batch_duty = int(np.rint(estimate * (1 << bits)))
            assert scalar_duty == batch_duty, desired
            if (estimate * (1 << bits)) % 1 == 0.5:
                # Exact .5 (most odd codes; 1.2 V is not binary-exact,
                # so a few odd codes fall a ULP off): pin ties-to-even.
                exact_halves += 1
                assert batch_duty % 2 == 0, desired
        assert exact_halves >= 20

    def test_closed_loop_parity_with_half_integer_presets(self, library):
        """Integration: a full schedule run under the 2.4 V battery
        (every odd code a .5 preset) stays cycle-identical between the
        reference loop and the engine."""
        config = ControllerConfig(
            power_stage=PowerStageConfig(battery_voltage=2.4)
        )

        def make():
            reference = library.reference_delay_model
            silicon = library.delay_model(OperatingCondition(corner="SS"))
            lut = program_lut_for_load(
                DigitalLoad(library.ring_oscillator_load, reference),
                sample_rate=1e5,
            )
            return AdaptiveController(
                load=DigitalLoad(library.ring_oscillator_load, silicon),
                lut=lut,
                reference_delay_model=reference,
                config=config,
            )

        schedule = [(5, 60), (19, 60), (33, 60)]  # odd codes: .5 presets
        reference_trace = make().run_schedule_reference(schedule)
        engine_trace = make().run_schedule(schedule)
        np.testing.assert_array_equal(
            engine_trace.duty_values, reference_trace.duty_values
        )
        np.testing.assert_allclose(
            engine_trace.output_voltages,
            reference_trace.output_voltages,
            rtol=1e-12,
            atol=0.0,
        )


class TestSenseCodeRounding:
    def test_voltage_quantisation_agrees_across_paths(
        self, library, reference_lut
    ):
        """voltage_to_code (scalar sense path) and the engine's
        _sense_codes expression must agree on a dense voltage sweep that
        includes every code-boundary midpoint."""
        config = ControllerConfig()
        bits = config.resolution_bits
        full_scale = config.full_scale_voltage
        # Code-boundary midpoints ((k + 0.5) LSB) plus a dense sweep.
        midpoints = (np.arange(64) + 0.5) * full_scale / (1 << bits)
        sweep = np.linspace(0.0, full_scale, 1201)
        voltages = np.concatenate([midpoints, sweep])
        engine = BatchEngine(
            BatchPopulation.from_digital_load(
                DigitalLoad(
                    library.ring_oscillator_load,
                    library.reference_delay_model,
                ),
                library.reference_delay_model,
                n=voltages.size,
            ),
            lut=reference_lut,
        )
        batch_codes = CycleKernel(engine)._sense_codes(
            voltages, out=np.empty(voltages.size, dtype=np.int64)
        )
        scalar_codes = [
            voltage_to_code(float(v), bits, full_scale) for v in voltages
        ]
        assert batch_codes.tolist() == scalar_codes
