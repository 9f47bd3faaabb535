"""Tolerance-pinned parity of ``device_model="tabulated"`` vs ``"exact"``.

The tabulated response trades the bit-exact EKV pipeline for per-die
interpolants; these tests pin how much it is allowed to drift:

* the minimum energy point recovered from the tables sits within one
  table grid step of the exact model's,
* a closed-loop Monte Carlo run converges to the same final voltage to
  tight rtol,
* the corner-sweep population (the PR-2 closed-loop corner analysis)
  converges to **identical** LUT corrections — the TDC staircase is
  tabulated at its exact step positions, not interpolated.
"""

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.config import ControllerConfig
from repro.core.rate_controller import program_lut_for_load
from repro.devices.variation import MonteCarloSampler, VariationModel
from repro.engine import (
    BatchEngine,
    BatchPopulation,
    ResponseTables,
)
from repro.engine.device_math import (
    batch_measure_tdc_counts,
    codes_from_counts,
)
from repro.workloads.batch import constant_arrival_matrix


@pytest.fixture(scope="module")
def reference_lut(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    return program_lut_for_load(reference_load, sample_rate=1e5)


@pytest.fixture(scope="module")
def mc_population(library):
    samples = MonteCarloSampler(
        VariationModel(global_sigma_v=0.02), seed=31
    ).draw_arrays(12)
    return BatchPopulation.from_samples(library, samples)


@pytest.fixture(scope="module")
def mc_tables(mc_population):
    return ResponseTables.from_population(mc_population, ControllerConfig())


class TestResponseTableAccuracy:
    def test_mep_within_one_grid_step(self, mc_population, mc_tables):
        """Tabulated MEP supply within one table grid step of exact."""
        from repro.delay.mep import DEFAULT_SUPPLY_GRID

        grid = DEFAULT_SUPPLY_GRID
        n = mc_population.n
        supplies = np.broadcast_to(grid, (n, grid.size))
        exact = mc_population.energy.total_energy(
            supplies, mc_population.temperature_c
        )
        tabulated = mc_tables.total_energy(supplies)
        exact_vopt = grid[np.argmin(exact, axis=1)]
        tab_vopt = grid[np.argmin(tabulated, axis=1)]
        table_step = mc_tables.grid[1] - mc_tables.grid[0]
        assert np.all(np.abs(tab_vopt - exact_vopt) <= table_step + 1e-12)

    def test_channel_interpolation_accuracy(self, mc_population, mc_tables):
        """Every channel tracks the exact model to <= 1e-3 relative on
        the loop's operating range."""
        rng = np.random.default_rng(5)
        n = mc_population.n
        supply = rng.uniform(0.1, 1.0, size=n)
        energy = mc_population.energy
        temp = mc_population.temperature_c
        checks = {
            "current_draw": energy.current_draw(supply, temp),
            "cycle_time": energy.cycle_time(supply, temp),
            "leakage_current": energy.leakage_current(supply, temp),
            "dynamic_energy": energy.dynamic_energy(supply),
        }
        for channel, exact in checks.items():
            out = np.empty(n)
            getattr(mc_tables, channel)(supply, out=out)
            np.testing.assert_allclose(
                out, exact, rtol=1e-3, err_msg=channel
            )

    def test_shard_views_match_full_tables(self, mc_tables):
        supply = np.linspace(0.15, 0.9, mc_tables.n)
        full = mc_tables.current_draw(supply.copy())
        shard = mc_tables.shard(slice(4, 9))
        np.testing.assert_array_equal(
            shard.current_draw(supply[4:9].copy()), full[4:9]
        )

    def test_tdc_staircase_exact_with_saturating_counter(self, library):
        """A counter too narrow for the top expected counts saturates;
        the tabulated staircase must clamp exactly like the exact path
        (codes match even unmasked, as delay-servo sensing consumes
        them), including below the replica's minimum supply."""
        from repro.core.config import TdcConfig

        config = ControllerConfig(tdc=TdcConfig(counter_bits=9))
        samples = MonteCarloSampler(seed=19).draw_arrays(6)
        population = BatchPopulation.from_samples(
            library, samples, config=config
        )
        tables = ResponseTables.from_population(population, config)
        cfg = config.tdc
        rng = np.random.default_rng(23)
        for _ in range(8):
            vout = rng.uniform(0.01, 1.15, size=population.n)
            counts, reliable = batch_measure_tdc_counts(
                population.sensor_devices,
                vout,
                population.temperature_c,
                cfg.measurement_window,
                cfg.max_count,
                cfg.minimum_supply,
            )
            expected = codes_from_counts(
                population.expected_counts, counts
            )
            codes, table_reliable = tables.tdc.lookup(vout)
            np.testing.assert_array_equal(codes, expected)
            np.testing.assert_array_equal(table_reliable, reliable)

    def test_tdc_staircase_is_exact(self, mc_population, mc_tables):
        """Tabulated TDC codes/reliability == the exact measurement."""
        cfg = ControllerConfig().tdc
        rng = np.random.default_rng(11)
        for _ in range(8):
            vout = rng.uniform(0.02, 1.1, size=mc_population.n)
            counts, reliable = batch_measure_tdc_counts(
                mc_population.sensor_devices,
                vout,
                mc_population.temperature_c,
                cfg.measurement_window,
                cfg.max_count,
                cfg.minimum_supply,
            )
            expected = codes_from_counts(
                mc_population.expected_counts, counts
            )
            codes, table_reliable = mc_tables.tdc.lookup(vout)
            np.testing.assert_array_equal(table_reliable, reliable)
            np.testing.assert_array_equal(
                codes[reliable], expected[reliable]
            )


class TestClosedLoopParity:
    def test_final_voltage_within_rtol(
        self, library, reference_lut, mc_population
    ):
        cycles = 600
        arrivals = constant_arrival_matrix(
            np.full(mc_population.n, 1e5), 1e-6, cycles
        )
        exact = BatchEngine(mc_population, lut=reference_lut).run(
            arrivals, cycles
        )
        tabulated = BatchEngine(
            mc_population, lut=reference_lut, device_model="tabulated"
        ).run(arrivals, cycles)
        np.testing.assert_allclose(
            tabulated.final_voltage(), exact.final_voltage(), rtol=1e-6
        )
        np.testing.assert_allclose(
            tabulated.energy_per_operation(),
            exact.energy_per_operation(),
            rtol=1e-2,
        )

    def test_sharded_tabulated_matches_single_shard(
        self, library, reference_lut, mc_population
    ):
        """Fleet-shared table views keep the shard-merge bit-identity."""
        from repro.engine import FleetConfig, FleetEngine

        cycles = 120
        arrivals = constant_arrival_matrix(
            np.full(mc_population.n, 1e5), 1e-6, cycles
        )
        single = BatchEngine(
            mc_population, lut=reference_lut, device_model="tabulated"
        ).run(arrivals, cycles)
        sharded = FleetEngine(
            mc_population,
            reference_lut,
            fleet=FleetConfig(shard_size=5, workers=2),
            device_model="tabulated",
        ).run(arrivals, cycles)
        for channel in (
            "output_voltages",
            "desired_codes",
            "duty_values",
            "energies",
            "lut_corrections",
        ):
            np.testing.assert_array_equal(
                getattr(sharded, channel),
                getattr(single, channel),
                err_msg=channel,
            )

    def test_corner_sweep_corrections_identical(self, library):
        """PR-2 corner-sweep population: converged LUT corrections match
        the exact device model exactly."""
        from repro.analysis.sweeps import closed_loop_corner_sweep

        exact = closed_loop_corner_sweep(library, cycles=900)
        tabulated = closed_loop_corner_sweep(
            library, cycles=900, device_model="tabulated"
        )
        assert exact.lut_correction == tabulated.lut_correction
        assert any(value != 0 for value in exact.lut_correction.values())
        assert exact.settle_cycle == tabulated.settle_cycle


class TestValidation:
    def test_tabulated_requires_fused_kernel(
        self, mc_population, reference_lut
    ):
        with pytest.raises(ValueError):
            BatchEngine(
                mc_population,
                lut=reference_lut,
                device_model="tabulated",
                step_kernel="legacy",
            )

    def test_unknown_modes_rejected(self, mc_population, reference_lut):
        with pytest.raises(ValueError):
            BatchEngine(
                mc_population, lut=reference_lut, device_model="nope"
            )
        with pytest.raises(ValueError):
            BatchEngine(
                mc_population, lut=reference_lut, step_kernel="nope"
            )

    def test_mismatched_tables_rejected(
        self, library, mc_population, mc_tables, reference_lut
    ):
        small = BatchPopulation.from_samples(
            library, MonteCarloSampler(seed=3).draw_arrays(4)
        )
        engine = BatchEngine(
            small,
            lut=reference_lut,
            device_model="tabulated",
            response_tables=mc_tables,
        )
        with pytest.raises(ValueError):
            engine.run(None, 2, scheduled_codes=np.full(2, 11))


class TestTdcBisectionEarlyExit:
    def test_breakpoints_equal_the_full_budget(self, library, monkeypatch):
        """Over corners x Vth shifts x temperatures, the early-exit
        bisection returns the fixed 60-iteration breakpoints bit for bit
        (and does stop early)."""
        from repro.engine import response_tables
        from repro.engine.device_math import BatchDeviceSet
        from repro.engine.response_tables import TdcCodeTables
        from repro.library import OperatingCondition

        def full_budget(crossed, lo, hi, iterations):
            for _ in range(iterations):
                mid = 0.5 * (lo + hi)
                hit = crossed(mid)
                hi = np.where(hit, mid, hi)
                lo = np.where(hit, lo, mid)
            return hi

        early = response_tables.bisect
        iterations = []

        def counted(crossed, lo, hi, budget):
            calls = []

            def counting(supply):
                calls.append(1)
                return crossed(supply)

            result = early(counting, lo, hi, budget)
            iterations.append(len(calls))
            return result

        config = ControllerConfig()
        corners = ("TT", "SS", "FF", "SF", "FS")
        shifts = (-0.04, -0.01, 0.0, 0.015, 0.05)
        for temperature in (-20.0, 25.0, 100.0):
            pairs = [(c, s) for c in corners for s in shifts]
            devices = BatchDeviceSet.from_technologies(
                [
                    library.technology_at(
                        OperatingCondition(corner=c, temperature_c=temperature)
                    )
                    for c, _ in pairs
                ],
                library.reference_delay_model.delay_constant,
                nmos_vth_shifts=np.array([s for _, s in pairs]),
                pmos_vth_shifts=-0.5 * np.array([s for _, s in pairs]),
            )
            expected_counts = BatchPopulation.from_corners(
                library, ["TT"], temperature_c=temperature
            ).expected_counts
            tables = {}
            for name, bisect in (("early", counted), ("full", full_budget)):
                monkeypatch.setattr(response_tables, "bisect", bisect)
                tables[name] = TdcCodeTables(
                    devices,
                    temperature,
                    config.tdc,
                    expected_counts,
                    v_max=config.power_stage.battery_voltage,
                )
            for field in ("code_breaks", "positive_break", "saturation_break"):
                np.testing.assert_array_equal(
                    getattr(tables["early"], field).view(np.uint64),
                    getattr(tables["full"], field).view(np.uint64),
                    err_msg=f"{field} at {temperature} C",
                )
        assert min(iterations) < TdcCodeTables._BISECT_ITERATIONS


def test_nearest_code_equals_the_distance_matrix_argmin():
    """The running-minimum staircase inversion returns np.argmin over
    the full distance matrix: same distances, first index on ties."""
    from repro.engine.response_tables import nearest_code

    rng = np.random.default_rng(7)
    cases = [
        np.array([0.0, 0.0, 0.0, 3.0, 3.0, 7.5, 12.0]),  # duplicates
        np.array([1.0, 2.0, 4.0, 6.0]),  # exact midpoint ties
        np.array([5.0, 1.0, 9.0, 1.0]),  # unsorted
        np.array([1.0, np.nan, 3.0]),  # NaN ranks first in argmin
    ]
    for _ in range(40):
        size = int(rng.integers(1, 70))
        cases.append(np.sort(rng.integers(0, 400, size)).astype(float))
        cases.append(rng.uniform(-3.0, 403.0, size) + 1e-13)
    counts = np.arange(401, dtype=float)
    for expected in cases:
        np.testing.assert_array_equal(
            nearest_code(expected, counts),
            np.argmin(
                np.abs(expected[np.newaxis, :] - counts[:, np.newaxis]),
                axis=1,
            ),
            err_msg=str(expected),
        )
