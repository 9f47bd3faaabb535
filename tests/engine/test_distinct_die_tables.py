"""Response tables are built once per distinct die, bit for bit.

``ResponseTables.from_population`` groups dies whose load and sensor
device parameters are byte-identical, builds the channel tables and the
TDC staircase for one die of each group, and gathers the rows back.
Every case here pins the gathered tables bit-equal to building each die
on its own, and checks the build really ran once per distinct die.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.config import ControllerConfig
from repro.core.rate_controller import program_lut_for_load
from repro.engine import (
    BatchEngine,
    BatchPopulation,
    FleetConfig,
    FleetEngine,
    ResponseTables,
)
from repro.engine import response_tables
from repro.engine.device_math import BatchDeviceSet
from repro.engine.response_tables import distinct_dies
from repro.library import OperatingCondition

CONFIG = ControllerConfig()


def population_from_shifts(library, nmos, pmos, sensor=None):
    population = BatchPopulation.from_samples(
        library,
        SimpleNamespace(
            nmos_vth_shift=np.asarray(nmos, dtype=float),
            pmos_vth_shift=np.asarray(pmos, dtype=float),
        ),
    )
    if sensor is None:
        return population
    sensor_devices = BatchDeviceSet.from_technology(
        library.technology_at(OperatingCondition(corner="TT")),
        library.reference_delay_model.delay_constant,
        nmos_vth_shifts=np.asarray(sensor[0], dtype=float),
        pmos_vth_shifts=np.asarray(sensor[1], dtype=float),
    )
    return BatchPopulation(
        load=population.load,
        load_devices=population.load_devices,
        sensor_devices=sensor_devices,
        expected_counts=population.expected_counts,
        temperature_c=population.temperature_c,
    )


def table_arrays(tables):
    arrays = dict(tables._tables)
    arrays["tdc.code_breaks"] = tables.tdc.code_breaks
    arrays["tdc.positive_break"] = tables.tdc.positive_break
    arrays["tdc.saturation_break"] = tables.tdc.saturation_break
    return arrays


def per_row_tables(population):
    """Each die built alone: the oracle the grouped build must match."""
    return [
        ResponseTables.from_population(population.shard(slice(i, i + 1)), CONFIG)
        for i in range(population.n)
    ]


def assert_bit_equal_to_per_row(tables, population):
    arrays = table_arrays(tables)
    for name, array in arrays.items():
        assert array.flags.c_contiguous, name
        assert array.shape[0] == population.n, name
    for i, single in enumerate(per_row_tables(population)):
        for name, expected in table_arrays(single).items():
            np.testing.assert_array_equal(
                arrays[name][i].view(np.uint64),
                expected[0].view(np.uint64),
                err_msg=f"{name} row {i}",
            )
        assert single.tdc.base_code == tables.tdc.base_code
        assert single.tdc.minimum_supply == tables.tdc.minimum_supply


@pytest.fixture
def build_sizes(monkeypatch):
    """Record the population size of every table build that runs."""
    sizes = []
    original = ResponseTables.__init__

    def recording(self, energy, *args, **kwargs):
        sizes.append(energy.n)
        original(self, energy, *args, **kwargs)

    monkeypatch.setattr(ResponseTables, "__init__", recording)
    return sizes


A, B, C = 0.012, -0.007, 0.021


def test_non_adjacent_duplicates(library, build_sizes):
    population = population_from_shifts(
        library, [A, B, A, C, B, A], [C, A, C, B, A, C]
    )
    first, inverse = distinct_dies(population)
    assert first.size == 3
    np.testing.assert_array_equal(inverse[[0, 2, 5]], inverse[0])
    np.testing.assert_array_equal(inverse[[1, 4]], inverse[1])
    tables = ResponseTables.from_population(population, CONFIG)
    assert build_sizes == [3]
    assert_bit_equal_to_per_row(tables, population)


def test_all_distinct_is_a_single_full_build(library, build_sizes):
    population = population_from_shifts(library, [A, B, C], [C, B, A])
    tables = ResponseTables.from_population(population, CONFIG)
    assert build_sizes == [3]
    assert_bit_equal_to_per_row(tables, population)


def test_all_identical(library, build_sizes):
    population = population_from_shifts(library, [B] * 5, [A] * 5)
    tables = ResponseTables.from_population(population, CONFIG)
    assert build_sizes == [1]
    assert_bit_equal_to_per_row(tables, population)


def test_sensor_devices_that_differ_from_load_devices(library, build_sizes):
    """Equal load silicon with different sensor silicon stays apart."""
    population = population_from_shifts(
        library, [A, A, A, B], [B, B, B, C], sensor=([A, C, A, A], [B, B, B, C])
    )
    first, _ = distinct_dies(population)
    assert first.size == 3
    tables = ResponseTables.from_population(population, CONFIG)
    assert build_sizes == [3]
    assert_bit_equal_to_per_row(tables, population)


def test_signed_zero_shift_pair(library):
    """A -0.0/+0.0 shift pair gets the tables each would get alone."""
    population = population_from_shifts(
        library, [0.0, -0.0, 0.0], [-0.0, 0.0, 0.0]
    )
    tables = ResponseTables.from_population(population, CONFIG)
    assert_bit_equal_to_per_row(tables, population)


def test_mixed_corners_like_a_service_batch(library):
    corners = ["SS", "TT", "SS", "FF", "TT", "SS"]
    shifts = np.array([A, A, A, B, A, A])
    technologies = [
        library.technology_at(OperatingCondition(corner=c, temperature_c=60.0))
        for c in corners
    ]
    devices = BatchDeviceSet.from_technologies(
        technologies,
        library.reference_delay_model.delay_constant,
        nmos_vth_shifts=shifts,
        pmos_vth_shifts=-shifts,
    )
    base = BatchPopulation.from_corners(library, ["TT"], temperature_c=60.0)
    population = BatchPopulation(
        load=base.load,
        load_devices=devices,
        expected_counts=base.expected_counts,
        temperature_c=60.0,
    )
    assert distinct_dies(population)[0].size == 3
    tables = ResponseTables.from_population(population, CONFIG)
    assert_bit_equal_to_per_row(tables, population)


def test_grouped_tables_shard_and_cross_shared_memory(library):
    """Gathered tables shard into row views and run a process fleet
    (shared-memory table export) bit-identically to one batch."""
    nmos = [A, B, A, C, B, A, C]
    population = population_from_shifts(library, nmos, list(reversed(nmos)))
    tables = ResponseTables.from_population(population, CONFIG)
    shard = tables.shard(slice(2, 5))
    for name, array in table_arrays(shard).items():
        assert np.shares_memory(array, table_arrays(tables)[name]), name
        np.testing.assert_array_equal(array, table_arrays(tables)[name][2:5])

    lut = program_lut_for_load(
        DigitalLoad(library.ring_oscillator_load, library.reference_delay_model),
        sample_rate=1e5,
    )
    arrivals = np.random.default_rng(3).poisson(0.3, size=(population.n, 60))
    reference = BatchEngine(
        population, lut=lut, device_model="tabulated"
    ).run(arrivals, 60)
    with FleetEngine(
        population,
        lut,
        fleet=FleetConfig(executor="process", workers=2, shard_size=3),
        device_model="tabulated",
        response_tables=tables,
    ) as fleet:
        result = fleet.run(arrivals, 60)
    for channel in ("output_voltages", "energies", "lut_corrections", "decisions"):
        np.testing.assert_array_equal(
            getattr(result, channel), getattr(reference, channel), err_msg=channel
        )


def test_distinct_dies_keys_every_parameter(library):
    """A die differing only in a temperature coefficient is distinct."""
    population = population_from_shifts(library, [A, A], [B, B])
    coefficient = population.load_devices.temperature.vth_temperature_coefficient
    coefficient[1] = np.nextafter(coefficient[1], 1.0)
    assert distinct_dies(population)[0].size == 2


def test_bisection_stops_only_at_a_fixed_point(monkeypatch):
    """The early exit returns what the full budget would."""
    calls = []
    target = np.array([[0.3, 0.71, 1e-9]])

    def crossed(v):
        calls.append(1)
        return v >= target

    lo = np.zeros((1, 3))
    hi = np.ones((1, 3))
    early = response_tables.bisect(crossed, lo, hi, 200)
    assert len(calls) < 200
    reference_lo, reference_hi = lo, hi
    for _ in range(200):
        mid = 0.5 * (reference_lo + reference_hi)
        hit = mid >= target
        reference_hi = np.where(hit, mid, reference_hi)
        reference_lo = np.where(hit, reference_lo, mid)
    np.testing.assert_array_equal(
        early.view(np.uint64), reference_hi.view(np.uint64)
    )
