"""The compiled tabulated step: build cache, selection, binding, edges.

The differential fuzz (``test_differential_fuzz.py``) pins the compiled
step bit-identical to the numpy step over random scenarios.  These tests
cover what random scenarios rarely reach — supplies exactly on a TDC
breakpoint or a clamp, saturated signatures, ready vote windows — and
the machinery around the C function: the on-disk cache, the fallback
when no library loads, and re-binding when an engine's state changes.
"""

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.dcdc import FeedbackMode
from repro.core.rate_controller import program_lut_for_load
from repro.engine import BatchEngine, BatchPopulation
from repro.engine import compiled_step
from repro.engine.state import STATE_ARRAY_FIELDS, BatchState
from repro.testing import compiled_step_available, numpy_tabulated_step

ROW_CHANNELS = (
    "queue_length", "desired_code", "output_voltage", "duty_value",
    "operations_completed", "samples_dropped", "energy", "lut_correction",
    "decision",
)


@pytest.fixture(scope="module")
def lut(library):
    return program_lut_for_load(
        DigitalLoad(library.ring_oscillator_load, library.reference_delay_model),
        sample_rate=1e5,
    )


@pytest.fixture
def require_compiled():
    if not compiled_step_available():
        pytest.skip("compiled tabulated step unavailable (no C compiler)")


def population(library, n, spread):
    from types import SimpleNamespace

    shifts = np.linspace(-spread, spread, n)
    return BatchPopulation.from_samples(
        library,
        SimpleNamespace(nmos_vth_shift=shifts, pmos_vth_shift=-shifts[::-1]),
    )


def engine_pair(pop, lut, **kwargs):
    """(numpy-step engine, compiled-step engine) with built kernels."""
    engines = []
    for numpy_step in (True, False):
        engine = BatchEngine(pop, lut=lut, device_model="tabulated", **kwargs)
        if numpy_step:
            with numpy_tabulated_step():
                engine.run(None, 1)
        else:
            engine.run(None, 1)
        engine.reset()
        engines.append(engine)
    assert engines[0]._kernel._compiled is None
    assert engines[1]._kernel._compiled is not None
    return engines


def assert_same_bits(a, b, label):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, label
    if a.dtype.kind == "f":
        a, b = a.view(np.uint64), b.view(np.uint64)
    np.testing.assert_array_equal(a, b, err_msg=label)


def step_both(engines, arriving, cycles, label, scheduled=None):
    for cycle in range(cycles):
        rows = [
            engine.step(arriving, None if scheduled is None else scheduled)
            for engine in engines
        ]
        for channel in ROW_CHANNELS:
            assert_same_bits(
                rows[0][channel], rows[1][channel],
                f"{channel} cycle {cycle} {label}",
            )
        assert rows[0]["time"] == rows[1]["time"]
    for name in STATE_ARRAY_FIELDS:
        assert_same_bits(
            getattr(engines[0].state, name),
            getattr(engines[1].state, name),
            f"state.{name} {label}",
        )
    assert engines[0].state.scalar_fields() == engines[1].state.scalar_fields()


@pytest.mark.parametrize(
    "feedback", [FeedbackMode.VOLTAGE_SENSE, FeedbackMode.DELAY_SERVO]
)
def test_edge_states_bit_identical(library, lut, feedback, require_compiled):
    """Supplies exactly on breakpoints and clamps, primed vote windows
    and out-of-range words step identically on both steps."""
    # +-0.3 V shifts drive voltage-sense signatures into their +-8 clamp.
    pop = population(library, n=24, spread=0.3)
    engines = engine_pair(
        pop, lut, feedback_mode=feedback, log_corrections=True,
        compensation_enabled=feedback is FeedbackMode.VOLTAGE_SENSE,
    )
    tdc = engines[1].response.tdc
    battery = engines[1].config.power_stage.battery_voltage
    rng = np.random.default_rng(5)
    for trial in range(6):
        supplies = np.concatenate(
            [
                tdc.code_breaks[np.arange(pop.n), rng.integers(
                    0, tdc.code_breaks.shape[1], pop.n
                )][: pop.n - 4],
                [0.0, tdc.minimum_supply, battery, 0.05],
            ]
        )
        supplies = np.where(np.isfinite(supplies), supplies, 0.3)
        currents = rng.uniform(-1e-3, 1e-3, pop.n)
        votes = rng.integers(-9, 10, size=engines[0].state.votes.shape)
        votes[::2] = votes[::2, :1]  # unanimous windows on even dies
        for engine in engines:
            state = engine.state
            state.output_voltage[:] = supplies
            state.inductor_current[:] = currents
            state.votes[:] = votes
            state.vote_count[:] = state.votes.shape[1] - 1
            state.duty_value[:] = np.arange(pop.n) % 64
        step_both(engines, rng.integers(0, 30, pop.n), 3, f"trial {trial}")
        step_both(
            engines, 2, 2, f"scheduled trial {trial}",
            scheduled=rng.integers(-5, 70, pop.n),
        )
    assert len(engines[0].correction_log) == len(engines[1].correction_log)
    for a, b in zip(engines[0].correction_log, engines[1].correction_log):
        np.testing.assert_array_equal(a, b)


def test_adopted_state_is_rebound(library, lut, require_compiled):
    """After adopt_state the compiled step writes the new arrays, and
    leaves the old ones alone."""
    pop = population(library, n=6, spread=0.03)
    engines = engine_pair(pop, lut)
    step_both(engines, 1, 20, "before adoption")
    old = engines[1].state
    frozen = {name: getattr(old, name).copy() for name in STATE_ARRAY_FIELDS}
    for engine in engines:
        copy = engine.state.snapshot()
        engine.adopt_state(
            BatchState.from_arrays(copy["arrays"], copy["scalars"])
        )
    step_both(engines, 2, 20, "after adoption")
    for name, values in frozen.items():
        assert_same_bits(getattr(old, name), values, f"old state.{name}")


def test_non_contiguous_state_falls_back_to_numpy(library, lut, require_compiled):
    pop = population(library, n=5, spread=0.03)
    engines = engine_pair(pop, lut)
    for engine in engines:
        snap = engine.state.snapshot()
        arrays = {}
        for name, array in snap["arrays"].items():
            wide = np.zeros((2 * array.shape[0],) + array.shape[1:], array.dtype)
            wide[::2] = array
            arrays[name] = wide[::2]
        engine.adopt_state(BatchState.from_arrays(arrays, snap["scalars"]))
    assert engines[1]._kernel._compiled is None
    step_both(engines, 1, 10, "strided state")


def test_nan_supply_raises_on_both_steps(library, lut, require_compiled):
    pop = population(library, n=3, spread=0.02)
    for engine in engine_pair(pop, lut):
        engine.state.output_voltage[1] = np.nan
        with pytest.raises(IndexError), np.errstate(invalid="ignore"):
            engine.step(np.zeros(3, dtype=np.int64))


def test_library_is_cached_under_a_source_hash(tmp_path, require_compiled):
    path = compiled_step.build(tmp_path)
    assert path.parent == tmp_path
    assert path.name == compiled_step.library_name(
        compiled_step.find_compiler()
    )
    stamp = path.stat().st_mtime_ns
    assert compiled_step.build(tmp_path) == path
    assert path.stat().st_mtime_ns == stamp  # reused, not rebuilt
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    library = compiled_step.open_library(path)
    assert library.tabulated_step.restype is compiled_step.ctypes.c_int64


def test_struct_mismatch_refuses_the_library(monkeypatch, require_compiled):
    """A ctypes mirror out of step with the C struct never loads."""
    path = compiled_step.build()

    class Shorter(compiled_step.ctypes.Structure):
        _fields_ = compiled_step.StepContext._fields_[:-1]

    monkeypatch.setattr(compiled_step, "StepContext", Shorter)
    with pytest.raises(OSError):
        compiled_step.open_library(path)


def test_failed_build_leaves_no_library(tmp_path, monkeypatch, require_compiled):
    monkeypatch.setattr(
        compiled_step, "CFLAGS", compiled_step.CFLAGS + ("-DNOT_C=(",)
    )
    monkeypatch.setattr(
        compiled_step, "library_name", lambda compiler: "broken.so"
    )
    source = tmp_path / "broken.c"
    source.write_text("int broken(void) { return ; ")
    monkeypatch.setattr(compiled_step, "SOURCE", source)
    assert compiled_step.build(tmp_path) is None
    assert [p.name for p in tmp_path.iterdir()] == ["broken.c"]


def test_no_compiler_means_no_library(tmp_path, monkeypatch):
    monkeypatch.setattr(compiled_step, "find_compiler", lambda: None)
    assert compiled_step.build(tmp_path) is None


def test_numpy_fallback_selected_without_library(library, lut):
    pop = population(library, n=4, spread=0.03)
    with numpy_tabulated_step():
        engine = BatchEngine(pop, lut=lut, device_model="tabulated")
        engine.run(None, 2)
    assert engine._kernel._compiled is None
    exact = BatchEngine(pop, lut=lut)
    exact.run(None, 2)
    assert exact._kernel._compiled is None


def test_context_covers_every_state_array():
    """A new BatchState array must reach the C step, or this fails."""
    assert set(compiled_step.STATE_POINTERS) == set(STATE_ARRAY_FIELDS)
