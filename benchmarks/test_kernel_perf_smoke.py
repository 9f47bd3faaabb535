"""Perf smoke: relative step-kernel gates, plus the compiled-step record.

A 64-die x 200-cycle closed loop timed on several step implementations
on whatever host runs the suite.  Every gate is purely **relative**
(variant A <= variant B within a small noise margin) — no absolute
wall-clock bars — so the single-CPU dev container and CI runners of any
speed stay green:

* numpy tabulated step <= fused kernel on the exact device model,
* compiled tabulated step <= numpy tabulated step (skipped when no C
  compiler can build the compiled step).

The variants are timed in interleaved best-of-k rounds.  A timed
region lasts at least :data:`MIN_REGION_SECONDS`: warm runs repeat
until the region is covered, so it is never a single ~5 ms run that one
scheduler hiccup can double.  The CI workflow runs this file
as a dedicated step so a kernel regression fails loudly.

With ``REPRO_BENCH_RECORD=1`` the ``tabulated_step`` section of
``BENCH_engine.json`` is rewritten (read-modify-write): warm per-cycle
cost of the numpy and compiled tabulated steps at several population
sizes, the cold table build of a population with repeated dies, and the
compiled step's one-time compile and cached-load times.
"""

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.loads import DigitalLoad
from repro.core.config import ControllerConfig
from repro.core.rate_controller import program_lut_for_load
from repro.devices.variation import MonteCarloSampler
from repro.engine import (
    BatchEngine,
    BatchPopulation,
    NullTrace,
    ResponseTables,
)
from repro.engine import compiled_step
from repro.testing import compiled_step_available, numpy_tabulated_step
from repro.workloads.batch import constant_arrival_matrix

SMOKE_DIES = 64
SMOKE_CYCLES = 200
NOISE_MARGIN = 1.25
"""Timing-noise allowance on each ratio.  The variants are timed in
interleaved rounds so a transient slowdown on a shared runner hits every
series alike; the margin then only has to cover residual jitter, not a
one-sided scheduler hiccup."""
ROUNDS = 4
MIN_REGION_SECONDS = 0.1
"""Shortest timed region: warm runs repeat until it is covered."""

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
RECORD = os.environ.get("REPRO_BENCH_RECORD") == "1"
RECORD_SIZES = (1, 8, 64, 512)
COLD_DIES = 128
COLD_DISTINCT = 32


@pytest.fixture(scope="module")
def smoke_setup(library):
    reference_load = DigitalLoad(
        library.ring_oscillator_load, library.reference_delay_model
    )
    lut = program_lut_for_load(reference_load, sample_rate=1e5)
    samples = MonteCarloSampler(seed=47).draw_arrays(SMOKE_DIES)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(
        np.full(SMOKE_DIES, 1e5), 1e-6, SMOKE_CYCLES
    )
    return population, lut, arrivals


def _warm_engine(population, lut, numpy_step=False, **kwargs):
    """An engine whose kernel (and tables) exist; ``numpy_step`` pins a
    tabulated engine to the numpy step for its lifetime."""
    engine = BatchEngine(population, lut=lut, **kwargs)
    warm = np.zeros((population.n, 1), dtype=np.int64)
    if numpy_step:
        with numpy_tabulated_step():
            engine.run(warm, 1, sink=NullTrace())
    else:
        engine.run(warm, 1, sink=NullTrace())
    return engine


def _region_seconds(engine, arrivals, cycles):
    """Seconds per warm run, over a region of >= MIN_REGION_SECONDS."""
    runs = 0
    start = time.perf_counter()
    while True:
        engine.reset()
        engine.run(arrivals, cycles, sink=NullTrace())
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_REGION_SECONDS:
            return elapsed / runs


def _interleaved_warm_best(engines, arrivals, cycles, rounds=ROUNDS):
    """Best-of-``rounds`` seconds per run for each engine, with the
    engines interleaved so host slowdowns hit every series alike."""
    best = {name: float("inf") for name in engines}
    for _ in range(rounds):
        for name, engine in engines.items():
            best[name] = min(
                best[name], _region_seconds(engine, arrivals, cycles)
            )
    return best


def test_tabulated_not_slower_than_exact(smoke_setup):
    """Relative gate: once its tables are built, the numpy tabulated
    step is not slower than the fused kernel on the exact model."""
    population, lut, arrivals = smoke_setup
    engines = {
        "exact": _warm_engine(population, lut),
        "tabulated": _warm_engine(
            population, lut, numpy_step=True, device_model="tabulated"
        ),
    }
    assert engines["tabulated"]._kernel._compiled is None
    best = _interleaved_warm_best(engines, arrivals, SMOKE_CYCLES)
    die_cycles = SMOKE_DIES * SMOKE_CYCLES
    print(
        f"\nKernel perf smoke ({SMOKE_DIES} dies x {SMOKE_CYCLES} cycles): "
        f"{die_cycles / best['exact']:8.0f} die-cycles/s exact vs "
        f"{die_cycles / best['tabulated']:8.0f} die-cycles/s numpy "
        f"tabulated ({best['exact'] / best['tabulated']:.2f}x)"
    )
    assert best["tabulated"] <= best["exact"] * NOISE_MARGIN


def _require_compiled_step():
    # Checked at run time, not collection time: --numpy-tabulated-step
    # patches the loader only once the session starts.
    if not compiled_step_available():
        pytest.skip("compiled tabulated step unavailable (no C compiler)")


def test_compiled_step_not_slower_than_numpy_step(smoke_setup):
    """Relative gate: compiled tabulated step <= numpy tabulated step."""
    _require_compiled_step()
    population, lut, arrivals = smoke_setup
    engines = {
        "numpy": _warm_engine(
            population, lut, numpy_step=True, device_model="tabulated"
        ),
        "compiled": _warm_engine(population, lut, device_model="tabulated"),
    }
    assert engines["numpy"]._kernel._compiled is None
    assert engines["compiled"]._kernel._compiled is not None
    best = _interleaved_warm_best(engines, arrivals, SMOKE_CYCLES)
    per_cycle = {k: v / SMOKE_CYCLES * 1e6 for k, v in best.items()}
    print(
        f"\nTabulated step ({SMOKE_DIES} dies): "
        f"{per_cycle['numpy']:.1f} us/cycle numpy vs "
        f"{per_cycle['compiled']:.1f} us/cycle compiled "
        f"({best['numpy'] / best['compiled']:.1f}x)"
    )
    assert best["compiled"] <= best["numpy"] * NOISE_MARGIN


# ----------------------------------------------------------------------
# Record (REPRO_BENCH_RECORD=1 only)
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment() -> dict:
    compiler = compiled_step.find_compiler()
    version = "none"
    if compiler is not None:
        done = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True
        )
        version = done.stdout.splitlines()[0] if done.stdout else compiler
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "compiler": version,
        "cflags": " ".join(compiled_step.CFLAGS),
    }


def _warm_per_cycle_us(library, lut, n):
    samples = MonteCarloSampler(seed=53).draw_arrays(n)
    population = BatchPopulation.from_samples(library, samples)
    arrivals = constant_arrival_matrix(np.full(n, 1e5), 1e-6, SMOKE_CYCLES)
    best = _interleaved_warm_best(
        {
            "numpy": _warm_engine(
                population, lut, numpy_step=True, device_model="tabulated"
            ),
            "compiled": _warm_engine(
                population, lut, device_model="tabulated"
            ),
        },
        arrivals,
        SMOKE_CYCLES,
    )
    return {k: v / SMOKE_CYCLES * 1e6 for k, v in best.items()}


def _cold_build_ms(library):
    """Table build of 128 dies holding 32 distinct ones, against the
    same build with every die distinct (the per-row cost)."""
    distinct = MonteCarloSampler(seed=59).draw_arrays(COLD_DISTINCT)
    repeated = np.tile(np.arange(COLD_DISTINCT), COLD_DIES // COLD_DISTINCT)
    populations = {
        "repeated": BatchPopulation.from_samples(
            library, distinct
        ).shard(repeated),
        "all_distinct": BatchPopulation.from_samples(
            library, MonteCarloSampler(seed=61).draw_arrays(COLD_DIES)
        ),
    }
    config = ControllerConfig()
    best = {name: float("inf") for name in populations}
    for _ in range(3):
        for name, population in populations.items():
            start = time.perf_counter()
            ResponseTables.from_population(population, config)
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: seconds * 1e3 for name, seconds in best.items()}


def _library_ms():
    """One-time compile into an empty cache, then a load from it."""
    directory = Path(tempfile.mkdtemp(prefix="repro-step-cache-"))
    try:
        start = time.perf_counter()
        path = compiled_step.build(directory)
        compile_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        compiled_step.open_library(compiled_step.build(directory))
        load_ms = (time.perf_counter() - start) * 1e3
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    assert path is not None
    return compile_ms, load_ms


@pytest.mark.skipif(
    not RECORD, reason="tabulated-step record needs REPRO_BENCH_RECORD=1"
)
def test_record_tabulated_step(library, smoke_setup):
    _require_compiled_step()
    _, lut, _ = smoke_setup
    warm = {n: _warm_per_cycle_us(library, lut, n) for n in RECORD_SIZES}
    cold = _cold_build_ms(library)
    compile_ms, load_ms = _library_ms()
    section = {
        "environment": _environment(),
        "warm_cycle_us": [
            {
                "dies": n,
                "cycles": SMOKE_CYCLES,
                "numpy_us": warm[n]["numpy"],
                "compiled_us": warm[n]["compiled"],
                "speedup": warm[n]["numpy"] / warm[n]["compiled"],
            }
            for n in RECORD_SIZES
        ],
        "cold_build_ms": {
            "dies": COLD_DIES,
            "distinct_dies": COLD_DISTINCT,
            "repeated_ms": cold["repeated"],
            "all_distinct_ms": cold["all_distinct"],
        },
        "library": {"compile_ms": compile_ms, "cached_load_ms": load_ms},
    }
    record = {}
    if RESULT_PATH.exists():
        record = json.loads(RESULT_PATH.read_text())
    record["tabulated_step"] = section
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print("\n" + json.dumps(section, indent=2))
    for row in section["warm_cycle_us"]:
        assert row["compiled_us"] <= row["numpy_us"] * NOISE_MARGIN
