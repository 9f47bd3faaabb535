"""Shared test-harness utilities (differential-fuzz seed plumbing).

The engine's differential fuzz harness established a seed protocol the
whole repository now reuses: a contiguous seed budget sized by
``REPRO_FUZZ_SCENARIOS`` and based at ``REPRO_FUZZ_BASE_SEED``, with an
explicit ``REPRO_FUZZ_SEEDS`` list overriding both so a CI failure can
be replayed locally from the seed printed in the assertion message.
This module hosts that protocol so every fuzz suite (engine, analysis,
service) draws its seeds — and formats its replay messages — the same
way instead of re-implementing the environment parsing.  It also holds
the switch tests use to run tabulated engines on the numpy step
(:func:`numpy_tabulated_step`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List

SCENARIOS_ENV = "REPRO_FUZZ_SCENARIOS"
"""How many seeds the contiguous budget covers (tier-1 default: 8)."""

BASE_SEED_ENV = "REPRO_FUZZ_BASE_SEED"
"""First seed of the contiguous budget."""

SEEDS_ENV = "REPRO_FUZZ_SEEDS"
"""Comma/space-separated explicit seed list, overriding the budget."""

DEFAULT_SCENARIOS = 8
DEFAULT_BASE_SEED = 20090000


def fuzz_seeds(
    default_scenarios: int = DEFAULT_SCENARIOS,
    default_base_seed: int = DEFAULT_BASE_SEED,
) -> List[int]:
    """Return the seed list a fuzz suite should parametrise over.

    ``REPRO_FUZZ_SEEDS`` (explicit list) wins over the contiguous
    ``REPRO_FUZZ_BASE_SEED + range(REPRO_FUZZ_SCENARIOS)`` budget.
    """
    explicit = os.environ.get(SEEDS_ENV)
    if explicit:
        return [int(seed) for seed in explicit.replace(",", " ").split()]
    scenarios = int(os.environ.get(SCENARIOS_ENV, str(default_scenarios)))
    base = int(os.environ.get(BASE_SEED_ENV, str(default_base_seed)))
    return [base + i for i in range(scenarios)]


def replay_message(seed: int, test_path: str) -> str:
    """Return the standard replay instruction for a failing seed.

    Embedded in every fuzz assertion message so the failure line itself
    tells the reader how to reproduce it locally.
    """
    return (
        f"[fuzz seed {seed}] replay with "
        f"{SEEDS_ENV}={seed} pytest {test_path}"
    )


@contextmanager
def numpy_tabulated_step() -> Iterator[None]:
    """Run tabulated engines on the numpy step inside this block.

    Patches the compiled step's loader to report no library, exactly
    what a machine without a C compiler sees, so the fallback path runs
    under the same tests.  Engines select their step when their kernel
    is first built (the first cycle), and forked process-fleet workers
    inherit the patch, so build and run engines inside the block.
    """
    from repro.engine import compiled_step

    saved = compiled_step.load_library
    compiled_step.load_library = lambda: None
    try:
        yield
    finally:
        compiled_step.load_library = saved


def compiled_step_available() -> bool:
    """Whether tabulated engines here run on the compiled step."""
    from repro.engine import compiled_step

    return compiled_step.load_library() is not None
