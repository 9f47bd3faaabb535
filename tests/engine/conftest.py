"""Engine-test fixtures: the legacy-step golden digests.

The fused :class:`~repro.engine.kernels.CycleKernel` used to be checked
against a second, allocating step implementation with a shift-down
window layout.  That step was run once over a fixed scenario corpus
(the 50 fuzz seeds CI runs, plus the hand-picked ring-vs-shifted
scenarios of ``test_kernels.py``) and its results were recorded as
canonical digests in ``goldens/legacy_step.json``; the second
implementation was then deleted.  The :func:`legacy_goldens` fixture
recomputes the digests for whatever the test ran and asserts equality,
so the fused kernel must still match the recorded step bit for bit.

A digest covers every trace channel of every run of a scenario
(``content_hash`` of the per-run arrays) and the layout-independent
final state: the per-die state arrays and totals, ``history_window()``
and every die's ``die_vote_tail``.

The file lists every recording (commit, command, numpy, platform).
The legacy step was recorded three times — numpy's default dispatch,
and with ``NPY_DISABLE_CPU_FEATURES`` switching off its AVX512 and its
AVX2/AVX512 loops — because ``np.exp`` differs by ULPs between them and
that reaches the per-cycle ``energies`` of some scenarios; any recorded
value is accepted.

Re-recording (only when a change is *meant* to move the numbers):
``REPRO_GOLDENS_RECORD=fused python -m pytest <golden tests>`` builds
the golden tests' engines with that step kernel and merges their
digests into the file instead of comparing (delete the file first to
drop the old values).
"""

from __future__ import annotations

import functools
import json
import os
import platform
import shlex
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.engine import BatchEngine
from repro.engine.trace import DIE_CHANNELS
from repro.service.canonical import content_hash

GOLDENS_PATH = Path(__file__).parent / "goldens" / "legacy_step.json"

RECORD_ENV = "REPRO_GOLDENS_RECORD"
"""Set to a step kernel name to record digests instead of comparing."""

TRACE_CHANNELS = ("times",) + tuple(column for column, _, _ in DIE_CHANNELS)

STATE_FIELDS = (
    "queue_length",
    "duty_value",
    "cycles_since_duty_update",
    "last_desired",
    "has_last_desired",
    "inductor_current",
    "output_voltage",
    "work_accumulator",
    "lut_correction",
    "vote_count",
    "energy_total",
    "operations_total",
    "drops_total",
    "accepted_total",
    "peak_queue",
    "decision_up_total",
    "decision_hold_total",
    "decision_down_total",
)
"""Per-die state arrays whose layout does not depend on the step."""


def golden_digests(traces, state) -> dict:
    """Digest a scenario's dense traces (in run order) and final state."""
    digests = {
        channel: content_hash([getattr(trace, channel) for trace in traces])
        for channel in TRACE_CHANNELS
    }
    final = {name: getattr(state, name) for name in STATE_FIELDS}
    final["cycles"] = state.cycles
    final["history_filled"] = state.history_filled
    final["history_window"] = state.history_window()
    final["vote_tails"] = [state.die_vote_tail(d) for d in range(state.n)]
    digests["final_state"] = content_hash(final)
    return digests


class LegacyGoldens:
    """Compare (or, in record mode, collect) one scenario's digests.

    Each digest part holds the list of values the recorded step
    produced; more than one appears where numpy's SIMD dispatch level
    moves a transcendental by an ULP (the per-cycle ``energies``).
    """

    def __init__(self, store: dict, record_kernel) -> None:
        self.store = store
        self.record_kernel = record_kernel

    def check(self, name: str, traces, state, replay: str) -> None:
        digests = golden_digests(traces, state)
        if self.record_kernel:
            entry = self.store["scenarios"].setdefault(name, {})
            for part, digest in digests.items():
                accepted = entry.setdefault(part, [])
                if digest not in accepted:
                    accepted.append(digest)
            return
        expected = self.store["scenarios"].get(name)
        assert expected is not None, (
            f"no golden recorded for scenario {name!r} in {GOLDENS_PATH}"
        )
        differing = sorted(
            part for part, accepted in expected.items()
            if digests.get(part) not in accepted
        )
        recorded_with = sorted({
            f"numpy {rec['numpy']} on {rec['platform']}"
            for rec in self.store["recordings"]
        })
        assert not differing, (
            f"scenario {name!r}: the fused kernel no longer matches the "
            f"recorded legacy step in {differing}; replay with {replay}. "
            f"Goldens were recorded with {recorded_with} (this run: "
            f"numpy {np.__version__} on {platform.platform()})."
        )


@pytest.fixture(scope="session")
def _golden_store(request):
    record_kernel = os.environ.get(RECORD_ENV)
    if GOLDENS_PATH.exists():
        store = json.loads(GOLDENS_PATH.read_text())
    else:
        store = {"recordings": [], "scenarios": {}}
    yield store
    if not record_kernel:
        return
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        capture_output=True, text=True, cwd=Path(__file__).parent,
    ).stdout.strip()
    simd = os.environ.get("NPY_DISABLE_CPU_FEATURES")
    prefix = f"NPY_DISABLE_CPU_FEATURES={shlex.quote(simd)} " if simd else ""
    args = shlex.join(request.config.invocation_params.args)
    store["recordings"].append({
        "commit": commit,
        "step_kernel": record_kernel,
        "command": (
            f"{prefix}{RECORD_ENV}={record_kernel} PYTHONPATH=src "
            f"python -m pytest {args}"
        ),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    })
    store["scenarios"] = dict(sorted(store["scenarios"].items()))
    GOLDENS_PATH.parent.mkdir(exist_ok=True)
    GOLDENS_PATH.write_text(json.dumps(store, indent=1) + "\n")


@pytest.fixture
def legacy_goldens(request, monkeypatch, _golden_store):
    """Checker for the legacy-step goldens.

    In record mode the requesting module's ``BatchEngine`` is rebound
    to build engines with the recorded step kernel.
    """
    record_kernel = os.environ.get(RECORD_ENV)
    if record_kernel:
        monkeypatch.setattr(
            request.module,
            "BatchEngine",
            functools.partial(BatchEngine, step_kernel=record_kernel),
        )
    return LegacyGoldens(_golden_store, record_kernel)
