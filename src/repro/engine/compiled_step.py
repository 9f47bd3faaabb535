"""Compiled tabulated cycle step: build, cache and load the C kernel.

``tabulated_step.c`` (next to this module) is the whole tabulated cycle
of :class:`~repro.engine.kernels.CycleKernel` as one C function over the
existing :class:`~repro.engine.state.BatchState` arrays,
:class:`~repro.engine.kernels.ScratchBuffers` outputs and flat
:class:`~repro.engine.response_tables.ResponseTables` arrays.  It is
bit-identical to the numpy step (see the contract at the top of the C
file), so a tabulated engine uses it whenever it loads and the numpy
step otherwise — there is no switch.

The shared library is compiled on first use into a per-user cache
directory (``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``, else a
per-user temporary directory), under a file name keyed by a hash of the
source, the compiler and the flags, and published with an atomic
rename so concurrent first uses never load a half-written file.  It is
loaded with stdlib :mod:`ctypes` once per process; forked fleet workers
inherit it.  No compiler, a failed build or a failed load all leave
:func:`load_library` returning ``None``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

SOURCE = Path(__file__).with_name("tabulated_step.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-std=c99")
"""Flags the bit-identity contract rests on (no FMA contraction, no
reassociation); ``-fPIC -shared`` and ``-lm`` are added when linking."""

COMPILERS = ("cc", "gcc", "clang")

_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_P = ctypes.c_void_p


class StepContext(ctypes.Structure):
    """Mirror of ``tabulated_step_ctx`` in ``tabulated_step.c``."""

    _fields_ = [
        (name, _I64)
        for name in (
            "n", "history_window", "vote_window", "points",
            "code_break_count", "voltage_sense", "compensation",
            "has_min_cycle_time", "fifo_depth", "levels", "max_code",
            "bins", "lut_depth", "code_lower_bound", "code_upper_bound",
            "duty_update_interval", "max_correction", "tdc_base_code",
        )
    ] + [
        (name, _F64)
        for name in (
            "period", "substep", "r_on", "battery", "inductance",
            "capacitance", "full_scale", "scf_factor", "min_cycle_time",
            "inv_dv", "signature_ceiling", "deadband",
            "tdc_minimum_supply",
        )
    ] + [
        (name, _P)
        for name in (
            # BatchState arrays.
            "queue_length", "history", "history_sum", "duty_value",
            "cycles_since_duty_update", "last_desired", "has_last_desired",
            "inductor_current", "output_voltage", "work_accumulator",
            "lut_correction", "votes", "vote_count", "votes_pos",
            "energy_total", "operations_total", "drops_total",
            "accepted_total", "peak_queue", "decision_up_total",
            "decision_hold_total", "decision_down_total",
            # Tables.
            "current_draw", "cycle_time", "leakage_current",
            "dynamic_energy", "code_breaks", "positive_break",
            "saturation_break", "lut_entries",
            # ScratchBuffers outputs.
            "out_desired", "out_operations", "out_dropped", "out_energy",
            "out_decision", "desired", "v_switch",
        )
    ]


STATE_POINTERS = {
    **dict.fromkeys(
        (
            "queue_length", "history", "history_sum", "duty_value",
            "cycles_since_duty_update", "last_desired", "lut_correction",
            "votes", "vote_count", "votes_pos", "operations_total",
            "drops_total", "accepted_total", "peak_queue",
            "decision_up_total", "decision_hold_total",
            "decision_down_total",
        ),
        np.int64,
    ),
    **dict.fromkeys(
        (
            "inductor_current", "output_voltage", "work_accumulator",
            "energy_total",
        ),
        np.float64,
    ),
    "has_last_desired": np.bool_,
}
"""The :class:`BatchState` arrays the C step reads and writes in place."""

SCRATCH_POINTERS = {
    "out_desired": ("out_desired", np.int64),
    "out_operations": ("out_operations", np.int64),
    "out_dropped": ("out_dropped", np.int64),
    "out_energy": ("out_energy", np.float64),
    "out_decision": ("out_decision", np.int8),
    "desired": ("desired", np.int64),
    "v_switch": ("f1", np.float64),
}
"""Context field -> (:class:`ScratchBuffers` array, dtype); ``v_switch``
lives in the workspace the numpy step uses for it."""

_lock = threading.Lock()
_library: Optional[ctypes.CDLL] = None
_attempted = False


def cache_directory() -> Path:
    """Return the per-user directory compiled libraries are cached in."""
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro"


def find_compiler() -> Optional[str]:
    """Return the first C compiler on ``PATH``, or ``None``."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def library_name(compiler: str) -> str:
    """Cache file name: a hash of source, compiler, flags and platform."""
    digest = hashlib.sha256()
    digest.update(SOURCE.read_bytes())
    for part in (
        os.path.realpath(compiler), *CFLAGS, sys.platform,
        platform.machine(),
    ):
        digest.update(b"\0" + part.encode())
    return f"tabulated_step-{digest.hexdigest()[:20]}.so"


def build(directory: Optional[Path] = None) -> Optional[Path]:
    """Return the cached shared library, compiling it first if missing.

    Returns ``None`` when no compiler is found or compilation fails.
    The build writes a uniquely named temporary file in the cache
    directory and renames it into place, so a concurrent reader sees
    either no library or a complete one.
    """
    compiler = find_compiler()
    if compiler is None:
        return None
    name = library_name(compiler)
    candidates = (
        [Path(directory)] if directory is not None else [
            cache_directory(),
            Path(tempfile.gettempdir()) / f"repro-{os.getuid()}",
        ]
    )
    for folder in candidates:
        target = folder / name
        if target.exists():
            return target
        try:
            folder.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f".{name}.", suffix=".tmp", dir=folder
            )
            os.close(fd)
        except OSError:
            continue
        try:
            done = subprocess.run(
                [
                    compiler, *CFLAGS, "-fPIC", "-shared", "-o", tmp,
                    str(SOURCE), "-lm",
                ],
                capture_output=True,
                timeout=120,
            )
            if done.returncode != 0:
                return None
            os.replace(tmp, target)
            return target
        except (OSError, subprocess.SubprocessError):
            continue
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return None


def open_library(path: Path) -> ctypes.CDLL:
    """Load a built library and declare the step's signature."""
    library = ctypes.CDLL(str(path))
    library.tabulated_step_ctx_size.restype = _I64
    if library.tabulated_step_ctx_size() != ctypes.sizeof(StepContext):
        raise OSError(f"{path}: context struct does not match StepContext")
    step = library.tabulated_step
    step.argtypes = (
        ctypes.POINTER(StepContext), _P, _I64, _P, _I64, _I64, _I64,
    )
    step.restype = _I64
    return library


def load_library() -> Optional[ctypes.CDLL]:
    """Return the process-wide compiled step library, or ``None``.

    Built and loaded on the first call only; later calls (and forked
    children) reuse the result, including a failure.
    """
    global _library, _attempted
    with _lock:
        if not _attempted:
            _attempted = True
            try:
                path = build()
                _library = None if path is None else open_library(path)
            except Exception:  # any failure means: run the numpy step
                _library = None
        return _library


def _address(array: np.ndarray, dtype) -> Optional[int]:
    """Data address of a C-contiguous, aligned array of ``dtype``."""
    if (
        array.dtype != dtype
        or not array.flags.c_contiguous
        or not array.flags.aligned
    ):
        return None
    return array.ctypes.data


class CompiledTabulatedStep:
    """One engine's binding of the C step: a filled :class:`StepContext`.

    Built by :meth:`create` from a :class:`~repro.engine.kernels.CycleKernel`;
    :meth:`bind` re-points the context at a (new) state's arrays and is
    called whenever the engine's state is reset or adopted.
    """

    def __init__(self, kernel, library: ctypes.CDLL) -> None:
        self.kernel = kernel
        self._step = library.tabulated_step
        self.context = StepContext()
        self._context_ref = ctypes.byref(self.context)
        self.state = None

    @classmethod
    def create(cls, kernel) -> Optional["CompiledTabulatedStep"]:
        """Return a bound step for ``kernel``, or ``None`` when the
        library is unavailable or an array's layout does not fit."""
        library = load_library()
        if library is None:
            return None
        step = cls(kernel, library)
        if not step._fill_constants() or not step.bind(kernel.engine.state):
            return None
        return step

    def _fill_constants(self) -> bool:
        kernel = self.kernel
        engine = kernel.engine
        cfg = engine.config
        tables = kernel.response
        tdc = kernel._tdc_tables
        needs_tdc = engine.compensation_enabled or not kernel._voltage_sense
        if needs_tdc and tdc is None:
            return False
        ctx = self.context
        # Keep every array the context points into alive with the step.
        self._arrays = arrays = {
            "current_draw": tables._flat["current_draw"],
            "cycle_time": tables._flat["cycle_time"],
            "leakage_current": tables._flat["leakage_current"],
            "dynamic_energy": tables._flat["dynamic_energy"],
            "lut_entries": engine.lut_entries,
        }
        if tdc is not None:
            arrays["code_breaks"] = np.ascontiguousarray(tdc.code_breaks)
            arrays["positive_break"] = np.ascontiguousarray(
                tdc.positive_break
            )
            arrays["saturation_break"] = np.ascontiguousarray(
                tdc.saturation_break
            )
        for name, array in arrays.items():
            dtype = np.int64 if name == "lut_entries" else np.float64
            address = _address(array, dtype)
            if address is None:
                return False
            setattr(ctx, name, address)
        for name, (buffer, dtype) in SCRATCH_POINTERS.items():
            setattr(
                ctx, name, _address(getattr(kernel.scratch, buffer), dtype)
            )
        ctx.n = engine.n
        ctx.points = tables.points
        ctx.code_break_count = (
            0 if tdc is None else tdc.code_breaks.shape[1]
        )
        ctx.voltage_sense = kernel._voltage_sense
        ctx.compensation = engine.compensation_enabled
        ctx.has_min_cycle_time = kernel._min_cycle_time is not None
        ctx.fifo_depth = engine.fifo_depth
        ctx.levels = kernel._levels
        ctx.max_code = kernel._max_code
        ctx.bins = kernel._bins
        ctx.lut_depth = kernel._lut_depth
        ctx.code_lower_bound = cfg.code_lower_bound
        ctx.code_upper_bound = cfg.code_upper_bound
        ctx.duty_update_interval = cfg.duty_update_interval
        ctx.max_correction = cfg.max_correction_lsb
        ctx.tdc_base_code = 0 if tdc is None else tdc.base_code
        ctx.period = kernel._period
        ctx.substep = kernel._h
        ctx.r_on = kernel._r_on
        ctx.battery = kernel._battery
        ctx.inductance = kernel._inductance
        ctx.capacitance = kernel._capacitance
        ctx.full_scale = kernel._full_scale
        ctx.scf_factor = kernel._scf_factor
        ctx.min_cycle_time = kernel._min_cycle_time or 0.0
        ctx.inv_dv = tables._inv_dv
        ctx.signature_ceiling = cfg.signature_supply_ceiling
        ctx.deadband = cfg.signature_deadband_counts
        ctx.tdc_minimum_supply = 0.0 if tdc is None else tdc.minimum_supply
        return True

    def bind(self, state) -> bool:
        """Point the context at ``state``'s arrays; ``False`` if one of
        them is not a C-contiguous, aligned array of the expected dtype."""
        ctx = self.context
        for name, dtype in STATE_POINTERS.items():
            address = _address(getattr(state, name), dtype)
            if address is None:
                return False
            setattr(ctx, name, address)
        ctx.history_window = state.history.shape[1]
        ctx.vote_window = state.votes.shape[1]
        self.state = state
        return True

    def __call__(
        self,
        arriving: np.ndarray,
        scheduled: Optional[np.ndarray],
        history_pos: int,
        history_filled: int,
    ) -> int:
        """Run one cycle on ``(N,)`` int64 inputs (``scheduled`` ``None``
        selects the rate controller); return how many dies applied a
        LUT correction."""
        arriving = _strided(arriving)
        scheduled_address = None
        scheduled_stride = 0
        if scheduled is not None:
            scheduled = _strided(scheduled)
            scheduled_address = scheduled.ctypes.data
            scheduled_stride = scheduled.strides[0] // 8
        applied = self._step(
            self._context_ref,
            arriving.ctypes.data,
            arriving.strides[0] // 8,
            scheduled_address,
            scheduled_stride,
            history_pos,
            history_filled,
        )
        if applied < 0:
            raise IndexError(
                "tabulated response lookup met a NaN supply voltage"
            )
        return applied


def _strided(array: np.ndarray) -> np.ndarray:
    """``array`` itself when its stride is a whole number of aligned
    int64 elements (0 included), else a contiguous copy."""
    if array.strides[0] % 8 or not array.flags.aligned:
        return np.ascontiguousarray(array)
    return array
