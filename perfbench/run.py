"""Run one benchmark workload (or all of them) and report its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload service-mix --seed 2009 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond the load generator's own clocks.  ``--trace 1`` repeats the
measured pass on the same seed with spans around the calls into each
layer, replays the recorded work through the layers' public entry
points, and reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit code is 1 when an answer check fails and 2
when the checkout holds no program to measure.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before anything imports numpy and
# inherited by the gateway server and the fleet workers: on a host of a
# few shared cores a second BLAS thread makes every figure depend on
# whether the other core happens to be free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

import catalog
from harness import SRC, WORK_DIR, Outcome, environment

MODULES = {
    "service-mix": "service_mix",
    "sweep-tabulated": "sweep_tabulated",
    "gateway-hot": "gateway_hot",
    "mc-fleet": "mc_fleet",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload", choices=sorted(MODULES) + ["all"], default="all"
    )
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    module = importlib.import_module(MODULES[name])
    config = dataclasses.replace(module.Config(), seconds=seconds)
    return module.run(seed, trace, config)


def metric_values(outcome: Outcome, trace: bool) -> Dict[str, Dict[str, object]]:
    """The metrics the final line carries: every registered end-to-end
    metric, or with ``trace`` every per-layer metric (0 where the
    workload does not exercise the layer)."""
    if trace:
        return {
            name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit}
            for name, unit in catalog.LAYERS.items()
        }
    return {
        name: {"value": float(outcome.metrics[name]), "unit": unit}
        for name, unit in catalog.END_TO_END.items()
    }


def report(outcome: Outcome, seed: int, trace: bool) -> None:
    print(f"== {outcome.workload} (seed {seed}, trace {int(trace)})")
    for name in list(catalog.END_TO_END) + list(catalog.UNREGISTERED):
        value = outcome.metrics.get(name)
        if value is not None:
            print(f"  {name:<24} {value:>14.6g} {catalog.unit(name)}")
    print(
        f"  operations attempted={outcome.attempted} "
        f"completed={outcome.completed} failed={outcome.failed} "
        f"refused={outcome.refused} wrong={outcome.wrong} "
        f"(answers checked: {outcome.checked})"
    )
    if trace:
        for name, unit in catalog.LAYERS.items():
            value = outcome.layers.get(name, 0.0)
            print(f"  {name:<40} {value:>14.6g} {unit}")
        if outcome.spans is not None:
            path = WORK_DIR / f"spans-{outcome.workload}-seed{seed}.jsonl"
            outcome.spans.write(path)
            print(f"  spans: {path}")
    record = {
        "workload": outcome.workload,
        "environment": environment(seed),
        "trace": int(trace),
        "operations": {
            "attempted": outcome.attempted,
            "completed": outcome.completed,
            "failed": outcome.failed,
            "refused": outcome.refused,
            "wrong": outcome.wrong,
            "checked": outcome.checked,
        },
        "end_to_end": outcome.metrics,
        "layers": outcome.layers,
        "info": outcome.info,
    }
    print("record: " + json.dumps(record, default=str))


def run_all(args) -> Dict[str, object]:
    """Every workload in a process of its own, so that no workload's
    peak memory, child processes or warm caches leak into another's."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(MODULES):
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        finished = lines and lines[-1].startswith("{")
        if proc.returncode not in (0, 1) or not finished:
            raise SystemExit(
                f"perfbench: {name} exited {proc.returncode} without a result"
            )
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()}
        )
    return summary


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        summary = run_all(args)
    else:
        sys.path.insert(0, str(SRC))
        trace = bool(args.trace)
        outcome = run_workload(args.workload, args.seed, args.seconds, trace)
        report(outcome, args.seed, trace)
        summary = {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.errors,
            "metrics": metric_values(outcome, trace),
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
