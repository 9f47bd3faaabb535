"""Tiny configurations of every workload.

Run with ``python -m pytest perfbench/tests -q`` from the checkout root.
Each test asserts that every named metric is emitted with its unit, that
the traced layers account for each operation's latency up to a bounded
residual, and that a deliberately corrupted answer is counted.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import catalog
import gateway_hot
import mc_fleet
import run as cli
import service_mix
import sweep_tabulated
from harness import ROOT

TINY = {
    "service-mix": (
        service_mix,
        service_mix.MixConfig(seconds=1.5, rate=60.0, setups=2, check_sample=6),
    ),
    "sweep-tabulated": (
        sweep_tabulated,
        sweep_tabulated.SweepConfig(
            seconds=0.3, dies=4, rates=2, temperatures=2, cycles=20,
            setups=2, check_sample=4, persist_probe=8,
        ),
    ),
    "gateway-hot": (
        gateway_hot,
        gateway_hot.GatewayConfig(
            seconds=1.0, working_set=4, cycles=10, setups=2
        ),
    ),
    "mc-fleet": (
        mc_fleet,
        mc_fleet.FleetConfig(seconds=0.3, dies=16, cycles=10, setups=1),
    ),
}


def test_every_layer_metric_has_a_prediction():
    assert sorted(cli.MODULES) == sorted(catalog.WORKLOADS)
    assert set(catalog.PREDICTIONS) == set(catalog.LAYERS)
    for prediction in catalog.PREDICTIONS.values():
        for metric, workload in prediction.moves:
            assert metric in catalog.END_TO_END
            assert workload in catalog.WORKLOADS
        assert set(prediction.flat) <= set(catalog.WORKLOADS)


def test_readme_layer_table_matches_catalogue():
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for name, prediction in catalog.PREDICTIONS.items():
        moves = "; ".join(f"{m} on {w}" for m, w in prediction.moves)
        flat = ", ".join(prediction.flat) or "—"
        row = f"| `{name}` | {moves or '— (validity)'} | {flat} |"
        assert row in readme, name


RESIDUAL_LIMIT = {
    "service-mix": 0.25,
    "sweep-tabulated": 0.25,
    "mc-fleet": 0.05,
}
"""Largest share of traced latency that no layer may leave unexplained.

The service workloads split each live batch with a separate replay, so
live and replayed times differ by host noise; the tiny configurations
leave 2-8% unexplained on a two-CPU host.  mc-fleet's residual is only
the glue between its own spans (about 0.2%).  A replay that missed a
layer (the kernel run is about half of a batch) would exceed these.  On
gateway-hot the transport is the remainder of the wire latency, so its
residual is 0 by definition and the test checks that remainder."""


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_metric_and_bounds_the_residual(name):
    module, config = TINY[name]
    outcome = module.run(catalog.DEFAULT_SEED, True, config)
    assert outcome.correct, outcome.info
    assert outcome.errors == 0
    assert outcome.attempted > 0
    for metric in list(catalog.END_TO_END) + list(catalog.UNREGISTERED):
        assert metric in outcome.metrics, metric
    untraced = cli.metric_values(outcome, trace=False)
    assert set(untraced) == set(catalog.END_TO_END)
    for metric, entry in untraced.items():
        assert entry["unit"] == catalog.END_TO_END[metric]
        assert entry["value"] > 0, metric
    traced = cli.metric_values(outcome, trace=True)
    assert set(traced) == set(catalog.LAYERS)
    for metric, entry in traced.items():
        assert entry["unit"] == catalog.LAYERS[metric]
    assert outcome.decompositions
    for item in outcome.decompositions:
        assert all(seconds >= -1e-6 for seconds in item.layers.values()), item
    if name == "gateway-hot":
        assert outcome.layers["service.server.transport_ms_p50"] > 0
        assert outcome.layers["service.server.decode_us"] > 0
        assert outcome.layers["service.server.encode_us"] > 0
    else:
        share = outcome.layers["trace.residual_share"]
        assert 0 < share <= RESIDUAL_LIMIT[name], share


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_answer_is_counted(name):
    module, config = TINY[name]
    config = dataclasses.replace(config, corrupt_one_answer=True)
    outcome = module.run(catalog.DEFAULT_SEED, False, config)
    assert outcome.wrong >= 1
    assert not outcome.correct
    assert outcome.error_share() > 0


def test_cli_exits_nonzero_on_wrong_answer(monkeypatch, capsys):
    tiny = dataclasses.replace(TINY["mc-fleet"][1], corrupt_one_answer=True)
    monkeypatch.setattr(mc_fleet, "Config", lambda: tiny)
    code = cli.main(["--workload", "mc-fleet", "--seconds", "0.3"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-fleet"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
