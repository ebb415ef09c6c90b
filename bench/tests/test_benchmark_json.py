"""BENCHMARK.json names exactly the metrics that run.py reports."""

import json
from pathlib import Path

import run
from spans import LAYER_METRICS
from workloads import COMMANDS, WORKLOADS, make_inputs, pass_ops

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


def test_per_layer_metrics_match():
    reported = [(name, unit) for name, unit, _ in LAYER_METRICS]
    reported += [(f"{kind}_s", "s") for kind in COMMANDS] + [("trace.overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == reported


def test_every_pass_runs_every_command(tmp_path):
    inputs = make_inputs(1)
    for workload in WORKLOADS:
        ops = pass_ops(workload, inputs, tmp_path, tmp_path)
        assert sorted({op.kind for op in ops}) == sorted(COMMANDS)
        assert len({op.label for op in ops}) == len(ops)
