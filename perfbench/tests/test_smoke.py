"""Tiny-size runs of every workload through the command-line entry point."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    for name, w in run.WORKLOADS.items():
        if w.kind == "train":
            monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(w, rep_updates=1))
    monkeypatch.setattr(run, "GATE_STATES", 4)


def result(capsys, workload: str, trace: int) -> tuple[list[str], dict]:
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    res = json.loads(out[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return out, res


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_untraced_prints_every_end_to_end_metric(tiny, capsys, workload):
    out, res = result(capsys, workload, 0)
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']} (" in line
                   for line in out)
    assert len(res["metrics"]) == len(SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_prints_every_per_layer_metric(tiny, capsys, workload):
    _, res = result(capsys, workload, 1)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    value = {k: v["value"] for k, v in res["metrics"].items()}
    assert value["trace_overhead"] > 0
    if workload == "train-corridor-a2c":
        assert value["agent.gat_embed.calls"] == 0
    if workload == "eval-microzork":
        assert value["oracle.valid_actions.calls"] == 0
        assert value["numerics.backward.calls"] == 0
        assert value["engine.env_step.calls"] > 0


def test_oracle_has_the_largest_share_on_train_microzork(monkeypatch, capsys):
    # Four updates: in a single update backward can outweigh the oracle.
    w = run.WORKLOADS["train-microzork"]
    monkeypatch.setitem(run.WORKLOADS, "train-microzork",
                        dataclasses.replace(w, rep_updates=4))
    _, res = result(capsys, "train-microzork", 1)
    value = {k: v["value"] for k, v in res["metrics"].items()}
    shares = [v for k, v in value.items() if k.endswith(".self_share")]
    assert value["oracle.share"] > max(shares)


def fail_with(message):
    def boom(*args, **kwargs):
        raise RuntimeError(message)
    return boom


@pytest.mark.parametrize("workload, target, message, check", [
    ("train-corridor-a2c", "train_step", "non-finite loss; offending record",
     "finite_losses"),
    ("train-corridor-a2c", "run_rollouts", "broken rollout", "update_raised"),
    ("eval-microzork", "evaluate", "broken episode", "eval_raised"),
])
def test_an_operation_that_raises_fails_the_gate(
        tiny, monkeypatch, capsys, workload, target, message, check):
    monkeypatch.setattr(run.trainer, target, fail_with(message))
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert f"check failed: {check}: " in captured.err
    res = json.loads(captured.out.splitlines()[-1])
    assert res["correct"] is False and res["failed"] == 1


def test_a_lost_worker_rollout_fails_the_gate(tiny, monkeypatch, capsys):
    step = run.trainer.Worker.step

    def flaky(worker, agent):
        if worker.idx == 0:
            raise RuntimeError("broken worker")
        return step(worker, agent)

    monkeypatch.setattr(run.trainer.Worker, "step", flaky)
    code = run.main(["--workload", "train-corridor-a2c", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "check failed: rollouts_lost: " in captured.err


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-microzork",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
