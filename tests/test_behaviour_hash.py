"""``tools/behaviour_hash.py --compare`` on small synthetic dumps: round-off
passes; a larger difference, a non-finite value, a changed action or eval
result, and a missing run fail.  And the ``full`` runs on every bundled game
against their pinned dump, ``data/behaviour_full.json``, and every other
ablation on microzork against ``data/behaviour_microzork.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

from kga2c.agent import ABLATIONS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "behaviour_hash.py"
PINNED = Path(__file__).resolve().parent / "data" / "behaviour_full.json"
PINNED_MICROZORK = PINNED.with_name("behaviour_microzork.json")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("behaviour_hash", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dump():
    run = {
        "rows": [{"loss_total": 1.25, "grad_norm": 3.5, "steps": 8},
                 {"loss_total": -0.75, "grad_norm": 2.0, "steps": 8}],
        "eval": [2.0, 0.0, [2]],
        "trace": [{"action": "north"}, {"action": "take key"}],
    }
    return {"corridor": {"full": run, "a2c": json.loads(json.dumps(run))}}


def scale_grad_norm(factor):
    def edit(d):
        d["corridor"]["full"]["rows"][1]["grad_norm"] *= factor
    return edit


def set_grad_norm(value):
    def edit(d):
        d["corridor"]["a2c"]["rows"][0]["grad_norm"] = value
    return edit


def change_action(d):
    d["corridor"]["full"]["trace"][1]["action"] = "take lamp"


def change_eval(d):
    d["corridor"]["a2c"]["eval"][0] = 1.0


def drop_run(d):
    del d["corridor"]["a2c"]


def run_compare(tool, tmp_path, edit):
    parent, change = dump(), dump()
    if edit is not None:
        edit(change)
    paths = []
    for name, data in (("parent.json", parent), ("change.json", change)):
        path = tmp_path / name
        path.write_text(json.dumps(data, sort_keys=True))
        paths.append(str(path))
    return tool.compare(*paths)


@pytest.mark.parametrize("edit", [None, scale_grad_norm(1 + 1e-13)],
                         ids=["identical", "rel-1e-13"])
def test_compare_passes_round_off(tool, tmp_path, capsys, edit):
    assert run_compare(tool, tmp_path, edit) == 0
    assert "DIFFER" not in capsys.readouterr().out


def test_compare_names_the_worst_rows_key_and_update(tool, tmp_path, capsys):
    def edit(d):
        d["corridor"]["full"]["rows"][0]["loss_total"] *= 1 + 1e-14
        scale_grad_norm(1 + 1e-13)(d)

    assert run_compare(tool, tmp_path, edit) == 0
    lines = capsys.readouterr().out.splitlines()
    assert " at=grad_norm@1 " in next(line for line in lines if " full " in line)
    assert " at=- " in next(line for line in lines if " a2c " in line)


@pytest.mark.parametrize("edit", [
    scale_grad_norm(1 + 1e-9),
    set_grad_norm(float("nan")),
    set_grad_norm(float("inf")),
    change_action,
    change_eval,
    drop_run,
], ids=["rel-1e-9", "nan", "inf", "action", "eval", "missing"])
def test_compare_fails_real_differences(tool, tmp_path, edit):
    assert run_compare(tool, tmp_path, edit) == 1


def test_relative_difference_of_non_finite_values(tool):
    assert tool.relative_difference(float("inf"), float("inf")) == 0.0
    assert tool.relative_difference(1.0, float("nan")) == float("inf")
    assert tool.relative_difference(float("-inf"), float("inf")) == float("inf")


def test_full_runs_match_the_pinned_dump(tool, tmp_path, capsys):
    runs: dict = {}
    for game, ablation, run in tool.behaviour_runs(("full",)):
        runs.setdefault(game, {})[ablation] = run
    path = tmp_path / "change.json"
    path.write_text(json.dumps(runs, sort_keys=True))
    assert tool.compare(str(PINNED), str(path)) == 0, capsys.readouterr().out


def test_microzork_ablations_match_the_pinned_dump(tool, tmp_path, capsys):
    ablations = [a for a in ABLATIONS if a != "full"]  # full: the test above
    runs = {"microzork": {ablation: run for _, ablation, run
                          in tool.behaviour_runs(ablations, ("microzork",))}}
    pinned = json.loads(PINNED_MICROZORK.read_text())
    parent = tmp_path / "parent.json"
    parent.write_text(json.dumps(
        {"microzork": {a: pinned["microzork"][a] for a in ablations}}))
    change = tmp_path / "change.json"
    change.write_text(json.dumps(runs, sort_keys=True))
    assert tool.compare(str(parent), str(change)) == 0, capsys.readouterr().out
    assert sorted(pinned["microzork"]) == sorted(ABLATIONS)
