"""``tools/behaviour_hash.py --compare`` on small synthetic dumps: round-off
passes; a larger difference, a non-finite value, a changed action or eval
result, and a missing run fail.  And every run, each bundled game under each
ablation, against the pinned dump ``data/behaviour.json``: the full runs and
the microzork ablations on their own, then all 18 together, each run made
once."""

import importlib.util
import json
from pathlib import Path

import pytest

from kga2c import BUNDLED_GAMES
from kga2c.agent import ABLATIONS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "behaviour_hash.py"
PINNED = Path(__file__).resolve().parent / "data" / "behaviour.json"


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


@pytest.fixture(scope="module")
def runs(tool):
    """All 18 runs, each bundled game under each ablation, made once."""
    out: dict = {}
    for game, ablation, run in tool.behaviour_runs():
        out.setdefault(game, {})[ablation] = run
    return out


def compare_with_pinned(tool, tmp_path, runs, games, ablations):
    """``compare`` the pinned runs of ``games`` x ``ablations`` with ``runs``."""
    pinned = json.loads(PINNED.read_text())
    paths = []
    for name, source in (("parent.json", pinned), ("change.json", runs)):
        path = tmp_path / name
        path.write_text(json.dumps(
            {g: {a: source[g][a] for a in ablations} for g in games},
            sort_keys=True))
        paths.append(str(path))
    return tool.compare(*paths)


def test_full_runs_match_the_pinned_dump(tool, tmp_path, capsys, runs):
    assert compare_with_pinned(tool, tmp_path, runs, BUNDLED_GAMES,
                               ("full",)) == 0, capsys.readouterr().out


def test_microzork_ablations_match_the_pinned_dump(tool, tmp_path, capsys, runs):
    ablations = [a for a in ABLATIONS if a != "full"]  # full: the test above
    assert compare_with_pinned(tool, tmp_path, runs, ("microzork",),
                               ablations) == 0, capsys.readouterr().out


def test_every_run_matches_the_pinned_dump(tool, tmp_path, capsys, runs):
    path = tmp_path / "change.json"
    path.write_text(json.dumps(runs, sort_keys=True))
    assert tool.compare(str(PINNED), str(path)) == 0, capsys.readouterr().out
    pinned = json.loads(PINNED.read_text())
    assert {game: sorted(r) for game, r in pinned.items()} == {
        game: sorted(ABLATIONS) for game in BUNDLED_GAMES}
