import dataclasses
import math

import pytest

from kga2c import bundled_corpus_lines, bundled_game_text, engine, oracle
from kga2c.templates import FrequencyTable, build_action_space

import checks


@pytest.fixture(scope="module")
def microzork():
    spec = engine.load_game(bundled_game_text("microzork"))
    freq = FrequencyTable.from_lines(bundled_corpus_lines())
    space = build_action_space(spec.templates, spec.vocabulary, freq)
    state, _ = engine.reset(spec)
    candidates = frozenset(engine.in_scope_words(state, spec)) | {"north", "lamp"}
    return spec, space, state, candidates


def test_gate_accepts_the_oracle_result(microzork):
    spec, space, state, candidates = microzork
    got = oracle.valid_actions(state, spec, space, candidates)
    assert len(got) > 1
    checks.check_valid_set(state, spec, space, candidates, got)


def test_gate_rejects_a_valid_set_missing_one_action(microzork):
    spec, space, state, candidates = microzork
    got = oracle.valid_actions(state, spec, space, candidates)
    short = dataclasses.replace(
        got,
        actions=got.actions[1:],
        template_ids=got.template_ids[1:],
        fillers=got.fillers[1:],
    )
    with pytest.raises(checks.CheckFailed, match=got.actions[0]) as err:
        checks.check_valid_set(state, spec, space, candidates, short)
    assert err.value.check == "valid_set"


def test_gate_rejects_a_truncated_result(microzork):
    spec, space, state, candidates = microzork
    got = oracle.valid_actions(state, spec, space, candidates, budget=3)
    assert got.truncated
    with pytest.raises(checks.CheckFailed, match="truncated"):
        checks.check_valid_set(state, spec, space, candidates, got)


def test_sample_is_seeded_and_distinct(microzork):
    spec, space, state, candidates = microzork
    result = oracle.valid_actions(state, spec, space, candidates)
    calls = [(state, candidates, result)] * 3 + [(state, frozenset(), result)]
    assert len(checks.sample_valid_calls(calls, 10, seed=1)) == 2
    assert checks.sample_valid_calls(calls, 1, seed=1) == checks.sample_valid_calls(
        calls, 1, seed=1)


def test_losses_must_be_finite():
    checks.check_losses([{"loss_total": 1.0, "grad_norm": 0.5, "steps": 32}])
    with pytest.raises(checks.CheckFailed, match="finite_losses"):
        checks.check_losses([{"loss_total": 1.0}, {"loss_actor": math.nan}])


def test_episode_score_and_length_bounds(microzork):
    spec = microzork[0]
    checks.check_episode(0, spec.turn_cap, spec)
    with pytest.raises(checks.CheckFailed, match="eval_score"):
        checks.check_episode(spec.max_score + 1, 10, spec)
    with pytest.raises(checks.CheckFailed, match="eval_terminates"):
        checks.check_episode(0, spec.turn_cap + 1, spec)
