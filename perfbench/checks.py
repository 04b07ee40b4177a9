"""Correctness gate: the benchmark's own checks of the program's outputs.

Each check raises ``CheckFailed`` naming itself.  The harness runs them after
the timed section, on what the timed section recorded.
"""

from __future__ import annotations

import math
import random
from itertools import product
from typing import Iterable, Sequence

from kga2c import engine
from kga2c.templates import ActionSpace


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def brute_force_valid(
    state: engine.WorldState,
    spec: engine.GameSpec,
    space: ActionSpace,
    candidates: Iterable[str],
) -> dict[str, int]:
    """Every canonical instantiation over ``candidates`` whose render-free
    transition changes the state digest, mapped to the first template id (in
    template order) that produces it.  No probe budget."""
    words = sorted(set(candidates))
    before = engine.digest(state)
    found: dict[str, int] = {}
    tried: set[str] = set()
    for tid, template in enumerate(space.templates):
        for combo in product(words, repeat=template.blanks):
            action = space.instantiate(tid, list(combo))
            if action in tried:
                continue
            tried.add(action)
            after, _, _, _ = engine.step_core(state, action, spec)
            if engine.digest(after) != before:
                found[action] = tid
    return found


def check_valid_set(
    state: engine.WorldState,
    spec: engine.GameSpec,
    space: ActionSpace,
    candidates: Iterable[str],
    got,
) -> None:
    """``got`` (an ``oracle.ValidSet``) must equal the brute-force set over
    the same candidate words, template ids included, and must not be
    truncated."""
    if got.truncated:
        raise CheckFailed("valid_set", f"truncated result at {engine.digest(state)}")
    expected = brute_force_valid(state, spec, space, candidates)
    actual = dict(zip(got.actions, got.template_ids))
    if actual != expected:
        missing = sorted(set(expected) - set(actual))
        extra = sorted(set(actual) - set(expected))
        moved = sorted(
            a for a in set(expected) & set(actual) if expected[a] != actual[a]
        )
        raise CheckFailed(
            "valid_set",
            f"state {engine.digest(state)}: missing {missing[:5]}, "
            f"extra {extra[:5]}, other template {moved[:5]}",
        )


def sample_valid_calls(calls: Sequence[tuple], k: int, seed: int) -> list[tuple]:
    """Up to ``k`` recorded ``(state, candidates, result)`` calls with distinct
    (state digest, candidates) keys, drawn with a seeded RNG."""
    distinct: dict[tuple, tuple] = {}
    for call in calls:
        distinct.setdefault((engine.digest(call[0]), call[1]), call)
    keys = sorted(distinct)
    random.Random(seed).shuffle(keys)
    return [distinct[key] for key in keys[:k]]


def check_losses(rows: Sequence[dict]) -> None:
    """Every loss and the gradient norm of every update are finite."""
    for i, row in enumerate(rows):
        for key, value in row.items():
            if (key.startswith("loss_") or key == "grad_norm") and not math.isfinite(
                value
            ):
                raise CheckFailed("finite_losses", f"update {i}: {key} = {value}")


def check_episode(score: int, steps: int, spec: engine.GameSpec) -> None:
    """A greedy episode ended within the turn cap with a score in range."""
    if not 0 <= score <= spec.max_score:
        raise CheckFailed("eval_score", f"score {score} outside [0, {spec.max_score}]")
    if not 0 < steps <= spec.turn_cap:
        raise CheckFailed(
            "eval_terminates", f"{steps} steps, turn cap {spec.turn_cap}"
        )
