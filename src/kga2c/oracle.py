"""Valid-action detection by snapshot/probe/restore.

An action is valid in a state iff executing it changes the canonical state
digest.  The oracle enumerates canonical template instantiations over a
candidate word set, probes each one against the state with the render-free
``engine.step_core``, and returns exactly the world-changing ones, leaving
the caller's state untouched.

Only fillers that can change the world are probed: the candidates whose
every token is an in-scope word (``engine.in_scope_words``) or a parser word
(``GameSpec.parser_words``).  A token of a world-changing command lands in
one of three places, and each is covered:

* an object span, which resolves only to the reference words of an in-scope
  object, so an out-of-scope word never changes the world there;
* a fixed verb or preposition token, or the ``go <direction>`` rewrite,
  whose words are all parser words;
* an article stripped from a span, and the articles are parser words.

So every pruned grounding leaves the world unchanged, and the product over
the kept words, in candidate order, keeps the order of the groundings that
survive: the result equals probing every candidate.

A probe pays only for what depends on the state.  The parse of a command
(its template readings and object spans) depends only on the game and the
command, so ``engine.parse`` memoizes it per game and each command is parsed
once, whatever the state.  The scope (``engine.objects_in_scope``) and its
words depend only on the state, and the engine memoizes them for the last
state asked about, so every probe of one call reads one scope, computed at
most once, and usually already by the observation's detection probes.
Each probe still resolves its spans against that scope and applies the
command to this state, so it is the same transition ``engine.step`` makes,
and the result stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

from . import engine
from .templates import ActionSpace, OutOfVocabularyError

DEFAULT_PROBE_BUDGET = 20_000


@dataclass(frozen=True)
class ValidSet:
    """Valid actions with their template ids and per-blank filler words."""

    actions: tuple[str, ...]
    template_ids: tuple[int, ...]  # aligned with actions
    fillers: tuple[tuple[str, ...], ...]  # aligned with actions
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.actions)

    def __contains__(self, action: str) -> bool:
        return action in self.actions


def probe_words(
    state: engine.WorldState,
    spec: engine.GameSpec,
    space: ActionSpace,
    candidates: Iterable[str] | None = None,
) -> tuple[str, ...]:
    """The candidate words (default: full V, else sorted) that can change the
    world in ``state``, in candidate order.  Raises on a word outside V."""
    if candidates is None:
        words: Iterable[str] = space.vocabulary
    else:
        words = sorted(set(candidates))
        for w in words:
            if w not in space.word_ids:
                raise OutOfVocabularyError(f"candidate word not in V: {w!r}")
    keep = spec.parser_words.union(engine.in_scope_words(state, spec))
    return tuple(w for w in words if keep.issuperset(w.lower().split()))


def valid_actions(
    state: engine.WorldState,
    spec: engine.GameSpec,
    space: ActionSpace,
    candidates: Iterable[str] | None = None,
    budget: int | None = DEFAULT_PROBE_BUDGET,
) -> ValidSet:
    """Probe every canonical instantiation over the ``probe_words`` of
    ``candidates`` (default: full V).

    The probe budget bounds the groundings tried, and so latency; when it is
    hit the result is flagged truncated rather than failing.  The engine
    state is unchanged on return.
    """
    words = probe_words(state, spec, space, candidates)

    # Snapshot guards the caller's state; step_core is pure, and the trailing
    # assert plus the guard re-check make non-perturbation observable.
    guard = engine.snapshot(state)
    before = engine.digest(state)

    actions: list[str] = []
    template_ids: list[int] = []
    fillers: list[tuple[str, ...]] = []
    seen: set[str] = set()
    probes = 0
    truncated = False

    for tid, template in enumerate(space.templates):
        if truncated:
            break
        for combo in product(words, repeat=template.blanks):
            if budget is not None and probes >= budget:
                truncated = True
                break
            probes += 1
            action = space.instantiate(tid, list(combo))
            if action in seen:
                continue
            # step_core counts a step valid exactly when the fields the
            # digest covers changed.
            after, _, _, _ = engine.step_core(state, action, spec)
            if after.valid_steps != state.valid_steps:
                seen.add(action)
                actions.append(action)
                template_ids.append(tid)
                fillers.append(combo)

    assert engine.digest(engine.restore(guard)) == before == engine.digest(state)
    return ValidSet(
        actions=tuple(actions),
        template_ids=tuple(template_ids),
        fillers=tuple(fillers),
        truncated=truncated,
    )


def valid_templates(valid: ValidSet) -> frozenset[int]:
    """T_valid: the template ids of the valid actions."""
    return frozenset(valid.template_ids)


def valid_objects(mask: Iterable[str], space: ActionSpace) -> frozenset[int]:
    """O_valid: vocabulary ids of the graph-mask words (this is its definition)."""
    return frozenset(space.word_id(w) for w in mask)
