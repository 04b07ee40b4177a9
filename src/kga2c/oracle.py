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

A probe pays only for what depends on the state, and only once per state
while the state's ``StateRecord`` is kept.  The parse of a command (its
template readings and object spans) depends only on the game and the
command, so ``engine.parse`` memoizes it per game and each command is parsed
once, whatever the state.  The scope (``engine.objects_in_scope``) and its
words depend only on the state, and the engine memoizes them for the last
state asked about, so every probe of one call reads one scope, computed at
most once, and usually already by the observation's detection probes.  Each
probe still resolves its spans against that scope and applies the command to
this state, so it is the same transition ``engine.step`` makes.  Whether a
grounding is valid depends only on its action text and on the fields
``engine.digest`` covers: ``step_core`` reads ``turn`` and ``valid_steps``
only to count them and to decide ``done``.  So a record of the groundings
probed at one digest, and of the valid ones among them, answers a later
request whose groundings it has all probed by filtering, exactly as probing
them all would, and any other request probes only the groundings it has not.
The record keeps filler tuples, not words: requests over {a} and then {b}
leave ``put a in b`` unprobed.  A call without a record probes into a fresh
one and answers from it, so there is one probe loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product
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
    """The candidate words (default: full V) that can change the world in
    ``state``, sorted.  Raises on a word outside V."""
    words = sorted(set(space.vocabulary if candidates is None else candidates))
    for w in words:
        if w not in space.word_ids:
            raise OutOfVocabularyError(f"candidate word not in V: {w!r}")
    keep = spec.parser_words.union(engine.in_scope_words(state, spec))
    return tuple(w for w in words if keep.issuperset(w.lower().split()))


Grounding = tuple[int, tuple[str, ...], str]  # (template id, fillers, action)


@dataclass
class StateRecord:
    """What probing the state with digest ``digest`` has found so far: the
    filler tuples ``probed`` there, each under every template with as many
    blanks, and the valid groundings among them in canonical order (template
    order, then fillers in sorted-word order), keeping each grounding of an
    action text that another one also produces.  ``valid_actions`` grows
    it, and the valid set over any words it covers is read from it."""

    digest: str
    probed: set[tuple[str, ...]] = field(default_factory=set)
    found: tuple[Grounding, ...] = ()

    def covers(self, space: ActionSpace, words: Iterable[str]) -> bool:
        """Whether every grounding over ``words`` was probed here."""
        words = tuple(words)
        return all(self.probed.issuperset(product(words, repeat=blanks))
                   for blanks in {t.blanks for t in space.templates})

    def answer(self, words: Iterable[str], truncated: bool = False) -> ValidSet:
        """The valid set over ``words``, as probing every grounding over them
        gives it: the groundings found here whose fillers are all request
        words, the first one per action text."""
        keep = frozenset(words)
        seen: set[str] = set()
        kept = []
        for grounding in self.found:
            if grounding[2] not in seen and keep.issuperset(grounding[1]):
                seen.add(grounding[2])
                kept.append(grounding)
        return ValidSet(
            actions=tuple(a for _, _, a in kept),
            template_ids=tuple(t for t, _, _ in kept),
            fillers=tuple(f for _, f, _ in kept),
            truncated=truncated,
        )


def valid_actions(
    state: engine.WorldState,
    spec: engine.GameSpec,
    space: ActionSpace,
    candidates: Iterable[str] | None = None,
    budget: int | None = DEFAULT_PROBE_BUDGET,
    record: StateRecord | None = None,
) -> ValidSet:
    """Probe every canonical instantiation over the ``probe_words`` of
    ``candidates`` (default: full V).

    The probe budget bounds the groundings tried, and so latency; when it is
    hit the result is flagged truncated rather than failing.  The engine
    state is unchanged on return.

    With ``record``, the state's ``StateRecord``, only the groundings it has
    not probed are probed, and it takes them in.  Without one, or when the
    budget truncates the request, the groundings are probed into a fresh
    record that is then dropped, so a truncated request leaves ``record``
    as it was.  Either way the result is the record's answer.
    """
    words = probe_words(state, spec, space, candidates)

    # Snapshot guards the caller's state; step_core is pure, and the trailing
    # assert plus the guard re-check make non-perturbation observable.
    guard = engine.snapshot(state)
    before = engine.digest(state)

    truncated = budget is not None and budget < sum(
        len(words) ** t.blanks for t in space.templates)
    if record is None or truncated:
        record = StateRecord(before)
    assert record.digest == before, "the record is another state's"
    groundings = ((tid, combo) for tid, template in enumerate(space.templates)
                  for combo in product(words, repeat=template.blanks))
    _probe_into(state, spec, space, islice(groundings, budget), record)

    assert engine.digest(engine.restore(guard, spec)) == before == engine.digest(state)
    return record.answer(words, truncated)


def _probe_into(
    state: engine.WorldState,
    spec: engine.GameSpec,
    space: ActionSpace,
    groundings: Iterable[tuple[int, tuple[str, ...]]],
    record: StateRecord,
) -> None:
    """Probe those of ``groundings``, (template id, fillers) pairs in
    canonical order, whose fillers ``record`` has not probed, and merge the
    valid ones into it in canonical order.  An action text already found
    valid is not probed again: validity depends on the text alone."""
    valid = {action for _, _, action in record.found}
    walked: set[tuple[str, ...]] = set()
    new: list[Grounding] = []
    for tid, combo in groundings:
        if combo in record.probed:
            continue
        walked.add(combo)
        action = space.instantiate(tid, list(combo))
        if action not in valid:
            # step_core counts a step valid exactly when the fields the
            # digest covers changed.
            after, _, _, _ = engine.step_core(state, action, spec)
            if after.valid_steps == state.valid_steps:
                continue
            valid.add(action)
        new.append((tid, combo, action))
    record.probed |= walked
    record.found = tuple(sorted(record.found + tuple(new), key=lambda g: g[:2]))
