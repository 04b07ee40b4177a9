"""Template action space: alias-group parsing, corpus-frequency canonicalization,
and instantiation of executable command text.

A template is a verb phrase with an optional preposition and 0-2 object blanks,
e.g. ``[take/get/carry] OBJ`` or ``put OBJ [in/into] OBJ``.  Alias groups are
collapsed to a single canonical surface form using word frequencies gathered
from a playthrough corpus.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Container, Iterable, Sequence

BLANK = "OBJ"

_GROUP_RE = re.compile(r"\[([^\[\]]*)\]")


class TemplateError(ValueError):
    """Malformed template string or bad instantiation."""


class OutOfVocabularyError(TemplateError):
    """A word is not part of the action-space vocabulary."""


@dataclass(frozen=True)
class Template:
    """One action-grammar unit.

    ``slots`` is the surface layout, a tuple over {"V", "OBJ", "P"}; verbs and
    prepositions are alias groups (each alias may span several words).
    """

    verbs: tuple[str, ...]
    prepositions: tuple[str, ...]
    blanks: int
    slots: tuple[str, ...]
    canonical_verb: str
    canonical_preposition: str | None

    def __post_init__(self) -> None:
        if self.blanks not in (0, 1, 2):
            raise TemplateError(f"blank count must be 0, 1 or 2, got {self.blanks}")
        if self.canonical_verb not in self.verbs:
            raise TemplateError("canonical verb is not one of its aliases")
        if self.prepositions and self.canonical_preposition not in self.prepositions:
            raise TemplateError("canonical preposition is not one of its aliases")
        if self.slots.count(BLANK) != self.blanks:
            raise TemplateError("slot layout disagrees with blank count")

    @property
    def pattern(self) -> str:
        """Canonical surface pattern, e.g. ``"put OBJ in OBJ"``."""
        return " ".join(self._render(BLANK, BLANK))

    def words(self) -> set[str]:
        """All words appearing in any alias of this template."""
        out: set[str] = set()
        for alias in self.verbs + self.prepositions:
            out.update(alias.split())
        return out

    def _render(self, *fillers: str) -> list[str]:
        parts: list[str] = []
        it = iter(fillers)
        for slot in self.slots:
            if slot == "V":
                parts.append(self.canonical_verb)
            elif slot == "P":
                parts.append(self.canonical_preposition or "")
            else:
                parts.append(next(it))
        return parts


def parse_template(s: str) -> Template:
    """Parse a template string in the bracket grammar.

    Tokens before the first OBJ form the verb phrase; a later non-OBJ token run
    forms the preposition group.  At most one ``[a/b/...]`` group may appear in
    each of the two positions, and at most two OBJ blanks are allowed.
    """
    text = s.strip()
    if not text:
        raise TemplateError("empty template")
    if text.count("[") != text.count("]"):
        raise TemplateError(f"unbalanced brackets in template: {s!r}")

    # Tokenize into bracket groups, OBJ markers, and bare words.
    tokens: list[tuple[str, tuple[str, ...] | str]] = []
    pos = 0
    for m in _GROUP_RE.finditer(text):
        for word in text[pos : m.start()].split():
            tokens.append(("OBJ" if word == BLANK else "word", word))
        aliases = tuple(a.strip() for a in m.group(1).split("/"))
        if not aliases or any(not a for a in aliases):
            raise TemplateError(f"empty alias in group: {m.group(0)!r}")
        tokens.append(("group", aliases))
        pos = m.end()
    for word in text[pos:].split():
        tokens.append(("OBJ" if word == BLANK else "word", word))
    for kind, val in tokens:
        if kind == "word" and ("[" in val or "]" in val):
            raise TemplateError(f"malformed brackets in template: {s!r}")

    blanks = sum(1 for kind, _ in tokens if kind == "OBJ")
    if blanks > 2:
        raise TemplateError(f"more than two blanks in template: {s!r}")

    def collapse(run: list[tuple[str, tuple[str, ...] | str]]) -> tuple[str, ...]:
        """Combine a run of words/groups into a phrase alias tuple."""
        groups = [t for t in run if t[0] == "group"]
        if len(groups) > 1:
            raise TemplateError(f"more than one alias group in a phrase: {s!r}")
        pieces: list[tuple[str, ...]] = []
        for kind, val in run:
            pieces.append(val if kind == "group" else (val,))  # type: ignore[arg-type]
        phrases = [""]
        for alternatives in pieces:
            phrases = [
                (p + " " + alt).strip() for p in phrases for alt in alternatives
            ]
        return tuple(phrases)

    verb_run: list = []
    prep_run: list = []
    layout: list[str] = []
    seen_obj = 0
    for kind, val in tokens:
        if kind == "OBJ":
            if seen_obj == 0 and not layout:
                layout.append("V")
            seen_obj += 1
            layout.append(BLANK)
        elif seen_obj == 0:
            verb_run.append((kind, val))
        else:
            if not prep_run:
                layout.append("P")
            elif layout[-1] != "P":
                raise TemplateError(f"more than one preposition phrase: {s!r}")
            prep_run.append((kind, val))
    if not verb_run:
        raise TemplateError(f"template has no verb phrase: {s!r}")
    if not layout:
        layout.append("V")

    verbs = collapse(verb_run)
    preps = collapse(prep_run) if prep_run else ()
    return Template(
        verbs=verbs,
        prepositions=preps,
        blanks=blanks,
        slots=tuple(layout),
        canonical_verb=verbs[0],
        canonical_preposition=preps[0] if preps else None,
    )


@dataclass(frozen=True)
class FrequencyTable:
    """Word occurrence counts over a playthrough corpus; unseen words count 0."""

    counts: Counter

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "FrequencyTable":
        counts: Counter = Counter()
        for line in lines:
            counts.update(line.lower().split())
        return cls(counts)

    def count(self, word: str) -> int:
        return self.counts.get(word, 0)

    def phrase_count(self, phrase: str) -> int:
        # Multi-word aliases score the sum of their member-token counts.
        return sum(self.count(w) for w in phrase.split())


def canonicalize(t: Template, freq: FrequencyTable) -> Template:
    """Pick the most corpus-frequent alias for verb and preposition.

    Ties break to the lowest alias-list index, so an all-zero table keeps the
    first alias.
    """

    def best(aliases: Sequence[str]) -> str:
        scores = [freq.phrase_count(a) for a in aliases]
        return aliases[scores.index(max(scores))]

    return replace(
        t,
        canonical_verb=best(t.verbs),
        canonical_preposition=best(t.prepositions) if t.prepositions else None,
    )


def instantiate(
    t: Template, objects: Sequence[str], vocabulary: Container[str] | None = None
) -> str:
    """Fill the template's blanks, in order, with the given words."""
    if len(objects) != t.blanks:
        raise TemplateError(
            f"template {t.pattern!r} takes {t.blanks} objects, got {len(objects)}"
        )
    if vocabulary is not None:
        for w in objects:
            if w not in vocabulary:
                raise OutOfVocabularyError(f"word not in vocabulary: {w!r}")
    return " ".join(t._render(*objects))


@dataclass(frozen=True)
class ActionSpace:
    """Ordered templates (index = decoder class id) and vocabulary (index = word id)."""

    templates: tuple[Template, ...]
    vocabulary: tuple[str, ...]

    def __post_init__(self) -> None:
        vocab = set(self.vocabulary)
        for t in self.templates:
            missing = t.words() - vocab
            if missing:
                raise OutOfVocabularyError(
                    f"template {t.pattern!r} uses words outside V: {sorted(missing)}"
                )

    @cached_property
    def word_ids(self) -> dict[str, int]:
        """Word -> id; built once per space and shared, so do not mutate it."""
        return {w: i for i, w in enumerate(self.vocabulary)}

    def word_id(self, word: str) -> int:
        try:
            return self.word_ids[word]
        except KeyError:
            raise OutOfVocabularyError(f"word not in vocabulary: {word!r}") from None

    def instantiate(self, template_id: int, objects: Sequence[str]) -> str:
        return instantiate(self.templates[template_id], objects, self.word_ids)


def build_action_space(
    templates: Iterable[Template], vocabulary: Sequence[str], freq: FrequencyTable
) -> ActionSpace:
    """Canonicalize every template against the corpus and freeze the space."""
    return ActionSpace(
        templates=tuple(canonicalize(t, freq) for t in templates),
        vocabulary=tuple(vocabulary),
    )


def action_space_size(space: ActionSpace) -> int:
    """Number of distinct groundings: sum over templates of |V|^blanks."""
    nv = len(space.vocabulary)
    return sum(nv**t.blanks for t in space.templates)
