"""Knowledge-graph belief state.

Builds a set of <subject, relation, object> triples from text observations:
interactive objects are detected by lexicon tagging plus an examine probe,
linked to the current room and the distinguished "you" node, movement actions
add navigation triples, and a small set of deterministic clause rules stands
in for open information extraction over the grammar-controlled room text.
The graph induces the decoding mask m_t = entities(G_t) intersected with V.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from . import engine

YOU = "you"

_SENTENCE_SPLIT = re.compile(r"[.!?\n]+")
_WORD = re.compile(r"[a-z][a-z'-]*")


class KnowledgeGraph:
    """Triple store with a distinguished "you" node."""

    def __init__(self) -> None:
        self.triples: set[tuple[str, str, str]] = set()

    def copy(self) -> "KnowledgeGraph":
        g = KnowledgeGraph()
        g.triples = set(self.triples)
        return g

    def add(self, subj: str, rel: str, obj: str) -> None:
        self.triples.add((subj, rel, obj))

    def discard(self, subj: str, rel: str, obj: str) -> None:
        self.triples.discard((subj, rel, obj))

    def nodes(self) -> set[str]:
        out = {YOU}
        for s, _, o in self.triples:
            out.add(s)
            out.add(o)
        return out

    def entities(self) -> set[str]:
        return self.nodes() - {YOU}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KnowledgeGraph) and self.triples == other.triples

    def __len__(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class GraphMask:
    """Vocabulary subset the object decoder may emit."""

    words: frozenset[str]

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)


def normalize_entity(text: str, spec: engine.GameSpec) -> str | None:
    """Lowercase, strip articles, reduce a phrase to its head noun in V.

    Idempotent; returns None when no vocabulary word survives.
    """
    words = [w for w in _WORD.findall(text.lower()) if w not in engine.ARTICLES]
    if not words:
        return None
    vocab = set(spec.vocabulary)
    for w in reversed(words):
        if w in spec.nouns:
            return w
    for w in reversed(words):
        if w in vocab:
            return w
    return None


def _tagged_words(text: str, spec: engine.GameSpec) -> list[str]:
    """Nouns and adjectives from the game lexicon, in order of appearance."""
    seen: set[str] = set()
    out: list[str] = []
    for w in _WORD.findall(text.lower()):
        if w in seen:
            continue
        if w in spec.nouns or w in spec.adjectives:
            seen.add(w)
            out.append(w)
    return out


def detect_interactive_objects(
    obs: engine.Observation, state: engine.WorldState, spec: engine.GameSpec
) -> list[str]:
    """Candidate nouns/adjectives from o_desc and o_game that examine cleanly.

    The examine probe runs against a throwaway copy of the state (snapshot
    semantics), so detection never perturbs the engine.  Every probe reads
    the same state, so the engine's scope memo computes its scope at most
    once.
    """
    guard = engine.digest(state)
    detected: list[str] = []
    for word in _tagged_words(obs.o_desc + "\n" + obs.o_game, spec):
        _, response, _, _ = engine.step_core(state, f"examine {word}", spec)
        if not engine.is_failure(response):
            detected.append(word)
    assert engine.digest(state) == guard
    return detected


def _current_room_node(graph: KnowledgeGraph) -> str | None:
    for s, r, o in graph.triples:
        if s == YOU and r == "in":
            return o
    return None


def update_graph(
    graph: KnowledgeGraph,
    obs: engine.Observation,
    prev_action: str,
    current_room: str,
    detected: list[str],
    spec: engine.GameSpec,
) -> KnowledgeGraph:
    """Apply the update rules for one new observation; returns a new graph.

    Growth is monotone except the single <you, in, room> edge and
    <room, has, obj> edges for objects that moved into the inventory.
    """
    g = graph.copy()
    room = normalize_entity(spec.rooms[current_room].name, spec) or current_room

    prev_room = _current_room_node(graph)
    direction = engine.direction(prev_action.lower().split())
    if direction and prev_room is not None and prev_room != room:
        g.add(prev_room, direction, room)

    for s, r, o in list(g.triples):
        if s == YOU and r == "in":
            g.discard(s, r, o)
    g.add(YOU, "in", room)

    inventory_words = set(_tagged_words(obs.o_inv, spec))
    for word in detected:
        if word in inventory_words:
            g.add(YOU, "have", word)
            g.discard(room, "has", word)
        else:
            if word != room:
                g.add(room, "has", word)
            g.add(YOU, "surrounded_by", word)
    for word in sorted(inventory_words):
        g.add(YOU, "have", word)
        g.discard(room, "has", word)

    for subj, rel, obj in _clause_triples(obs.o_desc, room, spec):
        g.add(subj, rel, obj)
    return g


def _clause_triples(
    text: str, room: str, spec: engine.GameSpec
) -> list[tuple[str, str, str]]:
    """Deterministic clause patterns: the open-information-extraction stand-in.

    Handles "there is X here", "X is in/on Y", "X contains Y", and the bare
    copular "X is Y" over vocabulary entities.
    """
    out: list[tuple[str, str, str]] = []
    for sentence in _SENTENCE_SPLIT.split(text.lower()):
        words = sentence.split()
        if not words:
            continue
        if words[0] == "there" and len(words) > 2 and words[1] in ("is", "are"):
            tail = words[2:]
            if tail and tail[-1] == "here":
                tail = tail[:-1]
            ent = normalize_entity(" ".join(tail), spec)
            if ent:
                out.append((room, "has", ent))
            continue
        for i, w in enumerate(words):
            if w in ("is", "are") and 0 < i < len(words) - 1:
                subj = normalize_entity(" ".join(words[:i]), spec)
                rest = words[i + 1 :]
                if rest and rest[0] in ("in", "on", "inside") and len(rest) > 1:
                    obj = normalize_entity(" ".join(rest[1:]), spec)
                    if subj and obj and subj != obj:
                        out.append((subj, rest[0], obj))
                else:
                    obj = normalize_entity(" ".join(rest), spec)
                    if subj and obj and subj != obj:
                        out.append((subj, "is", obj))
                break
            if w == "contains" and 0 < i < len(words) - 1:
                subj = normalize_entity(" ".join(words[:i]), spec)
                obj = normalize_entity(" ".join(words[i + 1 :]), spec)
                if subj and obj and subj != obj:
                    out.append((subj, "contains", obj))
                break
    return out


def graph_mask(
    graph: KnowledgeGraph,
    vocabulary: tuple[str, ...],
    p_m: float,
    rng: random.Random | int | None = None,
    in_scope: tuple[str, ...] = (),
) -> GraphMask:
    """m_t = entities(G) in V, each remaining V word added with probability p_m.

    Deterministic given (graph, V, p_m, seed).  Never empty while V is
    nonempty: falls back to in-scope object words, then to all of V.
    """
    if not 0.0 <= p_m <= 1.0:
        raise ValueError(f"p_m must be in [0, 1], got {p_m}")
    r = random.Random(rng) if not isinstance(rng, random.Random) else rng
    vocab = set(vocabulary)
    base = graph.entities() & vocab
    added: set[str] = set()
    if p_m > 0.0:
        for word in vocabulary:  # fixed order for determinism
            if word not in base and r.random() < p_m:
                added.add(word)
    words = base | added
    if not words:
        words = set(in_scope) & vocab
    if not words and vocabulary:
        words = set(vocab)
    return GraphMask(frozenset(words))


def export_graph(graph: KnowledgeGraph, format: str = "triples") -> str:
    """Render the graph as sorted DOT or tab-separated triples."""
    if format == "triples":
        return "\n".join(f"{s}\t{r}\t{o}" for s, r, o in sorted(graph.triples))
    if format == "dot":
        lines = ["digraph knowledge_graph {"]
        for node in sorted(graph.nodes()):
            lines.append(f'  "{node}";')
        for s, r, o in sorted(graph.triples):
            lines.append(f'  "{s}" -> "{o}" [label="{r}"];')
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown export format: {format!r}")


def import_triples(text: str) -> KnowledgeGraph:
    """Inverse of the triples export."""
    g = KnowledgeGraph()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 tab-separated fields")
        g.add(parts[0], parts[1], parts[2])
    return g
