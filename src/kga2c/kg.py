"""Knowledge-graph belief state.

Builds a set of <subject, relation, object> triples from text observations:
interactive objects are detected by lexicon tagging plus an examine probe,
linked to the current room and the distinguished "you" node, movement actions
add navigation triples, and a small set of deterministic clause rules stands
in for open information extraction over the grammar-controlled room text.

The graph is a plain ``frozenset`` of triples (``Graph``): ``update_graph``
returns a new one, so a graph once handed out never changes, and it can key
a memo as it is.  Its nodes are every subject and object plus "you", which
is always a node.  The graph induces the decoding mask
m_t = entities(G_t) intersected with V, a ``frozenset`` of words, where the
entities are the nodes other than "you".
"""

from __future__ import annotations

import random
import re

from . import engine

YOU = "you"

_SENTENCE_SPLIT = re.compile(r"[.!?\n]+")
_WORD = re.compile(r"[a-z][a-z'-]*")

Graph = frozenset[tuple[str, str, str]]  # <subject, relation, object> triples


def nodes(graph: Graph) -> set[str]:
    """Every subject and object of the graph, and always "you"."""
    out = {YOU}
    for s, _, o in graph:
        out.add(s)
        out.add(o)
    return out


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


def _current_room_node(graph: Graph) -> str | None:
    for s, r, o in graph:
        if s == YOU and r == "in":
            return o
    return None


def update_graph(
    graph: Graph,
    obs: engine.Observation,
    prev_action: str,
    current_room: str,
    detected: list[str],
    spec: engine.GameSpec,
) -> Graph:
    """Apply the update rules for one new observation; returns a new graph.

    Growth is monotone except the single <you, in, room> edge and
    <room, has, obj> edges for objects that moved into the inventory.
    """
    g = set(graph)
    room = normalize_entity(spec.rooms[current_room].name, spec) or current_room

    prev_room = _current_room_node(graph)
    direction = engine.direction(prev_action.lower().split())
    if direction and prev_room is not None and prev_room != room:
        g.add((prev_room, direction, room))

    g -= {t for t in g if t[0] == YOU and t[1] == "in"}
    g.add((YOU, "in", room))

    inventory_words = set(_tagged_words(obs.o_inv, spec))
    for word in detected:
        if word in inventory_words:
            g.add((YOU, "have", word))
            g.discard((room, "has", word))
        else:
            if word != room:
                g.add((room, "has", word))
            g.add((YOU, "surrounded_by", word))
    for word in sorted(inventory_words):
        g.add((YOU, "have", word))
        g.discard((room, "has", word))

    g.update(_clause_triples(obs.o_desc, room, spec))
    return frozenset(g)


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
    graph: Graph,
    vocabulary: tuple[str, ...],
    p_m: float,
    rng: random.Random | int | None = None,
    in_scope: tuple[str, ...] = (),
) -> frozenset[str]:
    """m_t = entities(G) in V, each remaining V word added with probability p_m.
    The entities are the graph's nodes other than "you".

    Deterministic given (graph, V, p_m, seed).  Never empty while V is
    nonempty: falls back to in-scope object words, then to all of V.
    """
    if not 0.0 <= p_m <= 1.0:
        raise ValueError(f"p_m must be in [0, 1], got {p_m}")
    r = random.Random(rng) if not isinstance(rng, random.Random) else rng
    vocab = set(vocabulary)
    base = (nodes(graph) - {YOU}) & vocab
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
    return frozenset(words)


def export_graph(graph: Graph, format: str = "triples") -> str:
    """Render the graph as sorted DOT or tab-separated triples."""
    if format == "triples":
        return "\n".join(f"{s}\t{r}\t{o}" for s, r, o in sorted(graph))
    if format == "dot":
        lines = ["digraph knowledge_graph {"]
        for node in sorted(nodes(graph)):
            lines.append(f'  "{node}";')
        for s, r, o in sorted(graph):
            lines.append(f'  "{s}" -> "{o}" [label="{r}"];')
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown export format: {format!r}")


def import_triples(text: str) -> Graph:
    """Inverse of the triples export."""
    g = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 tab-separated fields")
        g.add(tuple(parts))
    return frozenset(g)
