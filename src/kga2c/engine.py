"""Deterministic miniature interactive-fiction engine.

Exposes the full environment loop (load/reset/step), pure side-effect-free
renderers for the look and inventory handicaps, snapshot/restore, and a
canonical state digest used for world-change detection.  All parser failures
are in-fiction text responses; step never raises on player input.  The
``.game`` format ``load_game`` reads is documented beside ``GAME_FORMAT``.

What is fixed per game is built once, on first use, as cached properties of
the definition: the parser's first-word index and word set
(``GameSpec.verb_index``, ``GameSpec.parser_words``), the parse memo
(``GameSpec.parse_memo``) and each object's and room's reference words.
Executing a command is split in two: a parse that depends only on the game
and the command's tokens, memoized per game, and a resolution of its object
spans against the state's scope, done on every call.  Rewards and victory
are stated as data: one table per section maps a predicate kind to its arity
and its state test.

The scope of a state (``objects_in_scope``) and its words
(``in_scope_words``) are memoized in one slot per game,
``GameSpec.scope_slot``, holding the last state asked about.  The slot is
keyed by the state object's identity, not its value: a ``WorldState`` is
frozen and the slot holds a strong reference to it, so the object cannot
change or be recycled while it is there, and the check costs no hashing.
One slot fits the traffic, because the callers read one state in turn: an
env step's object detection, its in-scope words, its valid-action probes
and the step itself all ask about the state just observed.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Sequence

from .templates import Template, parse_template

SENTINEL_PREV_ACTION = "<start>"
INVENTORY = "#inventory"

DIRECTIONS = (
    "north", "south", "east", "west", "up", "down",
    "northeast", "northwest", "southeast", "southwest",
)

SNAPSHOT_MAGIC = b"KGSV"
SNAPSHOT_VERSION = 1

# Fixed in-fiction failure responses, and the prefixes ``is_failure`` reads.
RESP_UNRECOGNIZED = "That phrase is not recognized."
RESP_NO_SUCH_THING = "You can't see any such thing."
RESP_NO_WAY = "You can't go that way."
RESP_NOTHING_HAPPENS = "Nothing happens."
_FAILURE_PREFIXES = (
    RESP_UNRECOGNIZED,
    RESP_NO_SUCH_THING,
    RESP_NO_WAY,
    RESP_NOTHING_HAPPENS,
    "Which ",
    "You can't",
    "You aren't",
    "You already",
    "You don't",
    "It's locked",
    "It's already",
    "It doesn't",
    "It isn't",
    "Nothing is written",
    "Time passes",
)


def is_failure(response: str) -> bool:
    """True when a response begins like a failure reply (no referent or no
    effect); the tests check walkthroughs and ``examinable`` with it."""
    return response.startswith(_FAILURE_PREFIXES)


class GameError(ValueError):
    """Base class for game-definition problems."""


class GameParseError(GameError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GameReferenceError(GameError):
    """A section references an undeclared room or object."""


class VocabularyError(GameError):
    """Declared vocabulary does not cover template or object words."""


class SnapshotError(ValueError):
    """Snapshot bytes are corrupt, of another version, or of another game."""


# ---------------------------------------------------------------------------
# Game definition


@dataclass(frozen=True)
class RoomDef:
    id: str
    name: str
    desc: str

    @cached_property
    def words(self) -> frozenset[str]:
        return frozenset(self.id.lower().split("-")) | frozenset(self.name.lower().split())


@dataclass(frozen=True)
class ObjectDef:
    id: str
    name: str
    aliases: tuple[str, ...]
    location: str  # room id, INVENTORY, or "in <object id>"
    takeable: bool = False
    openable: bool = False
    lockable: bool = False
    readable: bool = False
    container: bool = False
    is_open: bool = False
    locked: bool = False
    key: str | None = None
    text: str = ""
    desc: str = ""

    @cached_property
    def reference_words(self) -> tuple[str, ...]:
        """Words that may refer to this object, longest aliases first."""
        refs = [self.name.lower()] + [a.lower() for a in self.aliases]
        for alias in list(refs):
            for w in alias.split():
                if w not in refs:
                    refs.append(w)
        return tuple(refs)


@dataclass(frozen=True)
class RewardRule:
    id: str
    points: int
    once: bool
    trigger: tuple[str, ...]  # (kind, *args)


@dataclass(frozen=True)
class GameSpec:
    name: str
    start: str
    max_score: int
    rooms: dict[str, RoomDef]
    exits: dict[tuple[str, str], str]
    objects: dict[str, ObjectDef]
    templates: tuple[Template, ...]
    rewards: tuple[RewardRule, ...]
    victory: tuple[tuple[str, ...], ...]  # conjunction of state predicates
    vocabulary: tuple[str, ...]
    nouns: frozenset[str]
    adjectives: frozenset[str]
    valid_step_cap: int = 100
    turn_cap: int = 1000

    @cached_property
    def verb_index(self) -> dict[str, tuple[tuple[Template, str | None], ...]]:
        """First word -> (template, verb meaning) over the game and builtin
        templates, most slots first: the most structured reading wins ("open
        chest with key" binds the two-blank template, not "open OBJ" with a
        three-word span).  The sort is stable, so filtering an entry by the
        tokens afterwards gives the order that sorting the matches would."""
        index: dict[str, list[tuple[Template, str | None]]] = {}
        for template in self.templates + _BUILTINS:
            for first in dict.fromkeys(alias.split()[0] for alias in template.verbs):
                index.setdefault(first, []).append((template, _verb_meaning(template)))
        return {first: tuple(sorted(entries, key=lambda e: len(e[0].slots), reverse=True))
                for first, entries in index.items()}

    @cached_property
    def vocabulary_set(self) -> frozenset[str]:
        """``vocabulary`` as a set, for membership tests."""
        return frozenset(self.vocabulary)

    @cached_property
    def parser_words(self) -> frozenset[str]:
        """Every word the parser can read outside an object span: the verb and
        preposition words of the game and builtin templates, the articles it
        strips from spans, and the ``go <direction>`` words."""
        found: set[str] = set(ARTICLES) | {"go"} | set(DIRECTIONS)
        for template in self.templates + _BUILTINS:
            found |= template.words()
        return frozenset(found)

    @cached_property
    def parse_memo(self) -> dict[tuple[str, ...], tuple[Reading, ...]]:
        """Command tokens -> their readings, filled by ``parse``.  A reading
        depends only on the game and the tokens, never on a state."""
        return {}

    @cached_property
    def scope_slot(self) -> list:
        """``[state, its objects in scope, their words or None]`` for the
        last state ``objects_in_scope`` was asked about (see the module
        docstring)."""
        return [None, (), None]


@dataclass(frozen=True)
class WorldState:
    room: str
    locations: tuple[tuple[str, str], ...]  # object id -> place, sorted
    flags: tuple[str, ...]  # names of set flags, sorted
    score: int
    collected: frozenset[str]
    turn: int = 0
    valid_steps: int = 0

    def location_of(self, obj: str) -> str | None:
        """Where object ``obj`` is; None for an id that names no object."""
        for oid, place in self.locations:
            if oid == obj:
                return place
        return None

    def flag(self, name: str) -> bool:
        return name in self.flags


@dataclass(frozen=True)
class Observation:
    o_desc: str
    o_game: str
    o_inv: str
    a_prev: str
    score: int


def digest(state: WorldState) -> str:
    """64-bit hex digest of the canonical state, excluding turn counters.

    Equal states (modulo counters) hash equal regardless of construction
    order because all collections are stored sorted.
    """
    payload = repr(
        (state.room, state.locations, state.flags, state.score, sorted(state.collected))
    ).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


# ---------------------------------------------------------------------------
# Predicates

# Each predicate kind a section accepts -> (arity, test(state, *args)).  A
# victory conjunction holds while all its tests hold; a reward fires on the
# step that turns its test true.  Arguments are any room or object ids, so an
# object test given a room id is false, never an error.
Predicate = tuple[int, Callable[..., bool]]

VICTORY: dict[str, Predicate] = {
    "has": (1, lambda state, obj: state.location_of(obj) == INVENTORY),
    "at": (1, lambda state, room: state.room == room),
    "open": (1, lambda state, obj: state.flag(f"open:{obj}")),
    "in": (2, lambda state, obj, holder: state.location_of(obj) == f"in {holder}"),
    "score": (1, lambda state, points: state.score >= int(points)),
    "visit": (1, lambda state, room: state.flag(f"visited:{room}")),
}
REWARDS: dict[str, Predicate] = {
    "take": VICTORY["has"],
    "drop": (1, lambda state, obj: state.location_of(obj) != INVENTORY),
    "open": VICTORY["open"],
    "unlock": (1, lambda state, obj: not state.flag(f"locked:{obj}")),
    "visit": VICTORY["visit"],
    "enter": VICTORY["at"],
    "bring": (2, lambda state, obj, room: (state.room == room
                                           and state.location_of(obj) == INVENTORY)),
    "in": VICTORY["in"],
}


# ---------------------------------------------------------------------------
# Game file loading
#
# The .game format.  A document is a list of sections, each a header line
# ``[name]`` followed by ``key: value`` lines; ``#`` starts a comment, blank
# lines are skipped, and names and keys are read in any case.  For each
# section ``GAME_FORMAT`` gives every key it takes with the reader of its
# value, the keys it requires, those it may repeat (one item per line; any
# other is given at most once), the defaults of the rest, and whether it may
# appear only once per document.  Each reader's docstring names its kind of
# value; ``str`` reads text as written and ``str.lower`` lowercases it, and
# the lambdas read lowercased lists: [object] aliases are phrases separated by
# commas, [vocab] words are separated by commas or spaces.  A document needs a
# [meta] start; ids, and exits' rooms and directions, may not repeat.


def _integer(value: str, minimum: int | None = None) -> int:
    """A whole number, at least ``minimum`` when one is given."""
    try:
        number = int(value)
    except ValueError:
        raise ValueError(f"expected an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(f"must be at least {minimum}, got {number}")
    return number


def _flag(value: str) -> bool:
    """A yes/no flag: yes, true or 1; no, false or 0; in any case."""
    if value.lower() not in ("yes", "true", "1", "no", "false", "0"):
        raise ValueError(f"expected yes/no, got {value!r}")
    return value.lower() in ("yes", "true", "1")


def _direction(value: str) -> str:
    """One of ``DIRECTIONS``, in any case."""
    if value.lower() not in DIRECTIONS:
        raise ValueError(f"{value.lower()!r} is not one of {', '.join(DIRECTIONS)}")
    return value.lower()


def _place(value: str) -> str:
    """A room id, ``inventory`` (read as ``INVENTORY``) or ``in <object id>``."""
    if value == "inventory":
        return INVENTORY
    return "in " + value[3:].strip() if value.startswith("in ") else value


def _when(value: str, table: dict[str, Predicate]) -> tuple[str, ...]:
    """A predicate ``kind arg...`` of ``table`` with its arity, whose ids
    ``load_game`` checks once every room and object is declared."""
    pred = tuple(value.lower().split())
    if not pred or pred[0] not in table:
        raise ValueError(f"unknown predicate {' '.join(pred)!r}, expected one of "
                         f"{', '.join(table)}")
    kind, *args = pred
    if len(args) != table[kind][0]:
        raise ValueError(f"predicate {kind!r} takes {table[kind][0]} argument(s)")
    if kind == "score":
        _integer(args[0])
    return pred


@dataclass(frozen=True)
class SectionFormat:
    """What one section of a .game document takes (see the comment above)."""
    readers: dict[str, Callable[[str], object]]
    required: tuple[str, ...] = ()
    repeatable: tuple[str, ...] = ()
    defaults: dict[str, object] = field(default_factory=dict)
    once: bool = False


_OBJECT_FLAGS = ("takeable", "openable", "lockable", "readable", "container", "open", "locked")

GAME_FORMAT: dict[str, SectionFormat] = {
    "meta": SectionFormat(
        {"name": str, "start": str, "max-score": _integer,
         **dict.fromkeys(("valid-step-cap", "turn-cap"), partial(_integer, minimum=1))},
        defaults={"name": "game", "start": None, "max-score": 0,
                  "valid-step-cap": 100, "turn-cap": 1000},
        once=True),
    "room": SectionFormat({"id": str, "name": str, "desc": str},
                          required=("id", "name", "desc")),
    "exit": SectionFormat({"from": str, "dir": _direction, "to": str},
                          required=("from", "dir", "to")),
    "object": SectionFormat(
        {"id": str, "name": str.lower, "loc": _place, "key": str, "text": str, "desc": str,
         "aliases": lambda v: tuple(a.strip().lower() for a in v.split(",") if a.strip()),
         **dict.fromkeys(_OBJECT_FLAGS, _flag)},
        required=("id", "name", "loc"),
        defaults={"aliases": (), "key": None, "text": "", "desc": "",
                  **dict.fromkeys(_OBJECT_FLAGS, False)}),
    "template": SectionFormat({"pattern": parse_template}, repeatable=("pattern",)),
    "reward": SectionFormat(
        {"id": str, "when": partial(_when, table=REWARDS), "points": _integer, "once": _flag},
        required=("id", "when", "points"), defaults={"once": True}),
    "victory": SectionFormat({"when": partial(_when, table=VICTORY)}, repeatable=("when",)),
    "vocab": SectionFormat({"words": lambda v: tuple(v.replace(",", " ").lower().split())},
                           defaults={"words": ()}, once=True),
}


def _read_sections(text: str) -> list[tuple[str, int, list[tuple[str, object, int]]]]:
    """Each section of a .game document as (name, header line, entries), an
    entry being (key, the value as its reader gave it, line)."""
    sections: list[tuple[str, int, list[tuple[str, object, int]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in GAME_FORMAT:
                raise GameParseError(lineno, f"unknown section [{name}]")
            if GAME_FORMAT[name].once and any(s[0] == name for s in sections):
                raise GameParseError(lineno, f"a second [{name}] section; it may "
                                     "appear once")
            sections.append((name, lineno, []))
            continue
        if not sections:
            raise GameParseError(lineno, f"content before any section: {line.strip()!r}")
        if ":" not in line:
            raise GameParseError(lineno, f"expected 'key: value', got {line.strip()!r}")
        name, _, entries = sections[-1]
        form = GAME_FORMAT[name]
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key not in form.readers:
            raise GameParseError(lineno, f"[{name}] takes no key {key!r}, expected one of "
                                 f"{', '.join(sorted(form.readers))}")
        if key not in form.repeatable and any(k == key for k, _, _ in entries):
            raise GameParseError(lineno, f"[{name}]: {key!r} given twice")
        try:
            entries.append((key, form.readers[key](value.strip()), lineno))
        except ValueError as exc:
            raise GameParseError(lineno, f"[{name}] {key}: {exc}") from exc
    if not sections:
        raise GameParseError(0, "empty game definition")
    return sections


def load_game(text: str) -> GameSpec:
    """Parse and validate a game-definition document (see ``GAME_FORMAT``)."""
    sections = _read_sections(text)
    meta = GAME_FORMAT["meta"].defaults
    rooms: dict[str, RoomDef] = {}
    exits: dict[tuple[str, str], str] = {}
    objects: dict[str, ObjectDef] = {}
    templates: list[Template] = []
    rewards: dict[str, RewardRule] = {}
    victory: list[tuple[str, ...]] = []
    vocab: tuple[str, ...] | None = None
    for name, header, entries in sections:
        form = GAME_FORMAT[name]
        kv = {**form.defaults, **{key: value for key, value, _ in entries}}
        for key in form.required:
            if key not in kv:
                raise GameParseError(header, f"missing required key {key!r}")
        declared = {"room": rooms, "object": objects, "reward": rewards}.get(name, ())
        if "id" in kv and kv["id"] in declared:
            raise GameParseError(header, f"duplicate {name} id {kv['id']!r}")
        if name == "meta":
            meta = kv
        elif name == "room":
            rooms[kv["id"]] = RoomDef(id=kv["id"], name=kv["name"], desc=kv["desc"])
        elif name == "exit":
            if (kv["from"], kv["dir"]) in exits:
                raise GameParseError(header, f"duplicate exit {kv['dir']} from {kv['from']!r}")
            exits[(kv["from"], kv["dir"])] = kv["to"]
        elif name == "object":
            objects[kv["id"]] = ObjectDef(
                id=kv["id"], name=kv["name"], aliases=kv["aliases"], location=kv["loc"],
                takeable=kv["takeable"], openable=kv["openable"], lockable=kv["lockable"],
                readable=kv["readable"], container=kv["container"] or kv["openable"],
                is_open=kv["open"], locked=kv["locked"], key=kv["key"], text=kv["text"],
                desc=kv["desc"])
        elif name == "template":
            templates.extend(value for _, value, _ in entries)
        elif name == "reward":
            rewards[kv["id"]] = RewardRule(id=kv["id"], points=kv["points"], once=kv["once"],
                                           trigger=kv["when"])
        elif name == "victory":
            victory.extend(value for _, value, _ in entries)
        else:  # vocab
            vocab = kv["words"]

    if meta["start"] is None:
        raise GameParseError(0, "missing [meta] start room")
    if meta["start"] not in rooms:
        raise GameReferenceError(f"start room {meta['start']!r} is not declared")
    for (src, _), dst in exits.items():
        if src not in rooms:
            raise GameReferenceError(f"exit from undeclared room {src!r}")
        if dst not in rooms:
            raise GameReferenceError(f"exit to undeclared room {dst!r}")
    places = {INVENTORY, *rooms, *(f"in {oid}" for oid in objects)}
    for obj in objects.values():
        if obj.location not in places:
            raise GameReferenceError(f"object {obj.id!r} placed in undeclared room or "
                                     f"container {obj.location!r}")
        if obj.key is not None and obj.key not in objects:
            raise GameReferenceError(f"object {obj.id!r} keyed by undeclared object "
                                     f"{obj.key!r}")
    for name, _, entries in sections:
        for key, pred, line in entries:
            for arg in pred[1:] if key == "when" and pred[0] != "score" else ():
                if arg not in rooms and arg not in objects:
                    raise GameReferenceError(
                        f"line {line}: [{name}] when: unknown room/object {arg!r}")

    # A noun is the last word of a name or alias, or any word of a room; an
    # adjective is another word of a name or alias that is no noun.
    nouns = set().union(*(room.words for room in rooms.values()))
    adjectives: set[str] = set()
    required = nouns | {word for t in templates for word in t.words()}
    for obj in objects.values():
        for alias in (obj.name, *obj.aliases):
            words = alias.split()
            required.update(words)
            nouns.update(words[-1:])
            adjectives.update(words[:-1])
    if vocab is not None and not required <= set(vocab):
        raise VocabularyError(
            f"declared vocabulary is missing words: {sorted(required - set(vocab))}")

    return GameSpec(
        name=meta["name"],
        start=meta["start"],
        max_score=meta["max-score"],
        rooms=rooms,
        exits=exits,
        objects=objects,
        templates=tuple(templates),
        rewards=tuple(rewards.values()),
        victory=tuple(victory),
        vocabulary=tuple(sorted(required if vocab is None else set(vocab))),
        nouns=frozenset(nouns),
        adjectives=frozenset(adjectives - nouns),
        valid_step_cap=meta["valid-step-cap"],
        turn_cap=meta["turn-cap"],
    )


def load_game_file(path) -> GameSpec:
    with open(path, encoding="utf-8") as fh:
        return load_game(fh.read())



# ---------------------------------------------------------------------------
# State construction and rendering


def reset(spec: GameSpec) -> tuple[WorldState, Observation]:
    """The game's one initial state and its observation."""
    locations = {o.id: o.location for o in spec.objects.values()}
    flags = [f"visited:{spec.start}"]
    for o in spec.objects.values():
        if o.is_open:
            flags.append(f"open:{o.id}")
        if o.locked:
            flags.append(f"locked:{o.id}")
    state = WorldState(room=spec.start, locations=tuple(sorted(locations.items())),
                       flags=tuple(sorted(set(flags))), score=0, collected=frozenset())
    return state, observation(state, spec)


def observation(state: WorldState, spec: GameSpec, o_game: str | None = None,
                a_prev: str = SENTINEL_PREV_ACTION) -> Observation:
    """The observation of ``state``.  ``o_game`` is the parser's response to
    the last command; a fresh start, with none, shows the room description."""
    o_desc = render_look(state, spec)
    return Observation(
        o_desc=o_desc,
        o_game=o_desc if o_game is None else o_game,
        o_inv=render_inventory(state, spec),
        a_prev=a_prev,
        score=state.score,
    )


def objects_in_scope(state: WorldState, spec: GameSpec) -> tuple[ObjectDef, ...]:
    """Objects in the current room, the inventory, and open containers here,
    in declaration order; memoized in ``spec.scope_slot`` (see the module
    docstring)."""
    slot = spec.scope_slot
    if slot[0] is not state:
        slot[:] = state, _objects_in_scope(state, spec), None
    return slot[1]


def _objects_in_scope(state: WorldState, spec: GameSpec) -> tuple[ObjectDef, ...]:
    loc = dict(state.locations)
    out = []
    for oid in spec.objects:  # declaration order for stable rendering
        place = loc[oid]
        if place == INVENTORY or place == state.room:
            out.append(spec.objects[oid])
        elif place.startswith("in "):
            holder_id = place[3:]
            holder = spec.objects[holder_id]
            if loc[holder_id] in (state.room, INVENTORY) and (
                not holder.openable or f"open:{holder_id}" in state.flags
            ):
                out.append(spec.objects[oid])
    return tuple(out)


def in_scope_words(state: WorldState, spec: GameSpec) -> tuple[str, ...]:
    """All single words that can refer to an in-scope object (handicap),
    sorted; kept in ``spec.scope_slot`` beside the state's scope."""
    scope = objects_in_scope(state, spec)
    slot = spec.scope_slot
    if slot[2] is None:
        slot[2] = tuple(sorted({word for obj in scope for ref in obj.reference_words
                                for word in ref.split()}))
    return slot[2]


def _listing(objs: Iterable[ObjectDef]) -> str:
    """Join objects as "a X and an Y"."""
    return " and ".join(f"{'an' if o.name[:1] in 'aeiou' else 'a'} {o.name}" for o in objs)


def _contents(state: WorldState, spec: GameSpec, holder: str) -> list[ObjectDef]:
    loc = dict(state.locations)
    return [o for o in spec.objects.values() if loc[o.id] == f"in {holder}"]


def render_look(state: WorldState, spec: GameSpec) -> str:
    """Room description exactly as the ``look`` command would print it."""
    room = spec.rooms[state.room]
    lines = [room.name, room.desc]
    loc = dict(state.locations)
    here = [o for o in spec.objects.values() if loc[o.id] == state.room]
    for obj in here:
        lines.append(f"There is {_listing([obj])} here.")
        if obj.container and (not obj.openable or state.flag(f"open:{obj.id}")):
            inside = _contents(state, spec, obj.id)
            if inside:
                lines.append(f"The {obj.name} contains {_listing(inside)}.")
    return "\n".join(lines)


def render_inventory(state: WorldState, spec: GameSpec) -> str:
    loc = dict(state.locations)
    held = [o for o in spec.objects.values() if loc[o.id] == INVENTORY]
    if not held:
        return "You are empty-handed."
    return f"You are carrying {_listing(held)}."


# ---------------------------------------------------------------------------
# Snapshot / restore


def snapshot(state: WorldState) -> bytes:
    payload = json.dumps(
        {
            "room": state.room,
            "locations": list(state.locations),
            "flags": list(state.flags),
            "score": state.score,
            "collected": sorted(state.collected),
            "turn": state.turn,
            "valid_steps": state.valid_steps,
        },
        sort_keys=True,
    ).encode("utf-8")
    header = SNAPSHOT_MAGIC + struct.pack("<HI", SNAPSHOT_VERSION, len(payload))
    return header + payload + struct.pack("<I", zlib.crc32(payload))


def restore(blob: bytes, spec: GameSpec) -> WorldState:
    """The state ``snapshot`` wrote, refused unless it is one of ``spec``'s:
    in a game room, placing exactly the game's objects in places it has."""
    if len(blob) < 14 or blob[:4] != SNAPSHOT_MAGIC:
        raise SnapshotError("not a snapshot (bad magic)")
    version, length = struct.unpack("<HI", blob[4:10])
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    payload = blob[10 : 10 + length]
    if len(payload) != length or len(blob) != 14 + length:
        raise SnapshotError("snapshot truncated")
    (crc,) = struct.unpack("<I", blob[10 + length :])
    if crc != zlib.crc32(payload):
        raise SnapshotError("snapshot checksum mismatch")
    try:
        data = json.loads(payload.decode("utf-8"))
        state = WorldState(
            room=data["room"],
            locations=tuple((a, b) for a, b in data["locations"]),
            flags=tuple(data["flags"]),
            score=int(data["score"]),
            collected=frozenset(data["collected"]),
            turn=int(data["turn"]),
            valid_steps=int(data["valid_steps"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed snapshot payload: {exc}") from exc
    places = {INVENTORY, *spec.rooms, *(f"in {oid}" for oid in spec.objects)}
    ids = [oid for oid, _ in state.locations]
    if (state.room not in spec.rooms or ids != sorted(spec.objects)
            or not places.issuperset(place for _, place in state.locations)):
        raise SnapshotError(f"not a state of game {spec.name!r}")
    return state


# ---------------------------------------------------------------------------
# Command parsing

# Verb meanings the engine can execute.  A template's verb group is mapped to
# a meaning via ANY of its aliases; templates with no executable meaning parse
# fine but always answer "Nothing happens."
_VERB_MEANINGS = {
    "look": "look", "l": "look",
    "inventory": "inventory", "i": "inventory",
    "examine": "examine", "x": "examine", "inspect": "examine",
    "take": "take", "get": "take", "grab": "take", "carry": "take", "hold": "take",
    "drop": "drop", "discard": "drop",
    "open": "open", "unlock": "unlock",
    "close": "close", "shut": "close",
    "lock": "lock",
    "read": "read",
    "put": "put", "insert": "put",
    "wait": "wait", "z": "wait",
    "go": "go",
}
for _d in DIRECTIONS:
    _VERB_MEANINGS[_d] = _d

ARTICLES = frozenset({"a", "an", "the"})

# Meta commands always understood even when absent from the game's templates.
_BUILTIN_PATTERNS = ("look", "inventory", "examine OBJ", "wait")


_BUILTINS = tuple(parse_template(p) for p in _BUILTIN_PATTERNS)


def _verb_meaning(template: Template) -> str | None:
    for alias in template.verbs:
        head = alias.split()[0]
        if head in _VERB_MEANINGS:
            return _VERB_MEANINGS[head]
    return None


def direction(tokens: Sequence[str]) -> str | None:
    """The direction a movement command names, bare (``north``) or after
    ``go`` (``go north``); None for any other command."""
    if len(tokens) == 2 and tokens[0] == "go":
        tokens = tokens[1:]
    if len(tokens) == 1 and tokens[0] in DIRECTIONS:
        return tokens[0]
    return None


def _strip_articles(words: Sequence[str]) -> tuple[str, ...]:
    return tuple(w for w in words if w not in ARTICLES)


def _match_template(template: Template, tokens: Sequence[str]) -> list[tuple[str, ...]] | None:
    """Try to match tokens against a template (any alias spelling).

    Returns the list of captured object word spans, or None when the template
    does not match: the first match of a depth-first walk that tries longer
    verb and preposition aliases first and, for an object blank, the longest
    span first.  An object span of articles only is no span.
    """
    slots = template.slots

    def walk(slot_idx: int, pos: int) -> Iterator[list[tuple[str, ...]]]:
        if slot_idx == len(slots):
            if pos == len(tokens):
                yield []
        elif slots[slot_idx] == "OBJ":
            for end in range(len(tokens), pos, -1):
                span = _strip_articles(tokens[pos:end])
                if span:
                    for rest in walk(slot_idx + 1, end):
                        yield [span, *rest]
        else:
            phrases = template.verbs if slots[slot_idx] == "V" else template.prepositions
            lengths = {len(words) for words in map(str.split, phrases)
                       if list(tokens[pos:pos + len(words)]) == words}
            for length in sorted(lengths, reverse=True):
                yield from walk(slot_idx + 1, pos + length)

    return next(walk(0, 0), None)


# A reading of a command: the verb meaning of one template that matches its
# tokens (None for a template the engine cannot execute) and the object spans
# it captured, each as its words joined by single spaces.
Reading = tuple[str | None, tuple[str, ...]]

# The most commands ``GameSpec.parse_memo`` stores; later new ones are parsed
# without being stored.  The agent's template decoder and the oracle produce
# only instantiations of the game's templates over V, at most two blanks
# each, so at most |templates|·|V|² distinct commands.  The bundled games
# need 12·38² = 17,328 (microzork), 11·36² = 14,256 (pantry) and
# 6·11² = 726 (corridor), so 2^15 holds every command of any of them.  Free
# text (``kga2c play``) and the ``seq`` decoder's word sequences are not
# bounded that way; the cap bounds what they can store.
PARSE_MEMO_CAP = 32_768


def parse(tokens: tuple[str, ...], spec: GameSpec) -> tuple[Reading, ...]:
    """The readings of ``tokens`` in the order ``_execute`` tries them, most
    structured first.  Memoized in ``spec.parse_memo`` up to
    ``PARSE_MEMO_CAP`` entries: the parse reads only the tokens and the
    game's templates, so a stored reading is the one a fresh parse gives."""
    memo = spec.parse_memo
    readings = memo.get(tokens)
    if readings is None:
        readings = _parse(tokens, spec)
        if len(memo) < PARSE_MEMO_CAP:
            memo[tokens] = readings
    return readings


def _parse(tokens: tuple[str, ...], spec: GameSpec) -> tuple[Reading, ...]:
    if not tokens:
        return ()
    moving = direction(tokens)
    if moving:
        tokens = (moving,)
    readings = []
    for template, meaning in spec.verb_index.get(tokens[0], ()):
        spans = _match_template(template, tokens)
        if spans is not None:
            readings.append((meaning, tuple(" ".join(span) for span in spans)))
    return tuple(readings)


def _resolve_object(text: str, objs: Sequence[ObjectDef]) -> ObjectDef | str | None:
    """Resolve a span's text to one of ``objs``, the objects in scope.

    Returns the object, an ambiguity failure string, or None when nothing in
    scope matches.  Matching prefers the longest alias (most words).
    """
    best: list[ObjectDef] = []
    best_len = 0
    for obj in objs:
        for alias in obj.reference_words:
            if alias == text:
                alias_len = len(alias.split())
                if alias_len > best_len:
                    best, best_len = [obj], alias_len
                elif alias_len == best_len and obj not in best:
                    best.append(obj)
    if not best:
        return None
    if len(best) > 1:
        names = " or the ".join(o.name for o in best)
        return f"Which {text} do you mean, the {names}?"
    return best[0]


# ---------------------------------------------------------------------------
# Step


def step_core(
    state: WorldState, action: str, spec: GameSpec
) -> tuple[WorldState, str, int, bool]:
    """Render-free transition: (successor, parser response, reward, done).

    Never mutates ``state``; failures are in-fiction responses and leave the
    world unchanged.  Used directly by the valid-action oracle, where the
    observation channels are not needed.  The command's parse comes from the
    game's memo (``parse``); its spans are resolved against this state's
    scope (``objects_in_scope``, memoized per state) on every call, so the
    result is the one an unmemoized parse gives.  The step changed the
    world, and counts as valid, iff the canonical fields that ``digest``
    covers differ.
    """
    tokens = tuple(action.lower().split())
    response, after = _execute(state, tokens, spec)

    reward = 0
    score, collected = after.score, after.collected
    changed = False
    if after is not state:
        reward, fired = _apply_rewards(state, after, spec)
        score += reward
        collected = collected | fired
        changed = (after.room != state.room or after.locations != state.locations
                   or after.flags != state.flags or score != state.score
                   or collected != state.collected)
    after = WorldState(after.room, after.locations, after.flags, score, collected,
                       state.turn + 1, state.valid_steps + changed)
    done = (
        _victory_holds(after, spec)
        or after.valid_steps >= spec.valid_step_cap
        or after.turn >= spec.turn_cap
    )
    return after, response, reward, done


def step(
    state: WorldState, action: str, spec: GameSpec
) -> tuple[WorldState, Observation, int, bool]:
    """Apply one parsed command and render the full observation."""
    after, response, reward, done = step_core(state, action, spec)
    a_prev = " ".join(action.lower().split()) or SENTINEL_PREV_ACTION
    return after, observation(after, spec, response, a_prev), reward, done


def _execute(
    state: WorldState, tokens: tuple[str, ...], spec: GameSpec
) -> tuple[str, WorldState]:
    """(response, state after the command's effect) for ``tokens``.

    The readings come from ``parse``, which depends only on the game and the
    tokens; resolving their spans against the state's scope, read once when
    a reading first has spans, is the part that depends on the state.
    Readings come most structured first (see ``GameSpec.verb_index``); the
    first that dispatches wins, else the first failure is the answer.
    """
    first_failure: tuple[str, WorldState] | None = None
    scope: tuple[ObjectDef, ...] | None = None
    for meaning, spans in parse(tokens, spec):
        if meaning is None:
            if first_failure is None:
                first_failure = (RESP_NOTHING_HAPPENS, state)
            continue
        if spans and scope is None:
            scope = objects_in_scope(state, spec)
        resolved: list[ObjectDef] = []
        failure: str | None = None
        for span in spans:
            hit = _resolve_object(span, scope)
            if hit is None:
                # room self-reference supports "examine field" style commands
                if meaning == "examine" and _resolve_room(span, state, spec):
                    return spec.rooms[state.room].desc, state
                failure = RESP_NO_SUCH_THING
                break
            if isinstance(hit, str):
                failure = hit
                break
            resolved.append(hit)
        if failure is not None:
            if first_failure is None:
                first_failure = (failure, state)
            continue
        return _dispatch(meaning, resolved, state, spec)
    return first_failure or (RESP_UNRECOGNIZED, state)


def examinable(word: str, state: WorldState, spec: GameSpec) -> bool:
    """True when ``examine <word>`` describes something at ``state``: as
    ``_execute`` resolves it, one object in scope answers to ``word`` (two
    get "Which ...?"), or none does and it names the room."""
    hit = _resolve_object(word, objects_in_scope(state, spec))
    return isinstance(hit, ObjectDef) or (hit is None and _resolve_room(word, state, spec))


def _resolve_room(text: str, state: WorldState, spec: GameSpec) -> bool:
    room = spec.rooms[state.room]
    return text in room.words or text == room.name.lower() or text == room.id


def _move_object(state: WorldState, obj_id: str, place: str) -> WorldState:
    locations = dict(state.locations)
    locations[obj_id] = place
    return replace(state, locations=tuple(sorted(locations.items())))


def _set_flag(state: WorldState, name: str, value: bool) -> WorldState:
    flags = set(state.flags)
    if value:
        flags.add(name)
    else:
        flags.discard(name)
    return replace(state, flags=tuple(sorted(flags)))


def _dispatch(
    meaning: str, objs: list[ObjectDef], state: WorldState, spec: GameSpec
) -> tuple[str, WorldState]:
    if meaning in DIRECTIONS:
        return _do_go(meaning, state, spec)
    if meaning == "go":
        return RESP_NO_WAY, state
    if meaning == "look":
        return render_look(state, spec), state
    if meaning == "inventory":
        return render_inventory(state, spec), state
    if meaning == "wait":
        return "Time passes.", state
    if meaning == "examine":
        obj = objs[0]
        desc = obj.desc or f"You see nothing special about the {obj.name}."
        if obj.readable and obj.text:
            desc = f"{desc} Something is written on it."
        return desc, state
    if meaning == "read":
        obj = objs[0]
        if not obj.readable or not obj.text:
            return "Nothing is written on it.", state
        return obj.text, state
    if meaning == "take":
        return _do_take(objs[0], state)
    if meaning == "drop":
        return _do_drop(objs[0], state)
    if meaning == "open":
        if len(objs) == 2:
            return _do_unlock_open(objs[0], objs[1], state, spec)
        return _do_open(objs[0], state, spec)
    if meaning == "unlock":
        if len(objs) == 2:
            return _do_unlock_open(objs[0], objs[1], state, spec)
        return "It doesn't budge.", state
    if meaning == "close":
        return _do_close(objs[0], state)
    if meaning == "lock":
        return "It doesn't budge.", state
    if meaning == "put":
        if len(objs) == 2:
            return _do_put(objs[0], objs[1], state)
        return RESP_NOTHING_HAPPENS, state
    return RESP_NOTHING_HAPPENS, state


def _do_go(direction: str, state: WorldState, spec: GameSpec) -> tuple[str, WorldState]:
    dst = spec.exits.get((state.room, direction))
    if dst is None:
        return RESP_NO_WAY, state
    after = replace(state, room=dst)
    after = _set_flag(after, f"visited:{dst}", True)
    return render_look(after, spec), after


def _do_take(obj: ObjectDef, state: WorldState) -> tuple[str, WorldState]:
    if state.location_of(obj.id) == INVENTORY:
        return "You already have that.", state
    if not obj.takeable:
        return "You can't take that.", state
    return "Taken.", _move_object(state, obj.id, INVENTORY)


def _do_drop(obj: ObjectDef, state: WorldState) -> tuple[str, WorldState]:
    if state.location_of(obj.id) != INVENTORY:
        return "You aren't carrying that.", state
    return "Dropped.", _move_object(state, obj.id, state.room)


def _do_open(obj: ObjectDef, state: WorldState, spec: GameSpec) -> tuple[str, WorldState]:
    if not obj.openable:
        return "You can't open that.", state
    if state.flag(f"locked:{obj.id}"):
        return "It's locked.", state
    if state.flag(f"open:{obj.id}"):
        return "It's already open.", state
    after = _set_flag(state, f"open:{obj.id}", True)
    inside = _contents(after, spec, obj.id)
    if inside:
        return f"You open the {obj.name}, revealing {_listing(inside)}.", after
    return "Opened.", after


def _do_close(obj: ObjectDef, state: WorldState) -> tuple[str, WorldState]:
    if not obj.openable:
        return "You can't close that.", state
    if not state.flag(f"open:{obj.id}"):
        return "It isn't open.", state
    return "Closed.", _set_flag(state, f"open:{obj.id}", False)


def _do_unlock_open(
    obj: ObjectDef, key: ObjectDef, state: WorldState, spec: GameSpec
) -> tuple[str, WorldState]:
    if not obj.lockable:
        return "It doesn't need a key.", state
    if state.location_of(key.id) != INVENTORY:
        return "You aren't carrying that.", state
    if not state.flag(f"locked:{obj.id}"):
        return _do_open(obj, state, spec)
    if obj.key != key.id:
        return "It doesn't fit.", state
    after = _set_flag(state, f"locked:{obj.id}", False)
    response, after = _do_open(obj, after, spec)
    if response.startswith("You open"):
        return response.replace("You open", f"The {key.name} turns. You open", 1), after
    return f"The {key.name} turns. Opened.", after


def _do_put(obj: ObjectDef, target: ObjectDef, state: WorldState) -> tuple[str, WorldState]:
    if state.location_of(obj.id) != INVENTORY:
        return "You aren't carrying that.", state
    if not target.container or obj.id == target.id:
        return "You can't put things in that.", state
    if target.openable and not state.flag(f"open:{target.id}"):
        return "It isn't open.", state
    after = _move_object(state, obj.id, f"in {target.id}")
    return f"You put the {obj.name} in the {target.name}.", after


# ---------------------------------------------------------------------------
# Rewards and victory


def _apply_rewards(
    before: WorldState, after: WorldState, spec: GameSpec
) -> tuple[int, set[str]]:
    points = 0
    fired: set[str] = set()
    for rule in spec.rewards:
        if rule.once and rule.id in before.collected:
            continue
        kind, *args = rule.trigger
        test = REWARDS[kind][1]
        if test(after, *args) and not test(before, *args):
            points += rule.points
            if rule.once:
                fired.add(rule.id)
    return points, fired


def _victory_holds(state: WorldState, spec: GameSpec) -> bool:
    return bool(spec.victory) and all(
        VICTORY[kind][1](state, *args) for kind, *args in spec.victory)
