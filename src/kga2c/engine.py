"""Deterministic miniature interactive-fiction engine.

Exposes the full environment loop (load/reset/step), pure side-effect-free
renderers for the look and inventory handicaps, snapshot/restore, and a
canonical state digest used for world-change detection.  All parser failures
are in-fiction text responses; step never raises on player input.

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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .templates import Template, TemplateError, parse_template

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
            for alias in template.verbs:
                index.setdefault(alias.split()[0], []).append(
                    (template, _verb_meaning(template)))
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
# Game file loading

_BOOL_KEYS = {"takeable", "openable", "lockable", "readable", "container", "open", "locked"}


def _parse_bool(value: str, line: int) -> bool:
    v = value.strip().lower()
    if v in ("yes", "true", "1"):
        return True
    if v in ("no", "false", "0"):
        return False
    raise GameParseError(line, f"expected yes/no, got {value!r}")


def _parse_int(value: str, key: str, line: int, minimum: int | None = None) -> int:
    try:
        number = int(value)
    except ValueError:
        raise GameParseError(line, f"{key}: expected an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise GameParseError(line, f"{key}: must be at least {minimum}, got {number}")
    return number


def load_game(text: str) -> GameSpec:
    """Parse and validate a game-definition document."""
    sections: list[tuple[str, int, dict[str, str], list[tuple[str, str, int]]]] = []
    current: dict[str, str] | None = None
    entries: list[tuple[str, str, int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            current = {}
            entries = []
            sections.append((name, lineno, current, entries))
            continue
        if current is None:
            raise GameParseError(lineno, f"content before any section: {line.strip()!r}")
        if ":" not in line:
            raise GameParseError(lineno, f"expected 'key: value', got {line.strip()!r}")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        value = value.strip()
        current[key] = value
        entries.append((key, value, lineno))
    if not sections:
        raise GameParseError(0, "empty game definition")

    meta: dict[str, str] = {}
    meta_lines: dict[str, int] = {}
    rooms: dict[str, RoomDef] = {}
    exits: dict[tuple[str, str], str] = {}
    objects: dict[str, ObjectDef] = {}
    templates: list[Template] = []
    rewards: list[RewardRule] = []
    victory: list[tuple[str, ...]] = []
    declared_vocab: list[str] | None = None

    def need(kv: dict[str, str], key: str, lineno: int) -> str:
        if key not in kv:
            raise GameParseError(lineno, f"missing required key {key!r}")
        return kv[key]

    def meta_int(key: str, default: int, minimum: int | None = None) -> int:
        return _parse_int(meta.get(key, str(default)), key, meta_lines.get(key, 0), minimum)

    for name, lineno, kv, entry_list in sections:
        lines = {key: entry_line for key, _, entry_line in entry_list}
        if name == "meta":
            meta.update(kv)
            meta_lines.update(lines)
        elif name == "room":
            rid = need(kv, "id", lineno)
            if rid in rooms:
                raise GameParseError(lineno, f"duplicate room id {rid!r}")
            rooms[rid] = RoomDef(
                id=rid, name=need(kv, "name", lineno), desc=need(kv, "desc", lineno)
            )
        elif name == "exit":
            src = need(kv, "from", lineno)
            direction = need(kv, "dir", lineno).lower()
            if direction not in DIRECTIONS:
                raise GameParseError(lines["dir"], f"dir: {direction!r} is not one of "
                                     f"{', '.join(DIRECTIONS)}")
            dst = need(kv, "to", lineno)
            exits[(src, direction)] = dst
        elif name == "object":
            oid = need(kv, "id", lineno)
            if oid in objects:
                raise GameParseError(lineno, f"duplicate object id {oid!r}")
            aliases = tuple(
                a.strip().lower() for a in kv.get("aliases", "").split(",") if a.strip()
            )
            bools = {
                k: _parse_bool(kv[k], lineno) for k in _BOOL_KEYS if k in kv
            }
            objects[oid] = ObjectDef(
                id=oid,
                name=need(kv, "name", lineno).lower(),
                aliases=aliases,
                location=need(kv, "loc", lineno),
                takeable=bools.get("takeable", False),
                openable=bools.get("openable", False),
                lockable=bools.get("lockable", False),
                readable=bools.get("readable", False),
                container=bools.get("container", False) or bools.get("openable", False),
                is_open=bools.get("open", False),
                locked=bools.get("locked", False),
                key=kv.get("key"),
                text=kv.get("text", ""),
                desc=kv.get("desc", ""),
            )
        elif name == "template":
            for key, value, entry_line in entry_list:
                if key != "pattern":
                    raise GameParseError(entry_line, f"unknown template key {key!r}")
                try:
                    templates.append(parse_template(value))
                except TemplateError as exc:
                    raise GameParseError(entry_line, str(exc)) from exc
        elif name == "reward":
            rid = need(kv, "id", lineno)
            if any(r.id == rid for r in rewards):
                raise GameParseError(lineno, f"duplicate reward id {rid!r}")
            trigger = tuple(need(kv, "when", lineno).lower().split())
            rewards.append(
                RewardRule(
                    id=rid,
                    points=_parse_int(need(kv, "points", lineno), "points", lines["points"]),
                    once=_parse_bool(kv.get("once", "yes"), lineno),
                    trigger=trigger,
                )
            )
        elif name == "victory":
            for key, value, entry_line in entry_list:
                if key != "when":
                    raise GameParseError(entry_line, f"unknown victory key {key!r}")
                victory.append(tuple(value.lower().split()))
        elif name == "vocab":
            declared_vocab = [
                w.strip().lower()
                for w in kv.get("words", "").replace(",", " ").split()
                if w.strip()
            ]
        else:
            raise GameParseError(lineno, f"unknown section [{name}]")

    if "start" not in meta:
        raise GameParseError(0, "missing [meta] start room")
    start = meta["start"]
    if start not in rooms:
        raise GameReferenceError(f"start room {start!r} is not declared")
    for (src, direction), dst in exits.items():
        if src not in rooms:
            raise GameReferenceError(f"exit from undeclared room {src!r}")
        if dst not in rooms:
            raise GameReferenceError(f"exit to undeclared room {dst!r}")
    for obj in objects.values():
        loc = obj.location
        if loc.startswith("in "):
            target = loc[3:].strip()
            if target not in objects:
                raise GameReferenceError(
                    f"object {obj.id!r} placed in undeclared container {target!r}"
                )
        elif loc != INVENTORY and loc != "inventory" and loc not in rooms:
            raise GameReferenceError(
                f"object {obj.id!r} placed in undeclared room {loc!r}"
            )
        if obj.key is not None and obj.key not in objects:
            raise GameReferenceError(
                f"object {obj.id!r} keyed by undeclared object {obj.key!r}"
            )
    for rule in rewards:
        _check_predicate(rule.trigger, REWARDS, rooms, objects, f"[reward] {rule.id!r}")
    for pred in victory:
        _check_predicate(pred, VICTORY, rooms, objects, "[victory]")

    nouns: set[str] = set()
    adjectives: set[str] = set()
    for room in rooms.values():
        nouns.update(room.words)
    for obj in objects.values():
        for alias in (obj.name,) + obj.aliases:
            words = alias.split()
            if words:
                nouns.add(words[-1])
                adjectives.update(words[:-1])
            if len(words) == 1:
                nouns.add(words[0])
    adjectives -= nouns

    required: set[str] = set()
    for t in templates:
        required.update(t.words())
    for obj in objects.values():
        for alias in (obj.name,) + obj.aliases:
            required.update(alias.split())
    required.update(w for room in rooms.values() for w in room.words)

    if declared_vocab is not None:
        missing = required - set(declared_vocab)
        if missing:
            raise VocabularyError(
                f"declared vocabulary is missing words: {sorted(missing)}"
            )
        vocabulary = tuple(sorted(set(declared_vocab)))
    else:
        vocabulary = tuple(sorted(required))

    return GameSpec(
        name=meta.get("name", "game"),
        start=start,
        max_score=meta_int("max-score", 0),
        rooms=rooms,
        exits=exits,
        objects=objects,
        templates=tuple(templates),
        rewards=tuple(rewards),
        victory=tuple(victory),
        vocabulary=vocabulary,
        nouns=frozenset(nouns),
        adjectives=frozenset(adjectives),
        valid_step_cap=meta_int("valid-step-cap", 100, minimum=1),
        turn_cap=meta_int("turn-cap", 1000, minimum=1),
    )


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


def _check_predicate(pred: tuple[str, ...], table: dict[str, Predicate], rooms,
                     objects, where: str) -> None:
    if not pred or pred[0] not in table:
        raise GameParseError(
            0, f"{where}: unknown predicate {' '.join(pred)!r}, expected one "
            f"of {', '.join(table)}")
    kind, *args = pred
    arity = table[kind][0]
    if len(args) != arity:
        raise GameParseError(0, f"{where}: predicate {kind!r} takes "
                             f"{arity} argument(s)")
    if kind == "score":
        try:
            int(args[0])
        except ValueError:
            raise GameParseError(
                0, f"{where}: score takes an integer, got {args[0]!r}") from None
        return
    ids = set(rooms) | set(objects)
    for a in args:
        if a not in ids:
            raise GameReferenceError(f"{where}: unknown room/object {a!r}")


def load_game_file(path) -> GameSpec:
    with open(path, encoding="utf-8") as fh:
        return load_game(fh.read())


# ---------------------------------------------------------------------------
# State construction and rendering


def reset(spec: GameSpec) -> tuple[WorldState, Observation]:
    """The game's one initial state and its observation."""
    locations = {o.id: _normalize_loc(o.location) for o in spec.objects.values()}
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


def _normalize_loc(loc: str) -> str:
    if loc == "inventory" or loc == INVENTORY:
        return INVENTORY
    if loc.startswith("in "):
        return "in " + loc[3:].strip()
    return loc


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
    does not match.  Spans between fixed parts are captured greedily; for the
    two-blank shape every preposition split is tried, longest first span first.
    """
    joined = " ".join(tokens)

    def phrase_matches(aliases: Iterable[str], words: Sequence[str]) -> list[int]:
        """Lengths (token counts) of aliases matching a prefix of words."""
        out = []
        for alias in aliases:
            parts = alias.split()
            if list(words[: len(parts)]) == parts:
                out.append(len(parts))
        return sorted(set(out), reverse=True)

    results: list[list[tuple[str, ...]]] = []

    def walk(slot_idx: int, pos: int, captured: list[tuple[str, ...]]) -> None:
        if results:
            return
        if slot_idx == len(template.slots):
            if pos == len(tokens):
                results.append(captured)
            return
        slot = template.slots[slot_idx]
        if slot == "V":
            for length in phrase_matches(template.verbs, tokens[pos:]):
                walk(slot_idx + 1, pos + length, captured)
        elif slot == "P":
            for length in phrase_matches(template.prepositions, tokens[pos:]):
                walk(slot_idx + 1, pos + length, captured)
        else:  # OBJ: try longest span first
            rest = template.slots[slot_idx + 1 :]
            if not rest:
                span = _strip_articles(tokens[pos:])
                if span:
                    walk(slot_idx + 1, len(tokens), captured + [span])
                return
            for end in range(len(tokens), pos, -1):
                span = _strip_articles(tokens[pos:end])
                if not span:
                    continue
                walk(slot_idx + 1, end, captured + [span])
                if results:
                    return

    walk(0, 0, [])
    if not results:
        return None
    return results[0]


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
    """True when ``examine <word>`` describes something at ``state``, read
    from its scope as ``_execute`` resolves it: one object in scope answers
    to ``word`` (two get "Which ...?"), or none does and it names the room."""
    named = sum(word in obj.reference_words for obj in objects_in_scope(state, spec))
    return named == 1 or (named == 0 and _resolve_room(word, state, spec))


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
