import random
import re
from dataclasses import replace

import pytest

from kga2c import bundled_game_text
from kga2c import engine
from kga2c.engine import (
    GameParseError,
    GameReferenceError,
    SnapshotError,
    VocabularyError,
    digest,
    load_game,
    render_inventory,
    render_look,
    reset,
    restore,
    snapshot,
    step,
)

from conftest import MICROZORK_WALKTHROUGH, PANTRY_WALKTHROUGH, CORRIDOR_WALKTHROUGH


TINY_GAME = """
[meta]
name: tiny
start: cell

[room]
id: cell
name: Cell
desc: A bare cell. A hall lies north.

[room]
id: hall
name: Hall
desc: A hall.

[exit]
from: cell
dir: north
to: hall

[object]
id: pebble
name: pebble
loc: cell
takeable: yes

[template]
pattern: north

[template]
pattern: [take/get] OBJ

[template]
pattern: [drop] OBJ
"""


class TestLoadGame:
    def test_microzork_counts(self, microzork):
        assert len(microzork.rooms) == 5
        assert len(microzork.objects) == 7
        assert len(microzork.templates) == 12

    def test_bundled_games_load(self, corridor, pantry):
        assert len(corridor.rooms) == 5
        assert len(corridor.objects) == 0
        assert len(pantry.objects) == 7

    def test_empty_document_is_parse_error(self):
        with pytest.raises(GameParseError):
            load_game("")

    def test_exit_to_undeclared_room(self):
        bad = TINY_GAME.replace("to: hall", "to: basement")
        with pytest.raises(GameReferenceError):
            load_game(bad)

    def test_object_in_undeclared_container(self):
        bad = TINY_GAME.replace("loc: cell", "loc: in satchel")
        with pytest.raises(GameReferenceError):
            load_game(bad)

    def test_parse_error_carries_line_number(self):
        bad = "[meta]\nstart cell\n"
        with pytest.raises(GameParseError) as err:
            load_game(bad)
        assert err.value.line == 2

    def test_duplicate_reward_id_rejected(self):
        bad = TINY_GAME + (
            "\n[reward]\nid: r\nwhen: take pebble\npoints: 1\n"
            "\n[reward]\nid: r\nwhen: take pebble\npoints: 2\n"
        )
        with pytest.raises(GameParseError):
            load_game(bad)

    @pytest.mark.parametrize("old, new, section", [
        ("when: enter sanctum", "when: at sanctum", "[reward]"),
        ("when: at sanctum", "when: enter sanctum", "[victory]"),
        ("when: at sanctum", "when: score lots", "[victory]"),
    ], ids=["state-as-reward", "transition-as-victory", "score-not-an-integer"])
    def test_predicate_that_cannot_hold_in_its_section_rejected(self, old, new, section):
        """A reward fires on a transition and victory tests a state, so a
        state predicate as a reward never fires, a transition as victory
        never holds, and score needs an integer."""
        text = bundled_game_text("corridor")
        assert text.count(old) == 1
        with pytest.raises(GameParseError, match=re.escape(section)):
            load_game(text.replace(old, new))

    def test_incomplete_declared_vocabulary(self):
        bad = TINY_GAME + "\n[vocab]\nwords: north, take\n"
        with pytest.raises(VocabularyError):
            load_game(bad)

    def test_vocabulary_covers_templates_and_objects(self, microzork):
        vocab = set(microzork.vocabulary)
        for t in microzork.templates:
            assert t.words() <= vocab
        for obj in microzork.objects.values():
            for alias in (obj.name,) + obj.aliases:
                assert set(alias.split()) <= vocab


class TestReset:
    def test_start_room_and_score(self, microzork):
        state, obs = reset(microzork)
        assert state.room == "field"
        assert state.score == 0
        assert obs.score == 0
        assert obs.o_desc.startswith("Field")

    def test_reset_twice_equal_digest(self, microzork):
        s1, _ = reset(microzork)
        s2, _ = reset(microzork)
        assert digest(s1) == digest(s2)

    def test_observation_channels_nonempty(self, microzork):
        _, obs = reset(microzork)
        assert obs.o_desc and obs.o_game and obs.o_inv and obs.a_prev
        assert obs.a_prev == engine.SENTINEL_PREV_ACTION
        assert obs.o_game == obs.o_desc


class TestStep:
    def test_take_key(self, microzork):
        state, _ = reset(microzork)
        after, obs, reward, done = step(state, "take key", microzork)
        assert obs.o_game == "Taken."
        assert after.location_of("key") == engine.INVENTORY
        assert reward == 0 and not done

    def test_unknown_phrase_changes_nothing(self, microzork):
        state, _ = reset(microzork)
        after, obs, reward, done = step(state, "frobnicate zork", microzork)
        assert obs.o_game == engine.RESP_UNRECOGNIZED
        assert digest(after) == digest(state)
        assert reward == 0

    def test_open_chest_with_key_scores_ten(self, microzork):
        state, _ = reset(microzork)
        for action in ["take key", "north", "north"]:
            state, _, _, _ = step(state, action, microzork)
        assert state.score == 0
        state, obs, reward, done = step(state, "open chest with key", microzork)
        assert reward == 10
        assert state.score == 10
        assert "revealing" in obs.o_game

    def test_walkthrough_reaches_max_score(self, microzork):
        state, _ = reset(microzork)
        total = 0
        for action in MICROZORK_WALKTHROUGH:
            state, _, reward, done = step(state, action, microzork)
            total += reward
        assert done
        assert state.score == 30 == total

    def test_pantry_walkthrough(self, pantry):
        state, _ = reset(pantry)
        for action in PANTRY_WALKTHROUGH:
            state, _, _, done = step(state, action, pantry)
        assert done and state.score == 20

    def test_corridor_walkthrough(self, corridor):
        state, _ = reset(corridor)
        for action in CORRIDOR_WALKTHROUGH:
            state, _, _, done = step(state, action, corridor)
        assert done and state.score == 5

    def test_step_does_not_mutate_input(self, microzork):
        state, _ = reset(microzork)
        before = digest(state)
        step(state, "take key", microzork)
        assert digest(state) == before

    def test_input_case_insensitive(self, microzork):
        state, _ = reset(microzork)
        _, obs, _, _ = step(state, "TAKE Key", microzork)
        assert obs.o_game == "Taken."

    def test_alias_and_adjective_reference(self, microzork):
        state, _ = reset(microzork)
        _, obs, _, _ = step(state, "take brass", microzork)
        assert obs.o_game == "Taken."
        _, obs, _, _ = step(state, "get brass key", microzork)
        assert obs.o_game == "Taken."

    def test_ambiguous_reference_fails_in_fiction(self):
        game = TINY_GAME + (
            "\n[object]\nid: door-a\nname: wooden door\naliases: door\nloc: cell\n"
            "\n[object]\nid: door-b\nname: trap door\naliases: door\nloc: cell\n"
            "\n[template]\npattern: [open] OBJ\n"
        )
        spec = load_game(game)
        state, _ = reset(spec)
        after, obs, _, _ = step(state, "open door", spec)
        assert obs.o_game.startswith("Which door do you mean")
        assert digest(after) == digest(state)

    def test_locked_chest_refuses_plain_open(self, microzork):
        state, _ = reset(microzork)
        for action in ["north", "north"]:
            state, _, _, _ = step(state, action, microzork)
        after, obs, _, _ = step(state, "open chest", microzork)
        assert obs.o_game == "It's locked."
        assert digest(after) == digest(state)

    def test_wrong_key_does_not_fit(self, microzork):
        state, _ = reset(microzork)
        for action in ["north", "east", "take lamp", "west", "north"]:
            state, _, _, _ = step(state, action, microzork)
        after, obs, _, _ = step(state, "open chest with lamp", microzork)
        assert obs.o_game == "It doesn't fit."
        assert digest(after) == digest(state)

    def test_turn_counters(self, microzork):
        state, _ = reset(microzork)
        state, _, _, _ = step(state, "look", microzork)
        assert state.turn == 1 and state.valid_steps == 0
        state, _, _, _ = step(state, "take key", microzork)
        assert state.turn == 2 and state.valid_steps == 1

    def test_go_direction_form(self, microzork):
        state, _ = reset(microzork)
        after, _, _, _ = step(state, "go north", microzork)
        assert after.room == "path"


class TestRendering:
    def test_start_look_text(self, microzork):
        state, _ = reset(microzork)
        text = render_look(state, microzork)
        assert "open field" in text
        assert "There is a brass key here." in text

    def test_inventory_after_take(self, microzork):
        state, _ = reset(microzork)
        assert render_inventory(state, microzork) == "You are empty-handed."
        state, _, _, _ = step(state, "take key", microzork)
        assert "brass key" in render_inventory(state, microzork)

    def test_render_is_pure(self, microzork):
        state, _ = reset(microzork)
        assert render_look(state, microzork) == render_look(state, microzork)
        assert render_inventory(state, microzork) == render_inventory(state, microzork)

    def test_render_matches_look_step(self, microzork):
        state, _ = reset(microzork)
        state, _, _, _ = step(state, "take key", microzork)
        _, obs, _, _ = step(state, "look", microzork)
        assert obs.o_game == render_look(state, microzork)
        _, obs, _, _ = step(state, "inventory", microzork)
        assert obs.o_game == render_inventory(state, microzork)

    def test_open_container_lists_contents(self, microzork):
        state, _ = reset(microzork)
        state, _, _, _ = step(state, "open mailbox", microzork)
        assert "The mailbox contains a leaflet." in render_look(state, microzork)


class TestSnapshot:
    def test_round_trip_digest(self, microzork):
        state, _ = reset(microzork)
        state, _, _, _ = step(state, "take key", microzork)
        assert digest(restore(snapshot(state), microzork)) == digest(state)
        assert restore(snapshot(state), microzork) == state

    def test_snapshot_then_step_then_restore(self, microzork):
        state, _ = reset(microzork)
        blob = snapshot(state)
        stepped, _, _, _ = step(state, "take key", microzork)
        assert digest(stepped) != digest(state)
        assert digest(restore(blob, microzork)) == digest(state)

    def test_corrupted_snapshot_rejected(self, microzork):
        state, _ = reset(microzork)
        blob = bytearray(snapshot(state))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(SnapshotError):
            restore(bytes(blob), microzork)

    def test_foreign_bytes_rejected(self, microzork):
        with pytest.raises(SnapshotError):
            restore(b"this is not a snapshot at all", microzork)

    def test_state_of_another_game_rejected(self, microzork, corridor):
        """A well-formed snapshot whose room or objects are not the game's is
        refused before any renderer or step reads it."""
        state, _ = reset(microzork)
        foreign, _ = reset(corridor)
        locations = dict(state.locations)
        bad = [
            foreign,
            replace(state, room="nowhere"),
            replace(state, locations=tuple(sorted(locations.items()))[1:]),
            replace(state, locations=tuple(sorted({**locations, "ghost": "field"}.items()))),
            replace(state, locations=tuple(sorted({**locations, "key": "in ghost"}.items()))),
        ]
        for other in bad:
            with pytest.raises(SnapshotError, match="not a state of game 'microzork'"):
                restore(snapshot(other), microzork)
        assert restore(snapshot(foreign), corridor) == foreign

    def test_version_mismatch_rejected(self, microzork):
        state, _ = reset(microzork)
        blob = bytearray(snapshot(state))
        blob[4] = 99
        with pytest.raises(SnapshotError):
            restore(bytes(blob), microzork)


class TestWorldChanged:
    def test_take_changes_world(self, microzork):
        state, _ = reset(microzork)
        after, _, _, _ = step(state, "take key", microzork)
        assert digest(state) != digest(after)

    def test_look_does_not_change_world(self, microzork):
        state, _ = reset(microzork)
        after, _, _, _ = step(state, "look", microzork)
        assert digest(state) == digest(after)

    def test_walking_into_wall_does_not_change_world(self, microzork):
        state, _ = reset(microzork)
        after, _, _, _ = step(state, "south", microzork)
        assert digest(state) == digest(after)


class TestInvariants:
    def _random_actions(self, spec, space, rng, n):
        words = list(spec.vocabulary)
        actions = []
        for _ in range(n):
            t = rng.choice(space.templates)
            fillers = [rng.choice(words) for _ in range(t.blanks)]
            actions.append(space.instantiate(space.templates.index(t), fillers))
        return actions

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_determinism_and_reward_conservation(self, microzork, microzork_space, seed):
        rng = random.Random(seed)
        actions = self._random_actions(microzork, microzork_space, rng, 120)
        state, _ = reset(microzork)
        replay, _ = reset(microzork)
        total = 0
        for action in actions:
            nxt, obs, reward, done = step(state, action, microzork)
            nxt2, obs2, reward2, done2 = step(replay, action, microzork)
            assert digest(nxt) == digest(nxt2)
            assert (obs, reward, done) == (obs2, reward2, done2)
            total += reward
            state, replay = nxt, nxt2
            if done:
                break
        assert state.score == total

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_once_rules_never_fire_twice(self, microzork, microzork_space, seed):
        rng = random.Random(seed)
        state, _ = reset(microzork)
        fired: dict[str, int] = {}
        for action in self._random_actions(microzork, microzork_space, rng, 300):
            before = state.collected
            state, _, _, done = step(state, action, microzork)
            for rid in state.collected - before:
                fired[rid] = fired.get(rid, 0) + 1
            if done:
                break
        assert all(count == 1 for count in fired.values())

    def test_score_equals_collected_points(self, microzork):
        state, _ = reset(microzork)
        for action in MICROZORK_WALKTHROUGH:
            state, _, _, _ = step(state, action, microzork)
            expected = sum(
                rule.points
                for rule in microzork.rewards
                if rule.id in state.collected
            )
            assert state.score == expected

    def test_episode_ends_by_valid_step_cap(self, microzork):
        state, _ = reset(microzork)
        done = False
        steps = 0
        # alternating movement is always a valid action
        toggle = ["north", "south"]
        while not done:
            state, _, _, done = step(state, toggle[steps % 2], microzork)
            steps += 1
            assert steps <= microzork.valid_step_cap
        assert state.valid_steps == microzork.valid_step_cap == 100

    def test_hard_turn_cap_bounds_invalid_loops(self, microzork):
        state, _ = reset(microzork)
        done = False
        turns = 0
        while not done:
            state, _, _, done = step(state, "frobnicate zork", microzork)
            turns += 1
            assert turns <= microzork.turn_cap
        assert state.turn == microzork.turn_cap == 1000
        assert state.valid_steps == 0


# One rule per reward kind, each worth its own power of two, so a step's
# reward names the rules that fired on it; "enter yard" fires every time.
EDGE_GAME = """
[meta]
name: edges
start: shed

[room]
id: shed
name: Shed
desc: A tool shed. A yard lies north.

[room]
id: yard
name: Yard
desc: A muddy yard.

[exit]
from: shed
dir: north
to: yard

[exit]
from: yard
dir: south
to: shed

[object]
id: key
name: key
loc: shed
takeable: yes

[object]
id: box
name: box
loc: yard
openable: yes
lockable: yes
locked: yes
key: key

[object]
id: coin
name: coin
loc: in box
takeable: yes

[template]
pattern: north

[template]
pattern: south

[template]
pattern: [take] OBJ

[template]
pattern: [drop] OBJ

[template]
pattern: [unlock] OBJ [with] OBJ

[template]
pattern: [put] OBJ [in] OBJ

[reward]
id: take-key
when: take key
points: 1

[reward]
id: drop-key
when: drop key
points: 2

[reward]
id: unlock-box
when: unlock box
points: 4

[reward]
id: open-box
when: open box
points: 8

[reward]
id: visit-yard
when: visit yard
points: 16

[reward]
id: bring-key
when: bring key yard
points: 32

[reward]
id: key-in-box
when: in key box
points: 64

[reward]
id: enter-yard
when: enter yard
points: 128
once: no

[victory]
when: has coin
when: at yard
when: open box
when: in key box
when: score 383
when: visit yard
"""

EDGE_WALK = [
    ("take key", 1),
    ("drop key", 2),
    ("take key", 0),  # take-key is spent
    ("north", 16 + 32 + 128),
    ("south", 0),  # each test turns false, so nothing fires
    ("north", 128),  # only the repeating rule fires again
    ("unlock box with key", 4 + 8),
    ("take coin", 0),
    ("put key in box", 64),  # the key leaves the hand: drop-key is spent
]


class TestPredicateEdges:
    def test_every_reward_and_victory_kind_fires_on_its_edge(self):
        spec = load_game(EDGE_GAME)
        assert {r.trigger[0] for r in spec.rewards} == {
            "take", "drop", "open", "unlock", "visit", "enter", "bring", "in"}
        assert {p[0] for p in spec.victory} == {
            "has", "at", "open", "in", "score", "visit"}
        state, _ = reset(spec)
        for i, (action, points) in enumerate(EDGE_WALK):
            state, obs, reward, done = step(state, action, spec)
            assert not engine.is_failure(obs.o_game), action
            assert reward == points, action
            assert done == (i == len(EDGE_WALK) - 1), action
        assert state.score == sum(points for _, points in EDGE_WALK) == 383

    def test_an_object_predicate_over_a_room_never_fires(self):
        spec = load_game(EDGE_GAME.replace("when: take key", "when: take yard")
                         .replace("when: drop key", "when: drop shed"))
        state, _ = reset(spec)
        rewards = []
        for action, _ in EDGE_WALK:
            state, _, reward, _ = step(state, action, spec)
            rewards.append(reward)
        assert rewards == [0, 0] + [points for _, points in EDGE_WALK[2:]]


def fresh_words(state, spec):
    return tuple(sorted({word for obj in engine._objects_in_scope(state, spec)
                         for ref in obj.reference_words for word in ref.split()}))


class TestScopeMemo:
    """The engine's one-slot scope memo answers as a fresh computation does,
    whatever the order of the states asked about, and for equal states that
    are distinct objects."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("game", ["microzork", "corridor", "pantry"])
    def test_memo_equals_a_fresh_computation_on_seeded_walks(
        self, request, walkthroughs, game, seed
    ):
        spec = request.getfixturevalue(game)
        rng = random.Random(seed)
        state, _ = reset(spec)
        changed_in_place = False
        for action in walkthroughs[game]:
            noise = f"{rng.choice(['take', 'open', 'drop'])} {rng.choice(spec.vocabulary)}"
            for command in (noise, action):
                before = state
                state, _, _, _ = step(before, command, spec)
                for s in (before, state, before, replace(state), state, replace(before)):
                    if rng.random() < 0.5:  # the words first, then the objects
                        assert engine.in_scope_words(s, spec) == fresh_words(s, spec)
                    assert (engine.objects_in_scope(s, spec)
                            == engine._objects_in_scope(s, spec))
                    assert engine.in_scope_words(s, spec) == fresh_words(s, spec)
                changed_in_place |= before.room == state.room and (
                    engine._objects_in_scope(before, spec)
                    != engine._objects_in_scope(state, spec))
        # on pantry, opening a container changes the scope without a move,
        # so a memo keyed on the room alone would fail there
        assert changed_in_place or game != "pantry"
