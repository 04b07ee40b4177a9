import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORRIDOR_WALKTHROUGH, MICROZORK_WALKTHROUGH, PANTRY_WALKTHROUGH
from kga2c import bundled_game_text, engine, kg, oracle, trainer
from kga2c.engine import digest, load_game, reset, step
from kga2c.templates import (FrequencyTable, OutOfVocabularyError,
                             action_space_size, build_action_space)


def brute_force_map(state, spec, space, words):
    """Independent enumeration: every template grounding over `words`,
    validity = digest change after a full ``engine.step``.  Maps each valid
    action to the (template id, fillers) that first produce it.  The
    reference the oracle must match."""
    before = digest(state)
    found = {}
    seen = set()
    for tid, template in enumerate(space.templates):
        for combo in product(words, repeat=template.blanks):
            action = space.instantiate(tid, list(combo))
            if action in seen:
                continue
            seen.add(action)
            after, _, _, _ = step(state, action, spec)
            if digest(after) != before:
                found[action] = (tid, combo)
    return found


def brute_force_valid(state, spec, space, words):
    return sorted(brute_force_map(state, spec, space, words))


def as_map(valid):
    return {a: (t, f) for a, t, f in zip(valid.actions, valid.template_ids,
                                         valid.fillers)}


@pytest.fixture(scope="module")
def spaces(microzork, corridor, pantry, corpus):
    freq = FrequencyTable.from_lines(corpus)
    return {
        spec.name: (spec, build_action_space(spec.templates, spec.vocabulary, freq))
        for spec in (microzork, corridor, pantry)
    }


class TestValidActions:
    def test_start_contains_take_key_not_take_chest(self, microzork, microzork_space):
        state, _ = reset(microzork)
        valid = oracle.valid_actions(state, microzork, microzork_space, budget=None)
        assert "take key" in valid.actions
        assert "take chest" not in valid.actions
        assert "north" in valid.actions

    def test_matches_brute_force_at_start(self, microzork, microzork_space):
        state, _ = reset(microzork)
        valid = oracle.valid_actions(state, microzork, microzork_space, budget=None)
        expected = brute_force_valid(
            state, microzork, microzork_space, microzork_space.vocabulary
        )
        assert sorted(valid.actions) == expected

    def test_soundness_every_action_changes_digest(self, microzork, microzork_space):
        state, _ = reset(microzork)
        for action in ["take key", "north", "north"]:
            state, _, _, _ = step(state, action, microzork)
        valid = oracle.valid_actions(state, microzork, microzork_space, budget=None)
        before = digest(state)
        for action in valid.actions:
            after, _, _, _ = step(state, action, microzork)
            assert digest(after) != before, action

    def test_empty_candidates_only_blankless(self, microzork, microzork_space):
        state, _ = reset(microzork)
        valid = oracle.valid_actions(state, microzork, microzork_space, candidates=())
        blankless = {
            t.pattern for t in microzork_space.templates if t.blanks == 0
        }
        assert set(valid.actions) <= blankless

    def test_no_world_changing_action_gives_empty_set(self, corridor, corpus):
        from kga2c.templates import FrequencyTable, build_action_space

        space = build_action_space(
            corridor.templates, corridor.vocabulary, FrequencyTable.from_lines(corpus)
        )
        state, _ = reset(corridor)
        # walk into the alcove: the only exits are back the way we came
        for action in ["east", "east", "north"]:
            state, _, _, _ = step(state, action, corridor)
        valid = oracle.valid_actions(state, corridor, space, budget=None)
        assert valid.actions == ("south",)
        # candidate-free probing of a state with nothing valid
        blocked = oracle.valid_actions(state, corridor, space, candidates=())
        assert set(blocked.actions) == {"south"}

    def test_non_perturbation(self, microzork, microzork_space):
        state, _ = reset(microzork)
        before = digest(state)
        oracle.valid_actions(state, microzork, microzork_space, budget=None)
        assert digest(state) == before

    def test_probe_budget_truncates_with_flag(self, microzork, microzork_space):
        state, _ = reset(microzork)
        full = oracle.valid_actions(state, microzork, microzork_space, budget=None)
        cut = oracle.valid_actions(state, microzork, microzork_space, budget=10)
        assert not full.truncated
        assert cut.truncated
        assert len(cut) <= len(full)

    def test_candidate_restriction(self, microzork, microzork_space):
        state, _ = reset(microzork)
        valid = oracle.valid_actions(
            state, microzork, microzork_space, candidates=("key", "mailbox")
        )
        assert "take key" in valid.actions
        assert "open mailbox" in valid.actions
        assert all("chest" not in a for a in valid.actions)

    def test_out_of_vocabulary_candidate_rejected(self, microzork, microzork_space):
        state, _ = reset(microzork)
        with pytest.raises(OutOfVocabularyError):
            oracle.valid_actions(
                state, microzork, microzork_space, candidates=("zeppelin",)
            )

    def test_fillers_aligned_with_actions(self, microzork, microzork_space):
        state, _ = reset(microzork)
        valid = oracle.valid_actions(state, microzork, microzork_space, budget=None)
        for action, tid, fillers in zip(
            valid.actions, valid.template_ids, valid.fillers
        ):
            assert microzork_space.instantiate(tid, list(fillers)) == action


class TestCompleteness:
    @pytest.mark.parametrize("prefix", [
        [],
        ["take key"],
        ["take key", "north"],
        ["take key", "north", "north"],
        ["take key", "north", "north", "open chest with key"],
        ["take key", "north", "north", "open chest with key", "take coin"],
    ])
    def test_full_vocab_equivalence_along_walkthrough(
        self, microzork, microzork_space, prefix
    ):
        state, _ = reset(microzork)
        for action in prefix:
            state, _, _, _ = step(state, action, microzork)
        valid = oracle.valid_actions(state, microzork, microzork_space, budget=None)
        expected = brute_force_valid(
            state, microzork, microzork_space, microzork_space.vocabulary
        )
        assert sorted(valid.actions) == expected


class TestParseMemo:
    """A probe parses from the game's memo and resolves against its state.

    ``brute_force_map`` steps through the same memo, so a memo that kept
    something of a state would fool both sides; these tests compare with a
    spec whose memo is empty."""

    @pytest.mark.parametrize("game", ["microzork", "corridor", "pantry"])
    def test_probes_equal_an_unmemoized_parse(self, spaces, game, monkeypatch):
        spec, space = spaces[game]  # shared with every other test: warmed
        fresh = load_game(bundled_game_text(game))
        calls = []
        real = engine.step_core
        monkeypatch.setattr(engine, "step_core",
                            lambda *a: calls.append(a) or real(*a))
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            state, obs = reset(spec)
            for _ in range(30):
                kg.detect_interactive_objects(obs, state, spec)
                words = set(engine.in_scope_words(state, spec))
                words.update(rng.sample(space.vocabulary, 4))
                valid = oracle.valid_actions(state, spec, space, words, None)
                tid = rng.randrange(len(space.templates))
                fillers = rng.choices(space.vocabulary, k=space.templates[tid].blanks)
                action = rng.choice(list(valid.actions) + [
                    space.instantiate(tid, fillers)])
                state, obs, _, done = step(state, action, spec)
                if done:
                    state, obs = reset(spec)
        monkeypatch.undo()
        assert len(calls) > 500
        for args in calls:
            state, action = args[:2]
            fresh.parse_memo.clear()
            assert real(*args) == real(state, action, fresh), action

    def test_memo_is_bounded_and_parses_past_its_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "PARSE_MEMO_CAP", 50)
        spec = load_game(bundled_game_text("microzork"))
        reference = load_game(bundled_game_text("microzork"))
        start, _ = reset(spec)
        rng = random.Random(3)
        words = list(spec.vocabulary) + ["xyzzy", "plugh", "the", "with", "in"]
        commands = set()
        while len(commands) < 400:
            commands.add(" ".join(rng.choices(words, k=rng.randint(1, 5))))
        for command in sorted(commands):
            reference.parse_memo.clear()
            assert (engine.step_core(start, command, spec)
                    == engine.step_core(start, command, reference)), command
        assert len(spec.parse_memo) == 50
        # a command first seen past the cap is parsed, not stored
        assert ("take", "the", "key") not in spec.parse_memo
        _, response, _, _ = engine.step_core(start, "TAKE  the key", spec)
        assert response == "Taken."
        assert len(spec.parse_memo) == 50

    def test_cap_covers_every_bundled_games_commands(self, spaces):
        for spec, space in spaces.values():
            assert max(t.blanks for t in space.templates) <= 2
            assert (len(space.templates) * len(space.vocabulary) ** 2
                    <= engine.PARSE_MEMO_CAP), spec.name

    def test_scope_is_computed_once_per_oracle_and_detection_call(
        self, microzork, microzork_space, monkeypatch
    ):
        scopes, probes = [], []
        real_scope, real_step = engine._objects_in_scope, engine.step_core
        monkeypatch.setattr(engine, "_objects_in_scope",
                            lambda *a: scopes.append(a) or real_scope(*a))
        monkeypatch.setattr(engine, "step_core",
                            lambda *a: probes.append(a[1]) or real_step(*a))
        for kwargs in ({}, {"candidates": ("key", "north")}):
            state, obs = reset(microzork)  # a new state: nothing memoized
            scopes.clear()
            probes.clear()
            oracle.valid_actions(state, microzork, microzork_space, **kwargs)
            assert len(scopes) == 1 and len(probes) > 1
            # asking about the same state again computes nothing
            oracle.valid_actions(state, microzork, microzork_space, **kwargs)
            assert len(scopes) == 1
        state, obs = reset(microzork)
        scopes.clear()
        probes.clear()
        assert kg.detect_interactive_objects(obs, state, microzork)
        assert len(scopes) == 1
        # detection reads the scope and runs no command
        assert probes == []
        # a worker's first observation and valid set compute its state's
        # scope once, whether the valid set misses the cache or hits it, and
        # the act after them computes only the scope of the state it reaches
        pipe = trainer.Pipeline(microzork, microzork_space, None)
        cfg = trainer.TrainConfig(seed=0)
        for hits in (0, 1):
            scopes.clear()
            worker = trainer.Worker(0, pipe, cfg)
            assert len(scopes) == 1
            assert (pipe.valid_hits, pipe.valid_misses) == (hits, 1)
            state = worker.ep.state
            assert engine.objects_in_scope(state, microzork) == real_scope(state, microzork)
            worker.ep.act("open mailbox")
            assert len(scopes) == 2 and scopes[1][0] is worker.ep.state


class TestPruning:
    """Probing only in-scope and parser words gives the brute-force result."""

    @settings(max_examples=30, deadline=None)
    @given(
        game=st.sampled_from(["microzork", "corridor", "pantry"]),
        seed=st.integers(0, 2**32 - 1),
        walk=st.integers(0, 12),
        share=st.floats(0.0, 1.0),
    )
    def test_equals_brute_force_on_random_walks(self, spaces, game, seed, walk,
                                                share):
        spec, space = spaces[game]
        rng = random.Random(seed)
        state, _ = reset(spec)
        for _ in range(walk):
            moves = oracle.valid_actions(
                state, spec, space, engine.in_scope_words(state, spec)
            ).actions
            action = rng.choice(moves) if moves else "look"
            state, _, _, _ = step(state, action, spec)
        words = [w for w in space.vocabulary if rng.random() < share]
        valid = oracle.valid_actions(state, spec, space, words)
        assert not valid.truncated
        assert as_map(valid) == brute_force_map(state, spec, space, sorted(words))

    def test_go_direction_template_is_kept(self, corpus):
        # "north" is no object's word: pruning to in-scope words alone
        # would never probe "go north".
        text = bundled_game_text("microzork") + (
            "\n[template]\npattern: go OBJ\n"
            "\n[template]\npattern: [put] OBJ [in] OBJ\n"
        )
        spec = load_game(text)
        space = build_action_space(
            spec.templates, spec.vocabulary, FrequencyTable.from_lines(corpus)
        )
        go = [t.pattern for t in space.templates].index("go OBJ")
        state, _ = reset(spec)
        valid = oracle.valid_actions(state, spec, space, budget=None)
        assert as_map(valid)["go north"] == (go, ("north",))
        assert as_map(valid) == brute_force_map(state, spec, space, space.vocabulary)

    def test_probes_fewer_than_groundings_without_rendering(
        self, microzork, microzork_space, monkeypatch
    ):
        calls = []
        for name in ("step", "step_core"):
            real = getattr(engine, name)
            monkeypatch.setattr(
                engine, name, lambda *a, _n=name, _r=real: calls.append(_n) or _r(*a)
            )
        state, _ = reset(microzork)
        oracle.valid_actions(state, microzork, microzork_space, budget=None)
        assert "step" not in calls
        assert 0 < calls.count("step_core") < action_space_size(microzork_space)

    def test_in_scope_words_run_once_per_valid_set_request(
        self, microzork, corpus, monkeypatch
    ):
        pipe = trainer.build_pipeline(microzork, corpus, trainer.TrainConfig())
        calls = []
        real = engine._objects_in_scope
        monkeypatch.setattr(
            engine, "_objects_in_scope", lambda *a: calls.append(a) or real(*a)
        )
        ep = trainer.Episode(microzork, pipe.space.vocabulary)
        mask = ep.mask
        in_scope = engine.in_scope_words(ep.state, microzork)
        valid = pipe.valid_set(ep.state, mask, in_scope)
        assert pipe.valid_misses == 1  # the oracle probed
        assert len(calls) == 1  # in the episode's first observation only
        # the words were built once and kept beside the scope
        assert engine.in_scope_words(ep.state, microzork) is in_scope
        assert len(calls) == 1
        words = set(mask) | set(in_scope)
        assert as_map(valid) == brute_force_map(ep.state, microzork, pipe.space,
                                                sorted(words))

    def test_pruned_words_share_a_cache_entry(self, microzork, corpus, monkeypatch):
        pipe = trainer.build_pipeline(microzork, corpus, trainer.TrainConfig())
        state, _ = reset(microzork)
        in_scope = engine.in_scope_words(state, microzork)
        assert "chest" not in in_scope
        assert "chest" not in microzork.parser_words
        calls = []
        real = oracle.valid_actions
        monkeypatch.setattr(
            oracle, "valid_actions", lambda *a: calls.append(a) or real(*a)
        )
        first = pipe.valid_set(state, {"key"}, in_scope)
        second = pipe.valid_set(state, {"key", "chest"}, in_scope)
        assert len(calls) == 1
        assert second == first
        assert (pipe.valid_hits, pipe.valid_misses) == (1, 1)


WALKTHROUGHS = {"microzork": MICROZORK_WALKTHROUGH, "pantry": PANTRY_WALKTHROUGH,
               "corridor": CORRIDOR_WALKTHROUGH}


@pytest.fixture(scope="module")
def doubled(corpus):
    """Microzork with a second template that spells ``take OBJ``, so that two
    groundings produce one action text."""
    spec = load_game(bundled_game_text("microzork") + "\n[template]\npattern: [take] OBJ\n")
    space = build_action_space(spec.templates, spec.vocabulary,
                               FrequencyTable.from_lines(corpus))
    return spec, space


def walked_states(spec, space, seed, steps=12):
    """The distinct states along the game's walkthrough and along a seeded
    walk over valid actions, in order."""
    rng = random.Random(seed)
    state, _ = reset(spec)
    states = {digest(state): state}
    for action in WALKTHROUGHS[spec.name]:
        state, _, _, _ = step(state, action, spec)
        states.setdefault(digest(state), state)
    state, _ = reset(spec)
    for _ in range(steps):
        moves = oracle.valid_actions(
            state, spec, space, engine.in_scope_words(state, spec)).actions
        state, _, _, _ = step(state, rng.choice(moves) if moves else "look", spec)
        states.setdefault(digest(state), state)
    return list(states.values())


class TestStateRecord:
    """A pipeline's per-state records answer exactly as fresh oracle calls."""

    @pytest.mark.parametrize("cap", [trainer.VALID_CACHE_CAP, 2])
    @pytest.mark.parametrize("game", ["microzork", "corridor", "pantry", "doubled"])
    def test_records_answer_as_fresh_calls(self, spaces, doubled, game, cap, monkeypatch):
        """Per state: a first visit with no words, each word alone, all of
        them (whose pairs no earlier request held), then, from the record, a
        subset, a repeat, a smaller subset, a larger one and an overlap.  The
        states take turns, so that a cap of 2 evicts each state's record
        before it is asked again and every request is a first visit."""
        spec, space = doubled if game == "doubled" else spaces[game]
        fresh = oracle.valid_actions
        states = walked_states(spec, space, seed=len(game))
        requests = []
        for state in states:
            words = list(oracle.probe_words(state, spec, space, space.vocabulary))
            random.Random(digest(state)).shuffle(words)
            n = len(words)
            first, superset = words[: n // 3], words[: n // 2]
            overlap = words[n // 4: 3 * n // 4]
            requests.append([[], *([w] for w in words), words, first, first, first[1:],
                             superset, overlap])
        monkeypatch.setattr(trainer, "VALID_CACHE_CAP", cap)
        calls = []
        monkeypatch.setattr(oracle, "valid_actions",
                            lambda *a: calls.append(a) or fresh(*a))
        pipe = trainer.Pipeline(spec, space, None)
        for k in range(max(map(len, requests))):
            for state, asked in zip(states, requests):
                if k < len(asked):
                    got = pipe.valid_set(state, asked[k], ())
                    assert got == fresh(state, spec, space, asked[k])
        assert len(pipe._valid_cache) == min(cap, len(states))
        assert pipe.valid_misses == len(calls)  # every miss, and only a miss, probes
        if cap == 2:  # each state's record is evicted before it is asked again
            assert len(states) > 2 and pipe.valid_hits == 0
        else:  # records answered some requests
            assert pipe.valid_hits > 0

    def test_a_truncated_request_leaves_the_record_as_it_was(self, spaces, monkeypatch):
        """A truncated answer is never kept: each repeat of its request
        calls the oracle, is truncated and counted again, and leaves the
        state's record as it was."""
        spec, space = spaces["microzork"]
        monkeypatch.setattr(oracle, "DEFAULT_PROBE_BUDGET", 10)
        pipe = trainer.Pipeline(spec, space, None)
        state, _ = reset(spec)
        # the empty word set has only the blankless groundings, within budget
        assert pipe.valid_set(state, (), ()) == oracle.valid_actions(state, spec, space, (), 10)
        record = pipe._valid_cache[digest(state)]
        kept = (set(record.probed), record.found)
        assert kept[1]
        words = oracle.probe_words(state, spec, space, space.vocabulary)
        for repeat in (1, 2, 3):
            cut = pipe.valid_set(state, words, ())
            assert cut.truncated and pipe.oracle_truncated == repeat
            assert cut == oracle.valid_actions(state, spec, space, words, 10)
            assert (record.probed, record.found) == kept
        assert (pipe.valid_hits, pipe.valid_misses) == (0, 4)
        full = oracle.valid_actions(state, spec, space, words, None, record)
        assert full == oracle.valid_actions(state, spec, space, words, None)
        assert not full.truncated and record.covers(space, words)
        # a record probes each grounding once: asking it again probes nothing
        probes, real = [], engine.step_core
        monkeypatch.setattr(engine, "step_core", lambda *a: probes.append(a) or real(*a))
        assert oracle.valid_actions(state, spec, space, words, None, record) == full
        assert probes == []
