import random
from dataclasses import replace

import pytest

from kga2c import bundled_game_text, engine, kg, oracle
from kga2c.engine import load_game, reset, step
from kga2c.kg import (
    YOU,
    detect_interactive_objects,
    export_graph,
    graph_mask,
    import_triples,
    nodes,
    normalize_entity,
    update_graph,
)
from kga2c.templates import FrequencyTable, build_action_space

EMPTY: kg.Graph = frozenset()

ZORKISH = """
[meta]
name: zorkish
start: west-of-house

[room]
id: west-of-house
name: West of House
desc: You are in an open field. There is a small mailbox here.

[room]
id: kitchen
name: Kitchen
desc: A kitchen. A staircase leads down.

[room]
id: cellar
name: Cellar
desc: A dark cellar.

[exit]
from: west-of-house
dir: north
to: kitchen

[exit]
from: kitchen
dir: down
to: cellar

[exit]
from: cellar
dir: up
to: kitchen

[object]
id: mailbox
name: small mailbox
aliases: mailbox, box, small
loc: west-of-house
openable: yes

[template]
pattern: north

[template]
pattern: down

[template]
pattern: up

[template]
pattern: [open] OBJ
"""


@pytest.fixture(scope="module")
def zorkish():
    return load_game(ZORKISH)


class TestDetection:
    def test_small_mailbox_detected_with_adjective(self, zorkish):
        state, obs = reset(zorkish)
        detected = detect_interactive_objects(obs, state, zorkish)
        assert "mailbox" in detected
        assert "small" in detected

    def test_microzork_start_golden(self, microzork):
        state, obs = reset(microzork)
        # The look text names the field, a "brass key" and a mailbox. The
        # detector keeps every lexicon noun or adjective that examines
        # cleanly, in order of appearance, so "brass" is kept next to "key",
        # as "small" is next to "mailbox" in zorkish.
        assert detect_interactive_objects(obs, state, microzork) == [
            "field",
            "brass",
            "key",
            "mailbox",
        ]

    def test_no_vocabulary_nouns_gives_empty(self, microzork):
        state, obs = reset(microzork)
        stripped = replace(obs, o_desc="nothing to see.", o_game="move along.")
        assert detect_interactive_objects(stripped, state, microzork) == []

    def test_detection_does_not_perturb_state(self, microzork):
        from kga2c.engine import digest

        state, obs = reset(microzork)
        before = digest(state)
        detect_interactive_objects(obs, state, microzork)
        assert digest(state) == before

    def test_a_description_that_reads_like_a_failure_is_still_detected(self):
        # "examine mailbox" answers with the mailbox's own description; one
        # that begins like a failure reply ("You can't ...") still describes it
        text = bundled_game_text("microzork").replace(
            "desc: A dented tin mailbox on a post.",
            "desc: You can't miss the dented tin mailbox on its post.")
        spec = load_game(text)
        state, obs = reset(spec)
        assert engine.is_failure(step(state, "examine mailbox", spec)[1].o_game)
        assert detect_interactive_objects(obs, state, spec) == [
            "field", "brass", "key", "mailbox"]
        graph = update_graph(EMPTY, obs, state.room,
                             detect_interactive_objects(obs, state, spec), spec)
        assert (YOU, "surrounded_by", "mailbox") in graph

    def test_a_word_two_objects_answer_to_is_not_detected(self):
        # "examine key" gets the parser's "Which key do you mean ...?"
        spec = load_game(ZORKISH + "".join(
            f"\n[object]\nid: {metal}-key\nname: {metal} key\nloc: west-of-house\n"
            for metal in ("brass", "iron")))
        state, obs = reset(spec)
        obs = replace(obs, o_desc="", o_game="A brass key and an iron key lie by the mailbox.")
        for word, described in [("key", False), ("brass", True), ("iron", True)]:
            _, reply, _, _ = engine.step_core(state, f"examine {word}", spec)
            assert engine.is_failure(reply) is not described
            assert engine.examinable(word, state, spec) is described
        assert detect_interactive_objects(obs, state, spec) == ["brass", "iron", "mailbox"]

    @pytest.mark.parametrize("game", ["microzork", "corridor", "pantry"])
    def test_examinable_equals_the_examine_probe(self, request, corpus, game):
        """Along seeded walks of valid actions, ``engine.examinable`` answers
        for every lexicon word exactly as running ``examine <word>`` and
        reading its reply with ``engine.is_failure`` does."""
        spec = request.getfixturevalue(game)
        space = build_action_space(spec.templates, spec.vocabulary,
                                   FrequencyTable.from_lines(corpus))
        words = sorted(spec.nouns | spec.adjectives)
        reached = set()
        for seed in range(6):
            rng = random.Random(seed)
            state, _ = reset(spec)
            for _ in range(80):
                reached.add(engine.digest(state))
                for word in words:
                    _, reply, _, _ = engine.step_core(state, f"examine {word}", spec)
                    assert engine.examinable(word, state, spec) == (
                        not engine.is_failure(reply)), (word, engine.digest(state))
                valid = oracle.valid_actions(state, spec, space, budget=None)
                state, _, _, done = step(state, rng.choice(valid.actions), spec)
                if done:
                    state, _ = reset(spec)
        assert len(reached) > 3  # the walks left the start and changed the world


class TestUpdateGraph:
    def walk(self, spec, actions):
        state, obs = reset(spec)
        graph = EMPTY
        detected = detect_interactive_objects(obs, state, spec)
        graph = update_graph(graph, obs, state.room, detected, spec)
        for action in actions:
            state, obs, _, _ = step(state, action, spec)
            detected = detect_interactive_objects(obs, state, spec)
            graph = update_graph(graph, obs, state.room, detected, spec)
        return state, obs, graph

    def test_go_down_adds_navigation_triple(self, zorkish):
        _, _, graph = self.walk(zorkish, ["north", "go down"])
        assert ("kitchen", "down", "cellar") in graph

    def test_take_key_moves_edge_to_you(self, microzork):
        _, _, before = self.walk(microzork, [])
        assert ("field", "has", "key") in before
        assert ("field", "has", "brass") in before
        _, _, after = self.walk(microzork, ["take key"])
        assert ("you", "have", "key") in after
        assert ("field", "has", "key") not in after
        # "brass key" gives one object two nodes; they move together
        assert ("you", "have", "brass") in after
        assert ("field", "has", "brass") not in after

    def test_update_returns_a_new_frozen_graph(self, microzork):
        state, _, graph = self.walk(microzork, [])
        before = set(graph)
        state, obs, _, _ = step(state, "take key", microzork)
        detected = detect_interactive_objects(obs, state, microzork)
        after = update_graph(graph, obs, state.room, detected, microzork)
        assert isinstance(graph, frozenset) and isinstance(after, frozenset)
        assert after != graph and graph == before

    def test_you_is_always_a_node(self, microzork):
        assert nodes(EMPTY) == {YOU}
        _, _, graph = self.walk(microzork, ["north"])
        assert nodes(graph) == {YOU} | {s for s, _, _ in graph} | {o for _, _, o in graph}

    def test_noop_action_preserves_graph(self, microzork):
        state, obs, graph = self.walk(microzork, ["look"])
        detected = detect_interactive_objects(obs, state, microzork)
        again = update_graph(graph, obs, state.room, detected, microzork)
        assert again == graph

    def test_you_in_edge_is_unique(self, microzork):
        _, _, graph = self.walk(microzork, ["north", "east", "west", "south"])
        in_edges = [t for t in graph if t[0] == "you" and t[1] == "in"]
        assert in_edges == [("you", "in", "field")]

    def test_growth_monotone_except_sanctioned_removals(self, microzork):
        state, obs = reset(microzork)
        graph = EMPTY
        detected = detect_interactive_objects(obs, state, microzork)
        graph = update_graph(graph, obs, state.room, detected, microzork)
        actions = ["take key", "north", "north", "open chest with key", "take coin"]
        for action in actions:
            state, obs, _, _ = step(state, action, microzork)
            detected = detect_interactive_objects(obs, state, microzork)
            new_graph = update_graph(graph, obs, state.room, detected, microzork)
            removed = graph - new_graph
            for s, r, o in removed:
                assert (s == "you" and r == "in") or r == "has"
            graph = new_graph

    def test_contains_clause_extracted(self, microzork):
        _, _, graph = self.walk(
            microzork, ["take key", "north", "north", "open chest with key", "look"]
        )
        assert ("chest", "contains", "coin") in graph

    def test_chest_prize_enters_mask_after_opening(self, microzork, microzork_space):
        _, _, graph = self.walk(
            microzork, ["take key", "north", "north", "open chest with key"]
        )
        mask = graph_mask(graph, microzork_space.vocabulary, 0.0)
        assert "coin" in mask
        assert "chest" in mask
        assert "key" in mask


class TestNormalization:
    def test_idempotent(self, microzork):
        for text in ["the brass key", "A Worn Path", "key", "chest", "gold coin"]:
            once = normalize_entity(text, microzork)
            assert once is not None
            assert normalize_entity(once, microzork) == once

    def test_articles_stripped_and_head_noun_kept(self, microzork):
        assert normalize_entity("the brass key", microzork) == "key"
        assert normalize_entity("a mailbox", microzork) == "mailbox"

    def test_unknown_text_is_none(self, microzork):
        assert normalize_entity("the frobnitz", microzork) is None
        assert normalize_entity("", microzork) is None


class TestGraphMask:
    def graph_with(self, *entities):
        return frozenset(("you", "surrounded_by", e) for e in entities)

    def test_pm_zero_exact(self, microzork_space):
        g = self.graph_with("key", "chest", "nonword")
        mask = graph_mask(g, microzork_space.vocabulary, 0.0)
        assert mask == frozenset({"key", "chest"})
        assert isinstance(mask, frozenset)

    def test_pm_one_full_vocabulary(self, microzork_space):
        g = self.graph_with("key")
        mask = graph_mask(g, microzork_space.vocabulary, 1.0, random.Random(0))
        assert mask == frozenset(microzork_space.vocabulary)

    def test_reproducible_given_seed(self, microzork_space):
        g = self.graph_with("key", "chest")
        m1 = graph_mask(g, microzork_space.vocabulary, 0.3, random.Random(7))
        m2 = graph_mask(g, microzork_space.vocabulary, 0.3, random.Random(7))
        assert m1 == m2

    def test_positive_pm_requires_an_rng(self, microzork_space):
        """Without an rng a p_m > 0 mask would draw from OS entropy, so two
        calls could differ; it is refused.  At p_m = 0 nothing is drawn."""
        g = self.graph_with("key", "chest")
        with pytest.raises(ValueError, match="needs an rng"):
            graph_mask(g, microzork_space.vocabulary, 0.3)
        assert graph_mask(g, microzork_space.vocabulary, 0.0) == {"key", "chest"}

    def test_monte_carlo_mean_size(self):
        # |V|=50, |base|=10, p_m=0.05: E[size] = 10 + 0.05*40 = 12
        vocab = tuple(f"w{i}" for i in range(50))
        g = self.graph_with(*vocab[:10])
        total = 0
        n = 10_000
        for seed in range(n):
            total += len(graph_mask(g, vocab, 0.05, random.Random(seed)))
        mean = total / n
        assert abs(mean - 12.0) < 0.2

    def test_soundness_at_pm_zero(self, microzork_space):
        g = self.graph_with("key", "mailbox")
        mask = graph_mask(g, microzork_space.vocabulary, 0.0)
        for word in mask:
            assert word in nodes(g) - {YOU}

    def test_fallback_to_in_scope_then_vocab(self, microzork_space):
        mask = graph_mask(
            EMPTY, microzork_space.vocabulary, 0.0, in_scope=("key", "mailbox")
        )
        assert mask == frozenset({"key", "mailbox"})
        mask2 = graph_mask(EMPTY, microzork_space.vocabulary, 0.0)
        assert mask2 == frozenset(microzork_space.vocabulary)

    def test_invalid_pm_rejected(self, microzork_space):
        with pytest.raises(ValueError):
            graph_mask(EMPTY, microzork_space.vocabulary, 1.5)


class TestExport:
    def test_empty_graph_dot_has_you(self):
        dot = export_graph(EMPTY, "dot")
        assert '"you";' in dot
        assert dot.startswith("digraph")

    def test_triples_sorted_lines(self):
        g = frozenset({("kitchen", "down", "cellar"), ("you", "in", "kitchen")})
        text = export_graph(g, "triples")
        assert text.splitlines() == sorted(text.splitlines())
        assert "kitchen\tdown\tcellar" in text

    def test_round_trip(self, microzork):
        state, obs = reset(microzork)
        g = update_graph(
            EMPTY,
            obs,
            state.room,
            detect_interactive_objects(obs, state, microzork),
            microzork,
        )
        assert import_triples(export_graph(g, "triples")) == g

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export_graph(EMPTY, "gml")

    def test_byte_identical_across_runs(self, microzork):
        outs = set()
        for _ in range(2):
            state, obs = reset(microzork)
            g = update_graph(
                EMPTY,
                obs,
                state.room,
                detect_interactive_objects(obs, state, microzork),
                microzork,
            )
            outs.add(export_graph(g, "dot"))
        assert len(outs) == 1
