"""Trainer: fixed-seed determinism, per-ablation smoke runs, a ``train`` run
against the pinned behaviour dump, parameters and loss terms, the combined
loss's gradient, config files, loud worker failures, greedy eval with and
without the encoder memo and its episodes replaying the first, ``seq``
teachers the decoder can spell, and the episode belief loop."""

import contextlib
import csv
import importlib.util
import json
import logging
import math
import random
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from gradcheck import finite_difference_check
from test_agent import BATCH_TOL, row_of

from kga2c import (BUNDLED_GAMES, bundled_corpus_lines, bundled_game_text, engine, kg,
                   numerics as nm, oracle, tokenizer as tok, trainer)
from kga2c.agent import ABLATIONS, AgentConfig, KgA2CAgent

SMALL = trainer.TrainConfig(workers=2, unroll=4, seed=5)
PINNED = Path(__file__).resolve().parent / "data" / "behaviour.json"


@pytest.fixture(scope="module")
def short_corridor(corridor):
    return replace(corridor, turn_cap=30)


@pytest.fixture(scope="module")
def short_microzork(microzork):
    return replace(microzork, turn_cap=30)


def _run(spec, corpus, cfg, updates):
    """(pipeline, agent, train_step rows, rollout batches) of a short run."""
    pipe = trainer.build_pipeline(spec, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
    rows, batches = [], []
    for _ in range(updates):
        batch = trainer.run_rollouts(workers, agent, cfg)
        rows.append(trainer.train_step(batch, agent, cfg))
        batches.append(batch)
    return pipe, agent, rows, batches


def test_fixed_seed_rows_are_bitwise_identical(short_corridor, corpus):
    _, _, first, _ = _run(short_corridor, corpus, SMALL, 3)
    _, _, second, _ = _run(short_corridor, corpus, SMALL, 3)
    assert first == second
    _, _, other, _ = _run(short_corridor, corpus, replace(SMALL, seed=6), 3)
    assert other != first


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_two_update_smoke_run(short_corridor, corpus, ablation):
    cfg = SMALL.with_ablation(ablation)
    pipe, agent, rows, batches = _run(short_corridor, corpus, cfg, 2)
    for row in rows:
        losses = [v for k, v in row.items() if k.startswith("loss_")]
        assert losses and all(math.isfinite(v) for v in losses)
    assert all(b.degraded_workers == 0 for b in batches)
    mean, _, scores = trainer.evaluate(agent, pipe, 1, seed=cfg.seed)
    assert len(scores) == 1 and 0 <= mean <= short_corridor.max_score


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_parameters_per_ablation(microzork_space, ablation):
    model = tok.train_unigram(["take key", "go north"], 64)
    agent = KgA2CAgent(microzork_space, model, replace(SMALL.agent, ablation=ablation))
    names = agent.params.names()
    assert not any(n.startswith("tdqn.") for n in names)
    assert any(n.startswith("seq.") for n in names) == (ablation == "seq")
    assert any(n.startswith("dec.") for n in names) == (ablation != "seq")


@pytest.mark.parametrize("ablation", ["a2c", "no-gat"])
def test_gatless_ablations_never_embed_the_graph(
    short_corridor, corpus, ablation, monkeypatch
):
    def forbidden(self, graph):
        raise AssertionError("gat_embed called under " + ablation)

    monkeypatch.setattr(KgA2CAgent, "gat_embed", forbidden)
    cfg = SMALL.with_ablation(ablation)
    pipe, agent, rows, _ = _run(short_corridor, corpus, cfg, 2)
    assert len(rows) == 2
    trainer.evaluate(agent, pipe, 1)


def test_first_step_of_an_update_uses_the_updated_parameters(short_corridor, corpus):
    pipe = trainer.build_pipeline(short_corridor, corpus, SMALL)
    agent = KgA2CAgent(pipe.space, pipe.model, SMALL.agent, seed=SMALL.seed)
    workers = [trainer.Worker(i, pipe, SMALL) for i in range(SMALL.workers)]
    batch = trainer.run_rollouts(workers, agent, SMALL)
    trainer.train_step(batch, agent, SMALL)
    # the next step's batched pass, over the same workers
    s_t, _ = agent.state_embedding([w.ep.obs for w in workers],
                                   [w.ep.graph for w in workers],
                                   [w.ep.enc for w in workers])
    values = agent.critic_value(s_t).data
    expected = {w.idx: values[b] for b, w in enumerate(workers)}
    stale = {r.worker: r.v_next for r in batch.records[SMALL.unroll - 1::SMALL.unroll]}
    assert stale != expected  # the update moved V, so a stale pass would show
    batch = trainer.run_rollouts(workers, agent, SMALL)
    first = {r.worker: r.value for r in batch.records[::SMALL.unroll]}
    assert first == expected


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_loss_rows_combine_the_terms_each_ablation_trains(
    short_microzork, corpus, ablation
):
    cfg = SMALL.with_ablation(ablation)
    _, _, rows, _ = _run(short_microzork, corpus, cfg, 2)
    supervised = ablation not in ("unsupervised", "seq")
    for row in rows:
        expected = (
            row["loss_actor"] + cfg.lambda_critic * row["loss_critic"]
            + cfg.lambda_template * (row["loss_template"] + row["loss_seq_valid"])
            + cfg.lambda_object * row["loss_object"]
            + cfg.lambda_entropy * row["loss_entropy"]
        )
        assert abs(row["loss_total"] - expected) <= 1e-12
        assert (row["loss_template"] != 0.0) == supervised
        assert (row["loss_object"] != 0.0) == supervised
        assert (row["loss_seq_valid"] != 0.0) == (ablation == "seq")
        if ablation == "seq":
            assert row["seq_valid_rate"] == row["sampled_valid_rate"]
        else:
            assert row["seq_valid_rate"] == 0.0


@pytest.mark.parametrize("ablation", ["full", "seq"])
def test_combined_loss_gradcheck(microzork, corpus, ablation):
    """Finite differences of the whole batch loss of one step at microzork
    start: actor, critic and entropy, plus both BCE terms (full) or the
    valid-action cross-entropy (seq), each built by the trainer's own code."""
    agent_cfg = AgentConfig(emb_dim=4, gru_hidden=4, obs_dim=4, gat_heads=2,
                            gat_dim=4, score_width=4, dec_hidden=4)
    # seed 0: the first sampled action under full has an object ("take field")
    cfg = replace(SMALL, workers=1, unroll=1, seed=0, agent=agent_cfg
                  ).with_ablation(ablation)
    pipe = trainer.build_pipeline(microzork, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=3)
    # The advantage is a constant of the loss, taken from the record's float
    # V, so the finite differences hold it at its unperturbed value too.
    held = []
    parts = {}

    def loss():
        batch = trainer.run_rollouts([trainer.Worker(0, pipe, cfg)], agent, cfg)
        (record,) = batch.records
        held.append(record.value)
        record.value, record.v_next = held[0], 0.5
        total, terms = trainer.combined_loss(batch, *trainer.learner_pass(batch, agent),
                                             agent, cfg)
        parts.update((name, t.item()) for name, t in terms.items())
        return total

    heads = ("dec.tmpl.W", "dec.tmpl.b", "dec.obj.b") if ablation == "full" else (
        "seq.W", "seq.b")
    names = list(heads) + ["critic.w2", "critic.b2", "enc.combine.b", "gat.out.b"]
    finite_difference_check(loss, [agent.params[n] for n in names])
    assert len(set(held)) > 1  # V moved with the parameters; the advantage did not
    trained = (("template", "object") if ablation == "full" else ("seq_valid",))
    assert all(parts[name] != 0.0 for name in ("actor", "critic", "entropy") + trained)


def reference_teacher_ids(teacher, space, max_words):
    """The seq targets of the action text ``teacher``, which is always one
    the decoder can spell: its at most ``max_words`` words as vocabulary
    ids, then the stop id len(V)."""
    words = teacher.split()
    assert len(words) <= max_words
    return [list(space.vocabulary).index(w) for w in words] + [len(space.vocabulary)]


def reference_parts(batch, decoded, cfg, space):
    """Every loss part recomputed one record at a time with numpy, from the
    learner pass's heads that decoded the record's row and targets derived
    here from the record: template BCE toward ``valid.template_ids``, object
    BCE per blank toward ``mask``, p log p over the support (the
    valid templates at a supervised template head), seq CE over
    zip(positions, teacher ids), -log pi * A and (Q - V)^2 / 2, each summed
    over the records and averaged."""
    def bce(x, t):
        return np.mean(np.logaddexp(0.0, x) - x * t)

    def plogp(p, support):
        p = p[support & (p > 0.0)]
        return np.sum(p * np.log(p))

    ablation = cfg.agent.ablation
    supervised = ablation not in ("unsupervised", "seq")
    vocabulary = np.array(space.vocabulary)
    parts = dict.fromkeys(trainer.PARTS, 0.0)
    for b, record in enumerate(batch.records):
        row = [(h.chosen[i], h.logits.data[i], h.probs.data[i])
               for h in decoded.heads for i in np.flatnonzero(h.rows == b)]
        q = record.reward + cfg.gamma * record.v_next * (0.0 if record.done else 1.0)
        log_pi = sum(np.log(probs[c]) for c, _, probs in row)
        parts["actor"] += -log_pi * (q - record.value)
        parts["critic"] += 0.5 * (q - record.value) ** 2
        support = [probs > 0.0 for _, _, probs in row]
        if supervised:  # the template head, then one head per blank
            y_tau = np.zeros(len(space.templates))
            y_tau[np.array(record.valid.template_ids, dtype=int)] = 1.0
            y_o = np.isin(vocabulary, sorted(record.mask)).astype(float)
            parts["template"] += bce(row[0][1], y_tau)
            for _, logits, _ in row[1:]:
                parts["object"] += bce(logits, y_o)
            support[0] = y_tau > 0.0
        parts["entropy"] += sum(plogp(probs, keep) for (_, _, probs), keep in zip(row, support))
        if ablation == "seq" and record.teacher is not None:
            ids = reference_teacher_ids(record.teacher, space, cfg.agent.max_seq_words)
            parts["seq_valid"] += sum(np.logaddexp.reduce(logits) - logits[t]
                                      for (_, logits, _), t in zip(row, ids))
    return {name: v / len(batch.records) for name, v in parts.items()}


def empty_valid_set_at_step(worker, at):
    """Make ``worker`` find no valid action at its step ``at``."""
    step, calls = worker.step, []

    def emptied(agent, row):
        calls.append(agent)
        if len(calls) == at + 1:
            worker.valid = oracle.ValidSet((), (), ())
        return step(agent, row)

    worker.step = emptied


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_combined_loss_equals_the_per_record_formulas(short_microzork, corpus, ablation):
    cfg = replace(SMALL, workers=3, unroll=6).with_ablation(ablation)
    pipe = trainer.build_pipeline(short_microzork, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
    trainer.train_step(trainer.run_rollouts(workers, agent, cfg), agent, cfg)
    calls = fail_at_step_two(workers[1]) if ablation == "full" else []
    if ablation == "seq":
        empty_valid_set_at_step(workers[2], 1)
    batch = trainer.run_rollouts(workers, agent, cfg)
    if ablation == "full":  # dropped at step 2, its rows of steps 0 and 1 with it
        assert batch.degraded_workers == 1 and len(batch.records) == 2 * cfg.unroll
        assert len(calls) == 3 and all(r.worker != 1 for r in batch.records)
    cached = [id(v) for v in pipe._valid_cache.values()]
    shared = [id(r.valid) in cached for r in batch.records]
    # each record holds the cache's own valid set, except the emptied one
    assert sum(not s for s in shared) == (ablation == "seq")
    if ablation == "seq":
        teachers = [r.teacher for r in batch.records]
        assert sum(t is None for t in teachers) == 1
        lengths = [len(reference_teacher_ids(r.teacher, pipe.space, cfg.agent.max_seq_words))
                   - len(r.choices) for r in batch.records if r.teacher is not None]
        assert min(lengths) < 0 < max(lengths)  # teachers shorter and longer
        assert 0 < sum(r.action == r.teacher for r in batch.records) < len(batch.records)
    else:
        assert all(r.teacher is None for r in batch.records)
    values, decoded = trainer.learner_pass(batch, agent)
    if ablation == "no-mask":  # the object target is the graph mask, the support all V
        objects = [h.probs.data for h in decoded.heads[1:]]
        assert objects and all((p > 0.0).all() for p in objects)
        assert max(len(r.mask) for r in batch.records) < agent.n_vocab
    _, parts = trainer.combined_loss(batch, values, decoded, agent, cfg)
    want = reference_parts(batch, decoded, cfg, pipe.space)
    for name in trainer.PARTS:
        assert abs(parts[name].item() - want[name]) <= 1e-12 * abs(want[name]), name
    trained = {"unsupervised": (), "seq": ("seq_valid",)}.get(
        ablation, ("template", "object"))
    assert [n for n in trainer.PARTS if want[n] != 0.0] == [
        n for n in trainer.PARTS if n in ("actor", "critic", "entropy") + trained]


@pytest.mark.parametrize("game", ["microzork", "pantry"])
def test_sampled_object_ids_lie_inside_their_rows_mask(request, corpus, game, monkeypatch):
    spec = replace(request.getfixturevalue(game), turn_cap=30)
    cfg = replace(SMALL, workers=4, unroll=8)
    pipe = trainer.build_pipeline(spec, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
    decode_action, seen = KgA2CAgent.decode_action, []

    def recorded(self, s_t, masks, *args, **kwargs):
        decoded = decode_action(self, s_t, masks, *args, **kwargs)
        if kwargs.get("mode") != "replay":  # the acting pass samples
            seen.append((masks, decoded))
        return decoded

    monkeypatch.setattr(KgA2CAgent, "decode_action", recorded)
    for _ in range(4):
        trainer.train_step(trainer.run_rollouts(workers, agent, cfg), agent, cfg)
    sampled = 0
    for masks, decoded in seen:
        for head in decoded.heads[1:]:
            for b, oid in zip(head.rows, head.chosen):
                assert pipe.space.vocabulary[oid] in masks[b]
                sampled += 1
    assert sampled >= 20


def test_config_file_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"workers": 2, "lr": 0.01, "gamma": 1,
                                "agent": {"emb_dim": 8, "ablation": "no-gat"}}))
    cfg = trainer.TrainConfig.from_file(path)
    assert (cfg.workers, cfg.lr, cfg.gamma) == (2, 0.01, 1)
    assert (cfg.agent.emb_dim, cfg.agent.ablation) == (8, "no-gat")


def test_config_file_key_value_coerces_and_sets_the_agent_ablation(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\nworkers = 3\ngamma = 1  # trailing\n\n"
                    "lambda_entropy = 1e-2\nablation = seq\n")
    cfg = trainer.TrainConfig.from_file(path)
    assert cfg.workers == 3 and isinstance(cfg.workers, int)
    assert cfg.gamma == 1.0 and isinstance(cfg.gamma, float)
    assert cfg.lambda_entropy == 0.01
    assert cfg.agent.ablation == "seq"
    assert cfg == trainer.TrainConfig(workers=3, gamma=1.0, lambda_entropy=0.01
                                      ).with_ablation("seq")


def test_config_file_key_value_sets_agent_fields_as_its_json_twin(tmp_path):
    kv = tmp_path / "run.cfg"
    kv.write_text("ablation = seq\nagent.max_seq_words = 2\nagent.emb_dim = 8\n"
                  "workers = 2\n")
    twin = tmp_path / "run.json"
    twin.write_text(json.dumps({"ablation": "seq", "workers": 2,
                                "agent": {"max_seq_words": 2, "emb_dim": 8}}))
    cfg = trainer.TrainConfig.from_file(kv)
    assert cfg == trainer.TrainConfig.from_file(twin)
    assert (cfg.agent.ablation, cfg.agent.max_seq_words, cfg.agent.emb_dim) == ("seq", 2, 8)
    assert isinstance(cfg.agent.max_seq_words, int)


@pytest.mark.parametrize("text", [
    json.dumps({"workers": 2.0, "lr": 1, "gamma": 1, "seed": "7"}),
    "workers = 2.0\nlr = 1\ngamma = 1\nseed = 7\n",
], ids=["json", "key-value"])
def test_config_file_numbers_take_the_field_type(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    cfg = trainer.TrainConfig.from_file(path)
    assert cfg == trainer.TrainConfig(workers=2, lr=1.0, gamma=1.0, seed=7)
    assert [type(v) for v in (cfg.workers, cfg.seed, cfg.lr, cfg.gamma)] == [
        int, int, float, float]


@pytest.mark.parametrize("text, message", [
    (json.dumps({"workers": 2.5, "lr": 1}), "workers must be int, got 2.5"),
    (json.dumps({"workers": True}), "workers must be int, got True"),
    (json.dumps({"lr": False}), "lr must be float, got False"),
    (json.dumps({"agent": {"emb_dim": 8.5}}), "agent.emb_dim must be int, got 8.5"),
    (json.dumps({"ablation": 3}), "agent.ablation must be str, got 3"),
    ("workers = 2.5\n", "workers must be int, got '2.5'"),
    ("seed = true\n", "seed must be int, got 'true'"),
    ("lr = fast\n", "lr must be float, got 'fast'"),
], ids=["json-fraction", "json-bool-int", "json-bool-float", "json-agent",
        "json-str", "kv-fraction", "kv-bool", "kv-text"])
def test_config_file_rejects_a_value_of_another_type(tmp_path, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^config field {re.escape(message)}$"):
        trainer.TrainConfig.from_file(path)


@pytest.mark.parametrize("text, named", [
    ("wrokers = 2\n", "wrokers"),
    (json.dumps({"agent": {"emb": 3}, "lr": 0.1}), "agent.emb"),
    (json.dumps({"seed": 1, "bogus": 2, "agent": {"hidden": 3}}),
     "agent.hidden, bogus"),
    ("agent.x = 1\nagent.emb_dim = 8\nwrokers = 2\n", "agent.x, wrokers"),
])
def test_config_file_unknown_keys_are_named(tmp_path, text, named):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"unknown config keys: {named}$"):
        trainer.TrainConfig.from_file(path)


def test_config_file_ablation_must_agree_with_the_agent(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"ablation": "seq", "agent": {"ablation": "full"}}))
    with pytest.raises(ValueError, match="differs from agent.ablation"):
        trainer.TrainConfig.from_file(path)
    path.write_text(json.dumps({"ablation": "seq", "agent": {"ablation": "seq"}}))
    assert trainer.TrainConfig.from_file(path).agent.ablation == "seq"
    path.write_text("ablation = seq\nagent.ablation = full\n")
    with pytest.raises(ValueError, match="differs from agent.ablation"):
        trainer.TrainConfig.from_file(path)


def test_failing_worker_is_logged_and_dropped(short_corridor, corpus, caplog):
    pipe = trainer.build_pipeline(short_corridor, corpus, SMALL)
    cfg = replace(SMALL, workers=3)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]

    def broken(agent, row):
        raise RuntimeError("engine exploded")

    workers[1].step = broken
    with caplog.at_level(logging.ERROR, logger="kga2c.trainer"):
        batch = trainer.run_rollouts(workers, agent, cfg)
    assert batch.degraded_workers == 1
    assert sorted({r.worker for r in batch.records}) == [0, 2]
    assert len(batch.records) == 2 * cfg.unroll
    errors = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1
    message = errors[0].getMessage()
    assert "worker 1" in message
    assert engine.digest(workers[1].ep.state) in message
    assert "engine exploded" in errors[0].exc_text


def fail_at_step_two(worker):
    """Make ``worker.step`` raise on its third call; returns the call log."""
    step, calls = worker.step, []

    def failing(agent, row):
        calls.append(agent)
        if len(calls) == 3:
            raise RuntimeError("engine exploded")
        return step(agent, row)

    worker.step = failing
    return calls


def test_worker_failing_mid_unroll_is_dropped_and_the_others_keep_their_steps(
    short_corridor, corpus, caplog
):
    cfg = replace(SMALL, workers=3)
    pipe = trainer.build_pipeline(short_corridor, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
    calls = fail_at_step_two(workers[1])
    with caplog.at_level(logging.ERROR, logger="kga2c.trainer"):
        batch = trainer.run_rollouts(workers, agent, cfg)
    assert len(calls) == 3 and workers[1].failed
    assert batch.degraded_workers == 1
    assert [r.worker for r in batch.records] == [0] * cfg.unroll + [2] * cfg.unroll
    assert sum("worker 1" in r.getMessage() for r in caplog.records) == 1
    # each survivor's V(s') is its next record's V(s), and the next update
    # skips the dropped worker
    for own in (batch.records[:cfg.unroll], batch.records[cfg.unroll:]):
        for record, following in zip(own, own[1:]):
            assert record.v_next == (0.0 if record.done else following.value)
    again = trainer.run_rollouts(workers, agent, cfg)
    assert again.degraded_workers == 1
    assert {r.worker for r in again.records} == {0, 2}


def test_a_single_worker_failing_mid_unroll_raises(short_corridor, corpus):
    cfg = replace(SMALL, workers=1)
    pipe = trainer.build_pipeline(short_corridor, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    worker = trainer.Worker(0, pipe, cfg)
    fail_at_step_two(worker)
    with pytest.raises(RuntimeError, match="engine exploded"):
        trainer.run_rollouts([worker], agent, cfg)


def test_a_failed_observation_drops_only_its_worker(short_corridor, corpus, caplog):
    """A worker observes the state it reaches inside its step, so when that
    observation raises, only that worker is dropped, with its records of
    the unroll, and the log names the state it reached.  The others keep
    every record, each acting as it does with no worker dropped."""
    cfg = replace(SMALL, workers=3)
    pipe = trainer.build_pipeline(short_corridor, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    healthy = trainer.run_rollouts(
        [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)], agent, cfg)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
    ep, reached = workers[1].ep, []
    observe = ep._observe

    def failing():
        reached.append(ep.state)
        if len(reached) == 2:  # the state its second step reaches
            raise RuntimeError("detector exploded")
        observe()

    ep._observe = failing
    with caplog.at_level(logging.ERROR, logger="kga2c.trainer"):
        batch = trainer.run_rollouts(workers, agent, cfg)
    assert workers[1].failed and batch.degraded_workers == 1
    assert [r.worker for r in batch.records] == [0] * cfg.unroll + [2] * cfg.unroll
    (error,) = [r for r in caplog.records if r.levelno == logging.ERROR]
    assert "worker 1" in error.getMessage()
    assert engine.digest(reached[-1]) in error.getMessage()
    assert "detector exploded" in error.exc_text
    survivors = [r for r in healthy.records if r.worker != 1]
    for got, want in zip(batch.records, survivors, strict=True):
        assert (got.action, got.choices, got.reward, got.mask, got.graph) == (
            want.action, want.choices, want.reward, want.mask, want.graph)
        for a, b in ((got.value, want.value), (got.v_next, want.v_next)):
            assert abs(a - b) <= BATCH_TOL * max(abs(b), 1.0)


class CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``random()`` draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


@pytest.mark.parametrize("turn_cap", [4, 6], ids=["end-mid-unroll", "end-at-boundary"])
def test_the_mask_rng_is_drawn_once_per_env_step_per_worker(corridor, corpus, turn_cap,
                                                            monkeypatch):
    """At p_m = 0.5 one observation draws once per word of V outside the
    graph's entities.  So each worker's mask RNG has drawn exactly that many
    for each state its records acted from, plus the state it is at: across
    unroll boundaries and episode ends, which fall mid-unroll (turn cap 4)
    or on an unroll's last step (6), no state is observed twice, and no
    terminal one is observed."""
    monkeypatch.setattr(trainer, "random", SimpleNamespace(Random=CountingRandom))
    cfg = replace(SMALL, workers=2, unroll=3, p_m=0.5)
    pipe = trainer.build_pipeline(replace(corridor, turn_cap=turn_cap), corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
    vocabulary = pipe.space.vocabulary

    def draws(graph):
        entities = kg.nodes(graph) - {kg.YOU}
        return sum(w not in entities for w in vocabulary)

    records = []
    for _ in range(3):
        batch = trainer.run_rollouts(workers, agent, cfg)
        records += batch.records
    assert sum(r.done for r in records) == 9 // turn_cap * cfg.workers
    for w in workers:
        observed = [r.graph for r in records if r.worker == w.idx] + [w.ep.graph]
        assert len(observed) == 3 * cfg.unroll + 1
        assert w.mask_rng.draws == sum(draws(g) for g in observed) > 0
        assert w.ep.rng is w.mask_rng


def test_episodes_ending_on_the_last_step_need_no_bootstrap(corridor, corpus):
    cfg = replace(SMALL, workers=2)
    spec = replace(corridor, turn_cap=cfg.unroll)  # every episode ends at step 4
    pipe = trainer.build_pipeline(spec, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
    batch = trainer.run_rollouts(workers, agent, cfg)
    last = batch.records[cfg.unroll - 1::cfg.unroll]
    assert [r.done for r in last] == [True, True] and len(batch.episodes_finished) == 2
    assert [r.v_next for r in last] == [0.0, 0.0]
    assert batch.degraded_workers == 0


def recording_acting_decodes(monkeypatch) -> list:
    """Patch ``decode_action`` to append each acting pass's ``Decoded`` to
    the returned list; the learner's ``replay`` passes are not kept."""
    acting, decode_action = [], KgA2CAgent.decode_action

    def recorded(self, s_t, masks, *args, **kwargs):
        decoded = decode_action(self, s_t, masks, *args, **kwargs)
        if kwargs.get("mode") != "replay":
            acting.append(decoded)
        return decoded

    monkeypatch.setattr(KgA2CAgent, "decode_action", recorded)
    return acting


def test_lockstep_rollouts_equal_each_worker_run_alone(short_microzork, corpus,
                                                       monkeypatch):
    """Each worker samples from its own RNGs, so stepping the workers
    together takes the actions each takes on its own, with the same values
    and joint log-probs up to round-off."""
    cfg = replace(SMALL, workers=3)
    pipe = trainer.build_pipeline(short_microzork, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    acting = recording_acting_decodes(monkeypatch)
    together = trainer.run_rollouts(
        [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)], agent, cfg)
    together_decodes = list(acting)
    assert len(together_decodes) == cfg.unroll
    for i in range(cfg.workers):
        acting.clear()
        alone = trainer.run_rollouts([trainer.Worker(i, pipe, cfg)], agent, cfg)
        rows = [r for r in together.records if r.worker == i]
        assert len(rows) == len(alone.records) == len(acting) == cfg.unroll
        for k, (got, want) in enumerate(zip(rows, alone.records)):
            assert (got.reward, got.done, len(got.valid), len(got.mask), got.choices,
                    got.action) == (want.reward, want.done, len(want.valid),
                                    len(want.mask), want.choices, want.action)
            for a, b in ((got.value, want.value), (got.v_next, want.v_next),
                         (together_decodes[k].log_prob.data[i], acting[k].log_prob.data[0])):
                assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)


def test_rollout_loss_and_gradients_equal_the_unmemoized_pass(
    short_microzork, corpus, monkeypatch
):
    """One unroll, whose acting pass embeds each distinct graph once, and
    the learner pass's loss and backward, against the same seeded run whose
    ``gat_embed`` embeds every row afresh: the same actions and records, and
    the loss and every gradient agree."""
    cfg = replace(SMALL, workers=4, unroll=8)
    rows = {"requested": 0, "embedded": 0}
    gat_embed, gat_block = KgA2CAgent.gat_embed, KgA2CAgent._gat_block

    def counted_embed(self, graphs):
        rows["requested"] += len(graphs)
        return gat_embed(self, graphs)

    def counted_block(self, graphs):
        rows["embedded"] += len(graphs)
        return gat_block(self, graphs)

    def unmemoized(self, graphs):
        rows["requested"] += len(graphs)
        return counted_block(self, graphs)

    def run():
        pipe = trainer.build_pipeline(short_microzork, corpus, cfg)
        agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
        workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
        rows.update(requested=0, embedded=0)
        acting.clear()
        batch = trainer.run_rollouts(workers, agent, cfg)
        log_probs = [d.log_prob.data for d in acting]
        total, _ = trainer.combined_loss(batch, *trainer.learner_pass(batch, agent),
                                         agent, cfg)
        agent.params.zero_grad()
        nm.backward(total)
        grads = {n: agent.params[n].grad for n in agent.params.names()}
        return batch, log_probs, total.item(), grads, dict(rows)

    acting = recording_acting_decodes(monkeypatch)
    monkeypatch.setattr(KgA2CAgent, "_gat_block", counted_block)
    monkeypatch.setattr(KgA2CAgent, "gat_embed", counted_embed)
    batch, log_probs, loss, grads, memo_rows = run()
    monkeypatch.setattr(KgA2CAgent, "gat_embed", unmemoized)
    fresh_batch, fresh_log_probs, fresh_loss, fresh_grads, fresh_rows = run()
    # 8 acting passes of 4 rows, the bootstrap pass and the learner's 32 rows
    assert fresh_rows["embedded"] == fresh_rows["requested"] == memo_rows["requested"] > 64
    assert memo_rows["embedded"] < memo_rows["requested"]
    assert [r.choices for r in batch.records] == [r.choices for r in fresh_batch.records]
    for got, want in zip(batch.records, fresh_batch.records, strict=True):
        assert abs(got.value - want.value) <= BATCH_TOL
    assert len(log_probs) == len(fresh_log_probs) == cfg.unroll
    for got, want in zip(log_probs, fresh_log_probs):
        assert np.abs(got - want).max() <= BATCH_TOL
    assert abs(loss - fresh_loss) <= BATCH_TOL * max(abs(fresh_loss), 1.0)
    assert any(n.startswith("gat.") and g is not None for n, g in grads.items())
    for name, want in fresh_grads.items():
        if want is None:
            assert grads[name] is None, name
            continue
        scale = max(np.abs(want).max(), 1.0)
        assert np.abs(grads[name] - want).max() <= BATCH_TOL * scale, name


def tensors_reachable(root) -> list[nm.Tensor]:
    """Every ``nm.Tensor`` reachable from ``root`` through containers,
    dataclass fields and object attributes."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, np.ndarray)):
            continue
        seen.add(id(obj))
        if isinstance(obj, nm.Tensor):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


def replay_setup(microzork, corpus, ablation, monkeypatch):
    """(cfg, agent, batch, acting decodes, acting rows): after one update, an
    unroll of 4 workers x 8 steps on microzork with a 6-turn cap, so
    episodes restart mid-unroll, in which worker 1 fails at its third step.
    The acting pass's ``Decoded`` of unroll step k is the k-th decode, and
    the i-th acting row is the (k, b) of record i: it was row b of step k,
    found by the identity of the mask that row decoded under."""
    cfg = replace(SMALL, workers=4, unroll=8).with_ablation(ablation)
    pipe = trainer.build_pipeline(replace(microzork, turn_cap=6), corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
    trainer.train_step(trainer.run_rollouts(workers, agent, cfg), agent, cfg)
    acting, at, decode_action = [], {}, KgA2CAgent.decode_action

    def recorded(self, s_t, masks, *args, **kwargs):
        decoded = decode_action(self, s_t, masks, *args, **kwargs)
        if kwargs.get("mode") != "replay":
            at.update((id(m), (len(acting), b)) for b, m in enumerate(masks))
            acting.append(decoded)
        return decoded

    monkeypatch.setattr(KgA2CAgent, "decode_action", recorded)
    fail_at_step_two(workers[1])
    batch = trainer.run_rollouts(workers, agent, cfg)
    assert batch.degraded_workers == 1 and len(acting) == cfg.unroll
    assert sum(r.done for r in batch.records) >= 3
    assert len(at) == sum(len(d.actions) for d in acting)  # one mask object a row
    return cfg, agent, batch, acting, [at[id(r.mask)] for r in batch.records]


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_learner_pass_equals_the_acting_pass(microzork, corpus, ablation, monkeypatch):
    """The learner's V, joint log-probs, choices and every head's logits and
    probs equal the no-grad acting pass's, row by row, except on a ``seq``
    row that executed its teacher, which replays the teacher's ids; the
    batch holds no tensor, and the learner replays only the kept records."""
    _, agent, batch, acting, rows = replay_setup(microzork, corpus, ablation, monkeypatch)
    assert tensors_reachable(batch) == [] and tensors_reachable(acting[0])
    values, decoded = trainer.learner_pass(batch, agent)
    assert values._parents and decoded.log_prob._parents
    assert values.shape == decoded.log_prob.shape == (len(batch.records),)
    for i, (record, (k, b)) in enumerate(zip(batch.records, rows)):
        assert abs(values.data[i] - record.value) <= BATCH_TOL
        got, want = row_of(decoded, i), row_of(acting[k], b)
        assert [c for c, _, _ in got] == record.choices
        if record.choices != [c for c, _, _ in want]:
            assert ablation == "seq" and record.action == record.teacher
            continue
        assert abs(decoded.log_prob.data[i] - acting[k].log_prob.data[b]) <= BATCH_TOL
        assert decoded.actions[i] == acting[k].actions[b]
        for (_, logits, probs), (_, acting_logits, acting_probs) in zip(got, want):
            assert np.abs(logits - acting_logits).max() <= BATCH_TOL
            assert np.abs(probs - acting_probs).max() <= BATCH_TOL


@pytest.fixture(scope="module", params=[(g, a) for g in BUNDLED_GAMES for a in ABLATIONS],
                ids="-".join)
def learned_batch(request):
    """(game, ablation, agent, batch, decoded, gradients) after one acting
    pass of 2 workers x 4 steps and one learner pass, its combined loss and
    one backward, at seed 1: a seed whose batch decodes a two-blank template
    on microzork and pantry under every template ablation.  Module-scoped,
    so the tests that read one (game, ablation) run together and share it."""
    game, ablation = request.param
    cfg = replace(SMALL, seed=1).with_ablation(ablation)
    pipe = trainer.build_pipeline(engine.load_game(bundled_game_text(game)),
                                  bundled_corpus_lines(), cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    batch = trainer.run_rollouts([trainer.Worker(i, pipe, cfg) for i in range(2)],
                                 agent, cfg)
    values, decoded = trainer.learner_pass(batch, agent)
    total, _ = trainer.combined_loss(batch, values, decoded, agent, cfg)
    agent.params.zero_grad()
    nm.backward(total)
    grads = {n: agent.params[n].grad for n in agent.params.names()}
    return game, ablation, agent, batch, decoded, grads


def test_learner_replays_the_executed_action(learned_batch):
    """Row i of the learner pass decodes record i's executed action, also
    on a ``seq`` step that executed the teacher instead of its own words."""
    _, ablation, _, batch, decoded, _ = learned_batch
    assert decoded.actions == [r.action for r in batch.records]
    if ablation == "seq":
        assert any(r.action == r.teacher for r in batch.records)


def test_seq_teachers_are_actions_the_decoder_can_spell(pantry, corpus):
    """With ``max_seq_words = 2`` the decoder cannot spell pantry's longer
    valid actions, so a teacher is drawn only from the ones it can: every
    record's executed action is the one the learner replays, and steps
    executed their teachers."""
    cfg = trainer.TrainConfig(seed=1).with_ablation("seq")
    cfg = replace(cfg, agent=replace(cfg.agent, max_seq_words=2))
    pipe = trainer.build_pipeline(pantry, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
    records = []
    for _ in range(3):
        batch = trainer.run_rollouts(workers, agent, cfg)
        _, decoded = trainer.learner_pass(batch, agent)
        assert decoded.actions == [r.action for r in batch.records]
        records += batch.records
    assert any(len(a.split()) > 2 for r in records for a in r.valid.actions)
    assert any(r.action == r.teacher for r in records)
    assert all(len(r.teacher.split()) <= 2 for r in records if r.teacher is not None)


def test_one_learner_pass_reaches_every_tensor(learned_batch):
    """Every tensor the agent allocates, and each z, r and n column block of
    every GRU's W, gets a non-zero gradient from one learner pass."""
    game, ablation, agent, batch, _, grads = learned_batch
    unreached = [n for n, g in grads.items() if g is None or not np.any(g)]
    for name in (n for n in grads if n.endswith(".gru.W") and grads[n] is not None):
        for k, block in enumerate(np.split(grads[name], 3, axis=1)):
            if not np.any(block):
                unreached.append(f"{name}[{'zrn'[k]}]")
    assert unreached == []
    if game != "corridor" and ablation != "seq":  # corridor has no blanks
        templates = agent.space.templates
        assert any(templates[r.choices[0]].blanks == 2 for r in batch.records)


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_learner_loss_and_gradients_equal_a_per_step_replay(
    microzork, corpus, ablation, monkeypatch
):
    """One taped pass over all kept rows gives the loss, its parts and every
    gradient that replaying each unroll step as its own taped pass gives,
    each step's loss weighted by its share of the records."""
    cfg, agent, batch, acting, rows = replay_setup(microzork, corpus, ablation, monkeypatch)

    def backward(total):
        agent.params.zero_grad()
        nm.backward(total)
        return {n: agent.params[n].grad for n in agent.params.names()}

    total, parts = trainer.combined_loss(batch, *trainer.learner_pass(batch, agent),
                                         agent, cfg)
    grads = backward(total)
    ref_total, ref_parts = nm.Tensor(0.0), dict.fromkeys(trainer.PARTS, 0.0)
    for step in range(len(acting)):
        records = [r for r, (k, _) in zip(batch.records, rows) if k == step]
        sub = trainer.RolloutBatch(records, [], 0)
        share = len(records) / len(batch.records)
        step_total, step_parts = trainer.combined_loss(
            sub, *trainer.learner_pass(sub, agent), agent, cfg)
        ref_total = nm.add(ref_total, nm.mul(nm.Tensor(share), step_total))
        for name, t in step_parts.items():
            ref_parts[name] += share * t.item()
    ref_grads = backward(ref_total)
    assert abs(total.item() - ref_total.item()) <= BATCH_TOL * max(abs(ref_total.item()), 1.0)
    for name, want in ref_parts.items():
        assert abs(parts[name].item() - want) <= BATCH_TOL * max(abs(want), 1.0), name
    for name, want in ref_grads.items():
        if want is None:
            assert grads[name] is None, name
            continue
        scale = max(np.abs(want).max(), 1.0)
        assert np.abs(grads[name] - want).max() <= BATCH_TOL * scale, name


@pytest.mark.parametrize("ablation", ["full", "seq"])
def test_evaluate_records_no_tape_and_plays_as_with_it(
    short_microzork, corpus, ablation, monkeypatch
):
    cfg = SMALL.with_ablation(ablation)
    pipe = trainer.build_pipeline(short_microzork, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    trace: list = []
    result = trainer.evaluate(agent, pipe, 2, seed=1, trace=trace)
    embeddings = []
    state_embedding = KgA2CAgent.state_embedding

    def recorded(self, *args):
        out = state_embedding(self, *args)
        embeddings.append(out[0])
        return out

    monkeypatch.setattr(KgA2CAgent, "state_embedding", recorded)
    # no scope: every pass taped and computed afresh
    monkeypatch.setattr(KgA2CAgent, "fixed_parameters", lambda self: contextlib.nullcontext())
    taped: list = []
    assert trainer.evaluate(agent, pipe, 2, seed=1, trace=taped) == result
    assert taped == trace
    assert embeddings and all(e._parents for e in embeddings)
    monkeypatch.undo()
    monkeypatch.setattr(KgA2CAgent, "state_embedding", recorded)
    embeddings.clear()
    trainer.evaluate(agent, pipe, 1, seed=1)
    assert embeddings and not any(e._parents for e in embeddings)


@pytest.mark.parametrize("ablation", ["full", "seq"])
@pytest.mark.parametrize("game", BUNDLED_GAMES)
def test_greedy_eval_episodes_replay_the_first(request, corpus, game, ablation,
                                               monkeypatch):
    """Greedy eval is deterministic: every episode starts from
    ``engine.reset``'s one state, the decoders take the argmax and the mask
    adds no word at p_m = 0.  So every episode replays the first, whatever
    ``evaluate``'s seed, which is why ``train`` and ``kga2c eval`` play one.
    If the engine or eval gains randomness, this names the assumption that
    broke."""
    spec = replace(request.getfixturevalue(game), turn_cap=40)
    cfg = trainer.TrainConfig().with_ablation(ablation)
    pipe = trainer.build_pipeline(spec, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    episode, trace, starts = trainer.Episode, [], []

    def started(*args, **kwargs):
        starts.append(len(trace))
        return episode(*args, **kwargs)

    monkeypatch.setattr(trainer, "Episode", started)
    runs, scores = [], []
    for seed in (0, 7):
        trace.clear()
        starts.clear()
        scores += trainer.evaluate(agent, pipe, 3, seed=seed, trace=trace)[2]
        bounds = starts + [len(trace)]
        runs.append([trace[a:b] for a, b in zip(bounds, bounds[1:])])
    assert len(scores) == 6 and len(set(scores)) == 1
    for episodes in runs:
        assert len(episodes) == 3 and episodes[0]
        assert episodes[1] == episodes[0] and episodes[2] == episodes[0]
    assert runs[1] == runs[0]


@pytest.mark.parametrize("game", ["microzork", "pantry"])
def test_evaluate_with_the_encoder_memo_equals_it_bypassed(
    request, corpus, game, monkeypatch
):
    """A greedy episode scores, traces and encodes bitwise as it does with
    the encoder memo bypassed.  The memo ran fewer channel rows, held at most
    one entry per channel and step, and is dropped when the episode ends."""
    spec = replace(request.getfixturevalue(game), turn_cap=300)
    pipe = trainer.build_pipeline(spec, corpus, SMALL)
    agent = KgA2CAgent(pipe.space, pipe.model, SMALL.agent, seed=SMALL.seed)
    encode, encode_channel = KgA2CAgent.encode_observation, KgA2CAgent._encode_channel
    # memo used -> (o_t of each step, memo size after it, rows each GRU block ran)
    runs = {True: ([], [], []), False: ([], [], [])}

    def recorded(self, *args):
        memo = self._enc_memo
        if not use_memo:
            self._enc_memo = None
        try:
            out = encode(self, *args)
        finally:
            self._enc_memo = memo
        runs[use_memo][0].append(out[0].data)
        runs[use_memo][1].append(len(memo))
        return out

    def counted(self, keys):
        runs[use_memo][2].append(len(keys))
        return encode_channel(self, keys)

    monkeypatch.setattr(KgA2CAgent, "encode_observation", recorded)
    monkeypatch.setattr(KgA2CAgent, "_encode_channel", counted)
    results = {}
    for use_memo in (True, False):
        trace: list = []
        results[use_memo] = trainer.evaluate(agent, pipe, 1, seed=1, trace=trace), trace
        assert agent._enc_memo is None
    assert results[True] == results[False]
    memo_encoded, memo_sizes, memo_rows = runs[True]
    bypass_encoded, bypass_sizes, bypass_rows = runs[False]
    steps = len(results[True][1])
    assert len(memo_encoded) == len(bypass_encoded) == steps
    assert all(np.array_equal(a, b) for a, b in zip(memo_encoded, bypass_encoded))
    assert 0 < memo_sizes[-1] <= 4 * steps and bypass_sizes[-1] == 0
    assert sum(bypass_rows) == 4 * steps > sum(memo_rows)


def test_episode_observe_at_microzork_start(microzork, microzork_space):
    ep = trainer.Episode(microzork, microzork_space.vocabulary)
    assert ("field", "has", "key") in ep.graph
    assert "key" in ep.mask
    assert "key" in engine.in_scope_words(ep.state, microzork)
    assert ep.prev_action == "<start>" and not ep.done
    ep.act("take key")
    assert ep.prev_action == "take key"
    assert ("you", "have", "key") in ep.graph


def observed_alone(spec, vocabulary, state, prev_action=engine.SENTINEL_PREV_ACTION):
    """The (observation, graph, mask) of ``state`` seen from an empty graph."""
    obs = engine.observation(state, spec)
    graph = kg.update_graph(frozenset(), obs, prev_action, state.room,
                            kg.detect_interactive_objects(obs, state, spec), spec)
    mask = kg.graph_mask(graph, vocabulary, 0.0, None, engine.in_scope_words(state, spec))
    return obs, graph, mask


@pytest.mark.parametrize("actions", [(), ("take key", "north"), ("open mailbox",)],
                         ids=["reset", "moved", "opened"])
def test_an_episode_started_at_a_state_observes_exactly_that_state(
    microzork, microzork_space, actions
):
    """``Episode(state=s)`` observes ``s`` alone: its observation, the
    sentinel last action, and a graph and mask built from ``s`` with no
    trace of the steps that led there.  The default start is
    ``engine.reset``'s state."""
    vocabulary = microzork_space.vocabulary
    state, _ = engine.reset(microzork)
    for action in actions:
        state, _, _, _ = engine.step(state, action, microzork)
    ep = trainer.Episode(microzork, vocabulary, state=state)
    assert ep.state is state and not ep.done
    assert ep.prev_action == engine.SENTINEL_PREV_ACTION
    assert (ep.obs, ep.graph, ep.mask) == observed_alone(microzork, vocabulary, state)
    assert ep.obs == engine.observation(state, microzork)
    assert not ep.enc.any()
    default = trainer.Episode(microzork, vocabulary)
    start = trainer.Episode(microzork, vocabulary, state=engine.reset(microzork)[0])
    assert (start.state, start.obs, start.graph, start.mask) == (
        default.state, default.obs, default.graph, default.mask)
    if state.room != microzork.start:  # a walked graph keeps the room left behind
        walked = trainer.Episode(microzork, vocabulary)
        for action in actions:
            walked.act(action)
        assert walked.state == state and walked.graph != ep.graph


@pytest.mark.parametrize("action", ["take key", "open mailbox", "examine key",
                                    "north", "take nothing"])
def test_an_env_step_reuses_the_observed_scope(microzork, microzork_space, action,
                                               monkeypatch):
    """``act`` finds the observed state's scope in the engine's memo and
    computes only the scope of the state it reaches, for its observation;
    the step equals one from an equal state that computes its own."""
    ep = trainer.Episode(microzork, microzork_space.vocabulary)
    before = ep.state
    want = engine.step(before, action, microzork)
    scopes, real_scope = [], engine._objects_in_scope
    monkeypatch.setattr(engine, "_objects_in_scope",
                        lambda *a: scopes.append(a) or real_scope(*a))
    reward = ep.act(action)
    assert len(scopes) == 1 and scopes[0][0] is ep.state
    assert (ep.state, ep.obs, reward, ep.done) == want
    scopes.clear()
    assert engine.step(replace(before), action, microzork) == want
    assert scopes == [] if action == "north" else len(scopes) == 1


def test_train_writes_health_counters(short_corridor, corpus, tmp_path):
    cfg = replace(SMALL, updates=2)
    result = trainer.train(short_corridor, corpus, cfg, out_dir=tmp_path)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 2
    assert all(set(row) == set(trainer.METRIC_KEYS) for row in rows)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        assert next(csv.reader(fh)) == list(trainer.METRIC_KEYS)
    for row in rows:
        assert row["degraded_workers"] == 0
        assert row["oracle_truncated"] == 0
        assert 0.0 <= row["valid_cache_hit_rate"] <= 1.0
    pipe = result.pipeline
    assert rows[-1]["valid_cache_entries"] == len(pipe._valid_cache) == pipe.valid_misses
    assert rows[0]["valid_cache_entries"] <= rows[1]["valid_cache_entries"]
    # the counters ride along: train_step's own fields are unchanged
    _, _, step_rows, batches = _run(short_corridor, corpus, cfg, 2)
    for row, step_row, batch in zip(rows, step_rows, batches):
        assert {k: row[k] for k in step_row} == step_row
        assert "mean_graph_triples" not in step_row
        sizes = [len(r.graph) for r in batch.records]
        assert min(sizes) >= 1
        assert row["mean_graph_triples"] == float(np.mean(sizes))


@pytest.fixture(scope="module")
def behaviour_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "behaviour_hash.py"
    spec = importlib.util.spec_from_file_location("behaviour_hash", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("game", ["microzork", "pantry"])
def test_train_writes_artifacts_and_matches_the_pinned_behaviour_run(
    request, corpus, game, tmp_path, behaviour_tool
):
    """``train`` under the behaviour-hash settings writes its artifacts, and
    its ``metrics.jsonl`` rows and final eval are the pinned ``full`` run's."""
    tool = behaviour_tool
    spec = replace(request.getfixturevalue(game), turn_cap=tool.TURN_CAP)
    cfg = trainer.TrainConfig(workers=tool.WORKERS, unroll=tool.UNROLL, seed=tool.SEED,
                              updates=tool.UPDATES)
    result = trainer.train(spec, corpus, cfg, out_dir=tmp_path)
    for name in ("metrics.jsonl", "metrics.csv", "checkpoint.bin"):
        assert (tmp_path / name).is_file(), name
    pinned = json.loads(PINNED.read_text())[game]["full"]
    rows = [json.loads(line) for line in
            (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert [row["update"] for row in rows] == list(range(tool.UPDATES))
    assert len(pinned["rows"]) == len(rows)
    for want, row in zip(pinned["rows"], rows):
        for key, value in want.items():
            assert tool.relative_difference(value, row[key]) <= tool.ROW_RTOL, key
    mean, _, scores = pinned["eval"]
    assert result.eval_score == mean and len(scores) == 1


def test_records_carry_the_size_of_the_graph_they_embedded(short_microzork, corpus,
                                                          monkeypatch):
    """Each record holds the graph its acting row embedded, and the learner
    embeds exactly the records' graphs."""
    embedded = []
    state_embedding = KgA2CAgent.state_embedding

    def recorded(self, observations, graphs, encs):
        embedded.append(list(graphs))
        return state_embedding(self, observations, graphs, encs)

    monkeypatch.setattr(KgA2CAgent, "state_embedding", recorded)
    _, _, _, (batch,) = _run(short_microzork, corpus, SMALL, 1)
    unroll, records = SMALL.unroll, batch.records  # worker-major
    by_step = [[records[w * unroll + k] for w in range(SMALL.workers)]
               for k in range(unroll)]
    ids = [[id(g) for g in graphs] for graphs in embedded]
    assert [[id(r.graph) for r in rows] for rows in by_step] == ids[:unroll]
    assert ids[-1] == [id(r.graph) for r in records]  # the learner pass
    assert len({len(r.graph) for r in records}) > 1


def test_valid_cache_evicts_the_least_recently_used_and_stays_exact(
    microzork, corpus, monkeypatch
):
    monkeypatch.setattr(trainer, "VALID_CACHE_CAP", 2)
    pipe = trainer.build_pipeline(microzork, corpus, trainer.TrainConfig())
    a, _ = engine.reset(microzork)
    b, _, _, _ = engine.step(a, "take key", microzork)
    c, _, _, _ = engine.step(b, "north", microzork)

    def request(state):
        in_scope = engine.in_scope_words(state, microzork)
        got = pipe.valid_set(state, pipe.space.vocabulary, in_scope)
        words = oracle.probe_words(state, microzork, pipe.space, pipe.space.vocabulary)
        assert got == oracle.valid_actions(state, microzork, pipe.space, words,
                                           pipe.probe_budget)
        return (pipe.valid_hits, pipe.valid_misses, len(pipe._valid_cache))

    assert request(a) == (0, 1, 1)
    assert request(b) == (0, 2, 2)
    assert request(a) == (1, 2, 2)  # a is now the most recently used
    assert request(c) == (1, 3, 2)  # evicts b
    assert request(a) == (2, 3, 2)
    assert request(b) == (2, 4, 2)  # recomputed after its eviction; evicts c
    assert request(c) == (2, 5, 2)
    assert request(b) == (3, 5, 2)


def test_random_valid_baseline_is_seeded_and_plays_only_valid_actions(
    corridor, corpus, monkeypatch
):
    first = trainer.random_valid_baseline(corridor, corpus, SMALL, 60, seed=2)
    valid_at = {}
    valid_set, act = trainer.Pipeline.valid_set, trainer.Episode.act

    def recorded(pipe, state, mask_words, in_scope, *args):
        valid_at[engine.digest(state)] = result = valid_set(
            pipe, state, mask_words, in_scope, *args)
        return result

    played = []

    def checked(ep, action):
        played.append(action)
        assert action in valid_at[engine.digest(ep.state)]
        return act(ep, action)

    monkeypatch.setattr(trainer.Pipeline, "valid_set", recorded)
    monkeypatch.setattr(trainer.Episode, "act", checked)
    second = trainer.random_valid_baseline(corridor, corpus, SMALL, 60, seed=2)
    assert second == first
    assert len(played) == 60 and len(first[1]) >= 1


def test_random_valid_baseline_reports_no_score_when_no_episode_ends(microzork, corpus):
    mean, scores = trainer.random_valid_baseline(microzork, corpus, SMALL, 5)
    assert scores == [] and math.isnan(mean)


@pytest.mark.parametrize("field, value", [
    ("p_m", 1.5), ("p_m", -0.1), ("p_m", float("nan")),
    ("p_valid", 2.0), ("p_valid", -1.0),
    ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")),
    ("lambda_critic", -1.0), ("lambda_critic", float("nan")),
    ("lambda_template", float("inf")), ("lambda_object", float("nan")),
    ("lambda_entropy", float("inf")),
    ("grad_clip", 0.0), ("grad_clip", -1.0),
    ("workers", 0), ("unroll", 0), ("updates", -1),
    ("probe_budget", 0),
    ("checkpoint_every", -1),
])
def test_config_rejects_values_that_break_a_run(field, value, tmp_path):
    with pytest.raises(ValueError, match=f"^{field} must"):
        trainer.TrainConfig(**{field: value})
    path = tmp_path / "run.cfg"  # a config file is refused by the same name
    path.write_text(f"workers = 1\n{field} = {value}\n")
    with pytest.raises(ValueError, match=f"^{field} must"):
        trainer.TrainConfig.from_file(path)


@pytest.mark.parametrize("field, value", [
    ("max_seq_words", 0), ("gru_hidden", 0), ("gru_hidden", -1), ("obs_dim", 0),
    ("gat_dim", 0), ("dec_hidden", 0), ("emb_dim", 0), ("gat_heads", 0),
])
def test_agent_config_rejects_sizes_that_break_a_run(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
        AgentConfig(**{field: value})


def test_config_keeps_zero_learning_rate_and_edge_probabilities():
    cfg = trainer.TrainConfig(lr=0.0, p_m=1.0, p_valid=0.0, checkpoint_every=0)
    assert (cfg.lr, cfg.p_m, cfg.p_valid) == (0.0, 1.0, 0.0)
