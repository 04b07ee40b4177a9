"""Trainer: fixed-seed determinism, per-ablation smoke runs, a ``train`` run
against the pinned behaviour dump, parameters and loss terms, the combined
loss's gradient, config files, loud worker failures, greedy eval with and
without the encoder memo, and the episode belief loop."""

import contextlib
import csv
import importlib.util
import json
import logging
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from gradcheck import finite_difference_check
from test_agent import BATCH_TOL

from kga2c import engine, numerics as nm, oracle, tokenizer as tok, trainer
from kga2c.agent import ABLATIONS, AgentConfig, KgA2CAgent

SMALL = trainer.TrainConfig(workers=2, unroll=4, seed=5)
PINNED_FULL = Path(__file__).resolve().parent / "data" / "behaviour_full.json"


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
    for w in workers:
        w.prepare()  # the observation the next step acts on
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
        total, terms = trainer.combined_loss(batch, cfg)
        parts.update((name, t.item()) for name, t in terms.items())
        return total

    heads = ("dec.tmpl.W", "dec.tmpl.b", "dec.obj.b") if ablation == "full" else (
        "seq.W", "seq.b")
    names = list(heads) + ["critic.w2", "critic.b2", "enc.combine.b", "gat.out.b"]
    finite_difference_check(loss, [agent.params[n] for n in names])
    assert len(set(held)) > 1  # V moved with the parameters; the advantage did not
    trained = (("template", "object") if ablation == "full" else ("seq_valid",))
    assert all(parts[name] != 0.0 for name in ("actor", "critic", "entropy") + trained)


def reference_parts(batch, cfg):
    """Every loss part recomputed one record at a time with numpy, from the
    heads that decoded the record's row: template BCE, object BCE per blank,
    p log p over the support, seq CE over zip(positions, teacher ids),
    -log pi * A and (Q - V)^2 / 2, each summed over the records and averaged."""
    def bce(x, t):
        return np.mean(np.logaddexp(0.0, x) - x * t)

    def plogp(p, support):
        p = p[support & (p > 0.0)]
        return np.sum(p * np.log(p))

    parts = dict.fromkeys(trainer.PARTS, 0.0)
    for record in batch.records:
        (step, b), = [(step, b) for step in batch.steps
                      for b, r in enumerate(step.records) if r is record]
        row = [(h.chosen[i], h.logits.data[i], h.probs.data[i])
               for h in step.decoded.heads for i in np.flatnonzero(h.rows == b)]
        q = record.reward + cfg.gamma * record.v_next * (0.0 if record.done else 1.0)
        assert record.value == step.values.data[b]
        log_pi = sum(np.log(probs[c]) for c, _, probs in row)
        parts["actor"] += -log_pi * (q - record.value)
        parts["critic"] += 0.5 * (q - record.value) ** 2
        if record.valid_templates is not None:
            parts["template"] += bce(row[0][1], record.valid_templates)
            for _, logits, _ in row[1:]:
                parts["object"] += bce(logits, record.valid_objects)
        if record.template_support is not None:  # then one head per blank
            parts["entropy"] += plogp(row[0][2], record.template_support)
            parts["entropy"] += sum(plogp(probs, probs > 0) for _, _, probs in row[1:])
        else:  # seq: every decoded position, over every word and stop
            parts["entropy"] += sum(plogp(probs, probs > 0) for _, _, probs in row)
        if record.teacher is not None:
            parts["seq_valid"] += sum(np.logaddexp.reduce(logits) - logits[t]
                                      for (_, logits, _), t in zip(row, record.teacher))
    return {name: v / len(batch.records) for name, v in parts.items()}


def empty_valid_set_at_step(worker, at):
    """Make ``worker.prepare`` report no valid action on its step ``at``."""
    prepare, fresh = worker.prepare, []

    def emptied():
        if worker.pending is None:  # a new step's observation
            fresh.append(prepare())
            if len(fresh) == at + 1:
                worker.pending = fresh[-1][0], oracle.ValidSet((), (), ())
        return prepare()

    worker.prepare = emptied


@pytest.mark.parametrize("ablation", ["full", "unsupervised", "seq"])
def test_combined_loss_equals_the_per_record_formulas(short_microzork, corpus, ablation):
    cfg = replace(SMALL, workers=3, unroll=6).with_ablation(ablation)
    pipe = trainer.build_pipeline(short_microzork, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
    trainer.train_step(trainer.run_rollouts(workers, agent, cfg), agent, cfg)
    if ablation == "full":
        fail_at_step_two(workers[1])
    if ablation == "seq":
        empty_valid_set_at_step(workers[2], 1)
    batch = trainer.run_rollouts(workers, agent, cfg)
    if ablation == "full":  # dropped at step 2, its rows of steps 0 and 1 with it
        assert batch.degraded_workers == 1 and len(batch.records) == 2 * cfg.unroll
        dropped = batch.steps[1].records[1]  # made, then dropped with its worker
        assert dropped.worker == 1 and dropped not in batch.records
    if ablation == "seq":
        teachers = [r.teacher for r in batch.records]
        assert sum(t is None for t in teachers) == 1
        positions = {id(r): sum(b in h.rows for h in step.decoded.heads)
                     for step in batch.steps for b, r in enumerate(step.records)}
        lengths = [len(r.teacher) - positions[id(r)]
                   for r in batch.records if r.teacher is not None]
        assert min(lengths) < 0 < max(lengths)  # teachers shorter and longer
    _, parts = trainer.combined_loss(batch, cfg)
    want = reference_parts(batch, cfg)
    for name in trainer.PARTS:
        assert abs(parts[name].item() - want[name]) <= 1e-12 * abs(want[name]), name
    trained = {"full": ("template", "object"), "unsupervised": (),
               "seq": ("seq_valid",)}[ablation]
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

    def recorded(self, s_t, masks, *args):
        decoded = decode_action(self, s_t, masks, *args)
        seen.append((masks, decoded))
        return decoded

    monkeypatch.setattr(KgA2CAgent, "decode_action", recorded)
    for _ in range(4):
        trainer.train_step(trainer.run_rollouts(workers, agent, cfg), agent, cfg)
    sampled = 0
    for masks, decoded in seen:
        for head in decoded.heads[1:]:
            for b, oid in zip(head.rows, head.chosen):
                assert pipe.space.vocabulary[oid] in masks[b].words
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


def test_failing_worker_is_logged_and_dropped(short_corridor, corpus, caplog):
    pipe = trainer.build_pipeline(short_corridor, corpus, SMALL)
    cfg = replace(SMALL, workers=3)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]

    def broken(agent):
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

    def failing(agent):
        calls.append(agent)
        if len(calls) == 3:
            raise RuntimeError("engine exploded")
        return step(agent)

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


def test_lockstep_rollouts_equal_each_worker_run_alone(short_microzork, corpus):
    """Each worker samples from its own RNGs, so stepping the workers
    together takes the actions each takes on its own, with the same values
    up to round-off."""
    cfg = replace(SMALL, workers=3)
    pipe = trainer.build_pipeline(short_microzork, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    together = trainer.run_rollouts(
        [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)], agent, cfg)
    for i in range(cfg.workers):
        alone = trainer.run_rollouts([trainer.Worker(i, pipe, cfg)], agent, cfg)
        rows = [r for r in together.records if r.worker == i]
        assert len(rows) == len(alone.records) == cfg.unroll
        for got, want in zip(rows, alone.records):
            assert (got.reward, got.done, got.valid_count, got.mask_size) == (
                want.reward, want.done, want.valid_count, want.mask_size)
            for a, b in ((got.value, want.value), (got.log_prob, want.log_prob),
                         (got.v_next, want.v_next)):
                assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)


def test_rollout_loss_and_gradients_equal_the_unmemoized_pass(
    short_microzork, corpus, monkeypatch
):
    """One unroll, its loss and its backward inside ``fixed_parameters``,
    against the same seeded run whose ``gat_embed`` embeds every row afresh:
    the same actions, and the loss and every gradient agree, so a graph row
    shared across lockstep steps adds up its gradients through the tape."""
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
        with agent.fixed_parameters():
            batch = trainer.run_rollouts(workers, agent, cfg)
            total, _ = trainer.combined_loss(batch, cfg)
            agent.params.zero_grad()
            nm.backward(total)
        grads = {n: agent.params[n].grad for n in agent.params.names()}
        return batch, total.item(), grads, dict(rows)

    monkeypatch.setattr(KgA2CAgent, "_gat_block", counted_block)
    monkeypatch.setattr(KgA2CAgent, "gat_embed", counted_embed)
    batch, loss, grads, memo_rows = run()
    monkeypatch.setattr(KgA2CAgent, "gat_embed", unmemoized)
    fresh_batch, fresh_loss, fresh_grads, fresh_rows = run()
    # 8 taped passes of 4 rows and the bootstrap pass
    assert fresh_rows["embedded"] == fresh_rows["requested"] == memo_rows["requested"] > 32
    assert memo_rows["embedded"] < memo_rows["requested"]
    assert [s.decoded.actions for s in batch.steps] == [
        s.decoded.actions for s in fresh_batch.steps]
    assert abs(loss - fresh_loss) <= BATCH_TOL * max(abs(fresh_loss), 1.0)
    assert any(n.startswith("gat.") and g is not None for n, g in grads.items())
    for name, want in fresh_grads.items():
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
    monkeypatch.setattr(trainer.nm, "no_grad", contextlib.nullcontext)
    taped: list = []
    assert trainer.evaluate(agent, pipe, 2, seed=1, trace=taped) == result
    assert taped == trace
    assert embeddings and all(e._parents for e in embeddings)
    monkeypatch.undo()
    monkeypatch.setattr(KgA2CAgent, "state_embedding", recorded)
    embeddings.clear()
    trainer.evaluate(agent, pipe, 1, seed=1)
    assert embeddings and not any(e._parents for e in embeddings)


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

    def counted(self, ch, texts, h0s):
        runs[use_memo][2].append(len(texts))
        return encode_channel(self, ch, texts, h0s)

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
    ep = trainer.Episode(microzork, 0)
    mask, in_scope = ep.observe(microzork_space.vocabulary, 0.0, 0)
    assert ("field", "has", "key") in ep.graph.triples
    assert "key" in mask
    assert "key" in in_scope
    assert ep.prev_action == "<start>" and not ep.done
    ep.act("take key")
    assert ep.prev_action == "take key"
    ep.observe(microzork_space.vocabulary, 0.0, 0)
    assert ("you", "have", "key") in ep.graph.triples


def test_train_writes_health_counters(short_corridor, corpus, tmp_path):
    cfg = replace(SMALL, updates=2, eval_episodes=1)
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
        sizes = [r.graph_triples for r in batch.records]
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
                              updates=tool.UPDATES, eval_episodes=1)
    result = trainer.train(spec, corpus, cfg, out_dir=tmp_path)
    for name in ("metrics.jsonl", "metrics.csv", "checkpoint.bin"):
        assert (tmp_path / name).is_file(), name
    pinned = json.loads(PINNED_FULL.read_text())[game]["full"]
    rows = [json.loads(line) for line in
            (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert [row["update"] for row in rows] == list(range(tool.UPDATES))
    assert len(pinned["rows"]) == len(rows)
    for want, row in zip(pinned["rows"], rows):
        for key, value in want.items():
            assert tool.relative_difference(value, row[key]) <= tool.ROW_RTOL, key
    mean, std, scores = pinned["eval"]
    assert (result.eval_mean, result.eval_std) == (mean, std) and len(scores) == 1


def test_records_carry_the_size_of_the_graph_they_embedded(short_microzork, corpus,
                                                          monkeypatch):
    embedded = []
    state_embedding = KgA2CAgent.state_embedding

    def recorded(self, observations, graphs, encs):
        embedded.append([len(g) for g in graphs])
        return state_embedding(self, observations, graphs, encs)

    monkeypatch.setattr(KgA2CAgent, "state_embedding", recorded)
    _, _, _, (batch,) = _run(short_microzork, corpus, SMALL, 1)
    by_step = [[r.graph_triples for r in step.records] for step in batch.steps]
    assert by_step == embedded[:SMALL.unroll]
    assert len({n for sizes in by_step for n in sizes}) > 1


def test_valid_cache_evicts_the_least_recently_used_and_stays_exact(
    microzork, corpus, monkeypatch
):
    monkeypatch.setattr(trainer, "VALID_CACHE_CAP", 2)
    pipe = trainer.build_pipeline(microzork, corpus, trainer.TrainConfig())
    a, _ = engine.reset(microzork, 0)
    b, _, _, _ = engine.step(a, "take key", microzork)
    c, _, _, _ = engine.step(b, "north", microzork)

    def request(state):
        in_scope = engine.in_scope_words(state, microzork)
        got = pipe.valid_set(state, pipe.space.vocabulary, in_scope)
        words = oracle.probe_words(state, microzork, pipe.space,
                                   pipe.space.vocabulary, in_scope)
        assert got == oracle.valid_actions(state, microzork, pipe.space, words,
                                           pipe.probe_budget, in_scope)
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


@pytest.mark.parametrize("field, value", [
    ("p_m", 1.5), ("p_m", -0.1), ("p_m", float("nan")),
    ("p_valid", 2.0), ("p_valid", -1.0),
    ("lr", -1.0), ("lr", float("nan")),
    ("grad_clip", 0.0), ("grad_clip", -1.0),
    ("probe_budget", 0),
    ("eval_episodes", 0),
    ("checkpoint_every", -1),
])
def test_config_rejects_values_that_break_a_run(field, value):
    with pytest.raises(ValueError, match=field):
        trainer.TrainConfig(**{field: value})


def test_config_keeps_zero_learning_rate_and_edge_probabilities():
    cfg = trainer.TrainConfig(lr=0.0, p_m=1.0, p_valid=0.0, checkpoint_every=0)
    assert (cfg.lr, cfg.p_m, cfg.p_valid) == (0.0, 1.0, 0.0)
