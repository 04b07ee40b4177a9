"""Trainer: fixed-seed determinism, per-ablation smoke runs and parameters,
loud worker failures, and the episode belief loop."""

import csv
import json
import logging
import math
from dataclasses import replace

import pytest

from kga2c import engine, tokenizer as tok, trainer
from kga2c.agent import ABLATIONS, KgA2CAgent

SMALL = trainer.TrainConfig(workers=2, unroll=4, seed=5)


@pytest.fixture(scope="module")
def short_corridor(corridor):
    return replace(corridor, turn_cap=30)


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
    expected = {}
    for w in workers:
        w.prepare()  # the observation the next step acts on
        s_t, _ = agent.state_embedding(w.ep.obs, w.ep.graph, w.ep.enc)
        expected[w.idx] = agent.critic_value(s_t).item()
    stale = {r.worker: r.v_next for r in batch.records[SMALL.unroll - 1::SMALL.unroll]}
    assert stale != expected  # the update moved V, so a stale pass would show
    batch = trainer.run_rollouts(workers, agent, SMALL)
    first = {r.worker: r.value.item() for r in batch.records[::SMALL.unroll]}
    assert first == expected


def test_ablation_must_match_agent():
    with pytest.raises(ValueError, match="with_ablation"):
        trainer.TrainConfig(ablation="seq")
    assert trainer.TrainConfig().with_ablation("seq").agent.ablation == "seq"


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
    _, _, step_rows, _ = _run(short_corridor, corpus, cfg, 2)
    for row, step_row in zip(rows, step_rows):
        assert {k: row[k] for k in step_row} == step_row


def test_random_valid_baseline_is_seeded_and_plays_only_valid_actions(
    corridor, corpus, monkeypatch
):
    first = trainer.random_valid_baseline(corridor, corpus, SMALL, 60, seed=2)
    valid_at = {}
    valid_set, act = trainer.Pipeline.valid_set, trainer.Episode.act

    def recorded(pipe, state, mask_words, in_scope):
        valid_at[engine.digest(state)] = result = valid_set(
            pipe, state, mask_words, in_scope)
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
