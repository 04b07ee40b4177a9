"""Advantage actor-critic training over parallel game environments.

Workers are independent environment pipelines advanced between updates;
each owns an ``Episode`` (engine state, knowledge graph, encoder state) and
shares the valid-action cache.  They run on a deterministic schedule so fixed
seeds give bitwise-identical metrics.  The loss combines the policy-gradient
term, the critic regression, the two supervised valid-action terms, and an
entropy term over the valid supports, with per-ablation adjustments.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import engine, kg, numerics as nm, oracle, tokenizer as tok
from .agent import (
    ABLATIONS,
    ActionDistribution,
    AgentConfig,
    EncoderState,
    KgA2CAgent,
)
from .templates import (ActionSpace, FrequencyTable, OutOfVocabularyError,
                        build_action_space)

log = logging.getLogger(__name__)

METRIC_KEYS = (
    "update", "steps", "episodes", "loss_total", "loss_actor", "loss_critic",
    "loss_template", "loss_object", "loss_entropy", "loss_seq_valid",
    "grad_norm", "mean_score", "mean_valid_actions", "mean_mask_size",
    "mask_violations", "sampled_valid_rate", "seq_valid_rate",
    # health counters, per update except the cache size
    "degraded_workers", "valid_cache_hit_rate", "valid_cache_entries",
    "oracle_truncated",
)


@dataclass(frozen=True)
class TrainConfig:
    workers: int = 4
    unroll: int = 8
    gamma: float = 0.9
    lr: float = 1e-3
    lambda_critic: float = 0.5
    lambda_template: float = 1.0
    lambda_object: float = 1.0
    lambda_entropy: float = 0.01
    p_m: float = 0.05
    p_valid: float = 0.5
    ablation: str = "full"
    grad_clip: float = 5.0
    probe_budget: int = oracle.DEFAULT_PROBE_BUDGET
    updates: int = 100
    seed: int = 0
    tokenizer_size: int = 512
    checkpoint_every: int = 0
    eval_episodes: int = 5
    agent: AgentConfig = field(default_factory=AgentConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}")
        if self.ablation != self.agent.ablation:
            raise ValueError(
                f"ablation {self.ablation!r} differs from the agent's "
                f"{self.agent.ablation!r}; use with_ablation"
            )
        for name in ("lambda_critic", "lambda_template", "lambda_object",
                     "lambda_entropy"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.workers < 1 or self.unroll < 1 or self.updates < 0:
            raise ValueError("workers, unroll must be positive; updates >= 0")

    def with_ablation(self, ablation: str) -> "TrainConfig":
        return replace(self, ablation=ablation,
                       agent=replace(self.agent, ablation=ablation))

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """JSON object or simple ``key = value`` lines."""
        text = Path(path).read_text(encoding="utf-8")
        stripped = text.strip()
        data: dict = {}
        if stripped.startswith("{"):
            data = json.loads(stripped)
        else:
            for lineno, line in enumerate(text.splitlines(), start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"config line {lineno}: expected key = value")
                key, value = (s.strip() for s in line.split("=", 1))
                data[key] = value
        agent_data = data.pop("agent", {})
        cfg_fields = {f.name: f.type for f in cls.__dataclass_fields__.values()}
        problems = [k for k in data if k not in cfg_fields]
        agent_fields = set(AgentConfig.__dataclass_fields__)
        problems += [f"agent.{k}" for k in agent_data if k not in agent_fields]
        if problems:
            raise ValueError(f"unknown config keys: {', '.join(sorted(problems))}")
        kwargs = {k: _coerce_field(cls, k, v) for k, v in data.items()}
        agent_kwargs = {k: _coerce_field(AgentConfig, k, v) for k, v in agent_data.items()}
        ablation = kwargs.get("ablation", "full")
        agent_kwargs.setdefault("ablation", ablation)
        return cls(agent=AgentConfig(**agent_kwargs), **kwargs)


def _coerce_field(cls, name: str, value):
    if isinstance(value, (int, float, bool, dict)):
        return value
    kind = cls.__dataclass_fields__[name].type
    if "int" in kind:
        return int(value)
    if "float" in kind:
        return float(value)
    return str(value)


# ---------------------------------------------------------------------------
# Losses (Eqs. of the update rule)


def advantage(r: float, v_t: float, v_next: float, done: bool, gamma: float) -> float:
    """A = Q - V with Q = r + gamma * V(s') on non-terminal steps."""
    q = r + gamma * v_next * (0.0 if done else 1.0)
    return q - v_t


def template_loss(template_logits: nm.Tensor, y_tau: np.ndarray) -> nm.Tensor:
    """Multi-label BCE against the valid-template indicator, mean over |T|."""
    return nm.binary_cross_entropy(template_logits, y_tau)


def object_loss(object_logits: list[nm.Tensor], y_o: np.ndarray) -> nm.Tensor:
    """Sum over decoding steps of mean BCE against the valid-object indicator."""
    total: nm.Tensor | None = None
    for logits in object_logits:
        term = nm.binary_cross_entropy(logits, y_o)
        total = term if total is None else nm.add(total, term)
    return total if total is not None else nm.Tensor(0.0)


def actor_loss(log_prob: nm.Tensor, adv: float) -> nm.Tensor:
    """-(log pi_T + sum_i log pi_Oi) * A, advantage treated as a constant."""
    return nm.mul(log_prob, nm.Tensor(-adv))


def critic_loss(v_t: nm.Tensor, q_t: float) -> nm.Tensor:
    """0.5 * (Q - V)^2 with a constant target Q."""
    diff = nm.sub(nm.Tensor(q_t), v_t)
    return nm.mul(nm.Tensor(0.5), nm.mul(diff, diff))


def entropy_loss(
    dist: ActionDistribution, valid_template_ids: frozenset[int], full_set: bool
) -> nm.Tensor:
    """Sum of p*log(p) per decoder component, restricted to valid supports
    (all templates / every nonzero object probability when full_set)."""
    if full_set:
        t_support = list(range(dist.template_probs.data.shape[0]))
    else:
        t_support = sorted(valid_template_ids)
    total = _plogp(dist.template_probs, t_support)
    for probs in dist.object_probs:
        support = [int(i) for i in np.nonzero(probs.data)[0]]
        total = nm.add(total, _plogp(probs, support))
    return total


def _plogp(probs: nm.Tensor, support: list[int]) -> nm.Tensor:
    support = [i for i in support if probs.data[i] > 0.0]
    if not support:
        return nm.Tensor(0.0)
    p = nm.gather(probs, support)
    return nm.sum_(nm.mul(p, nm.log(p)))


# ---------------------------------------------------------------------------
# Rollouts


@dataclass
class StepRecord:
    worker: int
    dist: ActionDistribution | None  # template-action path
    value: nm.Tensor
    reward: float
    done: bool
    v_next: float
    y_tau: np.ndarray
    y_o: np.ndarray
    valid_template_ids: frozenset[int]
    valid_count: int
    mask_size: int
    executed_valid: bool = False
    # seq-ablation extras
    seq_logits: list[nm.Tensor] = field(default_factory=list)
    seq_targets: list[int] = field(default_factory=list)
    seq_log_prob: nm.Tensor | None = None
    seq_executed_valid: bool = False


@dataclass
class RolloutBatch:
    records: list[StepRecord]
    episodes_finished: list[int]  # final scores of episodes that ended
    degraded_workers: int = 0


class Episode:
    """One episode's belief loop: engine state and observation, the graph
    built from them, encoder hiddens and the last action.  Call ``observe``
    once before each ``act``."""

    def __init__(self, spec: engine.GameSpec, seed: int,
                 gru_hidden: int = AgentConfig.gru_hidden):
        self.spec = spec
        self.state, self.obs = engine.reset(spec, seed)
        self.graph = kg.KnowledgeGraph()
        self.enc = EncoderState.zeros(gru_hidden)
        self.prev_action = engine.SENTINEL_PREV_ACTION
        self.done = False

    def observe(
        self, vocabulary: tuple[str, ...], p_m: float, rng: random.Random | int
    ) -> tuple[kg.GraphMask, tuple[str, ...]]:
        """Detect objects, update the graph, then mask V by it; returns the
        mask and the in-scope words."""
        detected = kg.detect_interactive_objects(self.obs, self.state, self.spec)
        self.graph = kg.update_graph(
            self.graph, self.obs, self.prev_action, self.state.room, detected,
            self.spec,
        )
        in_scope = engine.in_scope_words(self.state, self.spec)
        mask = kg.graph_mask(self.graph, vocabulary, p_m, rng, in_scope)
        return mask, in_scope

    def act(self, action: str) -> int:
        self.state, self.obs, reward, self.done = engine.step(
            self.state, action, self.spec
        )
        self.prev_action = action
        return reward


class Worker:
    """One environment pipeline: an episode, its RNGs, the memoized step."""

    def __init__(self, idx: int, pipeline: "Pipeline", cfg: TrainConfig):
        self.idx = idx
        self.pipe = pipeline
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed * 10_007 + idx)
        self.mask_rng = random.Random(cfg.seed * 20_011 + idx)
        self.failed = False
        self.pending: dict | None = None
        self._begin_episode()

    def _begin_episode(self) -> None:
        self.ep = Episode(self.pipe.spec, self.cfg.seed + self.idx,
                          self.cfg.agent.gru_hidden)

    def prepare(self) -> dict:
        """Graph update, mask, valid set and supervision targets for the
        current observation; memoized until the next step consumes it, so
        the mask RNG and the oracle run once per environment step."""
        if self.pending is not None:
            return self.pending
        pipe, ep = self.pipe, self.ep
        mask, in_scope = ep.observe(pipe.space.vocabulary, self.cfg.p_m, self.mask_rng)
        valid = pipe.valid_set(ep.state, mask.words, in_scope)
        y_tau = np.zeros(len(pipe.space.templates))
        for tid in oracle.valid_templates(valid):
            y_tau[tid] = 1.0
        y_o = np.zeros(len(pipe.space.vocabulary))
        for wid in oracle.valid_objects(mask.words, pipe.space):
            y_o[wid] = 1.0
        self.pending = {"mask": mask, "valid": valid, "y_tau": y_tau, "y_o": y_o}
        return self.pending

    def value(self, agent: KgA2CAgent) -> float:
        """V of the current observation under the current parameters."""
        self.prepare()  # brings the graph up to date
        s_t, _ = agent.state_embedding(self.ep.obs, self.ep.graph, self.ep.enc)
        return agent.critic_value(s_t).item()

    def step(self, agent: KgA2CAgent) -> tuple[StepRecord, int | None]:
        """Advance one environment step; returns the record and, when an
        episode finished, its final score.  The forward pass runs here, not
        in ``prepare``, so it always sees the current parameters."""
        cfg = self.cfg
        prep = self.prepare()
        self.pending = None
        s_t, enc2 = agent.state_embedding(self.ep.obs, self.ep.graph, self.ep.enc)
        record = StepRecord(
            worker=self.idx,
            dist=None,
            value=agent.critic_value(s_t),
            reward=0.0,
            done=False,
            v_next=0.0,
            y_tau=prep["y_tau"],
            y_o=prep["y_o"],
            valid_template_ids=oracle.valid_templates(prep["valid"]),
            valid_count=len(prep["valid"]),
            mask_size=len(prep["mask"]),
        )

        if cfg.ablation == "seq":
            action, violations = self._seq_action(agent, s_t, prep, record)
        else:
            dist = agent.decode_action(s_t, prep["mask"], self.rng, "sample")
            record.dist = dist
            violations = sum(
                1 for oid in dist.object_ids if not dist.mask_array[oid]
            )
            action = dist.action

        record.executed_valid = action in prep["valid"]
        record.reward = float(self.ep.act(action))
        record.done = self.ep.done
        self.ep.enc = enc2
        self.pipe.mask_violations += violations

        final_score: int | None = None
        if record.done:
            final_score = self.ep.state.score
            self._begin_episode()
        return record, final_score

    def _seq_action(
        self, agent: KgA2CAgent, s_t: nm.Tensor, prep: dict, record: StepRecord
    ) -> tuple[str, int]:
        cfg = self.cfg
        words, logits_seq, log_prob = agent.seq_decode(s_t, self.rng, "sample")
        decoded = agent.seq_action_text(words)
        valid: oracle.ValidSet = prep["valid"]
        teacher = None
        if len(valid):
            teacher = valid.actions[self.rng.integers(len(valid))]
        use_teacher = teacher is not None and self.rng.random() < cfg.p_valid
        action = teacher if use_teacher else decoded
        record.seq_logits = logits_seq
        record.seq_log_prob = log_prob
        record.seq_executed_valid = bool(use_teacher or (decoded in valid))
        if teacher is not None:
            stop_id = len(self.pipe.space.vocabulary)
            ids = []
            for w in teacher.split()[: cfg.agent.max_seq_words]:
                try:
                    ids.append(self.pipe.space.word_id(w))
                except OutOfVocabularyError:
                    ids.append(stop_id)
            ids.append(stop_id)
            record.seq_targets = ids
        return action or "look", 0


class Pipeline:
    """Shared immutable pieces plus the valid-set cache and counters."""

    def __init__(self, spec: engine.GameSpec, space: ActionSpace,
                 model: tok.SubwordModel, probe_budget: int):
        self.spec = spec
        self.space = space
        self.model = model
        self.probe_budget = probe_budget
        self._valid_cache: dict[tuple, oracle.ValidSet] = {}
        self.mask_violations = 0
        self.valid_hits = 0
        self.valid_misses = 0
        self.oracle_truncated = 0

    def valid_set(self, state, mask_words, in_scope) -> oracle.ValidSet:
        """The valid set over the mask and in-scope words, cached on the
        words the oracle would probe: candidates it prunes split no entries."""
        candidates = frozenset(mask_words) | frozenset(in_scope)
        words = oracle.probe_words(state, self.spec, self.space, candidates)
        key = (engine.digest(state), words)
        hit = self._valid_cache.get(key)
        if hit is not None:
            self.valid_hits += 1
            return hit
        self.valid_misses += 1
        hit = oracle.valid_actions(
            state, self.spec, self.space, words, self.probe_budget
        )
        self.oracle_truncated += hit.truncated
        self._valid_cache[key] = hit
        return hit


def run_rollouts(
    workers: list[Worker], agent: KgA2CAgent, cfg: TrainConfig
) -> RolloutBatch:
    """Advance every worker unroll-length steps (deterministic order) and
    bootstrap V(s_{t+1}) at the boundary."""
    records: list[StepRecord] = []
    finished: list[int] = []
    degraded = 0
    for worker in workers:
        if worker.failed:
            degraded += 1
            continue
        try:
            worker_records = []
            for _ in range(cfg.unroll):
                record, final_score = worker.step(agent)
                worker_records.append(record)
                if final_score is not None:
                    finished.append(final_score)
            for i, record in enumerate(worker_records):
                if record.done:
                    record.v_next = 0.0
                elif i + 1 < len(worker_records):
                    record.v_next = worker_records[i + 1].value.item()
                else:
                    record.v_next = worker.value(agent)
            records.extend(worker_records)
        except Exception:
            if cfg.workers == 1:
                raise
            log.exception("worker %d failed at state %s; dropping it",
                          worker.idx, engine.digest(worker.ep.state))
            worker.failed = True
            degraded += 1
    return RolloutBatch(records, finished, degraded)


# ---------------------------------------------------------------------------
# Updates


def train_step(
    batch: RolloutBatch, agent: KgA2CAgent, cfg: TrainConfig
) -> dict[str, float]:
    """One combined loss over the batch, one Adam step, scalar metrics."""
    if not batch.records:
        raise ValueError("empty rollout batch")
    n = float(len(batch.records))
    unsupervised = cfg.ablation == "unsupervised"
    seq = cfg.ablation == "seq"

    actor_terms: list[nm.Tensor] = []
    critic_terms: list[nm.Tensor] = []
    template_terms: list[nm.Tensor] = []
    object_terms: list[nm.Tensor] = []
    entropy_terms: list[nm.Tensor] = []
    seq_terms: list[nm.Tensor] = []

    for record in batch.records:
        adv = advantage(
            record.reward, record.value.item(), record.v_next, record.done, cfg.gamma
        )
        q_target = record.reward + cfg.gamma * record.v_next * (
            0.0 if record.done else 1.0
        )
        critic_terms.append(critic_loss(record.value, q_target))
        if seq:
            assert record.seq_log_prob is not None
            actor_terms.append(actor_loss(record.seq_log_prob, adv))
            if record.seq_targets:
                ce: nm.Tensor | None = None
                for logits, target in zip(record.seq_logits, record.seq_targets):
                    term = nm.cross_entropy_with_logits(logits, target)
                    ce = term if ce is None else nm.add(ce, term)
                if ce is not None:
                    seq_terms.append(ce)
            for logits in record.seq_logits:
                probs = nm.softmax(logits)
                entropy_terms.append(
                    _plogp(probs, list(range(probs.data.shape[0])))
                )
        else:
            dist = record.dist
            assert dist is not None
            actor_terms.append(actor_loss(dist.log_prob, adv))
            if not unsupervised:
                template_terms.append(template_loss(dist.template_logits, record.y_tau))
                object_terms.append(object_loss(dist.object_logits, record.y_o))
            entropy_terms.append(
                entropy_loss(dist, record.valid_template_ids, full_set=unsupervised)
            )

    def mean_of(terms: list[nm.Tensor]) -> nm.Tensor:
        if not terms:
            return nm.Tensor(0.0)
        total = terms[0]
        for t in terms[1:]:
            total = nm.add(total, t)
        return nm.mul(total, nm.Tensor(1.0 / n))

    l_actor = mean_of(actor_terms)
    l_critic = mean_of(critic_terms)
    l_template = mean_of(template_terms)
    l_object = mean_of(object_terms)
    l_entropy = mean_of(entropy_terms)
    l_seq = mean_of(seq_terms)

    total = nm.add(l_actor, nm.mul(nm.Tensor(cfg.lambda_critic), l_critic))
    if not seq and not unsupervised:
        total = nm.add(total, nm.mul(nm.Tensor(cfg.lambda_template), l_template))
        total = nm.add(total, nm.mul(nm.Tensor(cfg.lambda_object), l_object))
    if seq:
        total = nm.add(total, nm.mul(nm.Tensor(cfg.lambda_template), l_seq))
    total = nm.add(total, nm.mul(nm.Tensor(cfg.lambda_entropy), l_entropy))

    if not math.isfinite(total.item()):
        worst = max(
            batch.records,
            key=lambda r: abs(r.value.item()) + abs(r.reward),
        )
        raise RuntimeError(
            "non-finite loss; offending record: "
            f"worker={worst.worker} reward={worst.reward} value={worst.value.item()} "
            f"done={worst.done} valid_count={worst.valid_count}"
        )

    agent.params.zero_grad()
    nm.backward(total)
    grad_norm = nm.adam_step(
        agent.params, lr=cfg.lr, grad_clip=cfg.grad_clip
    )
    return {
        "loss_total": total.item(),
        "loss_actor": l_actor.item(),
        "loss_critic": l_critic.item(),
        "loss_template": l_template.item(),
        "loss_object": l_object.item(),
        "loss_entropy": l_entropy.item(),
        "loss_seq_valid": l_seq.item(),
        "grad_norm": grad_norm,
        "mean_valid_actions": float(
            np.mean([r.valid_count for r in batch.records])
        ),
        "mean_mask_size": float(np.mean([r.mask_size for r in batch.records])),
        "sampled_valid_rate": float(
            np.mean([r.executed_valid for r in batch.records])
        ),
        "seq_valid_rate": float(
            np.mean([r.seq_executed_valid for r in batch.records])
        ) if seq else 0.0,
    }


# ---------------------------------------------------------------------------
# Orchestration


def tokenizer_training_lines(specs: list[engine.GameSpec], corpus: list[str]) -> list[str]:
    """Playthrough corpus plus the games' narrative text, so observation
    channels segment into word-level pieces instead of character runs."""
    lines = list(corpus)
    for spec in specs:
        for room in spec.rooms.values():
            lines.append(room.name.lower())
            lines.append(room.desc.lower())
        for obj in spec.objects.values():
            lines.append(obj.name)
            if obj.desc:
                lines.append(obj.desc.lower())
            if obj.text:
                lines.append(obj.text.lower())
            lines.append(f"there is a {obj.name} here.")
            lines.append(f"the {obj.name} contains")
        lines.extend(
            s.lower()
            for s in (
                "taken.", "dropped.", "opened.", "closed.", "time passes.",
                engine.RESP_UNRECOGNIZED, engine.RESP_NO_SUCH_THING,
                engine.RESP_NO_WAY, engine.RESP_NOTHING_HAPPENS,
                "you are empty-handed.", "you are carrying",
                "you open the", "revealing", "it's locked.", "it's already open.",
                "you can't take that.", "you already have that.",
                "you aren't carrying that.", "it doesn't fit.", "it isn't open.",
                "you put the", "in the", "the turns.", "which do you mean",
                engine.SENTINEL_PREV_ACTION,
            )
        )
    return lines


@dataclass
class TrainResult:
    metrics: list[dict]
    agent: KgA2CAgent
    pipeline: Pipeline
    eval_mean: float
    eval_std: float


def build_pipeline(
    spec: engine.GameSpec,
    corpus: list[str],
    cfg: TrainConfig,
) -> Pipeline:
    freq = FrequencyTable.from_lines(corpus)
    space = build_action_space(spec.templates, spec.vocabulary, freq)
    model = tok.train_unigram(
        tokenizer_training_lines([spec], corpus), cfg.tokenizer_size
    )
    return Pipeline(spec, space, model, cfg.probe_budget)


def train(
    spec: engine.GameSpec,
    corpus: list[str],
    cfg: TrainConfig,
    out_dir: Path | str | None = None,
    on_update: Callable[[dict], None] | None = None,
) -> TrainResult:
    """Full training run: rollouts, updates, metrics, optional artifacts."""
    pipe = build_pipeline(spec, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [Worker(i, pipe, cfg) for i in range(cfg.workers)]

    out_path = Path(out_dir) if out_dir is not None else None
    metrics_fh = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        metrics_fh = open(out_path / "metrics.jsonl", "w", encoding="utf-8")

    metrics: list[dict] = []
    steps = 0
    episodes = 0
    last_mean_score = 0.0
    try:
        for update in range(cfg.updates):
            hits, misses, truncated = (
                pipe.valid_hits, pipe.valid_misses, pipe.oracle_truncated)
            batch = run_rollouts(workers, agent, cfg)
            hits = pipe.valid_hits - hits
            requests = hits + pipe.valid_misses - misses
            steps += len(batch.records)
            episodes += len(batch.episodes_finished)
            if batch.episodes_finished:
                last_mean_score = float(np.mean(batch.episodes_finished))
            row = train_step(batch, agent, cfg)
            row.update(
                update=update,
                steps=steps,
                episodes=episodes,
                mean_score=last_mean_score,
                mask_violations=pipe.mask_violations,
                degraded_workers=batch.degraded_workers,
                valid_cache_hit_rate=hits / requests if requests else 0.0,
                valid_cache_entries=len(pipe._valid_cache),
                oracle_truncated=pipe.oracle_truncated - truncated,
            )
            row = {k: row[k] for k in METRIC_KEYS}
            metrics.append(row)
            if metrics_fh is not None:
                metrics_fh.write(json.dumps(row, sort_keys=True) + "\n")
            if on_update is not None:
                on_update(row)
            if (
                out_path is not None
                and cfg.checkpoint_every
                and (update + 1) % cfg.checkpoint_every == 0
            ):
                nm.save_checkpoint(agent.params, out_path / "checkpoint.bin")
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    if out_path is not None:
        nm.save_checkpoint(agent.params, out_path / "checkpoint.bin")
        write_metrics_csv(metrics, out_path / "metrics.csv")

    mean, std, _ = evaluate(agent, pipe, cfg.eval_episodes, seed=cfg.seed)
    return TrainResult(metrics, agent, pipe, mean, std)


def write_metrics_csv(metrics: list[dict], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(METRIC_KEYS))
        writer.writeheader()
        for row in metrics:
            writer.writerow(row)


def evaluate(
    agent: KgA2CAgent,
    pipe: Pipeline,
    episodes: int,
    seed: int = 0,
    mode: str = "greedy",
    trace: list | None = None,
) -> tuple[float, float, list[int]]:
    """Greedy-policy episodes; returns (mean, std, scores).  Masking uses
    p_m = 0 so evaluation is deterministic."""
    if episodes <= 0:
        raise ValueError("episodes must be positive")
    rng = np.random.default_rng(seed)
    scores: list[int] = []
    for i in range(episodes):
        ep = Episode(pipe.spec, seed + i, agent.cfg.gru_hidden)
        while not ep.done:
            mask, _ = ep.observe(pipe.space.vocabulary, 0.0, 0)
            s_t, ep.enc = agent.state_embedding(ep.obs, ep.graph, ep.enc)
            if agent.cfg.ablation == "seq":
                words, _, _ = agent.seq_decode(
                    s_t, rng, "sample" if mode == "sample" else "greedy"
                )
                action = agent.seq_action_text(words) or "look"
            else:
                dist = agent.decode_action(
                    s_t, mask, rng if mode == "sample" else None, mode
                )
                action = dist.action
                if trace is not None:
                    trace.append(_trace_row(agent, dist, mask, ep.graph, action))
            ep.act(action)
        scores.append(ep.state.score)
    mean = float(np.mean(scores))
    std = float(np.std(scores))
    return mean, std, scores


def _trace_row(agent: KgA2CAgent, dist: ActionDistribution, mask: kg.GraphMask,
               graph: kg.KnowledgeGraph, action: str) -> dict:
    def top5(probs: np.ndarray, names) -> list[tuple[str, float]]:
        ids = np.argsort(-probs)[:5]
        return [(str(names[i]), round(float(probs[i]), 4)) for i in ids]

    row = {
        "template_probs": top5(
            dist.template_probs.data,
            [t.pattern for t in agent.space.templates],
        ),
        "object_probs": [
            top5(p.data, agent.space.vocabulary) for p in dist.object_probs
        ],
        "mask_size": len(mask),
        "mask": sorted(mask.words),
        "graph": sorted(graph.triples),
        "action": action,
    }
    return row


def random_valid_baseline(
    spec: engine.GameSpec,
    corpus: list[str],
    cfg: TrainConfig,
    max_steps: int,
    seed: int = 0,
) -> tuple[float, list[int]]:
    """Uniform-random-valid policy under the same step budget; the floor any
    learner must beat."""
    pipe = build_pipeline(spec, corpus, cfg)
    rng = np.random.default_rng(seed)
    mask_rng = random.Random(seed)
    scores: list[int] = []
    steps = 0
    while steps < max_steps:
        ep = Episode(spec, seed)
        while not ep.done and steps < max_steps:
            mask, in_scope = ep.observe(pipe.space.vocabulary, cfg.p_m, mask_rng)
            valid = pipe.valid_set(ep.state, mask.words, in_scope)
            if len(valid):
                action = valid.actions[rng.integers(len(valid))]
            else:
                action = "look"
            ep.act(action)
            steps += 1
        if ep.done:
            scores.append(ep.state.score)
    if not scores:
        scores = [0]
    return float(np.mean(scores)), scores
