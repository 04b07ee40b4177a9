"""Advantage actor-critic training over parallel game environments.

Workers are independent environment pipelines advanced between updates;
each owns an ``Episode`` (engine state, belief graph, encoder hiddens) and
its own sampling and mask RNGs, and shares the valid-action cache.  Each
update is two passes, as in IMPALA's split of actors and learner (Espeholt
et al. 2018, arXiv 1802.01561) over a synchronous A2C batch (Mnih et al.
2016, arXiv 1602.01783):

* The acting pass, ``run_rollouts``, records no tape.  It steps the workers
  in lockstep: per unroll step one batch-major pass values and decodes all
  workers' rows, and every worker executes its own and observes the state
  it reaches.  Each row samples from its worker's RNG in the order
  that worker alone would, so the schedule changes no sampled action, and
  fixed seeds give bitwise-identical metrics.  Each step's ``StepRecord``
  keeps, as plain immutable values, only what its row read and chose: the
  observation, the graph (a ``kg.Graph``), the starting encoder hiddens (one
  row per channel), the mask (a frozenset of words), the valid
  set, the action it executed and that action's decoder ids.
* The learning pass, ``learner_pass``, is one taped pass over all U x B
  kept records of the unroll: ``state_embedding``, ``critic_value`` and
  ``decode_action`` in ``replay`` mode, which takes the recorded choices
  instead of sampling.  ``train_step`` then builds ``combined_loss``, walks
  one backward and takes one Adam step.

``combined_loss`` is the one place that derives the targets of the terms an
ablation trains, from each record's valid set, mask and teacher.  It builds
each term once per decoding head, as one value per row over all rows of the
unroll, and adds the terms in one fixed order:

    ablation                       decoder       trained besides actor, critic
    full, a2c, no-gat, no-mask     template      template BCE toward the valid
                                                 templates, object BCE per blank
                                                 toward the graph mask, entropy
                                                 over the valid templates and
                                                 each blank's decoder mask
    unsupervised                   template      entropy over all templates
                                                 and each blank's decoder mask
    seq                            word by word  seq_valid CE toward the
                                                 teacher's words, and entropy
                                                 per decoded position
"""

from __future__ import annotations

import csv
import json
import logging
import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import engine, kg, numerics as nm, oracle, tokenizer as tok
from .agent import CHANNELS, AgentConfig, Decoded, KgA2CAgent
from .templates import ActionSpace, FrequencyTable, build_action_space

log = logging.getLogger(__name__)

METRIC_KEYS = (
    "update", "steps", "episodes", "loss_total", "loss_actor", "loss_critic",
    "loss_template", "loss_object", "loss_entropy", "loss_seq_valid",
    "grad_norm", "mean_score", "mean_valid_actions", "mean_mask_size",
    "mean_graph_triples", "sampled_valid_rate", "seq_valid_rate",
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
    grad_clip: float = 5.0
    probe_budget: int = oracle.DEFAULT_PROBE_BUDGET
    updates: int = 100
    seed: int = 0
    tokenizer_size: int = 512
    checkpoint_every: int = 0
    agent: AgentConfig = field(default_factory=AgentConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        # written as "not (valid)" so that NaN is rejected too
        for name in ("lambda_critic", "lambda_template", "lambda_object",
                     "lambda_entropy", "lr"):  # lr = 0 is the untrained-agent control
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {getattr(self, name)}")
        for name in ("p_m", "p_valid"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if not self.grad_clip > 0.0:
            raise ValueError(f"grad_clip must be positive, got {self.grad_clip}")
        for name, low in (("workers", 1), ("unroll", 1), ("updates", 0),
                          ("probe_budget", 1), ("checkpoint_every", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")

    def with_ablation(self, ablation: str) -> "TrainConfig":
        return replace(self, agent=replace(self.agent, ablation=ablation))

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """JSON object or simple ``key = value`` lines, where
        ``agent.<field> = value`` sets an agent field.  A top-level
        ``ablation`` sets ``agent.ablation`` and must agree with it."""
        text = Path(path).read_text(encoding="utf-8")
        stripped = text.strip()
        data: dict = {}
        agent_data: dict = {}
        if stripped.startswith("{"):
            data = json.loads(stripped)
            agent_data = dict(data.pop("agent", {}))
        else:
            for lineno, line in enumerate(text.splitlines(), start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"config line {lineno}: expected key = value")
                key, value = (s.strip() for s in line.split("=", 1))
                target = agent_data if key.startswith("agent.") else data
                target[key.removeprefix("agent.")] = value
        if "ablation" in data:
            ablation = data.pop("ablation")
            if agent_data.setdefault("ablation", ablation) != ablation:
                raise ValueError(
                    f"ablation {ablation!r} differs from agent.ablation "
                    f"{agent_data['ablation']!r}"
                )
        cfg_fields = {f.name: f.type for f in cls.__dataclass_fields__.values()}
        problems = [k for k in data if k not in cfg_fields]
        agent_fields = set(AgentConfig.__dataclass_fields__)
        problems += [f"agent.{k}" for k in agent_data if k not in agent_fields]
        if problems:
            raise ValueError(f"unknown config keys: {', '.join(sorted(problems))}")
        kwargs = {k: _coerce_field(cls, k, v) for k, v in data.items()}
        agent_kwargs = {k: _coerce_field(AgentConfig, k, v, "agent.")
                        for k, v in agent_data.items()}
        return cls(agent=AgentConfig(**agent_kwargs), **kwargs)


def _coerce_field(cls, name: str, value, prefix: str = ""):
    """``value``, from JSON or from ``key = value`` text, as the type of field
    ``name``.  An int field takes only integral numbers and a float field any
    number; a bool is not a number.  A mismatch names the field."""
    kind = cls.__dataclass_fields__[name].type
    if kind == "str" and isinstance(value, str):
        return value
    number = _number(value) if isinstance(value, str) else value
    if isinstance(number, (int, float)) and not isinstance(number, bool):
        if kind == "float":
            return float(number)
        if kind == "int" and (isinstance(number, int) or number.is_integer()):
            return int(number)
    raise ValueError(f"config field {prefix}{name} must be {kind}, got {value!r}")


def _number(text: str) -> int | float | None:
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return None


# ---------------------------------------------------------------------------
# Rollouts


@dataclass
class StepRecord:
    """One worker's environment step, as plain data (no tensors): what its
    acting row read and chose, and what the step returned.  The learner
    replays the row from it, and ``combined_loss`` derives every loss target
    from it."""

    worker: int
    value: float  # V(s_t), which the advantage holds constant
    reward: float
    done: bool
    obs: engine.Observation
    graph: kg.Graph
    enc: np.ndarray  # the encoder hiddens the step started from, a row per channel
    mask: frozenset[str]  # the words the object decoder could choose from
    valid: oracle.ValidSet  # the valid-action cache's own set, shared
    choices: list[int]  # per decoding head, the id of ``action`` the learner replays
    action: str  # the executed text
    teacher: str | None  # seq: the valid action drawn as the target, if any
    v_next: float = 0.0


@dataclass
class RolloutBatch:
    records: list[StepRecord]  # worker-major, each worker's steps in order
    episodes_finished: list[int]  # final scores of episodes that ended
    degraded_workers: int = 0


class Episode:
    """One episode's belief loop, observing each state it reaches as
    KG-A2C's loop does on arrival: the constructor and each ``act`` that
    does not end the episode detect objects, update the graph and leave
    ``kg.graph_mask``'s mask in ``mask``.  It starts from ``state``, by
    default ``engine.reset``'s, with an empty graph, zero encoder hiddens
    and the sentinel last action.  An observation and the step after it
    share one computation of the state's scope (the engine's memo) unless
    another state of the game is scoped in between."""

    def __init__(self, spec: engine.GameSpec, vocabulary: tuple[str, ...],
                 p_m: float = 0.0, rng: random.Random | None = None,
                 state: engine.WorldState | None = None,
                 gru_hidden: int = AgentConfig.gru_hidden):
        self.spec, self.vocabulary, self.p_m, self.rng = spec, vocabulary, p_m, rng
        self.state, self.obs = (engine.reset(spec) if state is None
                                else (state, engine.observation(state, spec)))
        self.graph: kg.Graph = frozenset()
        self.enc = np.zeros((len(CHANNELS), gru_hidden))
        self.prev_action = engine.SENTINEL_PREV_ACTION
        self.done = False
        self._observe()

    def _observe(self) -> None:
        detected = kg.detect_interactive_objects(self.obs, self.state, self.spec)
        self.graph = kg.update_graph(
            self.graph, self.obs, self.prev_action, self.state.room, detected,
            self.spec,
        )
        in_scope = engine.in_scope_words(self.state, self.spec)
        self.mask = kg.graph_mask(self.graph, self.vocabulary, self.p_m, self.rng, in_scope)

    def act(self, action: str) -> int:
        """Execute ``action`` and observe the state it reaches, unless the
        episode ended there."""
        self.state, self.obs, reward, self.done = engine.step(
            self.state, action, self.spec)
        self.prev_action = action
        if not self.done:
            self._observe()
        return reward


class Worker:
    """One environment pipeline: an episode, its RNGs, and ``valid``, the
    valid set of the state the episode is at, requested once per state
    reached.  A first observation that raises fails ``Worker(...)``."""

    def __init__(self, idx: int, pipeline: "Pipeline", cfg: TrainConfig):
        self.idx = idx
        self.pipe = pipeline
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed * 10_007 + idx)
        self.mask_rng = random.Random(cfg.seed * 20_011 + idx)
        self.failed = False
        self._begin_episode()

    def _begin_episode(self) -> None:
        self.ep = Episode(self.pipe.spec, self.pipe.space.vocabulary, self.cfg.p_m,
                          self.mask_rng, gru_hidden=self.cfg.agent.gru_hidden)
        self._request_valid()

    def _request_valid(self) -> None:
        ep = self.ep
        self.valid = self.pipe.valid_set(ep.state, ep.mask,
                                         engine.in_scope_words(ep.state, ep.spec))

    def step(self, agent: KgA2CAgent, row: tuple[np.ndarray, str, float, list[int]]
             ) -> tuple[StepRecord, int | None]:
        """Execute this worker's ``row`` of the step's batch pass (new
        hiddens, decoded action, value, chosen ids), which ``run_rollouts``
        runs over all workers first, and advance one environment step;
        returns the record and, when an episode finished, its final score.

        Under ``seq``, when some valid action is one the decoder can spell
        (``_teacher_ids``), one of those drawn at random is the teacher, and
        it is executed instead of the decoded words with probability
        ``p_valid``; the record then keeps the teacher's ids as its choices,
        so the learner replays the executed sequence."""
        enc2, action, value, choices = row
        ep, valid = self.ep, self.valid
        teacher = None
        spelled = ([a for a in valid.actions if _teacher_ids(a, agent)]
                   if agent.cfg.ablation == "seq" else [])
        if spelled:
            teacher = spelled[self.rng.integers(len(spelled))]
            if self.rng.random() < self.cfg.p_valid:
                action, choices = teacher, _teacher_ids(teacher, agent)
        obs, graph, enc, mask = ep.obs, ep.graph, ep.enc, ep.mask
        reward = float(ep.act(action))
        record = StepRecord(self.idx, value, reward, ep.done, obs, graph, enc, mask,
                            valid, choices, action, teacher)
        ep.enc = enc2
        if ep.done:
            self._begin_episode()
        else:
            self._request_valid()
        return record, ep.state.score if ep.done else None


def _embed(agent: KgA2CAgent, workers: list[Worker]) -> tuple[nm.Tensor, list[np.ndarray]]:
    eps = [w.ep for w in workers]
    return agent.state_embedding(
        [ep.obs for ep in eps], [ep.graph for ep in eps], [ep.enc for ep in eps])


# The most valid sets ``Pipeline`` keeps; past it the least recently used is
# evicted.  A benchmark repetition ends with 493 entries on train-microzork
# and 110 on train-corridor-a2c (seed 1), so none evicts there and the hit
# rate is unchanged; longer runs stay bounded.
VALID_CACHE_CAP = 4096


class Pipeline:
    """Shared immutable pieces plus the valid-set cache and counters."""

    def __init__(self, spec: engine.GameSpec, space: ActionSpace,
                 model: tok.SubwordModel, probe_budget: int):
        self.spec = spec
        self.space = space
        self.model = model
        self.probe_budget = probe_budget
        self._valid_cache: OrderedDict[tuple, oracle.ValidSet] = OrderedDict()
        self.valid_hits = 0
        self.valid_misses = 0
        self.oracle_truncated = 0

    def valid_set(self, state, mask_words, in_scope) -> oracle.ValidSet:
        """The valid set over the mask and in-scope words, cached on the
        words the oracle would probe: candidates it prunes split no entries.
        ``in_scope`` is ``engine.in_scope_words(state, spec)``; the oracle
        reads the state's scope from the engine's memo.  The cache keeps the
        ``VALID_CACHE_CAP`` most recently used sets."""
        candidates = frozenset(mask_words) | frozenset(in_scope)
        words = oracle.probe_words(state, self.spec, self.space, candidates)
        key = (engine.digest(state), words)
        hit = self._valid_cache.get(key)
        if hit is not None:
            self._valid_cache.move_to_end(key)
            self.valid_hits += 1
            return hit
        self.valid_misses += 1
        hit = oracle.valid_actions(state, self.spec, self.space, words, self.probe_budget)
        self.oracle_truncated += hit.truncated
        self._valid_cache[key] = hit
        if len(self._valid_cache) > VALID_CACHE_CAP:
            self._valid_cache.popitem(last=False)
        return hit


def run_rollouts(
    workers: list[Worker], agent: KgA2CAgent, cfg: TrainConfig
) -> RolloutBatch:
    """The acting pass: advance the live workers unroll-length steps in
    lockstep and bootstrap V(s_{t+1}) at the boundary.

    Each unroll step has two phases: one batch-major pass embeds, values
    and decodes all live workers' rows, from the state each worker's
    episode is at and its mask, and then every worker executes its row in
    ``step``, which also observes the state reached and requests its valid
    set.  The bootstrap is one more batched critic pass.  The unroll and the
    bootstrap run inside one ``agent.fixed_parameters()`` scope, so no pass
    records a tape, each distinct graph is embedded once, and each repeated
    (channel, text, carried hidden) is encoded once.  A worker that raises
    in ``step`` is logged and dropped with its records of this unroll, and
    the others go on; with one worker the error propagates.  The batched
    passes read only what the workers built, so an error there is
    the agent's, not a worker's, and propagates.  The records come out
    worker-major."""
    live = [w for w in workers if not w.failed]
    records: dict[int, list[StepRecord]] = {w.idx: [] for w in live}
    finished: list[int] = []
    with agent.fixed_parameters():
        for _ in range(cfg.unroll):
            if not live:
                break
            s_t, encs = _embed(agent, live)
            values = agent.critic_value(s_t).data
            decoded = agent.decode_action(s_t, [w.ep.mask for w in live],
                                          [w.rng for w in live])
            for w, *row in zip(live, encs, decoded.actions, values.tolist(),
                               decoded.choices()):
                try:
                    record, final_score = w.step(agent, tuple(row))
                except Exception:
                    if cfg.workers == 1:
                        raise
                    log.exception("worker %d failed at state %s; dropping it",
                                  w.idx, engine.digest(w.ep.state))
                    w.failed = True
                    continue
                records[w.idx].append(record)
                if final_score is not None:
                    finished.append(final_score)
            live = [w for w in live if not w.failed]
        open_ended = [w for w in live if not records[w.idx][-1].done]
        if open_ended:
            values = agent.critic_value(_embed(agent, open_ended)[0]).data
            for w, v in zip(open_ended, values):
                records[w.idx][-1].v_next = float(v)

    kept = [records[w.idx] for w in workers if w.idx in records and not w.failed]
    for own in kept:  # a done step keeps v_next = 0
        for record, following in zip(own, own[1:]):
            if not record.done:
                record.v_next = following.value
    return RolloutBatch([r for own in kept for r in own], finished,
                        sum(w.failed for w in workers))


# ---------------------------------------------------------------------------
# Updates


PARTS = ("actor", "critic", "template", "object", "seq_valid", "entropy")


def learner_pass(batch: RolloutBatch, agent: KgA2CAgent) -> tuple[nm.Tensor, Decoded]:
    """The learning pass: one taped pass over every record the batch kept,
    one row each, in ``batch.records`` order.  Each row embeds the
    observation and graph its acting step read, from the encoder hiddens
    that step started from (rows that repeat one are computed once, see
    the ``agent`` module docstring), and decodes in ``replay`` mode: the
    ids the acting pass chose, under the mask it chose them with.  Returns
    V as an (N,) vector and the ``Decoded``, whose heads span all N rows."""
    records = batch.records
    s_t, _ = agent.state_embedding([r.obs for r in records], [r.graph for r in records],
                                   [r.enc for r in records])
    decoded = agent.decode_action(s_t, [r.mask for r in records], mode="replay",
                                  choices=[r.choices for r in records])
    return agent.critic_value(s_t), decoded


def combined_loss(
    batch: RolloutBatch, values: nm.Tensor, decoded: Decoded, agent: KgA2CAgent,
    cfg: TrainConfig,
) -> tuple[nm.Tensor, dict[str, nm.Tensor]]:
    """The batch loss and its parts, each averaged over the N records, from
    the learner pass's ``values`` and ``decoded`` (row i is record i).  Each
    term is one vector over all rows, or over the rows of one decoding
    head, reduced by one product with the rows' weights 1/N.  The actor and
    critic terms use Q = r + gamma * V(s') on non-terminal steps; the
    advantage Q - V takes V from the record's float.

    This is the one place that turns records into targets, by
    ``agent.cfg.ablation``.  The supervised ablations (``full``, ``a2c``,
    ``no-gat``, ``no-mask``) train the template BCE toward the templates of
    ``r.valid``, the object BCE at every blank toward the words of
    ``r.mask`` (under ``no-mask`` too, where the decoder may pick all of V),
    and the template entropy over the valid templates only.  ``seq`` trains
    the cross-entropy of each decoded position toward ``_teacher_ids`` of
    ``r.teacher``; a position past the teacher's end, or a row with no
    teacher, trains none.  ``unsupervised`` trains no target.  A term no
    row has targets for contributes zero."""
    parts: dict[str, list[nm.Tensor]] = {name: [] for name in PARTS}

    def reduce(name: str, vector: nm.Tensor, weights: np.ndarray) -> None:
        parts[name].append(nm.matmul(vector, nm.Tensor(weights)))

    records = batch.records
    weight = np.full(len(records), 1.0 / len(records))
    q = np.array([r.reward + cfg.gamma * r.v_next * (0.0 if r.done else 1.0)
                  for r in records])
    value = np.array([r.value for r in records])
    heads = decoded.heads
    reduce("actor", decoded.log_prob, (value - q) * weight)
    diff = nm.sub(nm.Tensor(q), values)
    reduce("critic", nm.mul(diff, diff), 0.5 * weight)
    ablation = agent.cfg.ablation
    supervised = ablation not in ("unsupervised", "seq")
    if supervised:
        y_tau = np.zeros((len(records), agent.n_templates))
        y_o = np.zeros((len(records), agent.n_vocab))
        for b, r in enumerate(records):
            y_tau[b, list(r.valid.template_ids)] = 1.0
            y_o[b, [agent.space.word_id(w) for w in r.mask]] = 1.0
        reduce("template", nm.binary_cross_entropy(heads[0].logits, y_tau), weight)
    for k, head in enumerate(heads):
        w = weight[head.rows]
        if k and supervised:
            reduce("object", nm.binary_cross_entropy(head.logits, y_o[head.rows]), w)
        keep = head.probs.data > 0.0
        if not k and supervised:
            keep &= y_tau > 0.0
        # p log p over each row's support: off it p is 0 and log(p + 1) is 0
        p = nm.mul(head.probs, nm.Tensor(keep))
        plogp = nm.mul(p, nm.log(nm.add(p, nm.Tensor(~keep))))
        reduce("entropy", nm.sum_(plogp, axis=1), w)
    if ablation == "seq":  # zip(positions, teacher ids) per row; -1 trains none
        teacher = np.full((len(records), len(heads)), -1)
        for b, r in enumerate(records):
            if r.teacher is not None:
                ids = _teacher_ids(r.teacher, agent)[:len(heads)]
                teacher[b, :len(ids)] = ids
        for k, head in enumerate(heads):
            target = teacher[head.rows, k]
            reduce("seq_valid", nm.cross_entropy_with_logits(
                head.logits, np.maximum(target, 0)), weight[head.rows] * (target >= 0))
    parts = {name: _sum(ts) for name, ts in parts.items()}
    total = parts["actor"]
    for name, weight in (
        ("critic", cfg.lambda_critic), ("template", cfg.lambda_template),
        ("object", cfg.lambda_object), ("seq_valid", cfg.lambda_template),
        ("entropy", cfg.lambda_entropy),
    ):
        total = nm.add(total, nm.mul(nm.Tensor(weight), parts[name]))
    return total, parts


def _teacher_ids(teacher: str, agent: KgA2CAgent) -> list[int]:
    """The ``seq`` decoder's targets for the action ``teacher``: each word's
    id, then the stop id; empty when the decoder cannot spell ``teacher``,
    which has a word outside V or more than ``max_seq_words`` words."""
    word_ids, words = agent.space.word_ids, teacher.split()
    if len(words) > agent.cfg.max_seq_words or not all(w in word_ids for w in words):
        return []
    return [word_ids[w] for w in words] + [agent.n_vocab]


def _sum(terms: list[nm.Tensor]) -> nm.Tensor:
    """Left-to-right sum; the order fixes the float result."""
    if not terms:
        return nm.Tensor(0.0)
    total = terms[0]
    for t in terms[1:]:
        total = nm.add(total, t)
    return total


def train_step(
    batch: RolloutBatch, agent: KgA2CAgent, cfg: TrainConfig
) -> dict[str, float]:
    """The learner pass over the batch, its combined loss, one backward and
    one Adam step; returns scalar metrics."""
    records = batch.records
    if not records:
        raise ValueError("empty rollout batch")
    total, parts = combined_loss(batch, *learner_pass(batch, agent), agent, cfg)
    if not math.isfinite(total.item()):
        worst = max(records, key=lambda r: abs(r.value) + abs(r.reward))
        raise RuntimeError(
            "non-finite loss; offending record: "
            f"worker={worst.worker} reward={worst.reward} value={worst.value} "
            f"done={worst.done} valid_count={len(worst.valid)}"
        )

    agent.params.zero_grad()
    nm.backward(total)
    grad_norm = nm.adam_step(agent.params, lr=cfg.lr, grad_clip=cfg.grad_clip)
    row = {f"loss_{name}": t.item() for name, t in parts.items()}
    sampled_valid_rate = float(np.mean([r.action in r.valid for r in records]))
    row.update(
        loss_total=total.item(),
        grad_norm=grad_norm,
        mean_valid_actions=float(np.mean([len(r.valid) for r in records])),
        mean_mask_size=float(np.mean([len(r.mask) for r in records])),
        sampled_valid_rate=sampled_valid_rate,
        # under seq every step is decoded word by word
        seq_valid_rate=sampled_valid_rate if agent.cfg.ablation == "seq" else 0.0,
    )
    return row


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
    eval_score: float  # the greedy eval episode's final score


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
                degraded_workers=batch.degraded_workers,
                valid_cache_hit_rate=hits / requests if requests else 0.0,
                valid_cache_entries=len(pipe._valid_cache),
                mean_graph_triples=float(np.mean([len(r.graph) for r in batch.records])),
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

    score, _, _ = evaluate(agent, pipe, 1, seed=cfg.seed)
    return TrainResult(metrics, agent, pipe, score)


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
    trace: list | None = None,
) -> tuple[float, float, list[int]]:
    """Greedy-policy episodes; returns (mean, std, scores).  Every episode
    starts from ``engine.reset``'s state, masking uses p_m = 0 and decoding
    takes the argmax, so evaluation is deterministic: every episode replays
    the first.  Callers in this package ask for one episode.  The count,
    the unused ``seed`` and the (mean, std, scores) result stay only because
    the benchmark harness calls ``evaluate(agent, pipe, 1, seed=...)`` and
    unpacks three values.  Each episode runs inside one
    ``agent.fixed_parameters()`` scope, so no pass records a tape, a graph
    that stays the same across steps is embedded once, and a (channel, text,
    carried hidden) row the episode met before is read from the encoder memo
    instead of run again; both give the values computing afresh gives, and
    are dropped when the episode ends.  With ``trace``, one row per step is
    appended to it (see ``_trace_row``)."""
    if episodes <= 0:
        raise ValueError("episodes must be positive")
    scores: list[int] = []
    for _ in range(episodes):
        ep = Episode(pipe.spec, pipe.space.vocabulary, gru_hidden=agent.cfg.gru_hidden)
        with agent.fixed_parameters():
            while not ep.done:
                s_t, (ep.enc,) = agent.state_embedding([ep.obs], [ep.graph], [ep.enc])
                decoded = agent.decode_action(s_t, [ep.mask], mode="greedy")
                action = decoded.actions[0]
                if trace is not None:
                    trace.append(_trace_row(agent, decoded, ep.mask, ep.graph, action))
                ep.act(action)
        scores.append(ep.state.score)
    mean = float(np.mean(scores))
    std = float(np.std(scores))
    return mean, std, scores


STOP_WORD = "<stop>"  # the seq decoder's end-of-action token, as traces name it


def _trace_row(agent: KgA2CAgent, decoded: Decoded, mask: frozenset[str],
               graph: kg.Graph, action: str) -> dict:
    """The top-5 templates, and the top-5 words at each object blank or, under
    ``seq``, at each decoded position (where the template list is empty and
    the words include the stop token), with the mask, graph and action."""
    def top5(probs: np.ndarray, names) -> list[tuple[str, float]]:
        ids = np.argsort(-probs)[:5]
        return [(str(names[i]), round(float(probs[i]), 4)) for i in ids]

    words = tuple(agent.space.vocabulary) + (STOP_WORD,)
    patterns = [t.pattern for t in agent.space.templates]
    heads = [h.probs.data[0] for h in decoded.heads]
    first = int(agent.cfg.ablation != "seq")  # the template head, if any
    return {
        "template_probs": [pair for probs in heads[:first] for pair in top5(probs, patterns)],
        "object_probs": [top5(probs, words) for probs in heads[first:]],
        "mask_size": len(mask),
        "mask": sorted(mask),
        "graph": sorted(graph),
        "action": action,
    }


def random_valid_baseline(
    spec: engine.GameSpec,
    corpus: list[str],
    cfg: TrainConfig,
    max_steps: int,
    seed: int = 0,
) -> tuple[float, list[int]]:
    """Uniform-random-valid policy under the same step budget; the floor any
    learner must beat.  Returns the mean final score and the final scores of
    the episodes that ended within ``max_steps``; when none ended, ``[]`` and
    a NaN mean, since an unfinished episode has no final score."""
    pipe = build_pipeline(spec, corpus, cfg)
    rng = np.random.default_rng(seed)
    mask_rng = random.Random(seed)
    scores: list[int] = []
    steps = 0
    while steps < max_steps:
        ep = Episode(spec, pipe.space.vocabulary, cfg.p_m, mask_rng)
        while not ep.done and steps < max_steps:
            valid = pipe.valid_set(ep.state, ep.mask, engine.in_scope_words(ep.state, spec))
            if len(valid):
                action = valid.actions[rng.integers(len(valid))]
            else:
                action = "look"
            ep.act(action)
            steps += 1
        if ep.done:
            scores.append(ep.state.score)
    return (float(np.mean(scores)) if scores else math.nan), scores
