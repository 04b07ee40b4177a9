"""The knowledge-graph actor-critic network.

Four GRU observation encoders (one per text channel, hidden carried across
steps), a dense multi-head graph-attention embedding of the belief graph
(Velickovic et al. 2018, arXiv 1710.10903: per head one projection, one N x N
score matrix and one row-wise masked softmax), a binary score encoding, and
a graph-masked two-stage action decoder (template head, then a shared object
GRU conditioned by attention over everything decoded so far).  A critic head
shares the same state embedding.  The template head is one GRU step from a
zero hidden, sigmoid(s Wz + bz) * tanh(s Wn + bn) over ``dec.tmpl.{z,n}.*``.
The ``seq`` ablation swaps the template decoder for a word-by-word one.  Only
tensors some pass reads are allocated: no ``gat.*`` under ``a2c`` and
``no-gat``, no object decoder when no template has a blank.  Every GRU is the
three packed tensors ``<prefix>.gru.W``, ``.U`` and ``.b`` that
``numerics.ParameterSet.gru`` allocates.

The passes take plain values: a belief graph is a ``kg.Graph`` (a frozenset
of triples), a mask a frozenset of words, and one episode's encoder hiddens
one (len(CHANNELS), gru_hidden) array whose row c is channel c's hidden.

Every forward pass is batch-major: it takes B states (one per worker) and
returns tensors whose leading axis is the row, and a single state is the
B = 1 case.  Each observation channel is one ``numerics.gru_sequence`` tape
node over the distinct rows' padded token embeddings, so the encoders add
four GRU nodes to the tape per step, however many rows and however long the
texts are; the distinct graphs are one block-diagonal graph; the decoders'
one-step GRUs are the same kernel with T = 1, over the rows still decoding.
Row b samples with its own RNG, in the order a lone pass would.
``decode_action`` returns one ``Decoded`` for the batch: each row's action
text, the (B,) joint log-prob, and one ``Head`` per decoding step (the
template head, then each object blank, or each ``seq`` word position) with
the logits, probabilities and choices of the rows that took it.

``decode_action`` samples, decodes greedily, or replays: in ``replay`` mode
each row takes the ids a recorded decode chose (``Decoded.choices``), so a
taped learner pass rebuilds the heads an untaped acting pass sampled.

``encode_observation`` and ``gat_embed`` share one rule, taped or not:
each distinct row of a call is computed once, and every row is read from
that block (``_rows_once``).  A row's key is everything it depends on: an
encoder row's is (channel, text, carried hidden bytes), a GAT row's its
graph.  Rows repeat often: a carried hidden often settles into an exact
fixed point, so a stuck greedy episode repeats most of its encoder rows bit
for bit, and every episode starts from ``engine.reset``'s one state, so
workers that start an episode repeat each other's first rows.  In a taped
pass the B rows are one ``nm.take`` from the block, so a repeated row's
gradients add up in the take's backward.

``with agent.fixed_parameters():`` is the caller's promise that the
parameters do not change inside (``nm.adam_step`` on them raises there).
The scope enters ``nm.no_grad()``, so no pass inside records a tape, and
every pass inside shares two memos of rows by key, one per method: a row
the scope has computed is read from its memo, not computed again.

A row's last bits can depend on the rest of its block: a GAT row's on the
other graphs of its block, and a GRU row's on whether it runs a step alone
(a one-row product goes through numpy's matrix-vector kernel, which rounds
differently).  So a row read from a block or a memo equals a fresh
computation up to round-off; in greedy eval (B = 1) it is bitwise equal.

Leaving the outermost scope drops both memos and records the tape again.
``trainer.run_rollouts`` holds one scope over an unroll and its bootstrap,
``trainer.evaluate`` one per episode; the taped learner pass runs outside
any scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Sequence

import numpy as np

from . import numerics as nm
from . import tokenizer as tok
from . import kg
from .engine import Observation
from .templates import ActionSpace

CHANNELS = ("desc", "game", "inv", "prev")

ABLATIONS = ("full", "a2c", "no-gat", "no-mask", "unsupervised", "seq")

# The most texts ``KgA2CAgent`` keeps the subword ids of; later new texts are
# encoded without being stored.  The texts are observations, node and
# relation names, and previous actions: under the template decoder at most
# |templates|·|V|² of those (17,328 on microzork, the engine's
# ``PARSE_MEMO_CAP`` reasoning), while ``seq`` word sequences and free text
# from ``kga2c play`` are unbounded.
ENCODE_CACHE_CAP = 32_768


@dataclass(frozen=True)
class AgentConfig:
    emb_dim: int = 32  # subword embedding dim, also the GAT node feature dim
    gru_hidden: int = 64
    obs_dim: int = 64
    gat_heads: int = 4
    gat_dim: int = 64
    score_width: int = 16
    dec_hidden: int = 64
    leaky_slope: float = 0.2
    max_seq_words: int = 4
    ablation: str = "full"

    def __post_init__(self) -> None:
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}")
        for name in ("emb_dim", "gru_hidden", "obs_dim", "gat_heads", "gat_dim",
                     "dec_hidden", "max_seq_words"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.score_width < 2:
            raise ValueError("score_width must be at least 2")

    @property
    def use_gat(self) -> bool:
        return self.ablation not in ("a2c", "no-gat")

    @property
    def use_mask(self) -> bool:
        return self.ablation not in ("a2c", "no-mask")

    @property
    def state_dim(self) -> int:
        g = self.gat_dim if self.use_gat else 0
        return g + self.obs_dim + self.score_width


@dataclass
class Head:
    """One decoding step over the rows that take it: the template head, an
    object blank, or a ``seq`` word position."""

    rows: np.ndarray  # (R,) the batch rows decoding this step, ascending
    logits: nm.Tensor  # (R, K), before the mask
    probs: nm.Tensor  # (R, K), exactly 0 outside the row's mask
    chosen: np.ndarray  # (R,) the id each row sampled (or took greedily)


@dataclass
class Decoded:
    """One decoded action per row of a batch, and the heads that chose it."""

    actions: list[str]  # the action text of each row
    log_prob: nm.Tensor  # (B,) joint log-prob of each row's choices
    heads: list[Head]  # in decoding order

    def choices(self) -> list[list[int]]:
        """Each row's chosen ids in decoding order, which ``decode_action``
        takes back in ``replay`` mode."""
        out: list[list[int]] = [[] for _ in self.actions]
        for head in self.heads:
            for b, c in zip(head.rows, head.chosen):
                out[b].append(int(c))
        return out


def score_encode(score: int, width: int) -> np.ndarray:
    """Sign bit plus (width-1)-bit magnitude, clipped to what fits."""
    if width < 2:
        raise ValueError("width must be at least 2")
    bits = np.zeros(width)
    if score < 0:
        bits[0] = 1.0
    magnitude = min(abs(int(score)), 2 ** (width - 1) - 1)
    for i in range(width - 1):
        if magnitude & (1 << (width - 2 - i)):
            bits[i + 1] = 1.0
    return bits


def _rows_once(keys: Sequence[Hashable], memo: dict | None,
               run: Callable[[list], nm.Tensor]) -> nm.Tensor:
    """The rows of ``keys``, each distinct key computed once: ``run`` turns
    the keys to compute, in first-seen order, into one block of a row each.
    In a taped pass (``memo`` None) those are all the distinct keys, and the
    rows are one ``nm.take`` from the block.  Inside ``fixed_parameters``
    they are the keys ``memo`` does not hold; the block's rows are stored,
    and every row is read from ``memo``.  When every key is new and
    distinct the block is returned."""
    fresh = list(dict.fromkeys(k for k in keys if memo is None or k not in memo))
    if fresh:
        block = run(fresh)
        if memo is not None:
            # copies: a view would keep its whole block alive
            memo.update((k, row.copy()) for k, row in zip(fresh, block.data))
        if len(fresh) == len(keys):
            return block
    if memo is not None:
        return nm.Tensor(np.array([memo[k] for k in keys]))
    at = {k: i for i, k in enumerate(fresh)}
    return nm.take(block, [at[k] for k in keys])


class KgA2CAgent:
    """Parameter container plus all forward passes."""

    def __init__(
        self,
        space: ActionSpace,
        model: tok.SubwordModel,
        cfg: AgentConfig = AgentConfig(),
        seed: int = 0,
        params: nm.ParameterSet | None = None,
    ):
        self.space = space
        self.model = model
        self.cfg = cfg
        self.n_templates = len(space.templates)
        self.n_vocab = len(space.vocabulary)
        if params is not None:
            self._check_params(params)
        self.params = params if params is not None else self._build(seed)
        self._encode_cache: dict[str, tuple[int, ...]] = {}
        # inside fixed_parameters(), a row's key -> the row (see _rows_once):
        # graph -> its GAT row; (channel, text, carried hidden bytes) -> that
        # channel row's final hidden
        self._gat_memo: dict[kg.Graph, np.ndarray] | None = None
        self._enc_memo: dict[tuple[str, str, bytes], np.ndarray] | None = None

    # -- parameters ------------------------------------------------------

    def _build(self, seed: int) -> nm.ParameterSet:
        cfg = self.cfg
        p = nm.ParameterSet(seed)
        p.add("emb", (len(self.model), cfg.emb_dim), "embedding")
        for ch in CHANNELS:
            p.gru(f"enc.{ch}.gru", cfg.emb_dim, cfg.gru_hidden)
        p.add("enc.combine.W", (4 * cfg.gru_hidden, cfg.obs_dim))
        p.add("enc.combine.b", (cfg.obs_dim,), "bias")
        if cfg.use_gat:
            for k in range(cfg.gat_heads):
                p.add(f"gat.h{k}.W", (cfg.emb_dim, cfg.emb_dim))
                p.add(f"gat.h{k}.p", (2 * cfg.emb_dim,))
            p.add("gat.out.W", (cfg.gat_heads * cfg.emb_dim, cfg.gat_dim))
            p.add("gat.out.b", (cfg.gat_dim,), "bias")
        s_dim, H = cfg.state_dim, cfg.dec_hidden
        p.add("critic.W1", (s_dim, H))
        p.add("critic.b1", (H,), "bias")
        p.add("critic.w2", (H,))
        p.add("critic.b2", (), "bias")
        if cfg.ablation == "seq":
            p.add("seq.init.W", (s_dim, H))
            p.add("seq.init.b", (H,), "bias")
            p.gru("seq.gru", H, H)
            p.add("seq.emb", (self.n_vocab + 1, H), "embedding")
            p.add("seq.W", (H, self.n_vocab + 1))
            p.add("seq.b", (self.n_vocab + 1,), "bias")
            return p
        for gate in ("z", "n"):
            p.add(f"dec.tmpl.{gate}.W", (s_dim, H))
            p.add(f"dec.tmpl.{gate}.b", (H,), "bias")
        p.add("dec.tmpl.W", (H, self.n_templates))
        p.add("dec.tmpl.b", (self.n_templates,), "bias")
        if any(t.blanks for t in self.space.templates):
            p.gru("dec.obj.gru", H, H)
            p.add("dec.obj.W", (H, self.n_vocab))
            p.add("dec.obj.b", (self.n_vocab,), "bias")
            p.add("dec.tmpl_emb", (self.n_templates, H), "embedding")
            p.add("dec.obj_emb", (self.n_vocab, H), "embedding")
            p.add("dec.ctx.W", (s_dim, H))
            p.add("dec.query.W", (s_dim, H))
        return p

    def _check_params(self, params: nm.ParameterSet) -> None:
        """Raise ValueError naming the first parameter (in name order) that
        is missing, unexpected or shaped unlike what ``_build`` allocates."""
        want = {n: t.data.shape for n, t in self._build(0).tensors.items()}
        have = {n: t.data.shape for n, t in params.tensors.items()}
        for name in sorted(want.keys() | have.keys()):
            if name not in have:
                problem = "is missing"
            elif name not in want:
                problem = "is unexpected"
            elif have[name] != want[name]:
                problem = f"has shape {have[name]}, expected {want[name]}"
            else:
                continue
            raise ValueError(
                f"parameters do not fit the {self.cfg.ablation!r} agent: "
                f"{name!r} {problem}"
            )

    # -- encoders ---------------------------------------------------------

    def _token_ids(self, text: str) -> tuple[int, ...]:
        cached = self._encode_cache.get(text)
        if cached is None:
            cached = tuple(tok.encode(self.model, text.lower()))
            if len(self._encode_cache) < ENCODE_CACHE_CAP:
                self._encode_cache[text] = cached
        return cached

    def encode_observation(
        self, observations: Sequence[Observation], encs: Sequence[np.ndarray]
    ) -> tuple[nm.Tensor, list[np.ndarray]]:
        """Per-channel GRU over subword embeddings for B observations, each
        row from its own carried hiddens ``encs[b]`` (one row per channel);
        concatenated finals go through one linear layer, giving (B, obs_dim)
        and each row's new hiddens, read-only.  Each channel's rows are
        keyed (channel, text, carried hidden bytes), and its distinct rows
        run as one ``nm.gru_sequence`` node (``_encode_channel``), read as
        ``_rows_once`` reads rows."""
        finals = []
        fields = ("o_desc", "o_game", "o_inv", "a_prev")
        for c, (ch, field_name) in enumerate(zip(CHANNELS, fields)):
            keys = [(ch, getattr(obs, field_name), enc[c].tobytes())
                    for obs, enc in zip(observations, encs)]
            finals.append(_rows_once(keys, self._enc_memo, self._encode_channel))
        p = self.params
        o_t = nm.add(
            nm.matmul(nm.concat(finals), p["enc.combine.W"]), p["enc.combine.b"]
        )
        hiddens = np.stack([h.data for h in finals], axis=1)  # (B, channels, H)
        hiddens.flags.writeable = False
        return o_t, list(hiddens)

    def _encode_channel(self, keys: Sequence[tuple[str, str, bytes]]) -> nm.Tensor:
        """One ``nm.gru_sequence`` node over the rows keyed (channel, text,
        carried hidden bytes): the texts' subword embeddings, padded to the
        longest text, from the carried hiddens; the (B, gru_hidden) finals.
        An empty text has length 0, which carries its row's hidden
        unchanged."""
        rows = [self._token_ids(text) for _, text, _ in keys]
        lengths = [len(ids) for ids in rows]
        padded = np.zeros((max(lengths), len(rows)), dtype=np.intp)
        for b, ids in enumerate(rows):
            padded[:len(ids), b] = ids
        h0 = np.array([np.frombuffer(h, dtype=np.float64) for _, _, h in keys])
        return nm.gru_sequence(nm.take(self.params["emb"], padded), nm.Tensor(h0),
                               self.params.gru_params(f"enc.{keys[0][0]}.gru"), lengths)

    @contextmanager
    def fixed_parameters(self) -> Iterator[None]:
        """Hold the parameters fixed: inside, no pass records a tape, each
        row ``_rows_once`` computes is kept in its method's memo and read
        from it again (see the module docstring), and ``nm.adam_step`` on
        them raises.  An inner scope shares the outer one's memos; leaving
        the outermost drops both."""
        if self._gat_memo is not None:
            yield
            return
        self._gat_memo, self._enc_memo = {}, {}
        self.params.fixed = True
        try:
            with nm.no_grad():
                yield
        finally:
            self._gat_memo = self._enc_memo = None
            self.params.fixed = False

    def gat_embed(self, graphs: Sequence[kg.Graph]) -> nm.Tensor:
        """The graph embedding of B graphs, (B, gat_dim): ``_gat_block``
        over the distinct graphs, each graph its row's key, read as
        ``_rows_once`` reads rows."""
        return _rows_once(graphs, self._gat_memo, self._gat_block)

    def _gat_block(self, graphs: Sequence[kg.Graph]) -> nm.Tensor:
        """Dense multi-head graph attention (Velickovic et al. 2018, arXiv
        1710.10903) over B graphs at once, head outputs mean-pooled over each
        graph's nodes and concatenated, then one linear layer under tanh;
        returns (B, gat_dim).

        A node's feature averages the subword embeddings of its name, plus
        the mean over its incoming triples of each relation's averaged
        embeddings.  Node i attends to itself and to the subject of every
        triple whose object it is.  The graphs' nodes stack into one node
        list with a block-diagonal adjacency, so no node attends across
        graphs.  Per head k, with u = feats @ W_k, the score
        e_ij = LeakyReLU(p . (u_i (+) u_j)) is computed for all pairs at once
        as column(u @ p[:F]) + u @ p[F:], a row-wise masked softmax over the
        adjacency turns it into alpha, and the head's node outputs are
        sigmoid(alpha @ u), averaged per graph by one constant (B, N) matrix.
        """
        cfg = self.cfg
        p = self.params
        per_graph = [sorted(kg.nodes(graph)) for graph in graphs]
        total = sum(len(nodes) for nodes in per_graph)
        adj = np.zeros((total, total), dtype=bool)  # adj[i, j]: node i attends to j
        pool = np.zeros((len(graphs), total))  # per-graph means = pool @ outputs
        # feats = avg @ emb[pieces], avg built from (node, piece, weight) entries
        rows: list[int] = []
        cols: list[int] = []
        weights: list[float] = []
        off = 0
        for b, (graph, nodes) in enumerate(zip(graphs, per_graph)):
            n = len(nodes)
            index = {node: off + i for i, node in enumerate(nodes)}
            adj[off:off + n, off:off + n] = np.eye(n, dtype=bool)
            pool[b, off:off + n] = 1.0 / n
            incoming: dict[int, list[str]] = {}
            # sorted: set order follows the hash seed, and the sums below must not
            for s, rel, o in sorted(graph):
                adj[index[o], index[s]] = True
                incoming.setdefault(index[o], []).append(rel)
            for node, i in index.items():
                ids = self._token_ids(node)
                rels = [r for r in (self._token_ids(rel.replace("_", " "))
                                    for rel in incoming.get(i, ())) if r]
                entries = [(ids, 1.0 / len(ids))] if ids else []
                entries += [(r, 1.0 / (len(r) * len(rels))) for r in rels]
                for part, weight in entries:
                    rows.extend([i] * len(part))
                    cols.extend(part)
                    weights.extend([weight] * len(part))
            off += n
        pieces, piece_cols = np.unique(np.array(cols, dtype=np.intp), return_inverse=True)
        avg = np.zeros((total, len(pieces)))
        np.add.at(avg, (rows, piece_cols), weights)  # in entry order, as a sum
        feats = nm.matmul(nm.Tensor(avg), nm.take(p["emb"], pieces))

        heads = []
        dim = cfg.emb_dim
        for k in range(cfg.gat_heads):
            u = nm.matmul(feats, p[f"gat.h{k}.W"])  # (N, F)
            pk = p[f"gat.h{k}.p"]
            a_self = nm.matmul(u, nm.take(pk, slice(0, dim)))  # (N,)
            a_peer = nm.matmul(u, nm.take(pk, slice(dim, 2 * dim)))  # (N,)
            e = nm.leaky_relu(nm.add(nm.column(a_self), a_peer), cfg.leaky_slope)
            alpha = nm.softmax(e, mask=adj)  # (N, N)
            heads.append(nm.matmul(nm.Tensor(pool), nm.sigmoid(nm.matmul(alpha, u))))
        pooled = nm.concat(heads)  # (B, heads * F)
        return nm.tanh(nm.add(nm.matmul(pooled, p["gat.out.W"]), p["gat.out.b"]))

    def state_embedding(
        self,
        observations: Sequence[Observation],
        graphs: Sequence[kg.Graph],
        encs: Sequence[np.ndarray],
    ) -> tuple[nm.Tensor, list[np.ndarray]]:
        """s_t = g_t (+) o_t (+) c_t for B states, as (B, state_dim) (g_t
        dropped in the no-gat/a2c paths), and each row's new hiddens."""
        o_t, encs2 = self.encode_observation(observations, encs)
        c_t = nm.Tensor(np.array(
            [score_encode(obs.score, self.cfg.score_width) for obs in observations]))
        parts = []
        if self.cfg.use_gat:
            parts.append(self.gat_embed(graphs))
        parts.extend([o_t, c_t])
        return nm.concat(parts), encs2

    # -- decoders ----------------------------------------------------------

    def _decoder_mask(self, mask: frozenset[str]) -> np.ndarray:
        if not self.cfg.use_mask:
            return np.ones(self.n_vocab, dtype=bool)
        word_ids = self.space.word_ids
        arr = np.zeros(self.n_vocab, dtype=bool)
        arr[[word_ids[w] for w in mask]] = True
        return arr

    def decode_action(
        self,
        s_t: nm.Tensor,
        masks: Sequence[frozenset[str]],
        rngs: Sequence[np.random.Generator] | None = None,
        mode: str = "sample",
        choices: Sequence[Sequence[int]] | None = None,
    ) -> Decoded:
        """Decode one action for each of the B rows of ``s_t``: the template
        head, then one object step per blank (each attending over the state,
        the template and earlier objects), or under ``seq`` up to
        max_seq_words words with an early stop token.  Each step is one head
        over the rows that take it: object blank k runs over the rows whose
        template has more than k blanks, word position k over the rows that
        have not stopped.  Row b samples with ``rngs[b]`` in decoding order
        (``sample``), takes each head's most probable id (``greedy``), or
        takes ``choices[b]``, its ids in decoding order as
        ``Decoded.choices`` gives them (``replay``).  Under ``seq`` a row
        that stops at once plays "look"."""
        if mode not in ("sample", "greedy", "replay"):
            raise ValueError(f"unknown decode mode {mode!r}")
        if mode == "sample" and rngs is None:
            raise ValueError("sampling requires an rng")
        if mode == "replay" and (choices is None or len(choices) != s_t.shape[0]):
            raise ValueError("replay requires one choice list per row")
        B = s_t.shape[0]
        rngs = rngs if rngs is not None else [None] * B

        def pick(k: int, rows: np.ndarray, probs: np.ndarray) -> np.ndarray:
            """The ids that head k chooses for ``rows``, given their probs."""
            if mode == "replay":
                ids = [choices[b][k] for b in rows]
            else:
                ids = [self._choose(probs[i], rngs[b], mode) for i, b in enumerate(rows)]
            return np.array(ids, dtype=np.intp)

        if self.cfg.ablation == "seq":
            heads, actions = self._decode_words(s_t, pick)
        else:
            heads, actions = self._decode_template(s_t, masks, pick)
        log_prob = None
        for head in heads:
            lp = nm.log(nm.take(head.probs, range(len(head.rows)), head.chosen))
            if len(head.rows) < B:  # to the rows' places, as lp @ one-hot
                place = np.zeros((len(head.rows), B))
                place[np.arange(len(head.rows)), head.rows] = 1.0
                lp = nm.matmul(lp, nm.Tensor(place))
            log_prob = lp if log_prob is None else nm.add(log_prob, lp)
        return Decoded(actions, log_prob, heads)

    def _decode_template(self, s_t, masks, pick) -> tuple[list[Head], list[str]]:
        cfg = self.cfg
        p = self.params
        B = s_t.shape[0]
        t_logits = nm.add(nm.matmul(self._template_hidden(s_t), p["dec.tmpl.W"]),
                          p["dec.tmpl.b"])
        rows = np.arange(B)  # the rows decoding this step
        t_probs = nm.softmax(t_logits)
        heads = [Head(rows, t_logits, t_probs, pick(0, rows, t_probs.data))]
        tids = heads[0].chosen
        blanks = [self.space.templates[tid].blanks for tid in tids]
        if not max(blanks):  # blank-less templates need no object decoder
            return heads, [self.space.instantiate(tid, []) for tid in tids]
        objects: list[list[str]] = [[] for _ in range(B)]
        mask_arr = np.array([self._decoder_mask(m) for m in masks])
        context = [nm.matmul(s_t, p["dec.ctx.W"]), nm.take(p["dec.tmpl_emb"], tids)]
        query = nm.matmul(s_t, p["dec.query.W"])
        scale = 1.0 / np.sqrt(cfg.dec_hidden)
        h_o = nm.Tensor(np.zeros((B, cfg.dec_hidden)))
        obj_gru = p.gru_params("dec.obj.gru")
        for k in range(max(blanks)):
            keep = [i for i, b in enumerate(rows) if blanks[b] > k]
            if len(keep) < len(rows):
                context = [nm.take(c, keep) for c in context]
                query, h_o = nm.take(query, keep), nm.take(h_o, keep)
                rows = rows[keep]
            h_o = nm.gru_cell(nm.attend(context, query, scale), h_o, obj_gru)
            o_logits = nm.add(nm.matmul(h_o, p["dec.obj.W"]), p["dec.obj.b"])
            o_probs = nm.softmax(o_logits, mask=mask_arr[rows])
            heads.append(Head(rows, o_logits, o_probs, pick(k + 1, rows, o_probs.data)))
            for b, oid in zip(rows, heads[-1].chosen):
                objects[b].append(self.space.vocabulary[oid])
            if k + 1 < max(blanks):
                context.append(nm.take(p["dec.obj_emb"], heads[-1].chosen))
        actions = [self.space.instantiate(tid, words) for tid, words in zip(tids, objects)]
        return heads, actions

    def _template_hidden(self, s_t: nm.Tensor) -> nm.Tensor:
        """One GRU step from a zero hidden: sigmoid(s Wz + bz) * tanh(s Wn + bn)."""
        p = self.params
        z, n = (nm.add(nm.matmul(s_t, p[f"dec.tmpl.{g}.W"]), p[f"dec.tmpl.{g}.b"])
                for g in "zn")
        return nm.mul(nm.sigmoid(z), nm.tanh(n))

    def _decode_words(self, s_t, pick) -> tuple[list[Head], list[str]]:
        cfg = self.cfg
        p = self.params
        B = s_t.shape[0]
        h = nm.tanh(nm.add(nm.matmul(s_t, p["seq.init.W"]), p["seq.init.b"]))
        gp = p.gru_params("seq.gru")
        words: list[list[str]] = [[] for _ in range(B)]
        heads: list[Head] = []
        rows = np.arange(B)  # the rows still decoding
        for k in range(cfg.max_seq_words):
            logits = nm.add(nm.matmul(h, p["seq.W"]), p["seq.b"])
            probs = nm.softmax(logits)
            heads.append(Head(rows, logits, probs, pick(k, rows, probs.data)))
            wids = heads[-1].chosen
            keep = np.flatnonzero(wids != self.n_vocab)  # the stop token
            for i in keep:
                words[rows[i]].append(self.space.vocabulary[wids[i]])
            if not len(keep) or k + 1 == cfg.max_seq_words:
                break
            if len(keep) < len(rows):
                h = nm.take(h, keep)
                rows = rows[keep]
            h = nm.gru_cell(nm.take(p["seq.emb"], wids[keep]), h, gp)
        return heads, [" ".join(w) or "look" for w in words]

    @staticmethod
    def _choose(probs: np.ndarray, rng: np.random.Generator | None, mode: str) -> int:
        if mode == "greedy":
            return int(np.argmax(probs))  # ties go to the lowest index
        p = probs / probs.sum()
        return int(rng.choice(len(p), p=p))

    def critic_value(self, s_t: nm.Tensor) -> nm.Tensor:
        """V of each row of (B, state_dim) ``s_t``, as a (B,) vector."""
        p = self.params
        h = nm.tanh(nm.add(nm.matmul(s_t, p["critic.W1"]), p["critic.b1"]))
        return nm.add(nm.matmul(h, p["critic.w2"]), p["critic.b2"])
