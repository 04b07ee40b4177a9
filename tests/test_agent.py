"""The agent's forward passes: dense graph attention against the per-node
formulation it replaced, finite-difference gradients of the whole model,
every batch-major pass against its rows run one at a time, the graph and
encoder memos of ``fixed_parameters`` against computing afresh, and each
distinct row of a call computed once, taped or not."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from gradcheck import finite_difference_check

from kga2c import agent as agent_module, engine, kg, numerics as nm, tokenizer as tok, trainer
from kga2c.agent import CHANNELS, AgentConfig, KgA2CAgent


def mean_rows(x):
    """The mean of a matrix's rows, as one product with weights 1/n."""
    n = x.shape[0]
    return nm.matmul(nm.Tensor(np.full(n, 1.0 / n)), x)


def loop_gat_embed(agent, graph):
    """Reference: per-node attention over explicit neighbour lists, each
    node's feature built from its own embedding lookups."""
    cfg, p = agent.cfg, agent.params
    emb = p["emb"]

    def feature(node):
        ids = agent._token_ids(node)
        ent = (mean_rows(nm.take(emb, ids)) if ids
               else nm.Tensor(np.zeros(cfg.emb_dim)))
        rel_vecs = []
        for rel in sorted(r for _, r, o in graph if o == node):
            rel_ids = agent._token_ids(rel.replace("_", " "))
            if rel_ids:
                rel_vecs.append(mean_rows(nm.take(emb, rel_ids)))
        return nm.add(ent, mean_rows(nm.stack0(rel_vecs))) if rel_vecs else ent

    nodes = sorted(kg.nodes(graph))
    feats = nm.stack0([feature(n) for n in nodes])
    index = {n: i for i, n in enumerate(nodes)}
    neighbors = [[i] for i in range(len(nodes))]
    for s, _, o in sorted(graph):
        j, i = index[s], index[o]
        if j not in neighbors[i]:
            neighbors[i].append(j)

    per_head = []
    dim = cfg.emb_dim
    for k in range(cfg.gat_heads):
        u = nm.matmul(feats, p[f"gat.h{k}.W"])
        pk = p[f"gat.h{k}.p"]
        a_self = nm.matmul(u, nm.take(pk, slice(0, dim)))
        a_peer = nm.matmul(u, nm.take(pk, slice(dim, 2 * dim)))
        outs = []
        for i, nbrs in enumerate(neighbors):
            e = nm.leaky_relu(
                nm.add(nm.take(a_peer, nbrs), nm.take(a_self, i)), cfg.leaky_slope
            )
            alpha = nm.softmax(e)
            outs.append(nm.sigmoid(nm.matmul(alpha, nm.take(u, nbrs))))
        per_head.append(outs)
    per_node = [nm.concat([h[i] for h in per_head]) for i in range(len(nodes))]
    pooled = mean_rows(nm.stack0(per_node))
    return nm.tanh(nm.add(nm.matmul(pooled, p["gat.out.W"]), p["gat.out.b"]))


def walk_graphs(pipe, count, seed=0):
    """Graphs seen along random valid-action episodes on the pipeline's game."""
    rng = np.random.default_rng(seed)
    graphs = []
    ep = trainer.Episode(pipe.spec, seed)
    while len(graphs) < count:
        if ep.done:
            ep = trainer.Episode(pipe.spec, int(rng.integers(1000)))
        mask = ep.observe(pipe.space.vocabulary)
        graphs.append(ep.graph)
        valid = pipe.valid_set(ep.state, mask,
                               engine.in_scope_words(ep.state, pipe.spec))
        ep.act(valid.actions[rng.integers(len(valid))] if len(valid) else "look")
    return graphs


@pytest.fixture(scope="module")
def pipe(microzork, corpus):
    return trainer.build_pipeline(microzork, corpus, trainer.TrainConfig())


def test_dense_gat_matches_per_node_loop(pipe):
    agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=5)
    graphs = walk_graphs(pipe, 200)
    sizes = [len(kg.nodes(g)) for g in graphs]
    assert max(sizes) > min(sizes)
    tracked = ["emb"] + [n for n in agent.params.names() if n.startswith("gat.")]
    weights = nm.Tensor(np.random.default_rng(0).normal(size=agent.cfg.gat_dim))

    def grads(fn, graph):
        agent.params.zero_grad()
        out = fn(graph)
        nm.backward(nm.sum_(nm.mul(out, weights)))
        return out.data, [agent.params[n].grad for n in tracked]

    for graph in graphs:
        dense, dense_grads = grads(lambda g: nm.take(agent.gat_embed([g]), 0), graph)
        ref, ref_grads = grads(lambda g: loop_gat_embed(agent, g), graph)
        assert np.max(np.abs(dense - ref)) <= 1e-12
        for name, d, r in zip(tracked, dense_grads, ref_grads):
            scale = max(np.max(np.abs(r)), 1e-300)
            assert np.max(np.abs(d - r)) / scale <= 1e-10, name


GAT_DIGEST = """
import hashlib
from kga2c import bundled_corpus_lines, bundled_game_text, engine, trainer
from kga2c.agent import AgentConfig, KgA2CAgent
from test_agent import walk_graphs
spec = engine.load_game(bundled_game_text("microzork"))
pipe = trainer.build_pipeline(spec, bundled_corpus_lines(), trainer.TrainConfig())
agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=5)
digest = hashlib.sha256()
for graph in walk_graphs(pipe, 200):
    digest.update(agent.gat_embed([graph]).data.tobytes())
print(digest.hexdigest())
"""


def test_dense_gat_is_bitwise_independent_of_the_hash_seed():
    """Fixed-seed runs are bitwise repeatable only if no set iteration order,
    which follows PYTHONHASHSEED, reaches the arithmetic."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    digests = {
        subprocess.run(
            [sys.executable, "-c", GAT_DIGEST], capture_output=True, text=True,
            check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2")
    }
    assert len(digests) == 1


def test_whole_agent_gradcheck(pipe):
    """Finite differences through the state embedding (encoders and GAT),
    the greedy decode's log-prob and the critic, over every GRU tensor and
    the template head.  Seed 14 is one whose greedy decode here fills two
    blanks."""
    cfg = AgentConfig(emb_dim=4, gru_hidden=4, obs_dim=4, gat_heads=2, gat_dim=4,
                      score_width=4, dec_hidden=4)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg, seed=14)
    ep = trainer.Episode(pipe.spec, 0, cfg.gru_hidden)
    ep.observe(pipe.space.vocabulary)
    # one step first, so the encoders start from carried, non-zero hiddens
    _, (ep.enc,) = agent.state_embedding([ep.obs], [ep.graph], [ep.enc])
    ep.act("open mailbox")
    mask = ep.observe(pipe.space.vocabulary)
    assert len(kg.nodes(ep.graph)) >= 5 and len(ep.graph) >= 1  # edges beyond self-loops

    def decode():
        s_t, _ = agent.state_embedding([ep.obs], [ep.graph], [ep.enc])
        return s_t, agent.decode_action(s_t, [mask], mode="greedy")

    def scalar():
        s_t, decoded = decode()
        return nm.take(nm.add(decoded.log_prob, agent.critic_value(s_t)), 0)

    # two blanks: the object GRU's second step starts from a non-zero hidden,
    # so its U is reached
    assert len(row_of(decode()[1], 0)) == 1 + 2
    names = [n for n in agent.params.names()
             if n.startswith(("gat.", "enc.combine.", "critic.", "dec.tmpl."))
             or n == "dec.ctx.W" or ".gru." in n]
    assert sum(n.startswith("gat.h") for n in names) == 2 * cfg.gat_heads
    assert sum(".gru." in n for n in names) == 3 * (len(CHANNELS) + 1)
    finite_difference_check(scalar, [agent.params[n] for n in names])
    # a tensor the scalar never reaches would pass as zeros
    unreached = [n for n in names if not np.any(agent.params[n].grad)]
    assert unreached == []


def test_template_head_is_a_gru_step_from_a_zero_hidden(pipe):
    """The template head equals ``nm.gru_cell`` from a zero hidden whose W
    and b hold the head's z and n blocks, whatever U and the r blocks are."""
    agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=3)
    p, H, dim = agent.params, agent.cfg.dec_hidden, agent.cfg.state_dim
    rng = np.random.default_rng(0)
    for gate in "zn":  # biases start at zero; make them count
        p[f"dec.tmpl.{gate}.b"].data = rng.normal(size=H)
    W = np.concatenate([p["dec.tmpl.z.W"].data, rng.normal(size=(dim, H)),
                        p["dec.tmpl.n.W"].data], axis=1)
    b = np.concatenate([p["dec.tmpl.z.b"].data, rng.normal(size=H), p["dec.tmpl.n.b"].data])
    gru = (nm.Tensor(W), nm.Tensor(rng.normal(size=(H, 3 * H))), nm.Tensor(b))
    s_t = nm.Tensor(rng.normal(size=(5, dim)))
    want = nm.gru_cell(s_t, nm.Tensor(np.zeros((5, H))), gru)
    assert np.abs(agent._template_hidden(s_t).data - want.data).max() <= 1e-14


def test_agents_share_the_values_of_the_tensors_they_share(pipe):
    """Initial values depend only on the seed, the name and the shape, so a
    ``full`` and a ``seq`` agent start with the same encoders, embedding and
    critic, though they allocate different decoders."""
    full = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=4).params
    seq = KgA2CAgent(pipe.space, pipe.model, AgentConfig(ablation="seq"), seed=4).params
    shared = set(full.names()) & set(seq.names())
    assert {n for n in shared if n.startswith("enc.")} == {
        n for n in full.names() if n.startswith("enc.")}
    assert {"emb", "critic.W1", "gat.out.W"} <= shared
    for name in shared:
        assert np.array_equal(full[name].data, seq[name].data), name


def test_whole_agent_gradcheck_through_a_shared_graph_row(pipe):
    """Two rows that share one graph, with different encoder hiddens, in one
    taped pass: ``gat_embed`` runs the GAT over the one graph and its row
    feeds both, so the row's gradient comes from two uses.  Outside
    ``fixed_parameters`` nothing is stored between calls, so every
    finite-difference evaluation sees the perturbed parameters."""
    cfg = AgentConfig(emb_dim=4, gru_hidden=4, obs_dim=4, gat_heads=2, gat_dim=4,
                      score_width=4, dec_hidden=4)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg, seed=0)
    ep = trainer.Episode(pipe.spec, 0, cfg.gru_hidden)
    ep.observe(pipe.space.vocabulary)
    _, (carried,) = agent.state_embedding([ep.obs], [ep.graph], [ep.enc])
    ep.act("open mailbox")
    mask = ep.observe(pipe.space.vocabulary)
    assert len(ep.graph) >= 1
    embedded = record_gat_blocks(agent)

    def scalar():
        s_t, _ = agent.state_embedding([ep.obs] * 2, [ep.graph] * 2, [ep.enc, carried])
        decoded = agent.decode_action(s_t, [mask] * 2, mode="greedy")
        return nm.sum_(nm.add(decoded.log_prob, agent.critic_value(s_t)))

    names = [n for n in agent.params.names() if n.startswith("gat.")]
    finite_difference_check(scalar, [agent.params[n] for n in names])
    assert embedded and set(embedded) == {1}  # one graph per pass, read twice
    assert all(np.any(agent.params[n].grad) for n in names)


# -- a batch equals its rows --------------------------------------------------

BATCH_TOL = 1e-12


def assert_close(batch, rows):
    assert np.abs(np.asarray(batch) - np.asarray(rows)).max(initial=0) <= BATCH_TOL


def row_of(decoded, b):
    """Row b's (chosen id, logits, probs) at each head that decoded it."""
    out = []
    for head in decoded.heads:
        for i in np.flatnonzero(head.rows == b):
            out.append((head.chosen[i], head.logits.data[i], head.probs.data[i]))
    return out


def walk_states(pipe, agent, count, seed=0):
    """(observation, graph, encoder hiddens, mask) along a random valid-action
    episode, with the encoder hiddens carried as a rollout carries them."""
    rng = np.random.default_rng(seed)
    states = []
    ep = trainer.Episode(pipe.spec, seed, agent.cfg.gru_hidden)
    while len(states) < count:
        mask = ep.observe(pipe.space.vocabulary)
        states.append((ep.obs, ep.graph, ep.enc, mask))
        _, (ep.enc,) = agent.state_embedding([ep.obs], [ep.graph], [ep.enc])
        valid = pipe.valid_set(ep.state, mask,
                               engine.in_scope_words(ep.state, pipe.spec))
        ep.act(valid.actions[rng.integers(len(valid))] if len(valid) else "look")
    return states


@pytest.fixture(scope="module")
def batch_agent(pipe):
    return KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=7)


@pytest.fixture(scope="module")
def states(pipe, batch_agent):
    return walk_states(pipe, batch_agent, 12)


def test_encoder_and_critic_batch_equals_rows(batch_agent, states):
    """Unequal text lengths, an empty text (T = 0) and carried hiddens."""
    agent = batch_agent
    picked = [states[0], states[5], states[11], states[3]]
    obs = [o for o, _, _, _ in picked]
    obs[2] = replace(obs[2], o_inv="", a_prev="")
    graphs = [g for _, g, _, _ in picked]
    encs = [e for _, _, e, _ in picked]
    assert len({len(agent._token_ids(o.o_desc)) for o in obs}) > 1
    s_t, encs2 = agent.state_embedding(obs, graphs, encs)
    values = agent.critic_value(s_t)
    for b in range(len(picked)):
        s_b, (enc_b,) = agent.state_embedding([obs[b]], [graphs[b]], [encs[b]])
        assert_close(s_t.data[b], s_b.data[0])
        assert_close(values.data[b], agent.critic_value(s_b).data[0])
        assert encs2[b].shape == (len(CHANNELS), agent.cfg.gru_hidden)
        assert not encs2[b].flags.writeable
        assert_close(encs2[b], enc_b)
    # the empty channels carry their hidden unchanged
    for ch in ("inv", "prev"):
        c = CHANNELS.index(ch)
        assert np.array_equal(encs2[2][c], encs[2][c])


def test_block_diagonal_gat_batch_equals_rows(batch_agent, pipe):
    agent = batch_agent
    graphs = walk_graphs(pipe, 30, seed=1)[::7]
    assert len({len(kg.nodes(g)) for g in graphs}) > 1
    batch = agent.gat_embed(graphs)
    assert batch.shape == (len(graphs), agent.cfg.gat_dim)
    for b, graph in enumerate(graphs):
        assert_close(batch.data[b], agent.gat_embed([graph]).data[0])


class Scripted:
    """Stands in for ``_choose``: each row's rng is a key into its script of
    choices, so a row picks the same ids batched or alone; ``None`` in a
    script is the greedy choice."""

    def __init__(self, scripts):
        self.rngs = [np.random.default_rng(i) for i in range(len(scripts))]
        self.left = {id(r): list(s) for r, s in zip(self.rngs, scripts)}

    def __call__(self, probs, rng, mode):
        pick = self.left[id(rng)].pop(0) if self.left[id(rng)] else None
        return int(np.argmax(probs)) if pick is None else pick


def test_decoder_batch_equals_rows(batch_agent, states, monkeypatch):
    """Templates with 0, 1 and 2 blanks in one batch: blank k runs over the
    rows with more than k blanks."""
    agent = batch_agent
    blanks = [agent.space.templates[t].blanks for t in (6, 7, 11, 11, 0)]
    assert blanks == [0, 1, 2, 2, 0]
    scripts = [[6], [7], [11], [11], [0]]  # objects: greedy, inside the mask
    picked = [states[i] for i in (1, 4, 8, 10, 2)]
    s_t, _ = agent.state_embedding([o for o, _, _, _ in picked],
                                   [g for _, g, _, _ in picked],
                                   [e for _, _, e, _ in picked])
    masks = [m for _, _, _, m in picked]
    choose = Scripted(scripts)
    monkeypatch.setattr(KgA2CAgent, "_choose", staticmethod(choose))
    batch = agent.decode_action(s_t, masks, choose.rngs)
    for b in range(len(picked)):
        one = Scripted([scripts[b]])
        monkeypatch.setattr(KgA2CAgent, "_choose", staticmethod(one))
        row = agent.decode_action(nm.Tensor(s_t.data[b:b + 1]), [masks[b]], one.rngs)
        got, want = row_of(batch, b), row_of(row, 0)
        assert batch.actions[b] == row.actions[0]
        assert [c for c, _, _ in got] == [c for c, _, _ in want]
        assert len(got) == 1 + blanks[b]
        assert_close(batch.log_prob.data[b], row.log_prob.data[0])
        for (_, logits, probs), (_, row_logits, row_probs) in zip(got, want):
            assert_close(logits, row_logits)
            assert_close(probs, row_probs)
        # the mask: exactly the same object entries are zero
        for (_, _, probs), (_, _, row_probs) in zip(got[1:], want[1:]):
            assert np.array_equal(probs == 0.0, row_probs == 0.0)


def test_seq_decoder_batch_equals_rows(pipe, states, monkeypatch):
    """Rows that emit the stop token at different positions, and one that
    runs to max_seq_words."""
    agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(ablation="seq"), seed=7)
    stop = agent.n_vocab
    scripts = [[stop], [3, stop], [5, 1, 2, 4], [2, 2, stop]]
    picked = states[:len(scripts)]
    s_t, _ = agent.state_embedding([o for o, _, _, _ in picked],
                                   [g for _, g, _, _ in picked],
                                   [e for _, _, e, _ in picked])
    choose = Scripted(scripts)
    monkeypatch.setattr(KgA2CAgent, "_choose", staticmethod(choose))
    batch = agent.decode_action(s_t, [m for _, _, _, m in picked], choose.rngs)
    vocabulary = agent.space.vocabulary
    for b in range(len(scripts)):
        got = row_of(batch, b)
        assert [c for c, _, _ in got] == scripts[b]
        assert batch.actions[b] == (
            " ".join(vocabulary[w] for w in scripts[b] if w != stop) or "look")
        one = Scripted([scripts[b]])
        monkeypatch.setattr(KgA2CAgent, "_choose", staticmethod(one))
        row = agent.decode_action(nm.Tensor(s_t.data[b:b + 1]), [picked[b][3]], one.rngs)
        want = row_of(row, 0)
        assert row.actions[0] == batch.actions[b]
        assert_close(batch.log_prob.data[b], row.log_prob.data[0])
        for (_, logits, _), (_, row_logits, _) in zip(got, want, strict=True):
            assert_close(logits, row_logits)


# -- the graph memo -----------------------------------------------------------


def record_gat_blocks(agent):
    """Shadow ``agent._gat_block`` so that each block pass appends the number
    of graphs it embedded to the returned list."""
    sizes = []
    block = agent._gat_block

    def recorded(graphs):
        sizes.append(len(graphs))
        return block(graphs)

    agent._gat_block = recorded
    return sizes


def gat_grads(agent, out, weights):
    agent.params.zero_grad()
    nm.backward(nm.sum_(nm.mul(out, weights)))
    return {n: agent.params[n].grad for n in agent.params.names() if n.startswith("gat.")}


def test_memo_rows_repeating_one_graph_equal_separate_fresh_calls(pipe):
    """A taped batch that repeats a graph embeds it once and reads its row
    for every repeat: values equal fresh calls, and each row's gradient adds
    into its graph's.  Inside the scope a pass stores its rows, and a later
    pass over graphs already stored reads them."""
    agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=11)
    g0, g1 = walk_graphs(pipe, 30, seed=2)[::29]
    assert g0 != g1
    graphs = [g0, g1, g0, g0]
    weights = nm.Tensor(np.random.default_rng(1).normal(size=(4, agent.cfg.gat_dim)))
    fresh = [agent.gat_embed([g]) for g in graphs]
    want = gat_grads(agent, nm.stack0([nm.take(f, 0) for f in fresh]), weights)
    embedded = record_gat_blocks(agent)
    out = agent.gat_embed(graphs)
    assert embedded == [2]  # the repeats embed nothing
    assert out.shape == (4, agent.cfg.gat_dim)
    for b, f in enumerate(fresh):
        assert_close(out.data[b], f.data[0])
    got = gat_grads(agent, out, weights)
    for name, grad in want.items():
        assert_close(got[name], grad)
    with agent.fixed_parameters():
        stored = agent.gat_embed(graphs)
        again = agent.gat_embed([g1, g0])
    assert embedded == [2, 2]  # the second pass in the scope embeds nothing
    assert np.array_equal(stored.data, out.data)
    assert np.array_equal(again.data, out.data[[1, 0]])


def test_memo_returns_the_block_when_every_graph_is_new(pipe):
    agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=7)
    graphs = walk_graphs(pipe, 30, seed=1)[::7]
    blocks = []
    block = agent._gat_block

    def kept(gs):
        blocks.append(block(gs))
        return blocks[-1]

    agent._gat_block = kept
    with agent.fixed_parameters():
        out = agent.gat_embed(graphs)
    assert blocks == [out]


def test_memo_no_grad_rows_never_reach_a_taped_pass(pipe):
    """The scope's rows carry no tape, and no taped pass reads them: a graph
    the scope embedded is embedded again by a taped pass after it, whose
    rows reach the gat.* gradients, and a graph only a taped pass embedded
    is embedded again by the next scope."""
    agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=3)
    graph, other = walk_graphs(pipe, 5)[-1], walk_graphs(pipe, 5)[0]
    assert graph != other
    embedded = record_gat_blocks(agent)
    with agent.fixed_parameters():
        untaped = agent.gat_embed([graph, graph])
        read = agent.gat_embed([graph])
    taped = agent.gat_embed([graph, other])
    with agent.fixed_parameters():
        late = agent.gat_embed([other])
    assert embedded == [1, 2, 1]
    assert not untaped._parents and taped._parents and not read._parents
    assert np.array_equal(untaped.data[0], read.data[0])
    # equal up to their blocks' round-off
    assert_close(taped.data, [read.data[0], late.data[0]])
    grads = gat_grads(agent, taped, nm.Tensor(np.ones((2, agent.cfg.gat_dim))))
    assert all(np.any(g) for g in grads.values())


def test_fixed_parameters_records_no_tape_without_no_grad(pipe):
    """Inside the scope no pass records a tape, with no ``nm.no_grad()`` of
    the caller's; an inner scope keeps it untaped, also once the inner one
    is left; leaving the outer scope tapes again, with the same values; and
    ``adam_step`` is refused inside."""
    agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=3)
    ep = trainer.Episode(pipe.spec, 0, agent.cfg.gru_hidden)
    mask = ep.observe(pipe.space.vocabulary)

    def one_pass():
        s_t, _ = agent.state_embedding([ep.obs], [ep.graph], [ep.enc])
        decoded = agent.decode_action(s_t, [mask], mode="greedy")
        return [s_t, agent.critic_value(s_t), decoded.log_prob]

    with agent.fixed_parameters():
        inside = one_pass()
        with agent.fixed_parameters():
            nested = one_pass()
        after_inner = one_pass()
        with pytest.raises(RuntimeError, match="fixed"):
            nm.adam_step(agent.params)
    outside = one_pass()
    assert not any(t._parents for t in inside + nested + after_inner)
    assert all(t._parents for t in outside)
    for untaped, taped in zip(inside, outside):
        assert np.array_equal(untaped.data, taped.data)
    assert agent.params.adam_t == 0


def test_adam_step_inside_the_scope_raises(pipe):
    agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=3)
    gat_grads(agent, agent.gat_embed(walk_graphs(pipe, 3)), nm.Tensor(1.0))
    before = agent.params["gat.out.W"].data.copy()
    with agent.fixed_parameters():
        with agent.fixed_parameters():  # an inner scope is the outer one
            pass
        with pytest.raises(RuntimeError, match="fixed"):
            nm.adam_step(agent.params)
    assert np.array_equal(agent.params["gat.out.W"].data, before)
    assert agent.params.adam_t == 0
    nm.adam_step(agent.params)  # allowed again once the scope is left
    assert not np.array_equal(agent.params["gat.out.W"].data, before)


def test_leaving_the_scope_drops_the_memo(pipe):
    """Only the outermost scope owns the memo; once it is left, a parameter
    change shows in the next scope's rows."""
    agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=3)
    graph = walk_graphs(pipe, 5)[-1]
    embedded = record_gat_blocks(agent)
    with agent.fixed_parameters():
        first = agent.gat_embed([graph]).data.copy()
        with agent.fixed_parameters():
            pass
        assert agent._gat_memo  # the inner scope left the memo in place
        agent.gat_embed([graph])
    assert agent._gat_memo is None and embedded == [1]
    agent.params["gat.out.b"].data = agent.params["gat.out.b"].data + 0.5
    with agent.fixed_parameters():
        second = agent.gat_embed([graph]).data
    assert embedded == [1, 1]
    assert np.array_equal(second, agent.gat_embed([graph]).data)
    assert not np.allclose(first, second)


def test_encode_cache_is_bounded_and_encodes_past_its_cap(pipe, monkeypatch):
    monkeypatch.setattr(agent_module, "ENCODE_CACHE_CAP", 5)
    agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=0)
    texts = [f"take {w} with {v}" for w in pipe.space.vocabulary[:6]
             for v in pipe.space.vocabulary[:3]] + ["Open The Mailbox", ""]
    for text in texts + texts:
        assert agent._token_ids(text) == tuple(tok.encode(pipe.model, text.lower()))
    assert len(agent._encode_cache) == 5
    assert set(agent._encode_cache) == set(texts[:5])


# -- the encoder memo ---------------------------------------------------------


def count_gru_rows(monkeypatch):
    """Count the rows of every ``nm.gru_sequence`` call, one entry a call."""
    rows = []
    gru_sequence = nm.gru_sequence

    def counted(X, h0, *args):
        rows.append(h0.shape[0])
        return gru_sequence(X, h0, *args)

    monkeypatch.setattr(nm, "gru_sequence", counted)
    return rows


def assert_hiddens_equal(got, want):
    assert got.shape == (len(CHANNELS), want.shape[1])
    assert np.array_equal(got, want)


def test_enc_memo_reads_a_repeated_pair_without_running_the_gru(
    batch_agent, states, monkeypatch
):
    agent = batch_agent
    obs, _, enc, _ = states[4]
    want, (want_enc,) = agent.encode_observation([obs], [enc])  # no scope, taped
    rows = count_gru_rows(monkeypatch)
    with agent.fixed_parameters():
        first, (enc1,) = agent.encode_observation([obs], [enc])
        second, (enc2,) = agent.encode_observation([obs], [enc])
    assert rows == [1] * len(CHANNELS)  # the second call runs no GRU
    for got, got_enc in ((first, enc1), (second, enc2)):
        assert np.array_equal(got.data, want.data)
        assert_hiddens_equal(got_enc, want_enc)


def test_enc_memo_new_rows_with_duplicates_equal_the_unmemoized_call(
    batch_agent, states, monkeypatch
):
    """Rows new to the memo, a duplicate among them, run once each, as the
    block the call without a memo runs, so both calls are bitwise equal; a
    row the memo held is read."""
    agent = batch_agent
    (o0, _, e0, _), (o1, _, e1, _), (o2, _, e2, _) = states[2], states[6], states[9]
    with nm.no_grad():
        want, want_encs = agent.encode_observation([o1, o2, o1], [e1, e2, e1])
        _, (want0,) = agent.encode_observation([o0], [e0])
        with agent.fixed_parameters():
            got, got_encs = agent.encode_observation([o1, o2, o1], [e1, e2, e1])
        rows = count_gru_rows(monkeypatch)
        with agent.fixed_parameters():
            agent.encode_observation([o0], [e0])
            _, mixed = agent.encode_observation([o0, o1, o2, o1], [e0, e1, e2, e1])
    assert np.array_equal(got.data, want.data)
    for b in range(3):
        assert_hiddens_equal(got_encs[b], want_encs[b])
        assert_hiddens_equal(mixed[b + 1], want_encs[b])
    assert_hiddens_equal(mixed[0], want0)
    assert rows == [1] * len(CHANNELS) + [2] * len(CHANNELS)


# -- each distinct row of a call once ------------------------------------------


def row_pass(kind, agent, pipe, states, monkeypatch):
    """For rows a and b of one kind: ``call(picks)``, the taped pass over
    them in that order (0 is a, 1 is b); the list that records the rows of
    each block the pass runs; the prefix of the tensors it reaches; the
    blocks per pass; and the method's scope memo, read after the call."""
    if kind == "encoder":
        (oa, _, ea, _), (ob, _, eb, _) = states[3], states[7]
        blocks = count_gru_rows(monkeypatch)
        return (lambda picks: agent.encode_observation(
                    [(oa, ob)[i] for i in picks], [(ea, eb)[i] for i in picks])[0],
                blocks, "enc.", len(CHANNELS), lambda: agent._enc_memo)
    ga, gb = walk_graphs(pipe, 30, seed=2)[::29]
    blocks = record_gat_blocks(agent)
    return (lambda picks: agent.gat_embed([(ga, gb)[i] for i in picks]),
            blocks, "gat.", 1, lambda: agent._gat_memo)


@pytest.mark.parametrize("kind", ["encoder", "gat"])
def test_a_taped_pass_runs_each_distinct_row_once(pipe, states, monkeypatch, kind):
    """Rows [a, b, a] run a and b once, as one block; rows 0 and 2 are
    bitwise equal, and each parameter's gradient is the sum of three
    one-row passes' within 1e-12 relative: the take's backward adds the
    repeat's gradient into a's row."""
    agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=7)
    call, blocks, prefix, per_pass, _ = row_pass(kind, agent, pipe, states, monkeypatch)
    picks = [0, 1, 0]
    out = call(picks)
    assert blocks == [2] * per_pass
    assert np.array_equal(out.data[0], out.data[2])
    assert not np.array_equal(out.data[0], out.data[1])
    weights = np.random.default_rng(5).normal(size=out.shape)
    names = [n for n in agent.params.names() if n.startswith(prefix)]
    agent.params.zero_grad()
    nm.backward(nm.sum_(nm.mul(out, nm.Tensor(weights))))
    got = {n: agent.params[n].grad.copy() for n in names}
    agent.params.zero_grad()
    for pick, w in zip(picks, weights):  # gradients add across the passes
        nm.backward(nm.sum_(nm.mul(call([pick]), nm.Tensor(w[None]))))
    for name in names:
        want = agent.params[name].grad
        assert np.any(want), name
        assert np.abs(got[name] - want).max() <= 1e-12 * np.abs(want).max(), name


@pytest.mark.parametrize("kind", ["encoder", "gat"])
def test_the_scope_runs_new_duplicates_once_and_stores_them(
    pipe, states, monkeypatch, kind
):
    """Inside the scope a call's new rows run once each, a repeat included,
    and are stored; a later call over them runs nothing."""
    agent = KgA2CAgent(pipe.space, pipe.model, AgentConfig(), seed=7)
    call, blocks, _, per_pass, memo = row_pass(kind, agent, pipe, states, monkeypatch)
    with agent.fixed_parameters():
        first = call([0, 1, 0])
        assert blocks == [2] * per_pass and len(memo()) == 2 * per_pass
        again = call([1, 0, 0])
    assert blocks == [2] * per_pass
    assert np.array_equal(first.data[0], first.data[2])
    assert np.array_equal(again.data, first.data[[1, 0, 0]])


def test_enc_memo_is_untouched_by_a_taped_pass(batch_agent, states, monkeypatch):
    """A taped pass runs outside the scope, where no memo is kept: it runs
    every row, including one the scope before it stored, fills nothing, and
    reaches every encoder gradient; the next scope starts empty."""
    agent = batch_agent
    (o0, _, e0, _), (o1, _, e1, _) = states[5], states[8]
    rows = count_gru_rows(monkeypatch)
    with agent.fixed_parameters():
        untaped, _ = agent.encode_observation([o0], [e0])
        assert len(agent._enc_memo) == len(CHANNELS)
    taped, _ = agent.encode_observation([o0, o1], [e0, e1])
    with agent.fixed_parameters():
        assert agent._enc_memo == {}
        agent.encode_observation([o0], [e0])
    assert rows == [1] * len(CHANNELS) + [2] * len(CHANNELS) + [1] * len(CHANNELS)
    assert not untaped._parents and taped._parents
    agent.params.zero_grad()
    nm.backward(nm.sum_(taped))
    for ch in CHANNELS:
        for part in ("W", "U", "b"):
            assert np.any(agent.params[f"enc.{ch}.gru.{part}"].grad), (ch, part)
