"""CLI exit codes: 0 success, 1 usage error, 2 runtime failure."""

import io
import json
import re
from dataclasses import replace

import pytest

from kga2c import bundled_corpus_lines, cli, engine, numerics as nm, trainer
from kga2c.agent import KgA2CAgent


def _save_checkpoint(spec, ablation, path):
    cfg = trainer.TrainConfig().with_ablation(ablation)
    pipe = trainer.build_pipeline(spec, bundled_corpus_lines(), cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent)
    nm.save_checkpoint(agent.params, path)
    return agent


def test_malformed_valid_trace_exits_2(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_text("{}\n")
    assert cli.main(["inspect", "valid-trace", str(path)]) == 2
    assert "KeyError" in capsys.readouterr().err


def test_bad_flag_exits_1(capsys):
    assert cli.main(["train", "--game", "corridor", "--no-such-flag"]) == 1
    assert "usage error" in capsys.readouterr().err
    # play has no --seed: every game starts from its one state
    assert cli.main(["play", "--game", "corridor", "--seed", "3"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_out_of_range_p_m_exits_2_before_any_worker_runs(tmp_path, capsys, caplog):
    argv = ["train", "--game", "corridor", "--updates", "1", "--p-m", "1.5",
            "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "p_m" in err
    assert "Traceback" not in err + caplog.text
    assert not (tmp_path / "run").exists()


def test_fractional_worker_count_in_a_config_exits_2_naming_the_field(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"workers": 1.5}))
    argv = ["train", "--game", "corridor", "--config", str(path),
            "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    assert "config field workers must be int, got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_zero_agent_size_in_a_config_exits_2_naming_the_field(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"ablation": "seq", "agent": {"max_seq_words": 0}}))
    argv = ["train", "--game", "corridor", "--config", str(path),
            "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    assert "max_seq_words must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_inspect_checkpoint_exits_0(corridor, tmp_path, capsys):
    path = tmp_path / "checkpoint.bin"
    agent = _save_checkpoint(corridor, "full", path)
    assert cli.main(["inspect", "checkpoint", str(path)]) == 0
    out = capsys.readouterr().out
    total = sum(agent.params[n].data.size for n in agent.params.names())
    assert out.splitlines()[-1].split() == ["total", str(total)]
    assert "dec.tmpl.W" in out and "tdqn" not in out


def test_eval_refuses_checkpoint_of_another_ablation(corridor, tmp_path, capsys):
    path = tmp_path / "seq.bin"
    _save_checkpoint(corridor, "seq", path)
    argv = ["eval", "--game", "corridor", "--checkpoint", str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "'dec.tmpl.W' is missing" in err and "'full'" in err


def test_agent_refuses_unexpected_parameter(corridor, tmp_path):
    path = tmp_path / "old.bin"
    agent = _save_checkpoint(corridor, "full", path)
    params = nm.load_checkpoint(path)
    params.add("tdqn.tmpl.W", (4, 4))
    with pytest.raises(ValueError, match="'tdqn.tmpl.W' is unexpected"):
        KgA2CAgent(agent.space, agent.model, agent.cfg, params=params)
    params = nm.load_checkpoint(path)
    params.tensors["critic.b1"] = nm.Tensor(params["critic.b1"].data[:3])
    with pytest.raises(ValueError, match="'critic.b1' has shape"):
        KgA2CAgent(agent.space, agent.model, agent.cfg, params=params)


def test_eval_refuses_nine_tensor_gru_checkpoint(corridor, tmp_path, capsys):
    """A checkpoint from before GRUs were packed holds each as nine tensors,
    ``*.gru.{Wz,Uz,bz,...,bn}``; it is refused, naming a missing tensor."""
    agent = _save_checkpoint(corridor, "full", tmp_path / "packed.bin")
    old = nm.ParameterSet()
    for name in agent.params.names():
        data = agent.params[name].data
        prefix, _, kind = name.rpartition(".")
        if not prefix.endswith(".gru"):
            old.tensors[name] = nm.Tensor(data)
            continue
        hid = data.shape[-1] // 3
        for k, gate in enumerate("zrn"):
            old.tensors[f"{prefix}.{kind}{gate}"] = nm.Tensor(data[..., k * hid:(k + 1) * hid])
    path = tmp_path / "nine.bin"
    nm.save_checkpoint(old, path)
    argv = ["eval", "--game", "corridor", "--checkpoint", str(path)]
    assert cli.main(argv) == 2
    assert "'enc.desc.gru.U' is missing" in capsys.readouterr().err


def test_eval_refuses_a_template_gru_checkpoint(microzork, tmp_path, capsys):
    """A checkpoint from when the template head was a GRU holds
    ``dec.tmpl.gru.{W,U,b}`` in place of ``dec.tmpl.{z,n}.{W,b}``; it is
    refused, naming the first tensor that does not fit."""
    agent = _save_checkpoint(microzork, "full", tmp_path / "head.bin")
    old = nm.load_checkpoint(tmp_path / "head.bin")
    for name in [n for n in old.names() if n.startswith(("dec.tmpl.z.", "dec.tmpl.n."))]:
        del old.tensors[name]
    old.gru("dec.tmpl.gru", agent.cfg.state_dim, agent.cfg.dec_hidden)
    path = tmp_path / "gru.bin"
    nm.save_checkpoint(old, path)
    argv = ["eval", "--game", "microzork", "--checkpoint", str(path)]
    assert cli.main(argv) == 2
    assert "'dec.tmpl.gru.U' is unexpected" in capsys.readouterr().err


def test_seq_eval_trace_has_a_row_per_step(corridor, corpus, tmp_path, capsys):
    """Under seq a trace row has no templates, and its object list is the
    word decoder's top words at each position, stop token included."""
    spec = replace(corridor, turn_cap=20)
    cfg = trainer.TrainConfig().with_ablation("seq")
    pipe = trainer.build_pipeline(spec, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent)
    trace: list = []
    trainer.evaluate(agent, pipe, 1, trace=trace)
    ep = trainer.Episode(spec, pipe.space.vocabulary)
    for row in trace:  # replaying the traced actions ends the episode exactly
        assert not ep.done
        ep.act(row["action"])
    assert ep.done and trace
    for row in trace:
        assert row["template_probs"] == []
        greedy = [slot[0][0] for slot in row["object_probs"]]
        words = [w for w in greedy if w != trainer.STOP_WORD]
        assert greedy[len(words):] in ([], [trainer.STOP_WORD])
        assert row["action"] == (" ".join(words) or "look")
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in trace))
    assert cli.main(["inspect", "valid-trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("  Action: ") == out.count("  Object probs [0]: ") == len(trace)


def test_scripted_play_session(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("take key\n:graph\n:quit\n"))
    assert cli.main(["play", "--game", "microzork"]) == 0
    out = capsys.readouterr().out
    assert "Taken." in out
    assert "digraph" in out
    assert '"you" -> "key" [label="have"];' in out


def test_play_load_starts_a_fresh_graph(monkeypatch, capsys, tmp_path):
    """After :load the graph is the loaded state's alone: the move made
    from the restored room adds no edge from the room left behind."""
    save = tmp_path / "s.bin"
    script = f":save {save}\neast\neast\n:load {save}\neast\n:graph\n:quit\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    assert cli.main(["play", "--game", "corridor"]) == 0
    out = capsys.readouterr().out
    graph = out[out.index("digraph"):]
    assert '"gate" -> "hall" [label="east"];' in graph
    assert '"you" -> "hall" [label="in"];' in graph
    assert '"bend" -> "hall"' not in graph
    assert '"you" -> "bend"' not in graph


def test_play_survives_bad_loads(corridor, monkeypatch, capsys, tmp_path):
    """A :load of another game's save or of a missing file prints the
    reason and leaves the session where it was."""
    foreign = tmp_path / "corridor.bin"
    foreign.write_bytes(engine.snapshot(engine.reset(corridor)[0]))
    missing = tmp_path / "missing.bin"
    script = f":load {foreign}\n:load {missing}\nlook\n:quit\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    assert cli.main(["play", "--game", "microzork"]) == 0
    out = capsys.readouterr().out
    assert f"Cannot load {foreign}: not a state of game 'microzork'" in out
    assert f"Cannot load {missing}: " in out
    assert "Restored" not in out
    assert out.count("Field") == 2  # the start, then the look
    assert "Final score: 0" in out


def test_eval_trace_round_trips_through_inspect(corridor, tmp_path, capsys):
    ckpt = tmp_path / "checkpoint.bin"
    _save_checkpoint(corridor, "full", ckpt)
    trace = tmp_path / "trace.jsonl"
    argv = ["eval", "--game", "corridor", "--checkpoint", str(ckpt),
            "--trace", str(trace)]
    assert cli.main(argv) == 0
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert rows
    # greedy eval is deterministic, so eval plays one episode and prints its score
    assert re.fullmatch(r"eval score=-?\d+\n", capsys.readouterr().out)
    assert cli.main(argv + ["--episodes", "2"]) == 1
    for row in rows:
        assert row["mask"] == sorted(row["mask"]) and len(row["mask"]) == row["mask_size"]
        assert row["graph"] == sorted(row["graph"])
        assert any(s == "you" and r == "in" for s, r, _ in row["graph"])
    capsys.readouterr()
    assert cli.main(["inspect", "valid-trace", str(trace)]) == 0
    out = capsys.readouterr().out
    last = rows[-1]
    assert out.count("  Graph: ") == out.count("  Mask: ") == len(rows)
    assert f"  Mask: {' '.join(last['mask'])}\n" in out
    assert f"  Graph: {'; '.join(' '.join(t) for t in last['graph'])}\n" in out
    # a trace written before rows carried the graph and the mask still prints
    old = {k: v for k, v in last.items() if k not in ("graph", "mask")}
    trace.write_text(json.dumps(old) + "\n")
    assert cli.main(["inspect", "valid-trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert f"  Action: {last['action']}" in out
    assert "Graph" not in out and "Mask:" not in out
