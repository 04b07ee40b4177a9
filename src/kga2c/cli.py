"""Command-line front end: human play, training, evaluation, ablation sweeps,
artifact inspection, and tokenizer training.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import BUNDLED_GAMES, bundled_corpus_lines, bundled_game_text
from . import engine, kg, numerics as nm, oracle, tokenizer as tok, trainer
from .agent import ABLATIONS, KgA2CAgent

log = logging.getLogger("kga2c")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 1
        raise UsageError(message)


def _load_spec(game: str) -> engine.GameSpec:
    if game in BUNDLED_GAMES:
        return engine.load_game(bundled_game_text(game))
    path = Path(game)
    if not path.exists():
        raise FileNotFoundError(f"game file not found: {game}")
    return engine.load_game_file(path)


def _load_corpus(path: str | None) -> list[str]:
    if path is None:
        return bundled_corpus_lines()
    return [l for l in Path(path).read_text("utf-8").splitlines() if l.strip()]


def _build_config(args) -> trainer.TrainConfig:
    cfg = (
        trainer.TrainConfig.from_file(args.config)
        if getattr(args, "config", None)
        else trainer.TrainConfig()
    )
    overrides = {}
    for field, attr in (
        ("seed", "seed"), ("updates", "updates"), ("workers", "workers"),
        ("p_m", "p_m"), ("checkpoint_every", "checkpoint_every"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[field] = value
    if overrides:
        cfg = replace(cfg, **overrides)
    if getattr(args, "ablation", None):
        cfg = cfg.with_ablation(args.ablation)
    return cfg


# ---------------------------------------------------------------------------
# play


def cmd_play(args) -> int:
    spec = _load_spec(args.game)
    corpus = _load_corpus(args.corpus)
    freq = trainer.FrequencyTable.from_lines(corpus)
    space = trainer.build_action_space(spec.templates, spec.vocabulary, freq)
    ep = trainer.Episode(spec, space.vocabulary)
    print(ep.obs.o_desc)
    out = sys.stdout
    while True:
        out.write("> ")
        out.flush()
        line = sys.stdin.readline()
        if not line:
            break
        command = line.strip()
        if not command:
            continue
        if command == ":quit":
            break
        if command == ":valid":
            valid = oracle.valid_actions(ep.state, spec, space, budget=None)
            for action in valid.actions:
                print(action)
            continue
        if command == ":graph":
            print(kg.export_graph(ep.graph, "dot"))
            continue
        if command.startswith(":save"):
            path = command.split(None, 1)[1] if " " in command else "save.bin"
            Path(path).write_bytes(engine.snapshot(ep.state))
            print(f"Saved to {path}.")
            continue
        if command.startswith(":load"):
            path = command.split(None, 1)[1] if " " in command else "save.bin"
            try:
                state = engine.restore(Path(path).read_bytes(), spec)
            except (OSError, engine.SnapshotError) as exc:
                print(f"Cannot load {path}: {exc}")
                continue
            # a fresh episode: the graph and the last action belong to the
            # abandoned timeline
            ep = trainer.Episode(spec, space.vocabulary, state=state)
            print(f"Restored from {path}.")
            continue
        reward = ep.act(command)
        print(ep.obs.o_game)
        if args.dump_valid:
            valid = oracle.valid_actions(ep.state, spec, space, budget=None)
            print("valid:", " | ".join(valid.actions))
        if reward:
            print(f"[Your score just went up by {reward}. Total: {ep.obs.score}]")
        if ep.done:
            print(f"*** The game is over. Final score: {ep.obs.score} ***")
            return 0
    print(f"Final score: {ep.obs.score}")
    return 0


# ---------------------------------------------------------------------------
# train / eval / ablate


def cmd_train(args) -> int:
    spec = _load_spec(args.game)
    corpus = _load_corpus(args.corpus)
    cfg = _build_config(args)
    out_dir = Path(args.out or "runs/latest")

    def progress(row):
        if row["update"] % max(1, args.log_every) == 0:
            log.info(
                "update %d steps %d score %.2f loss %.4f",
                row["update"], row["steps"], row["mean_score"], row["loss_total"],
            )

    result = trainer.train(spec, corpus, cfg, out_dir=out_dir, on_update=progress)
    print(
        f"trained {cfg.updates} updates on {spec.name} "
        f"({result.metrics[-1]['steps'] if result.metrics else 0} steps); "
        f"eval score={result.eval_score:g}"
    )
    print(f"artifacts in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    spec = _load_spec(args.game)
    corpus = _load_corpus(args.corpus)
    cfg = _build_config(args)
    pipe = trainer.build_pipeline(spec, corpus, cfg)
    params = nm.load_checkpoint(args.checkpoint)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, params=params)
    trace: list | None = [] if args.trace else None
    score, _, _ = trainer.evaluate(agent, pipe, 1, seed=cfg.seed, trace=trace)
    if trace is not None:
        Path(args.trace).write_text(
            "\n".join(json.dumps(row) for row in trace) + "\n", encoding="utf-8"
        )
    print(f"eval score={score:g}")
    return 0


def cmd_ablate(args) -> int:
    spec = _load_spec(args.game)
    corpus = _load_corpus(args.corpus)
    base = _build_config(args)
    out_root = Path(args.out or "runs/ablate")
    for name in ABLATIONS:
        cfg = base.with_ablation(name)
        out_dir = out_root / name
        log.info("ablation %s -> %s", name, out_dir)
        result = trainer.train(spec, corpus, cfg, out_dir=out_dir)
        print(f"{name}: eval score={result.eval_score:g} ({out_dir})")
    return 0


# ---------------------------------------------------------------------------
# inspect / tokenize


def cmd_inspect(args) -> int:
    kind = args.kind
    path = Path(args.path)
    if not path.exists():
        raise FileNotFoundError(f"artifact not found: {path}")
    if kind == "graph-dump":
        graph = kg.import_triples(path.read_text("utf-8"))
        print(kg.export_graph(graph, "dot"))
    elif kind == "checkpoint":
        params = nm.load_checkpoint(path)
        total = 0
        print(f"{'name':40} {'shape':>14} {'params':>10}")
        for name in params.names():
            shape = params[name].data.shape
            count = int(np.prod(shape)) if shape else 1
            total += count
            print(f"{name:40} {str(shape):>14} {count:>10}")
        print(f"{'total':40} {'':>14} {total:>10}")
    elif kind == "valid-trace":
        for lineno, line in enumerate(path.read_text("utf-8").splitlines(), 1):
            if not line.strip():
                continue
            row = json.loads(line)
            tprobs = ", ".join(f"{n}: {p}" for n, p in row["template_probs"])
            print(f"step {lineno}")
            print(f"  Template probs: {tprobs}")
            for i, slot in enumerate(row.get("object_probs", [])):
                oprobs = ", ".join(f"{n}: {p}" for n, p in slot)
                print(f"  Object probs [{i}]: {oprobs}")
            print(f"  Mask size: {row['mask_size']}")
            if "mask" in row:
                print(f"  Mask: {' '.join(row['mask'])}")
            if "graph" in row:
                print(f"  Graph: {'; '.join(' '.join(t) for t in row['graph'])}")
            print(f"  Action: {row['action']}")
    else:
        raise UsageError(f"unknown artifact kind {kind!r}")
    return 0


def cmd_tokenize(args) -> int:
    corpus = _load_corpus(args.corpus)
    model = tok.train_unigram(corpus, args.target_size)
    if args.out:
        model.save(args.out)
        print(f"trained {len(model)} pieces -> {args.out}")
    if args.encode is not None:
        ids = tok.encode(model, args.encode)
        print(" ".join(model.piece(i) for i in ids))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="kga2c", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--game", required=True,
                       help=f"bundled name ({', '.join(BUNDLED_GAMES)}) or a file path")
        p.add_argument("--corpus", help="playthrough corpus file (default: bundled)")
        if seeded:
            p.add_argument("--seed", type=int, default=None)

    p_play = sub.add_parser("play", help="interactive REPL over the engine")
    common(p_play, seeded=False)
    p_play.add_argument("--dump-valid", action="store_true",
                        help="print the oracle's valid set after every step")
    p_play.set_defaults(fn=cmd_play)

    p_train = sub.add_parser("train", help="train an agent")
    common(p_train)
    p_train.add_argument("--config", help="JSON or key = value config file")
    p_train.add_argument("--updates", type=int, default=None)
    p_train.add_argument("--workers", type=int, default=None)
    p_train.add_argument("--ablation", choices=ABLATIONS, default=None)
    p_train.add_argument("--p-m", dest="p_m", type=float, default=None)
    p_train.add_argument("--out", help="output directory")
    p_train.add_argument("--checkpoint-every", dest="checkpoint_every",
                         type=int, default=None)
    p_train.add_argument("--log-every", type=int, default=10)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint greedily")
    common(p_eval)
    p_eval.add_argument("--config", help="JSON or key = value config file")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--ablation", choices=ABLATIONS, default=None)
    p_eval.add_argument("--trace", help="write an action-trace JSONL here")
    p_eval.set_defaults(fn=cmd_eval)

    p_ablate = sub.add_parser("ablate", help="run every ablation configuration")
    common(p_ablate)
    p_ablate.add_argument("--config", help="JSON or key = value config file")
    p_ablate.add_argument("--updates", type=int, default=None)
    p_ablate.add_argument("--workers", type=int, default=None)
    p_ablate.add_argument("--p-m", dest="p_m", type=float, default=None)
    p_ablate.add_argument("--out", help="output root directory")
    p_ablate.set_defaults(fn=cmd_ablate)

    p_inspect = sub.add_parser("inspect", help="render an artifact as text")
    p_inspect.add_argument("kind", choices=["graph-dump", "checkpoint", "valid-trace"])
    p_inspect.add_argument("path")
    p_inspect.set_defaults(fn=cmd_inspect)

    p_tok = sub.add_parser("tokenize", help="train a subword model from a corpus")
    p_tok.add_argument("--corpus", help="corpus file (default: bundled)")
    p_tok.add_argument("--target-size", type=int, default=512)
    p_tok.add_argument("--out", help="model file to write")
    p_tok.add_argument("--encode", help="segment this text and print the pieces")
    p_tok.set_defaults(fn=cmd_tokenize)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("KGA2C_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # str() of a KeyError is only the key; its repr names the type too
        detail = repr(exc) if isinstance(exc, LookupError) else str(exc)
        print(f"error: {detail}", file=sys.stderr)
        log.debug("failure detail", exc_info=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
