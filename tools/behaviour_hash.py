"""Fixed-seed behaviour check: one hash per bundled game and ablation.

Usage, from the root of a checkout:

    python3 tools/behaviour_hash.py

For each game and ablation it trains 4 updates (seed 3, 2 workers, unroll 4)
and then plays one greedy eval episode with trace rows, with the game's turn
cap at 40.  Each output line is ``game ablation hash``, where the hash is a
blake2b digest of the ``train_step`` rows, the eval result and the trace.  A
refactor that claims unchanged behaviour prints the same lines as its parent.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kga2c import BUNDLED_GAMES, bundled_corpus_lines, bundled_game_text  # noqa: E402
from kga2c import engine, trainer  # noqa: E402
from kga2c.agent import ABLATIONS, KgA2CAgent  # noqa: E402

SEED, WORKERS, UNROLL, UPDATES, TURN_CAP = 3, 2, 4, 4, 40


def behaviour_hash(spec: engine.GameSpec, corpus: list[str], ablation: str) -> str:
    cfg = trainer.TrainConfig(workers=WORKERS, unroll=UNROLL, seed=SEED)
    cfg = cfg.with_ablation(ablation)
    pipe = trainer.build_pipeline(spec, corpus, cfg)
    agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
    workers = [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
    rows = []
    for _ in range(UPDATES):
        batch = trainer.run_rollouts(workers, agent, cfg)
        rows.append(trainer.train_step(batch, agent, cfg))
    trace: list = []
    result = trainer.evaluate(agent, pipe, 1, seed=cfg.seed, trace=trace)
    blob = json.dumps({"rows": rows, "eval": result, "trace": trace}, sort_keys=True)
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def main() -> None:
    corpus = bundled_corpus_lines()
    for game in BUNDLED_GAMES:
        spec = replace(engine.load_game(bundled_game_text(game)), turn_cap=TURN_CAP)
        for ablation in ABLATIONS:
            print(game, ablation, behaviour_hash(spec, corpus, ablation), flush=True)


if __name__ == "__main__":
    main()
