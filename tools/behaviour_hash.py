"""Fixed-seed behaviour check: one hash per bundled game and ablation.

Usage, from the root of a checkout:

    python3 tools/behaviour_hash.py
    python3 tools/behaviour_hash.py --dump runs.json
    python3 tools/behaviour_hash.py --compare parent.json change.json

For each game and ablation it trains 4 updates (seed 3, 2 workers, unroll 4)
and then plays one greedy eval episode with trace rows, with the game's turn
cap at 40.  Each output line is ``game ablation hash``, where the hash is a
blake2b digest of the ``train_step`` rows, the eval result and the trace.  A
refactor that claims unchanged behaviour prints the same lines as its parent.

``--dump FILE`` prints the same lines and also writes every run's unhashed
rows, eval result and trace to FILE as JSON.  ``--compare PARENT CHANGE``
reads two such files, runs nothing, and prints per game and ablation the
worst relative difference over the rows' values, with the update and the
row key where it occurs (``at=-`` when no value differs), and whether the
eval results and the traces' actions are equal; a trace that is empty in
the parent is skipped.  It exits 1 if a row value differs by more than 1e-12 relative, if
a NaN or an infinity stands where the parent has another value, if a run is
missing, or if any eval result or action differs, so a refactor whose
arithmetic changes only by round-off passes where its hashes do not.

The tier-1 suite pins every run this way, each game under each ablation,
against ``tests/data/behaviour.json``; a change of fixed-seed behaviour
re-pins it with ``--dump tests/data/behaviour.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kga2c import BUNDLED_GAMES, bundled_corpus_lines, bundled_game_text  # noqa: E402
from kga2c import engine, trainer  # noqa: E402
from kga2c.agent import ABLATIONS, KgA2CAgent  # noqa: E402

SEED, WORKERS, UNROLL, UPDATES, TURN_CAP = 3, 2, 4, 4, 40
ROW_RTOL = 1e-12


def behaviour_run(spec: engine.GameSpec, corpus: list[str], ablation: str) -> dict:
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
    return {"rows": rows, "eval": result, "trace": trace}


def behaviour_runs(ablations=ABLATIONS, games=BUNDLED_GAMES):
    """(game, ablation, run) for each of ``games`` and each ablation."""
    corpus = bundled_corpus_lines()
    for game in games:
        spec = replace(engine.load_game(bundled_game_text(game)), turn_cap=TURN_CAP)
        for ablation in ablations:
            yield game, ablation, behaviour_run(spec, corpus, ablation)


def behaviour_hash(run: dict) -> str:
    blob = json.dumps(run, sort_keys=True)
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def relative_difference(a, b) -> float:
    """|a - b| over the larger magnitude; inf for unequal non-numbers, and
    for a NaN or an infinity that does not equal the other value."""
    if a == b:
        return 0.0
    if (isinstance(a, (int, float)) and isinstance(b, (int, float))
            and math.isfinite(a) and math.isfinite(b)):
        return abs(a - b) / max(abs(a), abs(b))
    return math.inf


def worst_row_difference(parent: list[dict], change: list[dict]
                         ) -> tuple[float, int | None, str | None]:
    """(the worst relative difference over the rows' values, the update and
    the key where it first occurs); update and key are None when nothing
    differs, and the key is None when the rows' lengths or keys differ."""
    if len(parent) != len(change):
        return math.inf, None, None
    worst, at, at_key = 0.0, None, None
    for update, (p, c) in enumerate(zip(parent, change)):
        if p.keys() != c.keys():
            return math.inf, update, None
        for key in p:
            diff = relative_difference(p[key], c[key])
            if diff > worst:
                worst, at, at_key = diff, update, key
    return worst, at, at_key


def compare(parent_path: str, change_path: str) -> int:
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    failed = False
    for game, runs in parent.items():
        for ablation, p in runs.items():
            c = change.get(game, {}).get(ablation)
            if c is None:
                print(game, ablation, "missing from", change_path)
                failed = True
                continue
            worst, update, key = worst_row_difference(p["rows"], c["rows"])
            at = "-" if update is None else f"{key or 'keys'}@{update}"
            eval_equal = p["eval"] == c["eval"]
            if p["trace"]:
                actions_equal = ([r["action"] for r in p["trace"]]
                                 == [r["action"] for r in c["trace"]])
                actions = "equal" if actions_equal else "DIFFER"
            else:
                actions_equal, actions = True, "skipped (empty in parent)"
            print(f"{game} {ablation} rows_rel={worst:.2g} at={at} "
                  f"eval={'equal' if eval_equal else 'DIFFERS'} actions={actions}")
            failed |= not (worst <= ROW_RTOL and eval_equal and actions_equal)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--dump", metavar="FILE",
                       help="also write the unhashed runs to FILE as JSON")
    group.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                       help="compare two --dump files within round-off")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    runs: dict[str, dict[str, dict]] = {}
    for game, ablation, run in behaviour_runs():
        runs.setdefault(game, {})[ablation] = run
        print(game, ablation, behaviour_hash(run), flush=True)
    if args.dump:
        Path(args.dump).write_text(json.dumps(runs, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
