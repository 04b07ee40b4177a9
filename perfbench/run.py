"""Benchmark of the KG-A2C training and evaluation loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

It drives the package only through the loop ``kga2c train`` and ``kga2c eval``
run: ``trainer.build_pipeline``, ``KgA2CAgent``, ``trainer.Worker``,
``trainer.run_rollouts``, ``trainer.train_step`` and ``trainer.evaluate``.
Closed loop, one process, no threads.  A run repeats one unit of work, a
*repetition* (fresh set-up, then a fixed number of updates or one greedy
episode), under seeds derived from ``--seed`` until ``--seconds`` is spent.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps each
layer's public functions from outside and reports the per-layer metrics.
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from kga2c import bundled_corpus_lines, bundled_game_text, engine, trainer  # noqa: E402
from kga2c.agent import KgA2CAgent  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer, p50, patched  # noqa: E402


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "eval"
    game: str
    ablation: str
    rep_updates: int  # updates per train repetition; eval repetitions are one episode


# Train repetitions are long enough (25 and 80 updates) for the valid-set
# cache to grow as it does in a training run.
WORKLOADS = {
    "train-microzork": Workload("train", "microzork", "full", 25),
    "train-corridor-a2c": Workload("train", "corridor", "a2c", 80),
    "eval-microzork": Workload("eval", "microzork", "full", 0),
}

# Recorded valid-set requests per run re-derived by brute force.
GATE_STATES = 32
# Set-ups timed in an untraced repetition 0; a train run may hold only one
# repetition, and setup_s is their median.
SETUPS = 5


def rep_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


@dataclass
class Rep:
    """What one repetition did and how long it took."""

    seed: int
    setups: list[float]  # seconds per set-up; the last one's objects are used
    op_s: list[float] = field(default_factory=list)  # per update or episode
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    rows: list[dict] = field(default_factory=list)  # train_step rows or episodes
    degraded: int = 0
    cache_entries: int | None = None
    error: tuple[str, str] | None = None  # (check, detail) of an operation that raised
    spans: tuple[int, int] = (0, 0)  # index range in the tracer

    @property
    def wall_s(self) -> float:
        return sum(self.setups) + sum(self.op_s)


class Bench:
    """One workload's fixed inputs plus what its repetitions record for the
    correctness gate."""

    def __init__(self, name: str):
        self.name = name
        self.w = WORKLOADS[name]
        self.spec = engine.load_game(bundled_game_text(self.w.game))
        self.corpus = bundled_corpus_lines()
        self.space = None
        self.recording = False  # set for repetition 0 only, whose seed fixes its work
        self.valid_calls: list[tuple] = []
        self.eval_steps = 0

    def config(self, seed: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(seed=seed).with_ablation(self.w.ablation)

    def recorders(self) -> list[tuple]:
        """Wrappers active in both modes, which read no clock: train runs
        record each valid-set request of repetition 0 for the gate, eval runs
        count env steps."""

        def record_valid(valid_set):
            def recorded(pipe, state, mask_words, in_scope, *args, **kwargs):
                result = valid_set(pipe, state, mask_words, in_scope, *args, **kwargs)
                if self.recording:
                    self.space = pipe.space
                    self.valid_calls.append(
                        (state, frozenset(mask_words) | frozenset(in_scope), result)
                    )
                return result
            return recorded

        def count_steps(step):
            def counted(*args, **kwargs):
                self.eval_steps += 1
                return step(*args, **kwargs)
            return counted

        if self.w.kind == "train":
            return [(trainer.Pipeline, "valid_set", record_valid)]
        return [(engine, "step", count_steps)]

    def rep(self, seed: int, tracer: Tracer | None = None, setups: int = 1) -> Rep:
        span = tracer.span if tracer is not None else lambda name: nullcontext()
        first_span = len(tracer) if tracer is not None else 0
        cfg = self.config(seed)
        rep = Rep(seed, [])
        for _ in range(setups):
            with span("bench.setup"):
                t0 = time.perf_counter()
                pipe = trainer.build_pipeline(self.spec, self.corpus, cfg)
                agent = KgA2CAgent(pipe.space, pipe.model, cfg.agent, seed=cfg.seed)
                workers = (
                    [trainer.Worker(i, pipe, cfg) for i in range(cfg.workers)]
                    if self.w.kind == "train" else []
                )
                rep.setups.append(time.perf_counter() - t0)
        if self.w.kind == "train":
            self._train(rep, span, cfg, pipe, agent, workers)
        else:
            self._eval(rep, span, pipe, agent)
        rep.spans = (first_span, len(tracer) if tracer is not None else 0)
        return rep

    def _train(self, rep, span, cfg, pipe, agent, workers) -> None:
        for _ in range(self.w.rep_updates):
            rep.attempted += 1 + cfg.workers  # the update and each worker's rollout
            t0 = time.perf_counter()
            try:
                with span("bench.update"):
                    batch = trainer.run_rollouts(workers, agent, cfg)
                    row = trainer.train_step(batch, agent, cfg)
            except Exception as exc:  # a failed update; the repetition ends here
                traceback.print_exc()
                rep.failed += 1
                # train_step raises on a non-finite loss before it returns one
                check = "finite_losses" if "non-finite" in str(exc) else "update_raised"
                rep.error = (check, f"repetition seed {rep.seed}, "
                             f"update {len(rep.op_s)}: {exc}")
                break
            rep.op_s.append(time.perf_counter() - t0)
            rep.steps += len(batch.records)
            rep.degraded += batch.degraded_workers
            rep.failed += batch.degraded_workers
            rep.rows.append(dict(row, steps=len(batch.records)))
        cache = getattr(pipe, "_valid_cache", None)
        rep.cache_entries = len(cache) if cache is not None else None

    def _eval(self, rep, span, pipe, agent) -> None:
        rep.attempted += 1
        before = self.eval_steps
        t0 = time.perf_counter()
        try:
            with span("bench.episode"):
                _, _, scores = trainer.evaluate(agent, pipe, 1, seed=rep.seed)
        except Exception as exc:  # a failed episode
            traceback.print_exc()
            rep.failed += 1
            rep.error = ("eval_raised", f"repetition seed {rep.seed}: {exc}")
            return
        rep.op_s.append(time.perf_counter() - t0)
        rep.steps = self.eval_steps - before
        rep.rows.append({"score": scores[0], "steps": rep.steps})

    def measure(self, seed: int, seconds: float, targets=None, tracer=None
                ) -> tuple[list[Rep], list[Rep]]:
        """Whole repetitions, another only while it is predicted to end
        within ``seconds``; always at least one.  With ``targets`` each
        repetition runs twice back to back, untraced and then traced, and
        both lists are returned; otherwise the second list is empty."""
        reps: list[Rep] = []
        twins: list[Rep] = []
        t0 = time.perf_counter()
        k = 0
        while True:
            s = rep_seed(seed, k)
            setups = SETUPS if k == 0 else 1
            self.recording = k == 0
            if targets is None:
                reps.append(self.rep(s, setups=setups))
                last = reps[-1].wall_s
            else:
                twins.append(self.rep(s, setups=setups))
                self.recording = False
                with patched(targets):
                    reps.append(self.rep(s, tracer))
                last = reps[-1].wall_s + twins[-1].wall_s
            k += 1
            if time.perf_counter() - t0 + last > seconds:
                return reps, twins

    def check(self, reps: list[Rep], seed: int) -> None:
        """The correctness gate; raises ``checks.CheckFailed``.  An operation
        that raised or a worker rollout that was lost fails it."""
        for rep in reps:
            if rep.error is not None:
                raise checks.CheckFailed(*rep.error)
            if rep.degraded:
                raise checks.CheckFailed(
                    "rollouts_lost",
                    f"repetition seed {rep.seed}: {rep.degraded} degraded worker rollouts",
                )
            if self.w.kind == "train":
                checks.check_losses(rep.rows)
            else:
                for row in rep.rows:
                    checks.check_episode(row["score"], row["steps"], self.spec)
        if self.w.kind == "train":
            sample = checks.sample_valid_calls(self.valid_calls, GATE_STATES, seed)
            if not sample:
                raise checks.CheckFailed("valid_set", "no valid-set requests recorded")
            for state, candidates, result in sample:
                checks.check_valid_set(state, self.spec, self.space, candidates, result)


# ---------------------------------------------------------------------------
# Reporting


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it; None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def fingerprint(rows: list[dict]) -> str:
    """Digest of a repetition's per-update metric rows or episode results."""
    blob = json.dumps(rows, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of the checkout; None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None  # not a repository of its own, whatever encloses it
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(bench: Bench, args) -> dict:
    return {
        "workload": bench.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "rep_updates": bench.w.rep_updates,
        "rep_seeds": f"{rep_seed(args.seed, 0)} + k",
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "train_config": dataclasses.asdict(bench.config(rep_seed(args.seed, 0))),
    }


def end_to_end(bench: Bench, reps: list[Rep]) -> dict[str, tuple[float, str, str]]:
    """End-to-end metrics as (value, unit, sample note)."""
    ops = [t for r in reps for t in r.op_s]
    steps = sum(r.steps for r in reps)
    setups = [t for r in reps for t in r.setups]
    what = "update" if bench.w.kind == "train" else "episode"
    # the names the metrics go by for this kind of workload
    rate, op = (("train_steps_per_s", "update_ms_p50") if bench.w.kind == "train"
                else ("eval_steps_per_s", "eval_episode_s_p50 in ms"))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": (p50(setups), "s", f"median of {len(setups)} set-ups"),
        "steps_per_s": (
            steps / sum(ops) if ops else 0.0, "steps/s",
            f"{rate}: {steps} env steps in {len(ops)} {what}s, {sum(ops):.2f} s",
        ),
        "op_ms_p50": (
            1000 * p50(ops), "ms", f"{op}: median of {len(ops)} {what}s"),
        "peak_rss_mb": (rss_kib / 1024, "MB", "whole process"),
    }


def run(args) -> int:
    bench = Bench(args.workload)
    print("manifest " + json.dumps(manifest(bench, args), sort_keys=True))
    tracer = Tracer() if args.trace else None
    observed: dict[str, list] = {"graph": [], "mask": [], "oracle": []}
    targets = layers.targets(tracer, observed) if tracer is not None else None
    with patched(bench.recorders()):
        reps, twins = bench.measure(args.seed, args.seconds, targets, tracer)

    everything = reps + twins
    correct = True
    try:
        bench.check(everything, args.seed)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    for rep in reps:
        print(
            f"rep seed {rep.seed}: setup {p50(rep.setups):.3f} s "
            f"(median of {len(rep.setups)}), {len(rep.op_s)} ops "
            f"in {sum(rep.op_s):.3f} s, {rep.steps} env steps"
        )
    rep0 = reps[0]
    print(f"fingerprint rep0 {fingerprint(rep0.rows)} ({len(reps)} repetitions)")
    print(f"failed_share = {failed / attempted:.4g} ratio (n={attempted} operations)")
    if bench.w.kind == "train":
        print(
            f"work rep0: {rep0.steps} env steps, {len(rep0.rows)} updates, "
            f"{rep0.cache_entries} valid-cache entries"
        )
        ops = [t for r in reps for t in r.op_s]
        t = tail(ops)
        print(
            "update_ms_tail = "
            + (f"{1000 * t[1]:.6g} ms at p{t[0]:.0f}" if t else "n/a")
            + f" (n={len(ops)} updates)"
        )

    if tracer is None:
        metrics = end_to_end(bench, reps)
    else:
        ratios = [
            sum(r.op_s) / sum(u.op_s) for r, u in zip(reps, twins) if r.op_s and u.op_s
        ]
        overhead = p50(ratios)
        if any(fingerprint(r.rows) != fingerprint(u.rows) for r, u in zip(reps, twins)):
            print("trace: a repetition differs with tracing on", file=sys.stderr)
        metrics = {
            name: (value, unit, "")
            for name, (value, unit) in layers.metrics(tracer, observed, rep0, overhead).items()
        }
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ])
        code = code or proc.returncode
    return code


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0 or args.seed < 0:
        ap.error("--seconds and --seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
