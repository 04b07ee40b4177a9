"""The traced mode's view of the package: which public functions are wrapped,
at which name each caller looks them up, and the per-layer metrics computed
from the spans they record.

Layer names follow the package's modules.  Engine calls are attributed by
their context: a call under ``oracle.valid_actions`` is an oracle probe, a
call under ``kg.detect_interactive_objects`` is a detection probe, and any
other top-level call is an environment step.  ``ActionSpace.instantiate``
counts as ``templates.instantiate`` only under the oracle, once per probe; the
agent's decoder calls it too.
"""

from __future__ import annotations

from kga2c import engine, kg, numerics, oracle, templates, tokenizer, trainer
from kga2c.agent import KgA2CAgent

from tracing import NO_PARENT, Tracer, contexts, mean, p50, self_times

ORACLE = "oracle.valid_actions"
DETECT = "kg.detect"
ENGINE = ("engine.step", "engine.step_core")
LOOP = ("bench.update", "bench.episode")  # spans the harness opens per operation
LAYERS = ("engine", "kg", "oracle", "trainer", "agent", "numerics",
          "tokenizer", "templates")
AGENT_METHODS = ("encode_observation", "gat_embed", "decode_action", "critic_value")


def targets(tracer: Tracer, observed: dict[str, list]) -> list[tuple]:
    """(owner, attribute, wrapper factory) for every traced function.  Each
    is patched where its caller looks it up: module attributes for module
    functions (``trainer`` imports ``build_action_space`` by name), the class
    for methods.  ``engine.step`` reaches ``step_core`` through the module
    global, so both are seen."""

    def sizes(key):
        def record(idx, args, result):
            observed[key].append((idx, len(result), getattr(result, "truncated", False)))
        return record

    table = [
        (engine, "step", "engine.step", None),
        (engine, "step_core", "engine.step_core", None),
        (kg, "detect_interactive_objects", DETECT, None),
        (kg, "update_graph", "kg.update_graph", sizes("graph")),
        (kg, "graph_mask", "kg.graph_mask", sizes("mask")),
        (oracle, "valid_actions", ORACLE, sizes("oracle")),
        (trainer.Pipeline, "valid_set", "trainer.valid_set", None),
        (trainer, "run_rollouts", "trainer.run_rollouts", None),
        (trainer, "train_step", "trainer.train_step", None),
        (trainer, "evaluate", "trainer.evaluate", None),
        *((KgA2CAgent, m, f"agent.{m}", None) for m in AGENT_METHODS),
        (numerics, "backward", "numerics.backward", None),
        (numerics, "adam_step", "numerics.adam_step", None),
        (tokenizer, "train_unigram", "tokenizer.train_unigram", None),
        (tokenizer, "encode", "tokenizer.encode", None),
        (trainer, "build_action_space", "templates.build_action_space", None),
        (templates.ActionSpace, "instantiate", "templates.instantiate", None),
    ]
    return [
        (owner, attr, lambda fn, name=name, obs=obs: tracer.wrap(name, fn, obs))
        for owner, attr, name, obs in table
    ]


def metrics(tracer: Tracer, observed: dict[str, list], rep0, overhead: float
            ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit).  Timings and self-time shares
    cover every traced repetition; counts and sizes cover the first one,
    whose work the seed fixes, so two commits compare exactly.  A layer that
    made no calls reads 0."""
    names = [tracer.names[nid] for nid in tracer.name]
    own = self_times(tracer.parent, tracer.start, tracer.end)
    probe_ctx = contexts(tracer, (ORACLE, DETECT))
    loop_ctx = contexts(tracer, LOOP)
    lo, hi = rep0.spans

    durations: dict[str, list[int]] = {}  # key -> ns, every repetition
    calls: dict[str, int] = {}  # key -> count, first repetition
    layer_ns = dict.fromkeys(LAYERS + ("other",), 0)
    loop_ns = 0
    step_self: list[int] = []
    oracle_parents: set[int] = set()
    for i, name in enumerate(names):
        key, layer = name, name.split(".", 1)[0]
        if name in ENGINE:
            p = tracer.parent[i]
            if p != NO_PARENT and names[p] in ENGINE:
                key = "engine.nested"
            else:
                key = {ORACLE: "engine.probe", DETECT: "kg.detect.probe"}.get(
                    probe_ctx[i], "engine.env_step")
            layer = {ORACLE: "oracle", DETECT: "kg"}.get(probe_ctx[i], "engine")
        elif name == "templates.instantiate" and probe_ctx[i] != ORACLE:
            key = "templates.instantiate.decode"  # the agent's, not a probe's
        elif name == ORACLE and tracer.parent[i] != NO_PARENT:
            oracle_parents.add(tracer.parent[i])
        elif name == "trainer.train_step":
            step_self.append(own[i])
        durations.setdefault(key, []).append(tracer.end[i] - tracer.start[i])
        if lo <= i < hi:
            calls[key] = calls.get(key, 0) + 1
        if name in LOOP:
            loop_ns += tracer.end[i] - tracer.start[i]
            layer_ns["other"] += own[i]  # harness code and unwrapped callees
        elif loop_ctx[i] is not None:
            layer_ns[layer] += own[i]

    def ms(key):
        return p50(durations.get(key, [])) / 1e6

    def us(key):
        return p50(durations.get(key, [])) / 1e3

    def count(key):
        return calls.get(key, 0)

    def share(ns):
        return ns / loop_ns if loop_ns else 0.0

    def in_rep0(key):
        return [row[1:] for row in observed[key] if lo <= row[0] < hi]

    oracle0 = in_rep0("oracle")
    probes0 = count("engine.probe")
    valid_sets0 = [i for i in range(lo, hi) if names[i] == "trainer.valid_set"]
    hits0 = sum(1 for i in valid_sets0 if i not in oracle_parents)
    sampled = [r["sampled_valid_rate"] for r in rep0.rows if "sampled_valid_rate" in r]

    out = {
        "engine.env_step.calls": (count("engine.env_step"), "count"),
        "engine.env_step.us_p50": (us("engine.env_step"), "us"),
        "engine.probe.calls": (probes0, "count"),
        "engine.probe.us_p50": (us("engine.probe"), "us"),
        "kg.detect.ms_p50": (ms(DETECT), "ms"),
        "kg.detect.probes": (count("kg.detect.probe"), "count"),
        "kg.update_graph.ms_p50": (ms("kg.update_graph"), "ms"),
        "kg.graph_mask.ms_p50": (ms("kg.graph_mask"), "ms"),
        "kg.graph_triples.mean": (mean([s for s, _ in in_rep0("graph")]), "count"),
        "kg.mask_words.mean": (mean([s for s, _ in in_rep0("mask")]), "count"),
        "oracle.valid_actions.calls": (count(ORACLE), "count"),
        "oracle.valid_actions.ms_p50": (ms(ORACLE), "ms"),
        "oracle.share": (share(layer_ns["oracle"]), "ratio"),
        "oracle.probes_per_call": (probes0 / len(oracle0) if oracle0 else 0.0, "count"),
        "oracle.valid_per_probe": (
            sum(s for s, _ in oracle0) / probes0 if probes0 else 0.0, "ratio"),
        "oracle.truncated": (sum(1 for _, t in oracle0 if t), "count"),
        "trainer.valid_cache.hit_rate": (
            hits0 / len(valid_sets0) if valid_sets0 else 0.0, "ratio"),
        "trainer.valid_cache.entries": (rep0.cache_entries or 0, "count"),
        "trainer.run_rollouts.ms_p50": (ms("trainer.run_rollouts"), "ms"),
        "trainer.train_step.self_ms_p50": (p50(step_self) / 1e6, "ms"),
        "trainer.degraded_workers": (rep0.degraded, "count"),
        "trainer.sampled_valid_rate": (mean(sampled), "ratio"),
    }
    for m in AGENT_METHODS:
        out[f"agent.{m}.ms_p50"] = (ms(f"agent.{m}"), "ms")
        out[f"agent.{m}.calls"] = (count(f"agent.{m}"), "count")
    for m in ("backward", "adam_step"):
        out[f"numerics.{m}.ms_p50"] = (ms(f"numerics.{m}"), "ms")
        out[f"numerics.{m}.calls"] = (count(f"numerics.{m}"), "count")
    out["tokenizer.train_unigram.ms"] = (ms("tokenizer.train_unigram"), "ms")
    out["tokenizer.encode.calls"] = (count("tokenizer.encode"), "count")
    out["templates.build_action_space.ms"] = (ms("templates.build_action_space"), "ms")
    out["templates.instantiate.calls"] = (count("templates.instantiate"), "count")
    out["templates.instantiate.us_p50"] = (us("templates.instantiate"), "us")
    for layer in LAYERS + ("other",):
        if layer != "oracle":  # oracle.share above, probes included
            out[f"{layer}.self_share"] = (share(layer_ns[layer]), "ratio")
    out["trace_overhead"] = (overhead, "ratio")
    return out
