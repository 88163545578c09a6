"""Per-layer metrics of one traced workload pass, computed from its spans.

Span names come from bench/tracing.py: ``<layer>.<function>`` or
``<layer>.<Class>.<method>``; the benchmark's own phase spans start with
``bench.`` (``bench.leg.n64`` marks the N=64 leg of vicsek-scale,
``bench.rerun`` the second taxi pass).  A metric whose layer does not run
in a workload reads 0.
"""

from __future__ import annotations

import numpy as np

NS = 1e-9
US_PER_NS = 1e-3


def transitions(trajectories) -> int:
    """Per-agent transitions a value fit sees: (steps - 1) x N per trajectory."""
    return sum((len(t.steps) - 1) * t.final_states.size for t in trajectories)


class Spans:
    def __init__(self, tracer):
        self.names = tracer.names
        self.a = tracer.arrays()

    def select(self, match, within=None):
        """Mask of spans whose name satisfies ``match`` (a name or a predicate),
        optionally only those starting inside the ``(start, end)`` interval."""
        pred = match if callable(match) else (lambda n: n == match)
        ids = [i for i, n in enumerate(self.names) if pred(n)]
        mask = np.isin(self.a["name_id"], ids)
        if within is not None:
            lo, hi = within
            mask &= (self.a["start"] >= lo) & (self.a["start"] <= hi)
        return mask

    def interval(self, name):
        m = self.select(name)
        if not m.any():
            return None
        return int(self.a["start"][m].min()), int(self.a["end"][m].max())

    def calls(self, match, within=None) -> int:
        return int(self.select(match, within).sum())

    def total_s(self, match) -> float:
        return float(self.a["dur"][self.select(match)].sum()) * NS

    def self_s(self, match) -> float:
        return float(self.a["self"][self.select(match)].sum()) * NS

    def mean_self_us(self, match, within=None) -> float:
        m = self.select(match, within)
        return float(self.a["self"][m].mean()) * US_PER_NS if m.any() else 0.0

    def children_of(self, parent_match, child_match) -> int:
        """Spans of ``child_match`` whose direct parent is a ``parent_match`` span."""
        child = self.select(child_match)
        parents = self.a["parent"][child]
        parents = parents[parents >= 0]
        return int(self.select(parent_match)[parents].sum())


def _method(layer, method):
    return lambda n: n.startswith(layer + ".") and n.endswith("." + method)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, timings) -> dict:
    """Every per-layer metric of BENCHMARK.json that the spans can give."""
    s = Spans(tracer)
    step, reset = _method("envs", "step"), _method("envs", "reset")
    legs = {n: s.interval(f"bench.leg.n{n}") for n in (16, 64, 320)}
    # taxi has no legs: every step there is an N=16 step
    n16 = legs[16]
    victim_eps = s.children_of("qlearn.train_victim", reset)
    adversary_eps = s.children_of("attack.train_adversary", reset)
    rerun = s.interval("bench.rerun")
    top = s.select(lambda n: n.startswith("bench.")) & (s.a["parent"] < 0)
    m = {
        "envs.step.calls": s.calls(step),
        "envs.step.self_us": s.mean_self_us(step, n16),
        "envs.step.n64.self_us": s.mean_self_us(step, legs[64]) if legs[64] else 0.0,
        "envs.step.n320.self_us": s.mean_self_us(step, legs[320]) if legs[320] else 0.0,
        "envs.reset.self_us": s.mean_self_us(reset),
        "core.mean_field.calls": s.calls("core.empirical_mean_field_state"),
        "core.mean_field.self_s": s.self_s("core.empirical_mean_field_state"),
        "core.sample_actions.self_s": s.self_s("core.sample_actions"),
        "qlearn.values.calls": s.calls("qlearn.QModel.values"),
        "qlearn.values.self_us": s.mean_self_us("qlearn.QModel.values"),
        "qlearn.td_update.self_us": s.mean_self_us("qlearn.QModel.td_update"),
        "qlearn.action_dists.self_us": s.mean_self_us(_method("qlearn", "action_dists")),
        "qlearn.victim.episodes_per_s": _ratio(victim_eps, s.total_s("qlearn.train_victim")),
        "robust.corpus.transitions": tracer.counts["robust.corpus.transitions"],
        "robust.fit_q_s": s.total_s("robust.fit_cooperative_q"),
        "robust.fit_value_s": s.total_s("robust.fit_robust_value"),
        "selection.greedy_s": s.total_s("selection.select_greedy"),
        "selection.rl_s": s.total_s("selection.select_rl"),
        "attack.train.calls": s.calls("attack.train_adversary"),
        "attack.train.rerun_calls":
            s.calls("attack.train_adversary", rerun) if rerun else 0,
        "attack.episodes_per_s": _ratio(adversary_eps, s.total_s("attack.train_adversary")),
        "attack.eval_s": s.total_s("attack.evaluate_attack"),
        "attack.checksum_s": s.self_s("attack.policy_checksum"),
        "pipeline.stage.victim_s": s.total_s("pipeline.stage_train_victim"),
        "pipeline.stage.value_s": s.total_s("pipeline.stage_fit_value"),
        "pipeline.stage.select_s": s.total_s("pipeline.stage_select"),
        "pipeline.stage.attack_s": s.total_s("pipeline.stage_attack"),
        "pipeline.stage.evaluate_s": s.total_s("pipeline.stage_evaluate"),
        "pipeline.ledger.has_calls": s.calls("pipeline.ResultsLedger.has"),
        "trace.spans": int(s.a["dur"].size),
        "trace.coverage_pct":
            100.0 * float(s.a["dur"][top].sum()) * NS / timings["wall_s"],
    }
    m["core.mean_field.per_step"] = _ratio(m["core.mean_field.calls"], m["envs.step.calls"])
    return m
