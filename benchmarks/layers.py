"""Per-layer metrics from the spans of one traced CLI run.

    python3 benchmarks/layers.py SPANS.json

prints the metrics and the traced command's exit code as one JSON object.
It runs as its own process so that the harness stays small (see run.py).

A span's self time is its duration minus its direct children's durations,
so summing self times over a layer's spans gives the time in which that
layer was the innermost one on the stack. Span names are
`<layer>.<function>` or `<layer>.<Class>.<method>`; see tracer.py.
"""

from __future__ import annotations

import json
import sys

EPS = "model.AnalyticDenoiser.eps"
POSTERIOR = "model.conditional_posterior"
CANDIDATE = "bcsearch.CandidateSet.candidate"


def _load(path):
    with open(path) as fh:
        data = json.load(fh)
    return data["names"], data["spans"], data["exit_code"]


def layer_metrics(spans_path) -> tuple[dict, int]:
    """(metric name -> value, CLI exit code) for one spans file."""
    names, spans, exit_code = _load(spans_path)
    n = len(spans)
    name = [names[s[0]] for s in spans]
    layer = [nm.split(".", 1)[0] for nm in name]
    parent = [s[3] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    self_s = [dur[i] - child[i] for i in range(n)]
    # Parents are allocated before their children, so one forward pass
    # propagates "inside an eps / posterior / candidate draw" down the tree.
    in_eps, in_post, in_cand = [False] * n, [False] * n, [False] * n
    for i in range(n):
        p = parent[i]
        in_eps[i] = name[i] == EPS or (p >= 0 and in_eps[p])
        in_post[i] = name[i] == POSTERIOR or (p >= 0 and in_post[p])
        in_cand[i] = name[i] == CANDIDATE or (p >= 0 and in_cand[p])

    by_name = {}
    for i, nm in enumerate(name):
        by_name.setdefault(nm, []).append(i)

    def where(pred):
        return [i for i in range(n) if pred(i)]

    def named(nm):
        return by_name.get(nm, [])

    def total(idx, values=dur):
        return float(sum(values[i] for i in idx))

    def outermost(lay):
        return where(lambda i: layer[i] == lay
                     and (parent[i] < 0 or layer[parent[i]] != lay))

    def layer_self(lay):
        return total(where(lambda i: layer[i] == lay), self_s)

    eps = named(EPS)
    cond_eps = [i for i in eps if spans[i][5]]
    builds_in_eps = [i for i in named(POSTERIOR) if parent[i] >= 0 and in_eps[parent[i]]]
    solves = named("sampler.run_solver")
    sampler_self = layer_self("sampler")
    solver_time = total(outermost("sampler"))
    noise = [i for i in named("rng.gauss") if not in_cand[i]]
    metrics = {
        "model.posterior_builds": len(named(POSTERIOR)),
        "model.posterior_s": total(named(POSTERIOR)),
        "model.eps_hit_ratio": ((len(cond_eps) - len(builds_in_eps)) / len(cond_eps)
                                if cond_eps else 0.0),
        "model.eps_calls": len(eps),
        "model.eps_rows": sum(spans[i][4] for i in eps),
        "model.eps_self_s": total(where(
            lambda i: in_eps[i] and not in_post[i] and layer[i] == "model"), self_s),
        "sampler.projections": sum(spans[i][4] for i in solves),
        "sampler.solves": len(solves),
        "sampler.self_s": sampler_self,
        "sampler.overhead_share": sampler_self / solver_time if solver_time else 0.0,
        "bcsearch.table_cells": sum(spans[i][4] for i in named("bcsearch.objective_table")),
        "bcsearch.table_s": total(named("bcsearch.objective_table")),
        "bcsearch.self_s": layer_self("bcsearch"),
        "bcsearch.gain_s": total(named("bcsearch.held_out_gain")),
        "analysis.self_s": layer_self("analysis"),
        "rng.draws": len(noise),
        "rng.draw_s": total(noise),
        "metrics.dist_calls": len(named("metrics.Metric.dist")),
        "metrics.dist_s": total(named("metrics.Metric.dist")),
        "metrics.energy_test_s": total(named("metrics.energy_distance_test")),
        "schedule.plan_s": total(outermost("schedule")),
        "config.resolve_s": total(named("config.resolve_config")),
        "worldgen.pairs_s": total(named("worldgen.sample_pairs")),
        "worldgen.pairs": len(named("worldgen.sample_pair")),
        "tensorio.write_s": total(named("tensorio.write_tensor")),
    }
    return metrics, exit_code


if __name__ == "__main__":
    values, code = layer_metrics(sys.argv[1])
    print(json.dumps({"metrics": values, "exit_code": code}))
