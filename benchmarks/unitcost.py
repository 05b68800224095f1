"""Unit costs of single layers, timed by calling the public functions.

    python3 benchmarks/unitcost.py CONFIG_DIR

Prints one JSON object of per-layer unit costs. Every timing discards one
warm-up call and reports the median of repeated calls; a repeat loop runs
until it has at least `MIN_REPEATS` calls and `MIN_SECONDS` of work.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

MIN_REPEATS = 3
MIN_SECONDS = 0.2


def _median_time(fn) -> float:
    fn()  # warm-up: caches, lazy posteriors, first-touch allocations
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(config_dir: str) -> dict:
    from odebc.bcsearch import CandidateSet, ReferenceSet, objective_table
    from odebc.config import (build_metric, build_schedule, build_solver,
                              build_world, resolve_config)
    from odebc.metrics import get_metric
    from odebc.model import AnalyticDenoiser, conditional_posterior
    from odebc.rng import gauss
    from odebc.sampler import project, run_solver
    from odebc.worldgen import sample_pairs

    def config(size):
        path = None if size == "8x8" else os.path.join(config_dir, f"world-{size}.json")
        return resolve_config(path, workers=1)

    out = {}
    cfg8 = config("8x8")
    sched = build_schedule(cfg8["solver"])
    for size in ("8x8", "16x16", "32x32"):
        world = build_world(config(size))
        _, y = sample_pairs(world, 1, 1)[0]
        out[f"model.posterior_ms.{size}"] = 1e3 * _median_time(
            lambda: conditional_posterior(world, y))
        if size == "16x16":
            continue
        model = AnalyticDenoiser(world, sched)
        for rows in (1, 64, 1024):
            x = gauss(2, rows, (rows, world.dim))
            out[f"model.eps_us.{size}.rows{rows}"] = 1e6 * _median_time(
                lambda: model.eps(x, y, 0.5))

    world = build_world(cfg8)
    model = AnalyticDenoiser(world, sched)
    _, y = sample_pairs(world, 1, 1)[0]
    x_t = gauss(3, 0, (world.dim,))
    for kind, steps in (("ddim", 50), ("dpm2", 20)):
        solver = build_solver({"kind": kind, "steps": steps}, sched)
        out[f"sampler.project_ms.{kind}-{steps}"] = 1e3 * _median_time(
            lambda: project(model, solver, x_t, y))
    ddpm = build_solver({"kind": "ddpm", "steps": 1000}, sched)
    out["sampler.run_ms.ddpm-1000"] = 1e3 * _median_time(
        lambda: run_solver(model, ddpm, x_t, y))

    # One 64 x 16 table, timed once per worker count after a warm-up that
    # builds every reference's posterior.
    solver = build_solver(cfg8["solver"], sched)
    metric = build_metric(cfg8, world)
    refs = ReferenceSet(tuple(sample_pairs(world, 16, 11)))
    cands = CandidateSet(seed=7, size=64, dim=world.dim)
    objective_table(CandidateSet(seed=7, size=1, dim=world.dim), refs, solver,
                    model, metric)
    timings = {}
    for workers in sorted({1, len(os.sched_getaffinity(0))}):
        t0 = time.perf_counter()
        objective_table(cands, refs, solver, model, metric, workers)
        timings[workers] = time.perf_counter() - t0
    out["bcsearch.table_ms.64x16"] = 1e3 * timings[1]
    out["bcsearch.thread_speedup"] = timings[1] / timings[max(timings)]

    a, b = gauss(4, 0, (world.dim,)), gauss(4, 1, (world.dim,))
    for name in ("l2", "gradperc"):
        metric = get_metric(name, shape=world.shape)
        out[f"metrics.dist_us.{name}"] = 1e6 * _median_time(lambda: metric.dist(a, b))
    return out


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1])))
