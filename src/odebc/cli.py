"""Command-line entry point: world generation, BC search, sampling, studies.

Every subcommand resolves its configuration from defaults, an optional JSON
config file, and flag overrides, then echoes the resolved form into
`manifest.json` in the output directory; re-running with `--config
manifest.json` reproduces the artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .analysis import (
    ablate_candidate_size,
    ablate_reference_size,
    benchmark_samplers,
    independence_matrix,
    render_pgm,
    world_value_range,
)
from .bcsearch import CandidateSet, ReferenceSet, held_out_gain, search_optimal_bc
from .config import (
    build_metric,
    build_schedule,
    build_solver,
    build_world,
    resolve_config,
    write_manifest,
)
from .errors import PlanMismatchError, ShapeMismatchError, ValidationError
from .metrics import energy_distance_test
from .model import (
    BLANK,
    AnalyticDenoiser,
    GmmWorld,
    conditional_posterior,
    mixture_log_density,
    mixture_sample,
    prior_mixture,
    zero_denoiser,
)
from .rng import gauss, generator
from .sampler import SolverConfig, SolverKind, project, run_solver
from .schedule import make_linear_vp_schedule, resample_timesteps
from .tensorio import read_tensor, write_tensor
from .worldgen import load_pairs, sample_pairs, save_pairs


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _count(text: str) -> int:
    """argparse type for a flag that takes a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _resolve(args, command):
    cfg = resolve_config(args.config, args.set or (), args.workers,
                         args.seed, args.out)
    out_dir = cfg["run"]["out"]
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(out_dir, command, cfg)
    return cfg, out_dir


def _build_all(cfg):
    world = build_world(cfg)
    schedule = build_schedule(cfg["solver"])
    solver = build_solver(cfg["solver"], schedule)
    model = AnalyticDenoiser(world, schedule)
    metric = build_metric(cfg, world)
    return world, schedule, solver, model, metric


def _reference_pairs(cfg, world, count, seed):
    pairs_dir = cfg["run"]["pairs_dir"]
    if pairs_dir:
        pairs = load_pairs(pairs_dir)
        if len(pairs) < count:
            raise ValidationError(
                f"run.pairs_dir has {len(pairs)} pairs, need {count}")
        return pairs[:count]
    return sample_pairs(world, count, seed)


def _cmd_gen_world(args) -> int:
    cfg, out_dir = _resolve(args, "gen-world")
    world = build_world(cfg)
    pairs = sample_pairs(world, cfg["run"]["pairs"], cfg["run"]["seed"])
    save_pairs(os.path.join(out_dir, "pairs"), pairs, cfg["run"]["seed"])
    with open(os.path.join(out_dir, "world.json"), "w") as fh:
        json.dump(cfg["world"], fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pairs)} pairs (dim {world.dim}, obs {world.obs_dim}) "
          f"to {out_dir}/pairs")
    return 0


def _cmd_search(args) -> int:
    cfg, out_dir = _resolve(args, "search")
    world, _, solver, model, metric = _build_all(cfg)
    workers = cfg["run"]["workers"]
    sc = cfg["search"]
    refs = ReferenceSet(tuple(_reference_pairs(cfg, world, sc["references"],
                                               sc["reference_seed"])))
    cands = CandidateSet(seed=sc["candidate_seed"],
                         size=sc["candidates"], dim=world.dim)
    result = search_optimal_bc(cands, refs, solver, model, metric, workers)
    write_tensor(os.path.join(out_dir, "bc.t"), result.best_bc)
    _write_csv(
        os.path.join(out_dir, "objective_table.csv"),
        ["candidate"] + [f"ref_{i:03d}" for i in range(len(refs))],
        [[str(k)] + [_fmt(v) for v in row]
         for k, row in enumerate(result.objective_table)],
    )
    summary = {
        "best_index": result.best_index,
        "best_objective": float(result.per_candidate_sums[result.best_index]),
        "solver": solver.label(),
        "metric": metric.name,
        "candidates": cands.size,
        "references": len(refs),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    n_holdout = cfg["run"]["holdout"]
    if n_holdout:
        holdout = ReferenceSet(
            tuple(sample_pairs(world, n_holdout, cfg["run"]["holdout_seed"])))
        report = held_out_gain(result.best_bc, holdout, solver, model, metric,
                               n_random=sc["n_random"],
                               seed=cfg["run"]["random_seed"],
                               workers=workers)
        _write_csv(
            os.path.join(out_dir, "gain.csv"),
            ["searched_mean", "random_mean", "random_std", "gain_sigmas",
             "n_random"],
            [[_fmt(report.searched_mean), _fmt(report.random_mean),
              _fmt(report.random_std), _fmt(report.gain_sigmas),
              str(len(report.random_means))]],
        )
        _write_csv(
            os.path.join(out_dir, "random_means.csv"),
            ["index", "mean"],
            [[str(i), _fmt(v)] for i, v in enumerate(report.random_means)],
        )
        print(f"best_index {result.best_index}; held-out gain "
              f"{report.gain_sigmas:.2f} sigma")
    else:
        print(f"best_index {result.best_index}")
    return 0


def _render_tensor(path, world, values) -> None:
    if world.shape is None:
        raise ValidationError("rendering needs an image-shaped world")
    h, w, c = world.shape
    if c != 1:
        raise ValidationError("rendering supports single-channel worlds")
    lo, hi = world_value_range(world)
    render_pgm(path, values, (h, w), lo, hi)


def _cmd_sample(args) -> int:
    cfg, out_dir = _resolve(args, "sample")
    world, _, solver, model, _ = _build_all(cfg)
    bc = read_tensor(args.bc)
    y = read_tensor(args.y)
    x0 = project(model, solver, bc, y)
    write_tensor(os.path.join(out_dir, "x0.t"), x0)
    if args.render:
        _render_tensor(os.path.join(out_dir, "x0.pgm"), world, x0)
    print(f"wrote {out_dir}/x0.t")
    return 0


def _cmd_benchmark(args) -> int:
    cfg, out_dir = _resolve(args, "benchmark")
    world, _, _, _, metric = _build_all(cfg)
    entries = cfg["run"]["solvers"] or [cfg["solver"]]
    solvers = [build_solver({**cfg["solver"], **entry}) for entry in entries]
    pairs = _reference_pairs(cfg, world, cfg["run"]["test_pairs"],
                             cfg["run"]["test_seed"])
    bc = read_tensor(args.bc) if args.bc else None
    rows = benchmark_samplers(world, pairs, solvers, bc, metric,
                              cfg["run"]["seed"])
    _write_csv(
        os.path.join(out_dir, "benchmark.csv"),
        ["solver", "uses_bc", "metric", "mean", "std", "n"],
        [[r.solver, str(r.uses_bc).lower(), r.metric, _fmt(r.mean),
          _fmt(r.std), str(r.n)] for r in rows],
    )
    print(f"wrote {out_dir}/benchmark.csv ({len(rows)} rows)")
    return 0


def _curve_csv(path, curve) -> None:
    reps = curve.per_repeat.shape[1]
    _write_csv(
        path,
        ["size", "mean", "std"] + [f"rep_{r:03d}" for r in range(reps)],
        [[str(size), _fmt(curve.means[i]), _fmt(curve.stds[i])]
         + [_fmt(v) for v in curve.per_repeat[i]]
         for i, size in enumerate(curve.sizes)],
    )


def _cmd_ablate_r(args) -> int:
    cfg, out_dir = _resolve(args, "ablate-r")
    world, _, solver, _, metric = _build_all(cfg)
    pool = sample_pairs(world, cfg["run"]["pairs"], cfg["run"]["seed"])
    holdout = sample_pairs(world, cfg["run"]["holdout"],
                           cfg["run"]["holdout_seed"])
    sizes = cfg["run"]["sizes"] or [1, 2, 4, 8, 16]
    curve = ablate_reference_size(
        world, pool, sizes, cfg["run"]["repeats"],
        cfg["run"]["k_fixed"], solver, metric,
        seed=cfg["search"]["candidate_seed"], holdout_pairs=holdout,
        workers=cfg["run"]["workers"])
    _curve_csv(os.path.join(out_dir, "ablate_r.csv"), curve)
    print(f"wrote {out_dir}/ablate_r.csv")
    return 0


def _cmd_ablate_k(args) -> int:
    cfg, out_dir = _resolve(args, "ablate-k")
    world, _, solver, _, metric = _build_all(cfg)
    refs = sample_pairs(world, cfg["search"]["references"],
                        cfg["search"]["reference_seed"])
    holdout = sample_pairs(world, cfg["run"]["holdout"],
                           cfg["run"]["holdout_seed"])
    sizes = cfg["run"]["sizes"] or [10, 20, 40, 80, 160]
    curve = ablate_candidate_size(
        world, refs, sizes, cfg["run"]["repeats"], solver, metric,
        seed=cfg["search"]["candidate_seed"], holdout_pairs=holdout,
        workers=cfg["run"]["workers"])
    _curve_csv(os.path.join(out_dir, "ablate_k.csv"), curve)
    print(f"wrote {out_dir}/ablate_k.csv")
    return 0


def _cmd_independence(args) -> int:
    cfg, out_dir = _resolve(args, "independence")
    world, _, solver, model, metric = _build_all(cfg)
    conds = sample_pairs(world, cfg["run"]["conditions"],
                         cfg["run"]["condition_seed"])
    cands = CandidateSet(seed=cfg["search"]["candidate_seed"],
                         size=cfg["search"]["candidates"],
                         dim=world.dim)
    mat = independence_matrix(world, conds, cands, solver, metric,
                              workers=cfg["run"]["workers"])
    _write_csv(
        os.path.join(out_dir, "independence.csv"),
        [f"cond_{j:03d}" for j in range(len(conds))],
        [[_fmt(v) for v in row] for row in mat],
    )
    if args.render:
        bcs = np.stack([cands.candidate(k) for k in range(args.render)])
        for j, (_, y) in enumerate(conds):
            for k, x0 in enumerate(project(model, solver, bcs, y)):
                _render_tensor(
                    os.path.join(out_dir, f"render_k{k:02d}_c{j:02d}.pgm"),
                    world, x0)
    off = mat[~np.eye(len(conds), dtype=bool)]
    print(f"wrote {out_dir}/independence.csv "
          f"(median off-diagonal {np.median(off):.3f})")
    return 0


# Small fixed worlds for the verification suite. The d=8 mixture matches
# the solver-convergence oracle setting (J=3, moderate overlap).
def _verify_world_d8() -> GmmWorld:
    return GmmWorld(
        weights=np.array([0.10577941646718199, 0.3567723603797475,
                          0.5374482231530704]),
        means=np.array([
            [-1.231065420412978, 0.4151999348659127, 0.5094819780361851,
             -1.4660549427063378, 1.4475041980694439, 1.207603980266005,
             3.72099499437585, -0.15270976158753094],
            [0.38711436590626414, 1.6229742894863166, -0.570419516198738,
             2.2199260959876725, 1.3283373156095961, 2.115023768447524,
             3.1631871567026186, 2.3192843496770807],
            [3.4528252948531795, -2.3540102441008055, -0.3310922810334161,
             -0.5261149903898206, -1.4865648279126904, 0.5859548285705066,
             0.7213055456761767, -1.3973633254839333],
        ]),
        stds=np.array([0.6, 0.6, 0.6]),
        tau=0.2,
        block=1,
    )


def _verify_world_d2() -> GmmWorld:
    return GmmWorld(
        weights=np.array([0.6, 0.4]),
        means=np.array([[1.2, -0.8], [-1.0, 0.6]]),
        stds=np.array([0.5, 0.7]),
        tau=0.3,
        block=1,
    )


# The checks' default sizes are verify's. Acceptance criteria 1-4 call
# these checks and `_convergence_errors` at larger sizes.
def _check_score_fd(times=(0.03, 0.3, 0.7, 0.95)) -> tuple[bool, str]:
    """The score of the prior and of a posterior against central finite
    differences of the explicit log density, at each time in `times`."""
    world = _verify_world_d8()
    sched = make_linear_vp_schedule(1000, 1e-4, 0.02)
    model = AnalyticDenoiser(world, sched)
    worst = 0.0
    for i, t in enumerate(times):
        alpha, sigma = sched.alpha(t), sched.sigma(t)
        _, y = sample_pairs(world, 1, 40 + i)[0]
        cases = [(prior_mixture(world), BLANK),
                 (conditional_posterior(world, y), y)]
        for mix0, cond in cases:
            mix_t = mix0.diffused(alpha, sigma)
            # the narrowest direction: conditioning only shrinks lam_par
            h = 4e-5 * np.sqrt(mix_t.lam_par.min())
            for x in mixture_sample(mix_t, 3, generator(42, i)):
                fd = np.empty(world.dim)
                for j in range(world.dim):
                    e = np.zeros(world.dim)
                    e[j] = h
                    fd[j] = (mixture_log_density(mix_t, x + e)
                             - mixture_log_density(mix_t, x - e)) / (2 * h)
                eps = model.eps(x, cond, t)
                rel = (np.linalg.norm(eps - (-sigma * fd))
                       / np.linalg.norm(eps))
                worst = max(worst, rel)
    return worst < 1e-5, f"max rel err {worst:.2e} (tol 1e-05)"


def _check_telescoping() -> tuple[bool, str]:
    """DDIM under the zero denoiser is the exact scaling alpha(0) /
    alpha(t_start), on plans of 2, 50 and 1000 points."""
    sched = make_linear_vp_schedule(1000, 1e-4, 0.02)
    model = zero_denoiser()
    x_t = gauss(3, 0, (8,))
    worst = 0.0
    for n_points in (2, 50, 1000):
        cfg = SolverConfig(kind=SolverKind.DDIM, schedule=sched,
                           plan=resample_timesteps(sched, n_points))
        out = run_solver(model, cfg, x_t, BLANK)
        t_start = cfg.plan.times[0]
        expect = sched.alpha(0.0) / sched.alpha(t_start) * x_t
        worst = max(worst, float(np.max(np.abs(out / expect - 1.0))))
    return worst < 1e-12, f"max rel err {worst:.2e} (tol 1e-12)"


def _convergence_errors(runs) -> list[float]:
    """The relative error against one euler-10000 reference of each
    projection in `runs`, (solver kind, plan points) pairs, on the d=8
    world under one observation."""
    world = _verify_world_d8()
    sched = make_linear_vp_schedule(1000, 1e-4, 0.02)
    model = AnalyticDenoiser(world, sched)
    _, y = sample_pairs(world, 1, 11)[0]
    x_t = gauss(100, 1, (8,))
    ref_cfg = build_solver({"kind": "euler", "steps": 10000}, sched)
    ref = run_solver(model, ref_cfg, x_t, y)
    errs = []
    for kind, n in runs:
        cfg = SolverConfig(kind=kind, schedule=sched,
                           plan=resample_timesteps(sched, n))
        out = project(model, cfg, x_t, y)
        errs.append(float(np.linalg.norm(out - ref) / np.linalg.norm(ref)))
    return errs


def _check_ddim_convergence() -> tuple[bool, str]:
    """DDIM's error against the reference falls as the plan grows, to
    under 1e-2 at 100 points."""
    errs = _convergence_errors([(SolverKind.DDIM, n) for n in (10, 25, 50, 100)])
    ok = all(a > b for a, b in zip(errs, errs[1:])) and errs[-1] < 1e-2
    return ok, ("errs " + "/".join(f"{e:.1e}" for e in errs)
                + " (monotone, last < 1e-02)")


def _check_marginals(n=1500) -> tuple[bool, str]:
    """n DDPM and n DDIM samples of the d=2 prior against n direct draws,
    by the energy-distance test."""
    world = _verify_world_d2()
    sched = make_linear_vp_schedule(1000, 1e-4, 0.02)
    model = AnalyticDenoiser(world, sched)
    direct = mixture_sample(prior_mixture(world), n, generator(8, 1))
    p_values = []
    for kind, seed in ((SolverKind.DDPM_ANCESTRAL, 9), (SolverKind.DDIM, 10)):
        cfg = SolverConfig(kind=kind, schedule=sched,
                           plan=resample_timesteps(sched, 1000))
        x_t = gauss(seed, 0, (n, 2))
        samples = run_solver(model, cfg, x_t, BLANK)
        res = energy_distance_test(direct, samples, n_permutations=200,
                                   seed=1, max_points=600)
        p_values.append(res.p_value)
    ok = all(p > 0.01 for p in p_values)
    return ok, ("p " + "/".join(f"{p:.3f}" for p in p_values)
                + " (both > 0.01)")


def _cmd_verify(args) -> int:
    _resolve(args, "verify")
    checks = [
        ("score-vs-finite-difference", _check_score_fd),
        ("ddim-telescoping", _check_telescoping),
        ("ddim-convergence", _check_ddim_convergence),
        ("sampler-marginals", _check_marginals),
    ]
    failures = 0
    for name, fn in checks:
        ok, detail = fn()
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failures += 0 if ok else 1
    return 1 if failures else 0


def _add_common(sub) -> None:
    sub.add_argument("--config", default=None,
                     help="JSON config file (or a previous manifest.json)")
    sub.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                     help="override one config key")
    sub.add_argument("--workers", type=int, default=None,
                     help="worker threads (default run.workers, 1)")
    sub.add_argument("--seed", type=int, default=None, help="run.seed")
    sub.add_argument("--out", default=None, help="output directory")


def _build_parser() -> _Parser:
    parser = _Parser(prog="odebc",
                     description="diffusion-ODE boundary-condition toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("gen-world", _cmd_gen_world, "sample HR/LR pairs from a world"),
        ("search", _cmd_search, "search the optimal boundary condition"),
        ("sample", _cmd_sample, "project one BC through the solver"),
        ("benchmark", _cmd_benchmark, "per-solver distance table"),
        ("ablate-r", _cmd_ablate_r, "reference-set size ablation"),
        ("ablate-k", _cmd_ablate_k, "candidate-set size ablation"),
        ("independence", _cmd_independence, "condition correlation matrix"),
        ("verify", _cmd_verify, "run the oracle property suite"),
    ]
    for name, handler, help_text in specs:
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        sub.set_defaults(func=handler)
        if name == "sample":
            sub.add_argument("--bc", required=True, help="BC tensor file")
            sub.add_argument("--y", required=True, help="condition tensor")
            sub.add_argument("--render", action="store_true",
                             help="also write a PGM image")
        elif name == "benchmark":
            sub.add_argument("--bc", default=None,
                             help="fixed BC tensor file (optional)")
        elif name == "independence":
            sub.add_argument("--render", type=_count, default=0, metavar="N",
                             help="render first N candidates per condition")
    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # Extreme input values that overflow the maths, numpy's or Python's
        # float arithmetic, end as an error, not as numpy warnings followed
        # by non-finite output or a traceback.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ValidationError, ShapeMismatchError, PlanMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, OverflowError) as exc:
        print(f"error: the inputs overflow the computation ({exc})",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
