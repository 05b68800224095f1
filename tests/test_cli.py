import contextlib
import io
import json
import os
import pathlib
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import trace_solves
from odebc import cli
from odebc.config import (
    apply_set,
    build_metric,
    build_solver,
    deep_merge,
    default_config,
    resolve_config,
)
from odebc.errors import ValidationError
from odebc.rng import generator
from odebc.sampler import SolverKind
from odebc.tensorio import read_tensor, write_tensor

SMALL_WORLD = [
    "--set", 'world.shape=[4,4,1]',
    "--set", "world.block=2",
    "--set", 'world.components=[{"weight":1.0,"std":0.4,'
             '"mean":{"texture":"gradient","amplitude":1.0}}]',
    "--set", "solver.steps=10",
]


def test_deep_merge_and_set():
    cfg = deep_merge({"a": {"x": 1, "y": 2}, "b": 3}, {"a": {"y": 5}})
    assert cfg == {"a": {"x": 1, "y": 5}, "b": 3}
    cfg = default_config()
    apply_set(cfg, "solver.steps=25")
    apply_set(cfg, "metric.name=psnr")
    apply_set(cfg, 'run.sizes=[1,2]')
    assert cfg["solver"]["steps"] == 25
    assert cfg["metric"]["name"] == "psnr"
    assert cfg["run"]["sizes"] == [1, 2]
    with pytest.raises(ValidationError):
        apply_set(cfg, "no-equals-sign")
    with pytest.raises(ValidationError):
        apply_set(cfg, "nosection.key=1")


def test_resolve_workers_env(monkeypatch):
    # run.workers (default 1) and --workers are the only sources; the
    # environment plays no part.
    monkeypatch.setenv("ODEBC_WORKERS", "5")
    assert resolve_config()["run"]["workers"] == 1
    assert resolve_config(workers=2)["run"]["workers"] == 2
    with pytest.raises(ValidationError):
        resolve_config(workers=0)


def _one_error_line(capsys, args) -> str:
    """Run the CLI; assert exit 1 with one `error:` line and return it."""
    capsys.readouterr()
    code = cli.run(args)
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"world": 3')
    assert cli.run(["search", "--config", str(bad)]) == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"universe": {}}')
    assert cli.run(["search", "--config", str(wrong)]) == 1
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"run": {"out": "caf\xe9"}}'.encode("latin-1"))
    huge = tmp_path / "huge.json"  # past Python's int-parsing digit limit
    huge.write_text('{"search": {"candidates": 1' + "0" * 5000 + "}}")
    for path in (latin1, huge):
        err = _one_error_line(capsys, ["search", "--config", str(path)])
        assert err.startswith("error: malformed config")
    scalar = tmp_path / "scalar.json"  # a section that is not an object
    scalar.write_text('{"run": 5}')
    err = _one_error_line(capsys, ["search", "--config", str(scalar),
                                   "--out", str(tmp_path / "o")])
    assert "run must be an object" in err


def test_build_solver_kinds():
    for name, kind in (("ddpm", SolverKind.DDPM_ANCESTRAL),
                       ("ddim", SolverKind.DDIM),
                       ("dpm2", SolverKind.DPM_SOLVER_2)):
        solver = build_solver({"kind": name, "steps": 10})
        assert solver.kind is kind and solver.label() == f"{name}-10"
        np.testing.assert_array_equal(
            solver.plan.times, np.array([999, 888, 777, 666, 555, 444, 333, 222,
                                         111, 0]) / 999)
    euler = build_solver({"kind": "euler", "steps": 2000})
    assert euler.label() == "euler-2000"
    np.testing.assert_array_equal(euler.plan.times, np.linspace(1.0, 0.0, 2001))
    with pytest.raises(ValidationError):
        build_solver({"kind": "heun", "steps": 10})


def test_build_metric_shapes():
    cfg = default_config()
    cfg["metric"]["name"] = "gradperc"
    world = cli.build_world(cfg)
    assert build_metric(cfg, world).name == "gradperc"


def test_unknown_flag_is_validation_error(capsys):
    assert cli.run(["search", "--bogus"]) == 1
    assert "--bogus" in capsys.readouterr().err


def test_missing_tensor_is_io_error(tmp_path):
    assert cli.run(["sample", "--bc", "/nonexistent/bc.t",
                    "--y", "/nonexistent/y.t",
                    "--out", str(tmp_path)]) == 2


def test_pipeline_gen_search_sample(tmp_path):
    w = str(tmp_path / "w")
    s = str(tmp_path / "s")
    x = str(tmp_path / "x")
    assert cli.run(["gen-world", "--out", w, "--set", "run.pairs=5",
                    *SMALL_WORLD]) == 0
    assert os.path.exists(os.path.join(w, "pairs", "pairs.csv"))
    assert cli.run(["search", "--out", s, *SMALL_WORLD,
                    "--set", "search.candidates=8",
                    "--set", "search.references=4",
                    "--set", "run.holdout=4",
                    "--set", "search.n_random=3",
                    "--set", f'run.pairs_dir="{w}/pairs"']) == 0
    summary = json.loads(open(os.path.join(s, "summary.json")).read())
    assert 0 <= summary["best_index"] < 8
    assert summary["solver"] == "ddim-10"
    assert cli.run(["sample", "--out", x, *SMALL_WORLD,
                    "--bc", os.path.join(s, "bc.t"),
                    "--y", os.path.join(w, "pairs", "y_000000.t"),
                    "--render"]) == 0
    first = open(os.path.join(x, "x0.t"), "rb").read()
    assert cli.run(["sample", "--out", x, *SMALL_WORLD,
                    "--bc", os.path.join(s, "bc.t"),
                    "--y", os.path.join(w, "pairs", "y_000000.t")]) == 0
    assert open(os.path.join(x, "x0.t"), "rb").read() == first
    img = open(os.path.join(x, "x0.pgm"), "rb").read()
    assert img.startswith(b"P5\n4 4\n255\n") and len(img) == 11 + 16


def test_search_k1_reports_index_zero(tmp_path):
    out = str(tmp_path / "s1")
    assert cli.run(["search", "--out", out, *SMALL_WORLD,
                    "--set", "search.candidates=1",
                    "--set", "search.references=2",
                    "--set", "run.holdout=0"]) == 0
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["best_index"] == 0


def test_search_manifest_rerun_reproduces(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    base = ["search", *SMALL_WORLD, "--set", "search.candidates=6",
            "--set", "search.references=3", "--set", "run.holdout=3",
            "--set", "search.n_random=2"]
    assert cli.run([*base, "--out", a]) == 0
    assert cli.run(["search", "--config", os.path.join(a, "manifest.json"),
                    "--out", b]) == 0
    for name in ("bc.t", "objective_table.csv", "gain.csv"):
        assert (open(os.path.join(a, name), "rb").read()
                == open(os.path.join(b, name), "rb").read())


def test_workers_do_not_change_output(tmp_path):
    outs = []
    for workers, sub in (("1", "w1"), ("4", "w4")):
        out = str(tmp_path / sub)
        assert cli.run(["search", "--out", out, *SMALL_WORLD,
                        "--workers", workers,
                        "--set", "search.candidates=8",
                        "--set", "search.references=4",
                        "--set", "run.holdout=0"]) == 0
        outs.append(open(os.path.join(out, "objective_table.csv"),
                         "rb").read())
    assert outs[0] == outs[1]


def test_benchmark_writes_rows(tmp_path):
    out = str(tmp_path / "b")
    assert cli.run(["benchmark", "--out", out, *SMALL_WORLD,
                    "--set", 'run.solvers=[{"kind":"ddim","steps":10},'
                             '{"kind":"ddpm","steps":10}]',
                    "--set", "run.test_pairs=3"]) == 0
    lines = open(os.path.join(out, "benchmark.csv")).read().splitlines()
    assert lines[0] == "solver,uses_bc,metric,mean,std,n"
    assert len(lines) == 3
    assert lines[1].startswith("ddim-10,false,l2,")


def test_ablate_and_independence_csvs(tmp_path):
    ar = str(tmp_path / "ar")
    assert cli.run(["ablate-r", "--out", ar, *SMALL_WORLD,
                    "--set", "run.sizes=[1,2]", "--set", "run.repeats=2",
                    "--set", "run.k_fixed=4", "--set", "run.pairs=4",
                    "--set", "run.holdout=3"]) == 0
    lines = open(os.path.join(ar, "ablate_r.csv")).read().splitlines()
    assert lines[0] == "size,mean,std,rep_000,rep_001"
    assert len(lines) == 3
    ak = str(tmp_path / "ak")
    assert cli.run(["ablate-k", "--out", ak, *SMALL_WORLD,
                    "--set", "run.sizes=[2,4]", "--set", "run.repeats=2",
                    "--set", "search.references=3",
                    "--set", "run.holdout=3"]) == 0
    assert len(open(os.path.join(ak, "ablate_k.csv")).read()
               .splitlines()) == 3
    ind = str(tmp_path / "ind")
    assert cli.run(["independence", "--out", ind, *SMALL_WORLD,
                    "--set", "run.conditions=3",
                    "--set", "search.candidates=6",
                    "--render", "1"]) == 0
    mat = np.array([[float(v) for v in line.split(",")] for line in
                    open(os.path.join(ind, "independence.csv"))
                    .read().splitlines()[1:]])
    assert mat.shape == (3, 3)
    np.testing.assert_array_equal(np.diag(mat), np.ones(3))
    assert os.path.exists(os.path.join(ind, "render_k00_c02.pgm"))


def test_ablate_r_with_one_repeat_has_zero_stds(tmp_path):
    out = str(tmp_path / "ar")
    assert cli.run(["ablate-r", "--out", out, *SMALL_WORLD,
                    "--set", "run.sizes=[1,2]", "--set", "run.repeats=1",
                    "--set", "run.k_fixed=4", "--set", "run.pairs=4",
                    "--set", "run.holdout=3"]) == 0
    lines = open(os.path.join(out, "ablate_r.csv")).read().splitlines()
    assert lines[0] == "size,mean,std,rep_000"
    assert [float(line.split(",")[2]) for line in lines[1:]] == [0.0, 0.0]


def test_render_requires_image_world(tmp_path):
    out = str(tmp_path / "flat")
    code = cli.run(["independence", "--out", out,
                    "--set", "world.shape=null",
                    "--set", "world.dim=4", "--set", "world.block=1",
                    "--set", 'world.components=[{"weight":1.0,"std":0.5,'
                             '"mean":[0.0,0.0,0.0,0.0]}]',
                    "--set", "solver.steps=10",
                    "--set", "run.conditions=2",
                    "--set", "search.candidates=4",
                    "--render", "1"])
    assert code == 1


def test_independence_needs_two_conditions(tmp_path, capsys):
    # One condition has no off-diagonal to take the median of.
    out = str(tmp_path / "one")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(["independence", "--out", out, *SMALL_WORLD,
                        "--set", "run.conditions=1",
                        "--set", "search.candidates=3"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: independence needs at least 2 conditions, got 1\n"


def test_independence_needs_two_candidates(tmp_path, capsys):
    out = str(tmp_path / "one")
    err = _one_error_line(capsys, ["independence", "--out", out, *SMALL_WORLD,
                                   "--set", "run.conditions=2",
                                   "--set", "search.candidates=1"])
    assert err == "error: independence needs at least 2 candidates, got 1\n"


def test_python_float_overflow_is_one_error_line(tmp_path, capsys):
    # world.tau**2 is Python float arithmetic, which raises OverflowError
    # where numpy's would raise FloatingPointError.
    err = _one_error_line(capsys, ["search", "--out", str(tmp_path / "o"),
                                   "--set", "world.tau=1e300"])
    assert err.startswith("error: the inputs overflow the computation"), err


def test_independence_correlations_stay_in_unit_interval(tmp_path):
    # Two candidates make every correlation +-1 up to rounding; on the
    # default world one lands on 1.0000000000000002 without clipping.
    out = tmp_path / "two"
    assert cli.run(["independence", "--out", str(out),
                    "--set", "search.candidates=2",
                    "--set", "run.conditions=3"]) == 0
    mat = np.array([[float(v) for v in line.split(",")] for line in
                    (out / "independence.csv").read_text().splitlines()[1:]])
    assert np.all(np.abs(mat) <= 1.0)
    np.testing.assert_allclose(np.abs(mat), 1.0, rtol=1e-12)


def test_negative_render_rejected(tmp_path, capsys):
    base = ["independence", *SMALL_WORLD, "--set", "run.conditions=2",
            "--set", "search.candidates=3"]
    for i, bad in enumerate(("-2", "x")):
        out = tmp_path / f"bad{i}"
        assert cli.run([*base, "--out", str(out), "--render", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --render: "), err
        assert err.count("\n") == 1
        assert not out.exists()
    out = tmp_path / "zero"
    assert cli.run([*base, "--out", str(out), "--render", "0"]) == 0
    assert not list(out.glob("*.pgm"))


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would cost every CLI
    # process its start-up time and memory.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, odebc.cli; "
            "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_verify_suite_passes(tmp_path):
    assert cli.run(["verify", "--out", str(tmp_path / "v")]) == 0


def test_verify_traced_peak_is_small(tmp_path):
    # verify's largest transients are the energy test's tiles of 64 x 256
    # pooled distances and the euler-10000 solve, whose table holds one
    # block of 256 rows: 1.3 MiB traced in all. It was 2.5 MiB with tiles
    # of 64 x 512 and a table of every row, 4.1 MiB with whole rows of
    # pooled distances and a table that maps times to rows.
    # numpy.random, which verify imports on first use, loads first.
    generator(0, 0)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["verify", "--out", str(tmp_path / "v")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20


def test_no_deterministic_command_solves_a_d_wide_state(tmp_path, monkeypatch):
    # On the default 8x8 world (d = 64, J = 2): every ddim, dpm2 and euler
    # solve of sample, independence --render and benchmark runs on 6-number
    # reduced rows; only DDPM integrates d-wide states.
    traced = trace_solves(monkeypatch)
    bc, y = tmp_path / "bc.t", tmp_path / "y.t"
    write_tensor(bc, generator(3, 0).standard_normal(64))
    write_tensor(y, generator(3, 1).standard_normal(16))
    solvers = ('run.solvers=[{"kind":"ddim","steps":10},{"kind":"dpm2",'
               '"steps":5},{"kind":"euler","steps":1000},{"kind":"ddpm",'
               '"steps":10}]')
    for i, argv in enumerate([
            ["sample", "--bc", str(bc), "--y", str(y), "--render"],
            ["independence", "--render", "2", "--set", "search.candidates=4",
             "--set", "run.conditions=2"],
            ["benchmark", "--set", solvers, "--set", "run.test_pairs=2"],
            ["benchmark", "--set", solvers, "--set", "run.test_pairs=2",
             "--bc", str(bc)]]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run([*argv, "--out", str(tmp_path / f"o{i}")]) == 0
    widths = {}
    for kind, shape in traced:
        widths.setdefault(kind, set()).add(shape[-1])
    assert widths == {SolverKind.DDIM: {6}, SolverKind.DPM_SOLVER_2: {6},
                      SolverKind.EULER_REF: {6}, SolverKind.DDPM_ANCESTRAL: {64}}


def test_verify_marginal_p_values_are_pinned():
    # One flipped permutation moves a p-value by 1/201, which the
    # benchmark's 5% gate on verify's printed figures lets through.
    assert cli._check_marginals() == (True, "p 0.199/0.418 (both > 0.01)")


@pytest.mark.parametrize("check,scale", [("_check_score_fd", 1 + 1e-4),
                                         ("_check_marginals", 1.3)])
def test_verify_checks_fail_on_a_wrong_denoiser(monkeypatch, check, scale):
    # A check that passes a wrong denoiser shows nothing. eps off by ten
    # times the score check's tolerance fails it; off by 30 % it fails the
    # marginals on DDIM (p 0.005), though DDPM still passes (p 0.174).
    class Scaled(cli.AnalyticDenoiser):
        def eps(self, x_t, condition, t):
            return scale * super().eps(x_t, condition, t)

    monkeypatch.setattr(cli, "AnalyticDenoiser", Scaled)
    ok, detail = getattr(cli, check)()
    assert not ok, detail


def test_truncated_tensor_is_validation_error(tmp_path, capsys):
    magic_only = tmp_path / "magic.t"
    magic_only.write_bytes(b"ODBC1")
    no_dims = tmp_path / "no_dims.t"
    no_dims.write_bytes(b"ODBC1" + struct.pack("<I", 2))
    for path in (magic_only, no_dims):
        with pytest.raises(ValidationError, match="truncated header"):
            read_tensor(path)
    y = tmp_path / "y.t"
    write_tensor(y, np.zeros(4))
    code = cli.run(["sample", "--out", str(tmp_path / "s"), *SMALL_WORLD,
                    "--bc", str(magic_only), "--y", str(y)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_integer_workers_rejected(tmp_path, capsys):
    base = ["search", *SMALL_WORLD, "--set", "search.candidates=2",
            "--set", "search.references=1", "--set", "run.holdout=0"]
    for i, bad in enumerate((2.5, "x", True, None)):
        config = tmp_path / f"workers{i}.json"
        config.write_text(json.dumps({"run": {"workers": bad}}))
        assert cli.run([*base, "--config", str(config),
                        "--out", str(tmp_path / f"w{i}")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run.workers") and err.count("\n") == 1


def test_unknown_keys_and_fractional_counts_rejected(tmp_path, capsys):
    base = ["search", *SMALL_WORLD, "--set", "search.references=1",
            "--set", "run.holdout=0"]
    bad_sets = [
        ("search.candidtes=5", "unknown search key(s) ['candidtes']"),
        ("run.holdot=2", "unknown run key(s) ['holdot']"),
        ("search.candidates=2.5", "search.candidates must be an integer"),
        ("search.n_random=2.7", "search.n_random must be an integer"),
        ("search.candidates=true", "search.candidates must be an integer"),
        ("solver.steps=10.0", "solver.steps must be an integer"),
        ("run.test_seed=1.5", "run.test_seed must be an integer"),
        ('search.candidate_seed="7"', "search.candidate_seed must be an integer"),
    ]
    for i, (expr, message) in enumerate(bad_sets):
        code = cli.run([*base, "--set", expr, "--out", str(tmp_path / f"b{i}")])
        err = capsys.readouterr().err
        assert code == 1, expr
        assert err.startswith(f"error: {message}"), err
        assert err.count("\n") == 1, expr
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"metric": {"name": "l2", "nmae": "psnr"}}))
    assert cli.run([*base, "--config", str(config),
                    "--out", str(tmp_path / "typo")]) == 1
    assert "unknown metric key(s) ['nmae']" in capsys.readouterr().err
    assert cli.run([*base, "--set", "search.candidates=2",
                    "--out", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize("command,expr,message", [
    ("search", "world.components=[]", "world spec needs a non-empty components"),
    ("search", 'world.components=[{"weight":1}]', "world.components[0] must be"),
    ("search", "world.tau=x", "world.tau must be a finite number"),
    ("search", "world.tau=true", "world.tau must be a finite number"),
    ("search", "world.tau=NaN", "world.tau must be a finite number"),
    ("search", "world.shape=abc", "world shape must be [height, width, channels]"),
    ("search", "world.shape=[4,4,1.5]", "world.shape[2] must be an integer"),
    ("search", "world.tua=0.1", "unknown world key(s) ['tua']"),
    ("search", "solver.beta_1=abc", "solver.beta_1 must be a finite number"),
    ("search", "solver.kind=[1]", "solver.kind must be a non-empty string"),
    ("search", "solver.total_steps=1000000000", "solver.total_steps must be an integer"),
    ("search", "run.pairs_dir=5", "run.pairs_dir must be a non-empty string"),
    ("search", 'run.pairs_dir=""', "run.pairs_dir must be a non-empty string"),
    ("search", "world.components=" + "[" * 100000,
     "--set world.components value is nested too deeply"),
    ("benchmark", "run.solvers=5", "run.solvers must be a non-empty list"),
    ("benchmark", 'run.solvers=[{"kind":"ddim","stpes":3}]',
     "unknown run.solvers[0] key(s) ['stpes']"),
    ("ablate-k", 'run.sizes=["a"]', "run.sizes[0] must be an integer >= 1"),
    ("ablate-k", "run.sizes=5", "run.sizes must be a non-empty list"),
    ("ablate-k", "run.repeats=0", "run.repeats must be an integer >= 1"),
    ("ablate-r", "run.repeats=0", "run.repeats must be an integer >= 1"),
    pytest.param("search", "search.candidates=1" + "0" * 5000,
                 "search.candidates must be an integer", id="5000-digits"),
])
def test_bad_config_values_rejected(tmp_path, capsys, command, expr, message):
    code = cli.run([command, "--out", str(tmp_path), "--set", expr])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {message}"), err
    assert err.count("\n") == 1


def _pairs_dir(path, index=b"index,z_path,y_path\n0,z.t,y.t\n", z=None):
    """A run.pairs_dir holding `index` as pairs.csv next to one (z, y) pair
    of SMALL_WORLD, and the search arguments that read it."""
    path.mkdir()
    (path / "pairs.csv").write_bytes(index)
    write_tensor(path / "y.t", np.zeros(4))
    if z is None:
        write_tensor(path / "z.t", np.zeros(16))
    else:
        (path / "z.t").write_bytes(z)
    return ["search", *SMALL_WORLD, "--set", f"run.pairs_dir={json.dumps(str(path))}",
            "--set", "search.candidates=2", "--set", "search.references=1",
            "--set", "run.holdout=0"]


def test_malformed_pairs_csv_rejected(tmp_path, capsys):
    cases = {
        "no_z_path": b"index,z,y_path\n0,z.t,y.t\n",
        "short_row": b"index,z_path,y_path\n0,z.t\n",
        "latin1": "index,z_path,y_path\n0,z\xe9.t,y.t\n".encode("latin-1"),
    }
    for name, index in cases.items():
        args = _pairs_dir(tmp_path / name, index)
        _one_error_line(capsys, [*args, "--out", str(tmp_path / f"out_{name}")])
    args = _pairs_dir(tmp_path / "ok")
    assert cli.run([*args, "--out", str(tmp_path / "out_ok")]) == 0


def test_overflowing_pair_fails_on_any_worker_count(tmp_path, capsys):
    # z = 1e300 overflows the distance. Table tasks on pool threads keep
    # the floating-point error settings of `cli.run`, so --workers 2 ends
    # like --workers 1: one error line, no table.
    for workers in (1, 2):
        pairs = tmp_path / f"pairs{workers}"
        args = _pairs_dir(pairs)
        write_tensor(pairs / "z.t", np.full(16, 1e300))
        out = tmp_path / f"out{workers}"
        err = _one_error_line(capsys, [*args, "--workers", str(workers),
                                       "--out", str(out)])
        assert "overflow" in err
        assert not (out / "objective_table.csv").exists()


def test_malformed_sample_inputs_rejected(tmp_path, capsys):
    bc, y = tmp_path / "bc.t", tmp_path / "y.t"
    write_tensor(bc, np.zeros(16))
    write_tensor(y, np.zeros(4))
    wraps = tmp_path / "wraps.t"  # 2^64 values: an int64 product is 0
    wraps.write_bytes(b"ODBC1" + struct.pack("<5I", 4, *[65536] * 4))
    stack = tmp_path / "stack.t"  # projects, but renders no one image
    write_tensor(stack, np.zeros((2, 16)))
    no_rows = tmp_path / "no_rows.t"
    write_tensor(no_rows, np.zeros((0, 4)))
    huge = tmp_path / "huge.t"  # finite, but overflows the solver
    write_tensor(huge, np.full(16, 1e300))
    cases = [(wraps, y, []), (bc, wraps, []), (stack, y, ["--render"]),
             (bc, no_rows, []), (huge, y, [])]
    for i, (bc_path, y_path, extra) in enumerate(cases):
        _one_error_line(capsys, ["sample", *SMALL_WORLD, "--out",
                                 str(tmp_path / f"s{i}"), "--bc", str(bc_path),
                                 "--y", str(y_path), *extra])


TENSOR_BYTES = st.builds(
    lambda dims, payload: (b"ODBC1" + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims)
                           + payload),
    st.lists(st.sampled_from([0, 1, 2, 4, 16, 65536]), max_size=4),
    st.binary(max_size=16) | st.sampled_from(
        [np.full(n, v).tobytes() for n in (1, 4, 8, 16, 32) for v in (1.0, 1e300)]),
)
PAIRS_CSV = st.lists(
    st.lists(st.sampled_from(["0", "z.t", "y.t", "", ".", "\x00", "\xe9"])
             | st.text(max_size=3), max_size=4), max_size=3,
).map(lambda rows: "\n".join(",".join(row) for row in
                             [["index", "z_path", "y_path"], *rows]).encode())
INPUT_BYTES = {"bc": TENSOR_BYTES, "y": TENSOR_BYTES, "pairs.csv": PAIRS_CSV,
               "z.t": TENSOR_BYTES}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_input_files_end_cleanly(data):
    """Any bytes as `sample --bc`, `--y`, a pairs.csv or a pair tensor: exit
    0, or 1 or 2 with one line on stderr; never a traceback."""
    which = data.draw(st.sampled_from(sorted(INPUT_BYTES)), label="file")
    blob = data.draw(INPUT_BYTES[which] | st.binary(max_size=200), label="bytes")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        if which == "pairs.csv":
            args = _pairs_dir(tmp / "pairs", index=blob)
        elif which == "z.t":
            args = _pairs_dir(tmp / "pairs", z=blob)
        else:
            files = {"bc": tmp / "bc.t", "y": tmp / "y.t"}
            write_tensor(files["bc"], np.zeros(16))
            write_tensor(files["y"], np.zeros(4))
            files[which].write_bytes(blob)
            args = ["sample", *SMALL_WORLD, "--bc", str(files["bc"]),
                    "--y", str(files["y"]), "--render"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.run([*args, "--out", str(tmp / "out")])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert len(lines) == (1 if code else 0), lines
