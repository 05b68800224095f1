"""Write the golden CLI outputs of named cases under tests/golden/.

    python3 tests/golden/regenerate.py CASE [CASE ...]

Runs each named case of `CASES` in a fresh working directory (the shared
inputs copied in, `--out out`) and stores its argv, stdout and output files
in `<case>/`. Cases that are not named are left as they are, so adding a
case does not re-baseline the others. No name, or a name that is not in
`CASES`, is a usage error. The shared inputs are written to `inputs/` only
when that directory is missing; delete it to rebuild them (every case reads
them). `tests/test_golden.py` runs the same argv and compares. Regenerate a
case only when its output is meant to change, and say why with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from odebc import cli  # noqa: E402
from odebc.config import build_world, default_config  # noqa: E402
from odebc.rng import gauss  # noqa: E402
from odebc.tensorio import write_tensor  # noqa: E402
from odebc.worldgen import sample_pairs, save_pairs  # noqa: E402

INPUTS = os.path.join(HERE, "inputs")

FLAT_WORLD = {
    "world": {
        "shape": None, "dim": 8, "block": 1, "tau": 0.2,
        "components": [
            {"weight": 0.3, "std": 0.6,
             "mean": [-1.2, 0.4, 0.5, -1.5, 1.4, 1.2, 3.7, -0.2]},
            {"weight": 0.7, "std": 0.5,
             "mean": [0.4, 1.6, -0.6, 2.2, 1.3, 2.1, 3.2, 2.3]},
        ],
    },
}
BLOCK3_WORLD = {
    "world": {
        "shape": [6, 6, 3], "block": 3, "tau": 0.05,
        "components": [
            {"weight": 0.6, "std": 0.3,
             "mean": {"texture": "smooth-noise", "amplitude": 1.0, "seed": 1}},
            {"weight": 0.4, "std": 0.4,
             "mean": {"texture": "gradient", "amplitude": 1.5}},
        ],
    },
}
BENCH_SOLVERS = ('run.solvers=[{"kind":"ddim","steps":20},'
                 '{"kind":"dpm2","steps":10},{"kind":"euler","steps":1000},'
                 '{"kind":"ddpm","steps":50}]')
BENCH = ["benchmark", "--set", BENCH_SOLVERS, "--set", "run.test_pairs=4"]

# Every case is a list of CLI arguments, run with `--out out` appended.
CASES = {
    "sample-ddim-render": ["sample", "--bc", "inputs/bc-8x8.t",
                           "--y", "inputs/y-8x8.t", "--render"],
    "sample-dpm2-flat": ["sample", "--config", "inputs/flat.json",
                         "--set", "solver.kind=dpm2", "--set", "solver.steps=20",
                         "--bc", "inputs/bc-flat.t", "--y", "inputs/y-flat.t"],
    "sample-euler-flat": ["sample", "--config", "inputs/flat.json",
                          "--set", "solver.kind=euler",
                          "--set", "solver.steps=1000",
                          "--bc", "inputs/bc-flat.t", "--y", "inputs/y-flat.t"],
    "sample-6x6x3": ["sample", "--config", "inputs/world-6x6x3.json",
                     "--bc", "inputs/bc-6x6x3.t", "--y", "inputs/y-6x6x3.t"],
    "independence-render": ["independence", "--render", "2",
                            "--set", "search.candidates=6",
                            "--set", "run.conditions=3"],
    "benchmark-per-pair": [*BENCH, "--set", "metric.name=psnr"],
    "benchmark-bc": [*BENCH, "--bc", "inputs/bc-8x8.t"],
    "search-gradperc": ["search", "--set", "run.pairs_dir=inputs/pairs",
                        "--set", "metric.name=gradperc",
                        "--set", "search.candidates=12",
                        "--set", "search.references=6",
                        "--set", "run.holdout=4", "--set", "search.n_random=3"],
    # Size 6 is the whole pool: its five repeats pick the same subset, and
    # their std is an exact zero, not the 3e-17 that np.std leaves here.
    "ablate-r": ["ablate-r", "--set", "run.pairs=6", "--set", "run.sizes=[1,3,6]",
                 "--set", "run.repeats=5", "--set", "run.k_fixed=8",
                 "--set", "run.holdout=4"],
    "ablate-k": ["ablate-k", "--set", "search.references=4",
                 "--set", "run.sizes=[2,4,8]", "--set", "run.repeats=2",
                 "--set", "run.holdout=4"],
    "gen-world-flat": ["gen-world", "--config", "inputs/flat.json",
                       "--set", "run.pairs=3", "--seed", "5"],
    "search-l2-dpm2": ["search", "--set", "run.pairs_dir=inputs/pairs",
                       "--set", "solver.kind=dpm2", "--set", "solver.steps=20",
                       "--set", "search.candidates=12",
                       "--set", "search.references=6",
                       "--set", "run.holdout=4", "--set", "search.n_random=3"],
}


def write_inputs() -> None:
    """The bc, y, world configs and pairs the cases read."""
    shutil.rmtree(INPUTS, ignore_errors=True)
    os.makedirs(INPUTS)
    for name, spec in (("flat", FLAT_WORLD), ("world-6x6x3", BLOCK3_WORLD)):
        with open(os.path.join(INPUTS, f"{name}.json"), "w") as fh:
            json.dump(spec, fh, indent=2, sort_keys=True)
            fh.write("\n")
    worlds = {"8x8": default_config(),
              "flat": {**default_config(), **FLAT_WORLD},
              "6x6x3": {**default_config(), **BLOCK3_WORLD}}
    for i, (name, cfg) in enumerate(worlds.items()):
        world = build_world(cfg)
        write_tensor(os.path.join(INPUTS, f"bc-{name}.t"),
                     gauss(101, i, (world.dim,)))
        _, y = sample_pairs(world, 1, 3 + i)[0]
        write_tensor(os.path.join(INPUTS, f"y-{name}.t"), y)
    save_pairs(os.path.join(INPUTS, "pairs"),
               sample_pairs(build_world(worlds["8x8"]), 6, 21), 21)


def run_case(argv, work_dir) -> tuple[int, str]:
    """Run one case in `work_dir`, the inputs copied in: (exit code, stdout).
    The outputs land in `work_dir/out`."""
    shutil.copytree(INPUTS, os.path.join(work_dir, "inputs"))
    cwd = os.getcwd()
    stdout = io.StringIO()
    try:
        os.chdir(work_dir)
        with contextlib.redirect_stdout(stdout):
            code = cli.run([*argv, "--out", "out"])
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue()


def main(names) -> int:
    unknown = [name for name in names if name not in CASES]
    if not names or unknown:
        print("usage: regenerate.py CASE [CASE ...]"
              + (f"\nunknown case: {' '.join(unknown)}" if unknown else "")
              + f"\ncases: {' '.join(CASES)}", file=sys.stderr)
        return 2
    if not os.path.isdir(INPUTS):
        write_inputs()
    for name in names:
        argv = CASES[name]
        case_dir = os.path.join(HERE, name)
        shutil.rmtree(case_dir, ignore_errors=True)
        with tempfile.TemporaryDirectory() as work:
            code, stdout = run_case(argv, work)
            if code:
                print(f"{name}: exit {code}", file=sys.stderr)
                return 1
            shutil.copytree(os.path.join(work, "out"), case_dir)
        with open(os.path.join(case_dir, "argv.json"), "w") as fh:
            json.dump(argv, fh, indent=1)
            fh.write("\n")
        with open(os.path.join(case_dir, "stdout.txt"), "w") as fh:
            fh.write(stdout)
        count = sum(len(files) for _, _, files in os.walk(case_dir))
        print(f"{name}: {count - 1} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
