"""The odebc benchmark: `odebc` CLI workloads timed in fresh processes.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0
    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 1
    python3 benchmarks/run.py --workload all [--seed N] [--seconds S]
    python3 benchmarks/run.py --self-check
    python3 benchmarks/run.py --update-references

Load is a closed loop: one client runs one CLI command at a time
(`--workers 1`, numpy's BLAS at its default thread count) and starts the
next when it exits, until `--seconds` have passed and at least
`MIN_SAMPLES` runs are done. Every run's outputs go through checks.py.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json, each the
median over the run's samples: `wall_s` (process start to exit),
`proj_per_s` (the workload's solver state rows per second of `wall_s`),
`setup_s` (fresh process to a built world, schedule, solver and denoiser;
one discarded warm-up, then one probe before every CLI run) and
`peak_rss_mb`. `fail_frac`, failed runs over attempted ones, is the
`failed` / `attempted` pair of the result line. `--trace 1` adds one
traced run (tracer.py, layers.py) and the unit costs (unitcost.py) and
prints the per-layer metrics.

The last line of stdout is the JSON result; the lines before it show each
sample, quartiles and provenance. Scratch output goes to `.bench_out/` in
the repository root and is removed at exit. A run counts as attempted for
every process it starts (set-up probes, CLI runs, helpers) and as failed
for every one that exits non-zero or fails a check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import checks
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH, "reference")
CHILD_TIMEOUT_S = 150
MIN_SAMPLES = 3


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _units() -> dict:
    spec = _load_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    started: float  # time.monotonic() just before the process started
    stdout: str  # path of the captured stdout


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("ODEBC_WORKERS", None)
    return env


def run_child(args, workdir, tag) -> Child:
    """Run `python3 ARGS` from the repository root and wait for it.

    Linux carries the parent's peak RSS into a child's `ru_maxrss` across
    fork and exec, so `rss_mb` is the child's own peak only while the
    harness stays smaller than the child: big work (span analysis, unit
    costs) runs in helper processes, and end_to_end() checks the sizes.
    """
    stdout = os.path.join(workdir, f"{tag}.stdout")
    stderr = os.path.join(workdir, f"{tag}.stderr")
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, cwd=ROOT,
                                env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        with open(stderr) as fh:
            tail = fh.read().strip().splitlines()[-1:]
        print(f"  {tag}: exit {proc.returncode} {' '.join(tail)}")
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, started, stdout)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Session:
    """One benchmark invocation: a scratch directory and run counters."""

    def __init__(self, workload, seed, reference=REFERENCE):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        os.makedirs(SCRATCH, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:  # another session still uses it
            pass

    def record(self, tag, problems, attempt=True) -> bool:
        """Count one attempted operation, or with `attempt` False a check
        on operations already counted; failed when `problems` is non-empty."""
        self.attempted += attempt
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"  {tag}: FAIL {problem}")
        return not problems

    def setup_probe(self, tag) -> float | None:
        child = run_child([os.path.join(BENCH, "probe_setup.py")]
                          + self.workload.config_args(self.seed), self.dir, tag)
        with open(child.stdout) as fh:
            fields = fh.read().split()
        ok = child.code == 0 and len(fields) == 2 and fields[1].startswith(SRC + os.sep)
        if not self.record(tag, [] if ok else [f"setup probe failed: {fields}"]):
            return None
        return float(fields[0]) - child.started

    def cli_sample(self, tag, traced_spans=None) -> tuple[Child, str, bool]:
        """One CLI run, checked; returns (child, output dir, ok)."""
        out_dir = os.path.join(self.dir, tag)
        argv = self.workload.argv(self.seed, out_dir)
        entry = (["-m", "odebc.cli"] if traced_spans is None
                 else [os.path.join(BENCH, "tracer.py"), traced_spans])
        child = run_child(entry + argv, self.dir, tag)
        problems = [f"exit code {child.code}"] if child.code else checks.check_run(
            self.workload, self.seed, out_dir, child.stdout, self.reference)
        return child, out_dir, self.record(tag, problems)

    def samples(self, seconds, min_samples, setups=None):
        """Closed loop of untraced CLI runs; keeps only the last output dir.

        With a `setups` list, a set-up probe precedes every run and its
        time is appended, so both sample the same stretch of machine time.
        """
        runs, last = [], None
        start = time.perf_counter()
        while len(runs) < min_samples or time.perf_counter() - start < seconds:
            tag = f"run{len(runs):02d}"
            if setups is not None:
                setups.append(self.setup_probe(f"setup-{tag}"))
            if last:
                shutil.rmtree(last[0], ignore_errors=True)
            child, out_dir, ok = self.cli_sample(tag)
            setup = f", setup {setups[-1]:.4f} s" if setups and setups[-1] else ""
            print(f"  {tag}: wall {child.wall_s:.4f} s, rss {child.rss_mb:.1f} MB"
                  f"{setup}, {'ok' if ok else 'FAILED'}")
            runs.append(child)
            last = (out_dir, child.stdout)
        return runs, last


def _summary(name, values, unit) -> float:
    median = statistics.median(values)
    q1, q3 = _quartiles(values)
    print(f"{name} = {median:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, "
          f"n={len(values)})")
    return median


def end_to_end(session, seconds, min_samples=MIN_SAMPLES) -> dict:
    wl = session.workload
    session.setup_probe("warmup")  # discarded: writes bytecode, fills caches
    setups = []
    runs, _ = session.samples(seconds, min_samples, setups)
    setups = [s for s in setups if s is not None] or [0.0]  # failed above
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    session.record("rss", [f"harness peak RSS {own_rss:.1f} MB hides the CLI's"]
                   if own_rss >= min(r.rss_mb for r in runs) else [], attempt=False)
    values = {
        "wall_s": [r.wall_s for r in runs],
        "proj_per_s": [wl.rows / r.wall_s for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r.rss_mb for r in runs],
    }
    units = _units()
    return {name: {"value": _summary(name, vals, units[name]), "unit": units[name]}
            for name, vals in values.items()}


def _output_bytes(out_dir) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def _same_outputs(dir_a, stdout_a, dir_b, stdout_b) -> bool:
    """Outputs of two runs are byte-identical, up to the output path."""
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    for name in names:
        if name == "manifest.json":  # records --out
            continue
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    with open(stdout_a) as fa, open(stdout_b) as fb:
        return fa.read().replace(dir_a, "<out>") == fb.read().replace(dir_b, "<out>")


def _child_json(session, args, tag) -> dict:
    """Run a helper script and parse the JSON on its last stdout line."""
    child = run_child(args, session.dir, tag)
    if not session.record(tag, [f"exit code {child.code}"] if child.code else []):
        return {}
    with open(child.stdout) as fh:
        return json.loads(fh.read().splitlines()[-1])


def per_layer(session, seconds) -> dict:
    wl = session.workload
    session.setup_probe("warmup")
    runs, (plain_dir, plain_stdout) = session.samples(seconds, 1)
    spans = os.path.join(session.dir, "spans.json")
    traced, traced_dir, ok = session.cli_sample("traced", spans)
    values = {}
    if ok:
        values = _child_json(session, [os.path.join(BENCH, "layers.py"), spans],
                             "layers").get("metrics", {})
    problems = []
    if values:
        values["cli.bytes_written"] = _output_bytes(traced_dir)
        values["trace.overhead_s"] = (traced.wall_s
                                      - statistics.median(r.wall_s for r in runs))
        if not _same_outputs(plain_dir, plain_stdout, traced_dir, traced.stdout):
            problems.append("traced outputs differ from the untraced run")
        if wl.deterministic and values["rng.draws"]:
            problems.append(f"{values['rng.draws']} noise draws in a deterministic run")
        if values["sampler.projections"] != wl.rows:
            problems.append(f"{values['sampler.projections']} rows projected, "
                            f"workload says {wl.rows}")
    session.record("traced-invariants", problems, attempt=False)
    values.update(_child_json(session, [os.path.join(BENCH, "unitcost.py"),
                                        os.path.join(BENCH, "configs")], "unitcost"))
    units = _units()
    names = [m["name"] for m in _load_spec()["per_layer"] if m["name"] in values]
    for name in names:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name in names}


def _git_revision() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def provenance(seed, names=tuple(WORKLOADS)) -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    if libs:
        getter = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        threads = getter() if getter else None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_revision": _git_revision(),
        "seed": seed,
        "workloads": {
            wl.name: {"argv": ["python3", "-m", "odebc.cli"] + wl.argv(seed, "<out>"),
                      "rows": wl.rows, "why": wl.why}
            for wl in map(WORKLOADS.get, names)
        },
    }


def run_workload(name, seed, seconds, trace, **kwargs) -> dict:
    session = Session(WORKLOADS[name], seed)
    try:
        print(f"{name} seed={seed} trace={trace}")
        metrics = (per_layer if trace else end_to_end)(session, seconds, **kwargs)
    finally:
        session.close()
    print(f"fail_frac = {session.failed / session.attempted:.6g} "
          f"({session.failed} of {session.attempted} runs failed)")
    return {"correct": session.failed == 0 and len(metrics) > 0,
            "attempted": session.attempted, "failed": session.failed,
            "metrics": metrics}


def _perturbed_reference(name, dst) -> None:
    """Copy one workload's references, doubling-plus-one their first real
    number, so the run that matches the true references must fail."""
    shutil.copytree(os.path.join(REFERENCE, name), os.path.join(dst, name))
    path = os.path.join(dst, name, checks.REFERENCE_FILES[name][0])
    with open(path) as fh:
        text = fh.read()
    match = next(m for m in checks.NUMBER.finditer(text) if "." in m.group())
    bumped = repr(2 * float(match.group()) + 1)
    with open(path, "w") as fh:
        fh.write(text[:match.start()] + bumped + text[match.end():])


def self_check() -> int:
    """One short run per workload at each trace level, and a perturbed
    reference that must turn fail_frac non-zero."""
    spec = _load_spec()
    errors = []
    for name, wl in WORKLOADS.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run_workload(name, DEFAULT_SEED, 0, trace,
                               **({} if trace else {"min_samples": 1}))
            for metric in spec[key]:
                got = res["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    errors.append(f"{name} trace={trace}: {metric['name']} "
                                  f"missing or not in {metric['unit']}: {got}")
            if res["failed"]:
                errors.append(f"{name} trace={trace}: {res['failed']} failed runs")
        session = Session(wl, DEFAULT_SEED, reference=os.path.join(SCRATCH, "perturbed"))
        try:
            _perturbed_reference(name, session.reference)
            session.cli_sample("perturbed")
        finally:
            shutil.rmtree(session.reference, ignore_errors=True)
            session.close()
        if session.failed == 0:
            errors.append(f"{name}: a perturbed reference left fail_frac at 0")
        else:
            print(f"{name}: perturbed reference -> fail_frac "
                  f"{session.failed / session.attempted:g}")
    for error in errors:
        print(f"SELF-CHECK FAIL {error}")
    print("self-check", "FAILED" if errors else "passed")
    return 1 if errors else 0


def update_references() -> int:
    """Rewrite reference/ from the default seed and record provenance.json."""
    digests = {}
    for name, wl in WORKLOADS.items():
        session = Session(wl, DEFAULT_SEED, reference=None)  # invariants only
        try:
            child, out_dir, ok = session.cli_sample("reference")
            if not ok:
                return 1
            checks.save_reference(wl, out_dir, child.stdout, REFERENCE)
        finally:
            session.close()
        for file in checks.REFERENCE_FILES[name]:
            with open(os.path.join(REFERENCE, name, file), "rb") as fh:
                digests[f"{name}/{file}"] = hashlib.sha256(fh.read()).hexdigest()
    record = provenance(DEFAULT_SEED)
    record["reference_sha256"] = digests
    with open(os.path.join(BENCH, "provenance.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--update-references", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "odebc", "cli.py")):
        print(f"error: no odebc sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.update_references:
        return update_references()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("provenance " + json.dumps(provenance(args.seed, names), sort_keys=True))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    table = {}
    for name in WORKLOADS:
        res = run_workload(name, args.seed, args.seconds, 0)
        table[name] = {m: v["value"] for m, v in res["metrics"].items()}
        table[name]["fail_frac"] = res["failed"] / res["attempted"]
    for name, row in table.items():
        print(name + "  " + "  ".join(f"{m} {v:.6g}" for m, v in row.items()))
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
