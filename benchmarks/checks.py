"""Correctness gate for one CLI run: invariants on any seed, references on
the default seed.

Invariants (any seed): outputs finite; search tables are K x R,
`best_index` is the argmin of the row sums and `bc.t` is that candidate;
the independence matrix is symmetric with a unit diagonal; `verify` prints
its four checks as PASS.

References: the committed outputs of the default seed, under
`reference/<workload>/`. Discrete values (headers, shapes, indices,
labels) must match exactly; numbers in output files within `FILE_RTOL`
relative or `FILE_ATOL` absolute (refactors that reorder floating-point
sums shift them near 1e-15). `verify` has fixed seeds, so its printed
figures are checked on every seed, within `STDOUT_RTOL`: they are
printed with two or three significant digits, and figures below
`STDOUT_ATOL` are rounding-level error measurements.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import struct

import numpy as np

from workloads import DEFAULT_SEED

FILE_RTOL, FILE_ATOL = 1e-9, 1e-12
STDOUT_RTOL, STDOUT_ATOL = 0.05, 1e-9
VERIFY_CHECKS = ("score-vs-finite-difference", "ddim-telescoping",
                 "ddim-convergence", "sampler-marginals")
REFERENCE_FILES = {
    "search-8x8": ("objective_table.csv", "summary.json", "gain.csv",
                   "random_means.csv", "bc.t"),
    "independence-32x32": ("independence.csv",),
    "verify": ("stdout.txt",),
}
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != b"ODBC1":
        raise ValueError(f"{path}: bad magic")
    (rank,) = struct.unpack_from("<I", blob, 5)
    dims = struct.unpack_from(f"<{rank}I", blob, 9)
    return np.frombuffer(blob[9 + 4 * rank:], dtype="<f8").reshape(dims)


def _candidate(seed: int, index: int, dim: int) -> np.ndarray:
    """Candidate x_T, regenerated independently of the package's rng."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, index & mask], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal(size=(dim,), dtype=np.float64)


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= max(rtol * abs(b), atol)


def _floats(cells) -> np.ndarray:
    return np.array([float(c) for c in cells], dtype=np.float64)


def _check_search(workload, seed, out_dir, stdout) -> list[str]:
    k = dict(workload.sizes)["search.candidates"]
    r = dict(workload.sizes)["search.references"]
    n_random = dict(workload.sizes)["search.n_random"]
    problems = []
    header, rows = _read_csv(os.path.join(out_dir, "objective_table.csv"))
    if header != ["candidate"] + [f"ref_{i:03d}" for i in range(r)]:
        problems.append("objective_table.csv: header is not candidate, ref_000..")
    table = np.array([_floats(row[1:]) for row in rows])
    if table.shape != (k, r) or [row[0] for row in rows] != [str(i) for i in range(k)]:
        return problems + [f"objective_table.csv: shape {table.shape}, want {(k, r)}"]
    if not np.all(np.isfinite(table)):
        problems.append("objective_table.csv: non-finite values")
    sums = [math.fsum(row) for row in table.tolist()]
    best = int(np.argmin(sums))
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    if summary["best_index"] != best:
        problems.append(f"best_index {summary['best_index']} is not the argmin {best}")
    if not _close(summary["best_objective"], sums[best], 1e-12, 0.0):
        problems.append("best_objective is not the best row sum")
    if (summary["candidates"], summary["references"]) != (k, r):
        problems.append("summary.json: candidate/reference counts differ from K, R")
    bc = _read_tensor(os.path.join(out_dir, "bc.t"))
    expect = _candidate(workload.seed_value("search.candidate_seed", seed),
                        summary["best_index"], bc.size)
    if not np.array_equal(bc, expect):
        problems.append("bc.t is not the best_index candidate")
    header, rows = _read_csv(os.path.join(out_dir, "gain.csv"))
    gain = dict(zip(header, _floats(rows[0])))
    _, rows = _read_csv(os.path.join(out_dir, "random_means.csv"))
    means = _floats(row[1] for row in rows)
    if not (all(map(math.isfinite, gain.values())) and np.all(np.isfinite(means))):
        problems.append("gain.csv / random_means.csv: non-finite values")
    if gain["n_random"] != n_random or means.size != n_random:
        problems.append(f"held-out report has not n_random={n_random} draws")
    if not _close(gain["random_mean"], math.fsum(means) / means.size, FILE_RTOL, FILE_ATOL):
        problems.append("random_mean is not the mean of random_means.csv")
    sigmas = (gain["random_mean"] - gain["searched_mean"]) / gain["random_std"]
    if not _close(gain["gain_sigmas"], sigmas, FILE_RTOL, FILE_ATOL):
        problems.append("gain_sigmas disagrees with its mean and std")
    if f"best_index {best}" not in stdout:
        problems.append("stdout does not report best_index")
    return problems


def _check_independence(workload, seed, out_dir, stdout) -> list[str]:
    c = dict(workload.sizes)["run.conditions"]
    header, rows = _read_csv(os.path.join(out_dir, "independence.csv"))
    mat = np.array([_floats(row) for row in rows])
    if header != [f"cond_{j:03d}" for j in range(c)] or mat.shape != (c, c):
        return [f"independence.csv: shape {mat.shape}, want {(c, c)}"]
    problems = []
    if not np.all(np.isfinite(mat)):
        problems.append("independence.csv: non-finite values")
    if not np.array_equal(mat, mat.T):
        problems.append("independence matrix is not symmetric")
    if not np.all(np.diag(mat) == 1.0):
        problems.append("independence matrix diagonal is not 1")
    if np.any(np.abs(mat) > 1.0 + 1e-12):
        problems.append("correlation outside [-1, 1]")
    return problems


def _check_verify(workload, seed, out_dir, stdout) -> list[str]:
    lines = stdout.splitlines()
    names = [line.split(":", 1)[0] for line in lines]
    if names != list(VERIFY_CHECKS):
        return [f"verify printed checks {names}, want {list(VERIFY_CHECKS)}"]
    return [f"verify: {line}" for line in lines
            if not line.startswith(line.split(":", 1)[0] + ": PASS (")]


_INVARIANTS = {
    "search": _check_search,
    "independence": _check_independence,
    "verify": _check_verify,
}


def _compare_numbers(label, got, want, rtol, atol) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, reference has {len(want)}"]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if not _close(a, b, rtol, atol)]
    if bad:
        i = bad[0]
        return [f"{label}: {len(bad)} values off the reference, first "
                f"#{i} {got[i]!r} vs {want[i]!r}"]
    return []


def _split_text(text):
    """(text with numbers blanked, numbers) for a loose textual match."""
    return NUMBER.sub("#", text), [float(m) for m in NUMBER.findall(text)]


def _compare_file(name, got_path, want_path) -> list[str]:
    if name.endswith(".t"):
        got, want = _read_tensor(got_path), _read_tensor(want_path)
        if got.shape != want.shape:
            return [f"{name}: shape {got.shape} vs reference {want.shape}"]
        return _compare_numbers(name, got.ravel().tolist(), want.ravel().tolist(),
                                FILE_RTOL, FILE_ATOL)
    with open(got_path) as fh:
        got_text = fh.read()
    with open(want_path) as fh:
        want_text = fh.read()
    rtol, atol = ((STDOUT_RTOL, STDOUT_ATOL) if name == "stdout.txt"
                  else (FILE_RTOL, FILE_ATOL))
    got_skel, got_nums = _split_text(got_text)
    want_skel, want_nums = _split_text(want_text)
    if got_skel != want_skel:
        return [f"{name}: text differs from the reference"]
    return _compare_numbers(name, got_nums, want_nums, rtol, atol)


def _output_path(out_dir, stdout_path, name):
    return stdout_path if name == "stdout.txt" else os.path.join(out_dir, name)


def check_run(workload, seed, out_dir, stdout_path, reference_dir) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct.

    `reference_dir` None checks the invariants only.
    """
    with open(stdout_path) as fh:
        stdout = fh.read()
    try:
        problems = _INVARIANTS[workload.command](workload, seed, out_dir, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    if reference_dir is None or (seed != DEFAULT_SEED and workload.seed_keys):
        return problems
    ref = os.path.join(reference_dir, workload.name)
    for name in REFERENCE_FILES[workload.name]:
        try:
            problems += _compare_file(
                name, _output_path(out_dir, stdout_path, name), os.path.join(ref, name))
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc!r}")
    return problems


def save_reference(workload, out_dir, stdout_path, reference_dir) -> None:
    ref = os.path.join(reference_dir, workload.name)
    os.makedirs(ref, exist_ok=True)
    for name in REFERENCE_FILES[workload.name]:
        with open(_output_path(out_dir, stdout_path, name), "rb") as src:
            data = src.read()
        with open(os.path.join(ref, name), "wb") as dst:
            dst.write(data)
