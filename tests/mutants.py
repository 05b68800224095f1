"""Hand mutants of src/ and whether tier-1 kills them.

    python3 tests/mutants.py

The script first runs tier-1 on an unmutated copy of the repository and
stops if it fails, so that a kill cannot come from a fault of the copy.
Then, for each entry of `MUTANTS`, which replaces one piece of text in one
file, it copies the repository to a temporary directory, applies the mutant
there and runs tier-1 with `-x`. It prints `killed` with the first failing
test when the suite fails, `survived` when it passes, and `stale` when the
old text is not in the file exactly once. A survivor needs a test, or a
reason that says why it is equivalent; a survivor with that reason is
printed as `equivalent`, followed by the reason. Each run takes up to a full tier-1,
so this is a tool to run by hand; pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis")


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str
    new: str
    reason: str
    equivalent: str = ""  # why no test can kill it, for a known survivor


MUTANTS = [
    Mutant("src/odebc/model.py", "pool.obs_dim * np.log(g) + ", "",
           "the evidence's log-determinant left out of the posterior weights"),
    Mutant("src/odebc/analysis.py", "1_000_003 * si + r + 1",
           "1_000_003 * si + r", "ablate-r's repeat seeds shifted by one"),
    Mutant("src/odebc/analysis.py", "seed + 7_919 * (r + 1)",
           "seed + 7_918 * (r + 1)", "ablate-k's candidate seed offset changed"),
    Mutant("src/odebc/analysis.py",
           "        stds[np.ptp(per_repeat, axis=1) == 0.0] = 0.0\n", "",
           "identical ablation repeats keep np.std's rounding dust"),
    Mutant("src/odebc/schedule.py", "np.searchsorted(-logab, -v) - 1",
           "np.searchsorted(-logab, -v)",
           "the lambda inverse interpolates on the segment after its own"),
    Mutant("src/odebc/schedule.py", "np.logaddexp(0.0, -2.0 * target)",
           "np.logaddexp(0.0, 2.0 * target)",
           "the lambda inverse maps lambda to log(1 - alpha_bar)"),
    Mutant("src/odebc/schedule.py",
           "        seg = np.where(seg < 0.0, seg, -np.inf)", "        pass",
           "the lambda inverse divides by a flat end segment's zero length"),
    Mutant("src/odebc/schedule.py", "f, -2.0 * f", "f, 2.0 * f",
           "the squared diffusion g2 has the wrong sign"),
    Mutant("src/odebc/schedule.py", "if n_steps < 1:", "if n_steps < 2:",
           "a one-step continuous plan is rejected"),
    Mutant("src/odebc/model.py", "pool.sums(gauss) / pool.size",
           "pool.sums(gauss) * pool.size",
           "posterior samples scale their block-mean part by b^2, not 1/b^2"),
    Mutant("src/odebc/model.py", "w.shape != (mu.shape[0],) or s.shape",
           "w.shape != (mu.shape[0],) and s.shape",
           "a world whose stds alone disagree on J is accepted"),
    Mutant("src/odebc/sampler.py", "np.allclose(gaps, gaps[0],",
           "np.allclose(gaps, gaps[1],",
           "Euler's uniform-plan check compares with the second gap",
           "the two checks differ only for gaps within 1e-9 relative of "
           "the tolerance's edge, and a plan whose first gap alone differs "
           "fails both"),
    Mutant("src/odebc/sampler.py", "gaps = np.diff(self.plan.times)",
           "gaps = np.diff(self.plan.times)[1:]",
           "Euler's uniform-plan check skips the first gap"),
    Mutant("src/odebc/analysis.py", "stds = np.zeros(len(sizes))",
           "stds = np.ones(len(sizes))", "a single repeat reports a std of 1"),
    Mutant("src/odebc/model.py",
           "    for _ in range(2):\n        v = v - np.einsum",
           "    for _ in range(1):\n        v = v - np.einsum",
           "one Gram-Schmidt pass: the frame of nearly parallel means is not "
           "orthonormal"),
    Mutant("src/odebc/model.py", "RANK_TOL = 1e-12", "RANK_TOL = 1e-3",
           "the direction between two means 1e-6 apart is dropped"),
    Mutant("src/odebc/model.py", "_squares(rest_q) - along * along",
           "_squares(rest_q)", "q keeps the part of the state along w"),
    Mutant("src/odebc/sampler.py", "lam[:-1] + 0.5 * h", "lam[:-1] + 0.4 * h",
           "dpm2's midpoint is not halfway in log-SNR"),
    Mutant("src/odebc/sampler.py", "        noise[-1] = 0.0\n", "",
           "DDPM adds noise on its last step"),
    Mutant("src/odebc/sampler.py", "        gain = ratio * beta / sigma[:-1]\n",
           "", "DDPM keeps DDIM's gain"),
    Mutant("src/odebc/sampler.py", "ratio * s - s_end", "s_end - ratio * s",
           "the first-order step's gain has the wrong sign"),
    Mutant("src/odebc/sampler.py", "u = half_ratio[i] * x - half_gain[i] *",
           "u = ratio[i] * x - gain[i] *",
           "dpm2's midpoint stage takes the full step's coefficients"),
    Mutant("src/odebc/metrics.py", "stats[1:] >= stats[0]",
           "stats[1:] > stats[0]",
           "a permutation that ties the observed energy statistic is not "
           "counted"),
    Mutant("src/odebc/metrics.py", "total + 0.1 * _row_means",
           "total + 0.2 * _row_means", "gradperc's l2 weight changed"),
    Mutant("src/odebc/bcsearch.py", "random_means.std(ddof=1)",
           "random_means.std(ddof=0)", "the held-out gain's std is biased"),
    Mutant("src/odebc/analysis.py", "(world.means - 3 * world.stds",
           "(world.means - 2 * world.stds", "the display range is narrower"),
    Mutant("src/odebc/cli.py", "return worst < 1e-5,", "return worst < 1e-3,",
           "verify's score check passes a 1e-4 error"),
    Mutant("src/odebc/cli.py", "ok = all(p > 0.01 for p in p_values)",
           "ok = all(p > 0.0 for p in p_values)",
           "verify's marginals check passes any p-value"),
    Mutant("src/odebc/cli.py", '{"kind": "euler", "steps": 10000}',
           '{"kind": "euler", "steps": 200}',
           "the convergence reference is a coarse euler solve"),
    Mutant("src/odebc/model.py", "divmod(i, self.ROWS)",
           "divmod(i, self.ROWS - 1)",
           "eps splits rows into blocks one row shorter than the table's: "
           "from row 255 on, a row reads a later time's coefficients"),
    Mutant("src/odebc/model.py", "(block + 1) * self.ROWS)",
           "(block + 1) * self.ROWS - 1)",
           "each block of the solve table is one row short"),
    Mutant("src/odebc/metrics.py", "width = min(TILE, n + m - j)",
           "width = min(TILE, n + m - j) - 1",
           "each column tile of the energy test drops its last column"),
    Mutant("src/odebc/worldgen.py", "max(h + w - 2, 1) - 0.5",
           "max(h + w - 2, 1) - 0.4", "the gradient texture is not centred"),
    Mutant("src/odebc/worldgen.py", "field *= amp / max(field.std(), 1e-12)",
           "field *= amp", "smooth noise is not rescaled to its amplitude"),
    Mutant("src/odebc/worldgen.py", "world.tau * rng.standard_normal",
           "world.tau ** 2 * rng.standard_normal",
           "pairs draw their observation noise with tau^2 as its std"),
    Mutant("src/odebc/config.py", "out[key] = deep_merge(out[key], value)",
           "out[key] = copy.deepcopy(value)",
           "a nested override replaces its whole section"),
    Mutant("src/odebc/config.py", '"config" in data and "command" in data',
           '"config" in data and "commands" in data',
           "a run manifest is not read back as a config"),
    Mutant("src/odebc/config.py", '"steps": (50, _STEPS)',
           '"steps": (51, _STEPS)', "the default solver takes 51 steps"),
]


def run_tier1(mutant: Mutant | None) -> tuple[str, str]:
    """Tier-1 on a copy of the repository with `mutant` applied (none for
    the baseline): ('stale', ''), ('survived', '') or ('killed', first
    failing test id, or the tail of pytest's output when it names none)."""
    with tempfile.TemporaryDirectory() as tmp:
        repo = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, repo, ignore=IGNORED)
        if mutant is not None:
            path = os.path.join(repo, mutant.file)
            with open(path) as fh:
                text = fh.read()
            if text.count(mutant.old) != 1:
                return "stale", ""
            with open(path, "w") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
             "-p", "no:cacheprovider", "--continue-on-collection-errors"],
            cwd=repo, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
    if result.returncode == 0:
        return "survived", ""
    lines = result.stdout.splitlines()
    failed = [ln for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0] if failed else " | ".join(lines[-3:])


def main() -> int:
    outcome, detail = run_tier1(None)
    if outcome != "survived":
        print(f"tier-1 fails without a mutant: {detail}", flush=True)
        return 1
    for i, mutant in enumerate(MUTANTS):
        outcome, detail = run_tier1(mutant)
        if outcome == "survived" and mutant.equivalent:
            outcome, detail = "equivalent", mutant.equivalent
        print(f"{i} {outcome}: {mutant.file}: {mutant.reason}"
              + (f"\n    {detail}" if detail else ""), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
