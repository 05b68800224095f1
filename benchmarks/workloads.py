"""The benchmark's workloads: one `odebc` CLI command each, sized and seeded.

A workload seed `s` shifts every `*_seed` config key the command reads by
`SEED_STRIDE * s`, so seed 0 is the shipped default configuration (the one
the committed reference outputs were made from) and every other seed gives
new inputs of exactly the same size. `verify` has fixed internal seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
SEED_STRIDE = 1000

# The config keys each command reads for its random inputs, with defaults.
_SEARCH_SEEDS = {
    "search.candidate_seed": 7,
    "search.reference_seed": 11,
    "run.holdout_seed": 13,
    "run.random_seed": 77,
}
_INDEPENDENCE_SEEDS = {
    "search.candidate_seed": 7,
    "run.condition_seed": 5,
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    sizes: tuple  # (config key, value) pairs fixed by the workload
    seed_keys: dict  # config key -> default value, shifted by the seed
    config: str | None  # config file relative to the repository root
    rows: int  # solver state rows integrated by one run
    deterministic: bool  # True when no solver may draw noise
    why: str

    def config_args(self, seed: int) -> list[str]:
        """`--config` / `--set` arguments; shared by the CLI and setup probe."""
        args = ["--config", self.config] if self.config else []
        for key, value in self.sizes:
            args += ["--set", f"{key}={value}"]
        for key, default in self.seed_keys.items():
            args += ["--set", f"{key}={default + SEED_STRIDE * seed}"]
        return args

    def argv(self, seed: int, out_dir: str) -> list[str]:
        """Arguments after `python3 -m odebc.cli`."""
        return ([self.command, "--workers", "1", "--out", out_dir]
                + self.config_args(seed))

    def seed_value(self, key: str, seed: int) -> int:
        return self.seed_keys[key] + SEED_STRIDE * seed


# search: K*R table rows + n_random*H random rows + H searched rows.
_K, _R, _H, _N_RANDOM = 32, 16, 16, 16
# independence: K candidates under each of C conditions.
_K_IND, _C_IND = 8, 4
# verify: ddpm-1000 and ddim-1000 on 1500 rows, three 1-row telescoping
# solves, one euler-10000 and four ddim 1-row convergence solves.
_VERIFY_ROWS = 2 * 1500 + 3 + 5

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="search-8x8",
            command="search",
            sizes=(("search.candidates", _K), ("search.references", _R),
                   ("run.holdout", _H), ("search.n_random", _N_RANDOM)),
            seed_keys=_SEARCH_SEEDS,
            config=None,
            rows=_K * _R + _N_RANDOM * _H + _H,
            deterministic=True,
            why="many one-row ddim-50 projections on the default 8x8 world: "
                "per-call cost in sampler, bcsearch and model.eps dominates",
        ),
        Workload(
            name="independence-32x32",
            command="independence",
            sizes=(("solver.kind", "dpm2"), ("solver.steps", 20),
                   ("search.candidates", _K_IND),
                   ("run.conditions", _C_IND)),
            seed_keys=_INDEPENDENCE_SEEDS,
            config="benchmarks/configs/world-32x32.json",
            rows=_K_IND * _C_IND,
            deterministic=True,
            why="d=1024 world: dense posterior builds and O(d^2) eps calls "
                "dominate time and memory; few solver calls",
        ),
        Workload(
            name="verify",
            command="verify",
            sizes=(),
            seed_keys={},
            config=None,
            rows=_VERIFY_ROWS,
            deterministic=False,
            why="oracle suite: batched 1500-row states, prior mixture, noise "
                "draws and the energy test; the bypass workload",
        ),
    )
}
