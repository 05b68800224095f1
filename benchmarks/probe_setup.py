"""Set-up probe: import odebc and build a workload's world, schedule, solver
and denoiser, then print `time.monotonic()` and where odebc came from.

    python3 benchmarks/probe_setup.py [--config PATH] [--set KEY=VALUE]...

The parent takes `time.monotonic()` just before starting this process, so
the difference covers interpreter start, imports and the builds.
"""

import sys
import time


def main(argv) -> None:
    import odebc
    from odebc.config import build_schedule, build_solver, build_world, resolve_config
    from odebc.model import AnalyticDenoiser

    path, sets = None, []
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag == "--config":
            path = value
        else:
            sets.append(value)
    cfg = resolve_config(path, sets, workers=1)
    world = build_world(cfg)
    schedule = build_schedule(cfg["solver"])
    build_solver(cfg["solver"], schedule)
    AnalyticDenoiser(world, schedule)
    print(repr(time.monotonic()), odebc.__file__)


if __name__ == "__main__":
    main(sys.argv[1:])
