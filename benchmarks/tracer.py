"""Run one `odebc` CLI command with every layer's public functions traced.

    python3 benchmarks/tracer.py SPANS.json CLI_ARG...

Each public function and public method of the layer modules is replaced,
in every `odebc` module that holds a reference to it (names imported with
`from .x import f`, dispatch tables), by a wrapper that records a span:
name, start, end, parent span and a per-call count (state rows for eps and
solver calls, cells for objective tables, pairs for pair sampling). Spans
stay in memory and are written to SPANS.json when the command returns; the
wrappers call the originals unchanged, so outputs stay bit-identical.
The command must run single-threaded (`--workers 1`): there is one span
stack.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("schedule", "model", "sampler", "bcsearch", "analysis", "metrics",
          "rng", "worldgen", "tensorio", "config", "cli")


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _count_notes():
    """Per-span counts and flags, keyed by span name: args -> (count, flag)."""
    from odebc.model import BLANK

    return {
        # (rows, conditional?) for eps(self, x_t, condition, t)
        "model.AnalyticDenoiser.eps":
            lambda a, k: (_rows(a[1]), a[2] is not BLANK),
        # rows of x_t in run_solver/project(model, cfg, x_t, cond)
        "sampler.run_solver": lambda a, k: (_rows(a[2]), False),
        "sampler.project": lambda a, k: (_rows(a[2]), False),
        # K x R cells of objective_table(cands, refs, ...)
        "bcsearch.objective_table": lambda a, k: (a[0].size * len(a[1]), False),
        # n of sample_pairs(world, n, seed)
        "worldgen.sample_pairs": lambda a, k: (int(a[1]), False),
    }


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent, count, flag]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            count, flag = note(args, kwargs) if note else (0, False)
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, count, flag]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def dump(self, path: str, exit_code: int) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "exit_code": exit_code}, fh, separators=(",", ":"))


def _public_callables(module):
    """(qualified name, owner, attribute, function) for the module's API."""
    prefix = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{prefix}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{prefix}.{attr}.{meth}", obj, meth, fn


def install(recorder: Recorder) -> None:
    """Wrap every layer's public API and rebind every reference to it."""
    modules = [importlib.import_module(f"odebc.{layer}") for layer in LAYERS]
    notes = _count_notes()
    wrapped = {}
    for module in modules:
        for name, owner, attr, fn in list(_public_callables(module)):
            wrapper = recorder.wrap(name, fn, notes.get(name))
            setattr(owner, attr, wrapper)
            wrapped[id(fn)] = wrapper
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "odebc" and not mod_name.startswith("odebc."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if id(value) in wrapped:
                        obj[key] = wrapped[id(value)]


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import odebc.cli

    recorder = Recorder()
    install(recorder)
    code = odebc.cli.run(cli_args)
    recorder.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
