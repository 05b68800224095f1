"""Golden CLI outputs: small `gen-world`, `sample`, `independence`,
`benchmark`, `search` and ablation runs reproduce the files under
tests/golden/.

Numbers match within `benchmarks/checks.py`'s file tolerances (1e-9
relative), stdout within its stdout tolerances, and PGM pixels within one
grey level; `manifest.json` matches apart from `run.out`. A number that is
exactly zero in a golden text file must be exactly zero in the output. The
cases and their inputs are written by tests/golden/regenerate.py.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "benchmarks"))
sys.path.insert(0, GOLDEN)

from checks import _compare_file, _split_text  # noqa: E402
from regenerate import main as regenerate, run_case  # noqa: E402

CASES = sorted(name for name in os.listdir(GOLDEN)
               if os.path.exists(os.path.join(GOLDEN, name, "argv.json")))


def _compare_pgm(name, got_path, want_path) -> list[str]:
    with open(got_path, "rb") as fh:
        got = fh.read()
    with open(want_path, "rb") as fh:
        want = fh.read()
    # P5 header: three lines (magic, width height, max value), then pixels.
    *got_head, got_pixels = got.split(b"\n", 3)
    *want_head, want_pixels = want.split(b"\n", 3)
    if got_head != want_head or len(got_pixels) != len(want_pixels):
        return [f"{name}: header or size differs from the golden file"]
    levels = np.abs(np.frombuffer(got_pixels, np.uint8).astype(int)
                    - np.frombuffer(want_pixels, np.uint8).astype(int))
    if levels.max() > 1:
        return [f"{name}: grey levels off by up to {levels.max()}"]
    return []


def _compare_zeros(name, got_path, want_path) -> list[str]:
    """Positions where a golden text file holds an exact zero and the output
    does not. Such zeros are set, not summed (the std of identical repeats),
    so summation dust there is a fault even inside the file tolerance."""
    with open(got_path) as fh:
        _, got = _split_text(fh.read())
    with open(want_path) as fh:
        _, want = _split_text(fh.read())
    if len(got) != len(want):
        return []  # _compare_file reports the count
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if b == 0.0 and a != 0.0]
    return [f"{name}: {len(bad)} exact zeros became nonzero, first {got[bad[0]]!r}"
            ] if bad else []


def _compare_manifest(name, got_path, want_path, tmp_path) -> list[str]:
    paths = []
    for label, path in (("got", got_path), ("want", want_path)):
        with open(path) as fh:
            manifest = json.load(fh)
        del manifest["config"]["run"]["out"]
        paths.append(tmp_path / f"{label}-{name}")
        paths[-1].write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return _compare_file(name, *paths)


def _files(directory) -> list[str]:
    """Every file under `directory`, as a path relative to it."""
    return [os.path.relpath(os.path.join(root, name), directory)
            for root, _, names in os.walk(directory) for name in names]


@pytest.mark.parametrize("case", CASES)
def test_golden_outputs(case, tmp_path):
    want_dir = os.path.join(GOLDEN, case)
    with open(os.path.join(want_dir, "argv.json")) as fh:
        argv = json.load(fh)
    work = tmp_path / "work"
    work.mkdir()
    code, stdout = run_case(argv, str(work))
    assert code == 0
    (work / "out" / "stdout.txt").write_text(stdout)
    names = sorted(set(_files(want_dir)) - {"argv.json"})
    assert sorted(_files(work / "out")) == names
    problems = []
    for name in names:
        got, want = str(work / "out" / name), os.path.join(want_dir, name)
        if name.endswith(".pgm"):
            problems += _compare_pgm(name, got, want)
        elif name == "manifest.json":
            problems += _compare_manifest(name, got, want, tmp_path)
        else:
            problems += _compare_file(name, got, want)
            if not name.endswith(".t"):
                problems += _compare_zeros(name, got, want)
    assert problems == []


def test_regenerate_needs_known_case_names(capsys):
    # It writes only the cases it is given, so that adding one case does not
    # re-baseline the others; no name, or an unknown one among them, is a
    # usage error.
    assert regenerate([]) == 2
    assert regenerate(["ablate-k", "no-such-case"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: regenerate.py CASE [CASE ...]")
    assert "unknown case: no-such-case" in err
