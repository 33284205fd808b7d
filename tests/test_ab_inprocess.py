"""tools/ab_inprocess.py's report and exit code, driven by stub sides with
fixed timings and digests, so no checkout is copied and no trial runs."""

import argparse
import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_inprocess.py"
CELLS = [("sprint", "scene_a"), ("rrt", "scene_b")]
SAMPLES = 1000


@pytest.fixture(scope="module")
def ab():
    # the tool sets the BLAS thread variables at import
    with mock.patch.dict(os.environ):
        spec = importlib.util.spec_from_file_location("ab_inprocess", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


class StubSide:
    """seconds[seed] per trial, the first round 1 ms slower than the rest,
    so only the fastest round counts; digest(cell, seed) per trial."""

    def __init__(self, seconds, digest=lambda cell, seed: b"same"):
        self.seconds, self.digest = seconds, digest
        self.calls = {}

    def trial(self, planner, scene_name, seed):
        key = (planner, scene_name, seed)
        first = key not in self.calls
        self.calls[key] = self.calls.get(key, 0) + 1
        slow = 1e-3 if first else 0.0
        return self.seconds[seed] + slow, SAMPLES, self.digest((planner, scene_name), seed)


def _compare(ab, head_digest=lambda cell, seed: b"same"):
    # base 4 us/sample everywhere; head 2, 8 and 2 us/sample on seeds 0-2
    sides = {"base": StubSide([0.004] * 3), "head": StubSide([0.002, 0.008, 0.002], head_digest)}
    args = argparse.Namespace(workload="stub", seeds=3, rounds=2)
    rc = ab.compare(sides, CELLS, args)
    assert all(n == 2 for side in sides.values() for n in side.calls.values())
    return rc


def test_equal_digests_report_ratio_and_wins(ab, capsys):
    assert _compare(ab) == 0
    lines = capsys.readouterr().out.splitlines()
    # per seed head/base 0.5, 2, 0.5: geometric mean 0.5 ** (1/3)
    for line, (planner, scene) in zip(lines[2:4], CELLS):
        assert line.split() == [planner, scene, "4.00", "3.17", "0.794", "2/3", "same"]
    assert lines[4] == "overall head/base 0.794  head won 4/6  digests same"


def test_one_differing_digest_fails(ab, capsys):
    def head_digest(cell, seed):
        return b"other" if (cell, seed) == (CELLS[1], 2) else b"same"

    assert _compare(ab, head_digest) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split()[-1] == "same"
    assert lines[3].split()[-1] == "DIFFER"
    assert lines[4].endswith("digests DIFFER")
