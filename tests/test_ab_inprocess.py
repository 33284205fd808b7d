"""tools/ab_inprocess.py's report, JSON file and exit code, driven by stub
sides with fixed timings and digests, so no checkout is copied and no trial
runs; and the schema and digest agreement of every committed `BENCH_*.json`,
the tool's `--json` output kept as a perf change's evidence."""

import importlib.util
import json
import math
import os
import re
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_inprocess.py"
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
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
    """seconds[seed] of CPU time per trial and twice that of wall time, the
    first round 1 ms slower than the rest, so only the fastest round counts;
    digest(cell, seed) per trial."""

    def __init__(self, seconds, digest=lambda cell, seed: b"same"):
        self.seconds, self.digest = seconds, digest
        self.calls = {}

    def trial(self, planner, scene_name, seed):
        key = (planner, scene_name, seed)
        first = key not in self.calls
        self.calls[key] = self.calls.get(key, 0) + 1
        cpu = self.seconds[seed] + (1e-3 if first else 0.0)
        return cpu, 2 * cpu, SAMPLES, self.digest((planner, scene_name), seed)


def _compare(ab, head_digest=lambda cell, seed: b"same",
             control_digest=lambda cell, seed: b"same"):
    # base 4 us/sample everywhere; head 2, 8 and 2 us/sample on seeds 0-2;
    # the base's copy 4, 2 and 4
    sides = {"base": StubSide([0.004] * 3), "head": StubSide([0.002, 0.008, 0.002], head_digest),
             "control": StubSide([0.004, 0.002, 0.004], control_digest)}
    report = ab.compare(sides, "stub", CELLS, 3, 2)
    assert all(n == 2 for side in sides.values() for n in side.calls.values())
    return report


def test_equal_digests_report_ratio_and_wins(ab, capsys):
    report = _compare(ab)
    assert report["overall"]["digests_agree"] is True
    lines = capsys.readouterr().out.splitlines()
    # per seed head/base 0.5, 2, 0.5: geometric mean 0.5 ** (1/3)
    for line, (planner, scene) in zip(lines[2:4], CELLS):
        assert line.split() == [planner, scene, "4.00", "3.17", "0.794", "2/3", "same"]
    # log-ratios -ln 2, ln 2, -ln 2 in each cell: the bootstrap means lie on
    # a lattice of ln 2 / 6 steps, so the interval ends are exact powers of 2;
    # the sign test counts 4 wins against 2 losses
    assert lines[4] == ("overall head/base 0.794  interval 0.500-1.260  sign p 0.69  "
                        "head won 4/6  digests same")
    assert report["overall"]["ratio_interval"] == pytest.approx([0.5, 2 ** (1 / 3)])
    assert report["overall"]["sign_p"] == 2 * (1 + 6 + 15) / 2 ** 6
    # per seed copy/base 1, 0.5, 1 in each cell: 2 wins and 4 ties
    assert lines[5] == ("control copy/base 0.794  interval 0.630-1.000  sign p 0.5  "
                        "copy won 2/6  digests same")
    assert report["control"] == {"ratio": pytest.approx(0.5 ** (1 / 3)), "wins": 2, "n": 6,
                                 "digests_agree": True,
                                 "ratio_interval": pytest.approx([2 ** (-2 / 3), 1.0]),
                                 "sign_p": 0.5}
    # the resampling seed is fixed: the same timings give the same interval
    assert _compare(ab)["overall"]["ratio_interval"] == report["overall"]["ratio_interval"]


def test_sign_test_is_exact_and_two_sided(ab):
    assert ab.sign_test_p([-0.1] * 9 + [0.2]) == ab.sign_test_p([0.1] * 9 + [-0.2]) \
        == 2 * (1 + 10) / 2 ** 10
    # ties count for neither side
    assert ab.sign_test_p([-0.1] * 9 + [0.2] + [0.0] * 5) == 2 * (1 + 10) / 2 ** 10
    assert ab.sign_test_p([-0.1, 0.1] * 20) == ab.sign_test_p([0.0, 0.0]) == 1.0
    assert ab.sign_test_p([-0.1] * 40) == 2 / 2 ** 40


def test_interval_of_equal_log_ratios_is_their_ratio(ab):
    assert ab.ratio_interval([math.log(0.9)] * 5) == pytest.approx([0.9, 0.9])
    assert ab.ratio_interval([0.0, 0.0]) == [1.0, 1.0]


def test_one_differing_digest_fails(ab, capsys):
    def head_digest(cell, seed):
        return b"other" if (cell, seed) == (CELLS[1], 2) else b"same"

    assert _compare(ab, head_digest)["overall"]["digests_agree"] is False
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split()[-1] == "same"
    assert lines[3].split()[-1] == "DIFFER"
    assert lines[4].endswith("digests DIFFER")
    assert lines[5].endswith("digests same")


def test_control_digest_differing_from_base_fails(ab, capsys):
    def control_digest(cell, seed):
        return b"other" if (cell, seed) == (CELLS[0], 1) else b"same"

    report = _compare(ab, control_digest=control_digest)
    assert report["control"]["digests_agree"] is False
    assert report["overall"]["digests_agree"] is False
    assert all(cell["digests_agree"] for cell in report["cells"])
    assert capsys.readouterr().out.splitlines()[5].endswith("digests DIFFER")


def test_sides_take_turns_in_every_order(ab, capsys):
    orders = {}  # (round, seed) -> the sides in the order they ran

    class Logged(StubSide):
        def __init__(self, name):
            super().__init__([0.004] * 6)
            self.name = name

        def trial(self, planner, scene_name, seed):
            n = self.calls.get((planner, scene_name, seed), 0)
            orders.setdefault((n, seed), []).append(self.name)
            return super().trial(planner, scene_name, seed)

    ab.compare({name: Logged(name) for name in ab.SIDES}, "stub", CELLS[:1], 6, 3)
    assert len(set(ab.ORDERS)) == 6
    # within a round the seeds run the six orders, and across rounds each
    # seed runs a different one
    for r in range(3):
        assert {tuple(orders[r, seed]) for seed in range(6)} == set(ab.ORDERS)
    for seed in range(6):
        assert len({tuple(orders[r, seed]) for r in range(3)}) == 3


TOP_KEYS = {"command", "base", "head", "machine", "budget", "seeds", "rounds",
            "digests_agree", "workloads"}
CELL_KEYS = {"planner", "scene", "base_cpu_us_per_sample", "head_cpu_us_per_sample",
             "base_wall_us_per_sample", "head_wall_us_per_sample", "ratio", "head_wins", "n",
             "digests_agree"}
# files written before the tool timed CPU time: one wall-time figure per side
WALL_CELL_KEYS = {"planner", "scene", "base_us_per_sample", "head_us_per_sample", "ratio",
                  "head_wins", "n", "digests_agree"}
OVERALL_KEYS = {"ratio", "head_wins", "n", "digests_agree"}
CONTROL_KEYS = {"ratio", "wins", "n", "digests_agree"}
# files written before the tool reported the paired interval lack these
INTERVAL_KEYS = {"ratio_interval", "sign_p"}
# files written before the tool timed a copy of the base have no "control"
WORKLOAD_KEYS = ({"cells", "overall", "control"}, {"cells", "overall"})


def _summary_keys_ok(entry, keys) -> bool:
    """entry has keys, or keys and a well-formed paired interval: two
    positive finite ends, lo <= hi, and a sign test p value in [0, 1]."""
    if not isinstance(entry, dict) or set(entry) not in (keys, keys | INTERVAL_KEYS):
        return False
    if "ratio_interval" not in entry:
        return True
    ends, p = entry["ratio_interval"], entry["sign_p"]
    return (isinstance(ends, list) and len(ends) == 2
            and all(isinstance(x, float) and 0.0 < x < math.inf for x in ends)
            and ends[0] <= ends[1] and isinstance(p, float) and 0.0 <= p <= 1.0)


def bench_file_problems(data) -> list[str]:
    """What keeps data from being a `--json` report: its key sets, the types
    of each side's git state, the paired intervals where present, and
    digest agreement that holds at the top level only if it holds in every
    workload, and in a workload only if in every cell and in its control,
    if it has one."""
    if not isinstance(data, dict) or set(data) != TOP_KEYS:
        return [f"top-level keys {sorted(data) if isinstance(data, dict) else data!r}"]
    problems = []
    for side in ("base", "head"):
        state = data[side]
        if not (isinstance(state, dict) and set(state) == {"commit", "src_modified"}
                and isinstance(state["commit"], (str, type(None)))
                and isinstance(state["src_modified"], (bool, type(None)))):
            problems.append(f"{side} {state!r}")
    if not (isinstance(data["workloads"], dict) and data["workloads"]):
        return problems + ["no workloads"]
    agree = True
    for name, wl in data["workloads"].items():
        if not (isinstance(wl, dict) and set(wl) in WORKLOAD_KEYS
                and isinstance(wl["cells"], list) and wl["cells"]
                and all(isinstance(c, dict) and set(c) in (CELL_KEYS, WALL_CELL_KEYS)
                        for c in wl["cells"])
                and _summary_keys_ok(wl["overall"], OVERALL_KEYS)
                and (_summary_keys_ok(wl.get("control"), CONTROL_KEYS) or "control" not in wl)):
            problems.append(f"workload {name}: keys")
            continue
        cells_agree = all(c["digests_agree"] is True for c in wl["cells"])
        if "control" in wl:
            cells_agree &= wl["control"]["digests_agree"] is True
        if wl["overall"]["digests_agree"] is not cells_agree:
            problems.append(f"{name}: digests_agree {wl['overall']['digests_agree']!r}; "
                            f"the cells and control say {cells_agree}")
        agree &= cells_agree
    if data["digests_agree"] is not agree:
        problems.append(f"digests_agree {data['digests_agree']!r}; the workloads say {agree}")
    return problems


def test_json_report_is_a_well_formed_bench_file(ab, tmp_path, monkeypatch, capsys):
    # stub checkouts: the head is 2x faster on seed 0 and 2x slower on seed 1
    seconds = {"ab_base": [0.004, 0.004], "ab_head": [0.002, 0.008],
               "ab_control": [0.004, 0.004]}
    copied = []
    monkeypatch.setattr(ab, "import_copy",
                        lambda checkout, name, tmp: copied.append((checkout, name)) or name)
    monkeypatch.setattr(ab, "Side", lambda pkg, scene_names: StubSide(seconds[pkg]))
    out = tmp_path / "BENCH_stub.json"
    # workloads named after one flag and after a repeated flag all run
    argv = ["--base", str(tmp_path), "--head", str(tmp_path), "--workload", "paper_2d",
            "sprint_highdim", "--seeds", "2", "--workload", "baselines_mix", "--rounds", "2",
            "--json", str(out)]
    assert ab.main(argv) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert bench_file_problems(data) == []
    # the control is a second copy of the base checkout
    assert copied == [(tmp_path, "ab_base"), (tmp_path, "ab_head"), (tmp_path, "ab_control")]
    assert data["command"] == "python3 tools/ab_inprocess.py " + " ".join(argv)
    # tmp_path is no git work tree
    assert data["base"] == data["head"] == {"commit": None, "src_modified": None}
    assert list(data["workloads"]) == ["paper_2d", "sprint_highdim", "baselines_mix"]
    assert len(data["workloads"]["paper_2d"]["cells"]) == 9
    cell = data["workloads"]["sprint_highdim"]["cells"][0]
    assert (cell["planner"], cell["scene"]) == ("sprint", "narrow_passage_6d")
    assert (cell["ratio"], cell["head_wins"], cell["n"]) == (1.0, 1, 2)
    # each side's fastest run on each clock: CPU 4 us/sample, wall 8
    assert cell["base_cpu_us_per_sample"] == pytest.approx(4.0)
    assert cell["base_wall_us_per_sample"] == pytest.approx(8.0)
    assert data["workloads"]["sprint_highdim"]["control"] == {
        "ratio": 1.0, "wins": 0, "n": 4, "digests_agree": True, "ratio_interval": [1.0, 1.0],
        "sign_p": 1.0}
    assert "ratio_interval" in data["workloads"]["paper_2d"]["overall"]
    assert capsys.readouterr().out.splitlines()[0].startswith("machine python ")


def test_bench_file_check_finds_problems():
    assert bench_file_problems([]) == ["top-level keys []"]
    cell = {k: 1 for k in CELL_KEYS} | {"digests_agree": True}
    overall = {k: 1 for k in OVERALL_KEYS} | {"digests_agree": True}
    data = {k: 1 for k in TOP_KEYS} | {
        "base": {"commit": None, "src_modified": None},
        "head": {"commit": None, "src_modified": None},
        "digests_agree": True, "workloads": {"w": {"cells": [cell], "overall": overall}}}
    assert bench_file_problems(data) == []
    assert bench_file_problems(data | {"note": "x"})[0].startswith("top-level keys")
    cell["digests_agree"] = False
    assert bench_file_problems(data) == ["w: digests_agree True; the cells and control say False",
                                         "digests_agree True; the workloads say False"]
    cell["digests_agree"] = True
    # a control, when present, has its own keys, and its digests count
    workload = data["workloads"]["w"]
    workload["control"] = {k: 1 for k in CONTROL_KEYS} | {"digests_agree": True}
    assert bench_file_problems(data) == []
    workload["control"]["digests_agree"] = False
    assert bench_file_problems(data) == ["w: digests_agree True; the cells and control say False",
                                         "digests_agree True; the workloads say False"]
    workload["control"] = {"ratio": 1.0}
    assert bench_file_problems(data) == ["workload w: keys"]
    del workload["control"]
    # a paired interval, when present, is two ordered positive ends and a p value
    overall.update(ratio_interval=[0.9, 1.1], sign_p=0.5)
    assert bench_file_problems(data) == []
    for bad in ({"ratio_interval": [1.1, 0.9]}, {"ratio_interval": [0.0, 1.1]},
                {"ratio_interval": [0.9]}, {"sign_p": 1.5}, {"sign_p": None}):
        assert bench_file_problems(data | {"workloads": {"w": {
            "cells": [cell], "overall": overall | bad}}}) == ["workload w: keys"], bad
    del overall["sign_p"]
    assert bench_file_problems(data) == ["workload w: keys"]
    del overall["ratio_interval"]
    # a cell of the wall-time format is valid; one with neither key set is not
    cell.clear()
    cell.update({k: 1 for k in WALL_CELL_KEYS}, digests_agree=True)
    assert bench_file_problems(data) == []
    cell.pop("base_us_per_sample")
    assert bench_file_problems(data) == ["workload w: keys"]


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_committed_bench_file(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert bench_file_problems(data) == []
    # evidence names the commits it compared, each checked out unmodified
    for side in ("base", "head"):
        assert re.fullmatch("[0-9a-f]{40}", data[side]["commit"] or "")
        assert data[side]["src_modified"] is False
    assert data["digests_agree"] is True
