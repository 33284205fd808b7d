import csv
import json
import math
from dataclasses import asdict, astuple, fields

import numpy as np
import pytest

from sprint_planner import bench
from sprint_planner.bench import (CSV_HEADER, SPRINT_VARIANTS, delta_useful_ratio,
                                  record_row, resolve_scene, run_grid, run_trial,
                                  write_csv)
from sprint_planner.params import SprintParams
from sprint_planner.scenes import FIXTURE_NAMES, fixture_endpoints, fixture_lam, fixture_scene
from sprint_planner.world import save_scene, Scene

from reference import delta_useful_ratio_all_pairs


class TestDeltaUsefulRatio:
    def straight_path(self):
        return np.array([[0.0, 0.0], [1.0, 0.0]])

    def test_counts_only_free_samples_near_path(self):
        samples = [
            (np.array([0.5, 0.05]), True),   # free, within delta
            (np.array([0.5, 0.5]), True),    # free, too far
            (np.array([0.5, 0.01]), False),  # colliding, denominator only
        ]
        ratio = delta_useful_ratio(samples, self.straight_path(), delta=0.1)
        assert ratio == pytest.approx(1.0 / 3.0)

    def test_perfect_run_scores_one(self):
        samples = [(np.array([x, 0.0]), True) for x in (0.0, 0.25, 0.5, 1.0)]
        assert delta_useful_ratio(samples, self.straight_path(), delta=0.05) == 1.0

    def test_distance_is_to_segment_not_vertices(self):
        # point near the middle of a long segment counts as useful
        samples = [(np.array([0.5, 0.04]), True)]
        assert delta_useful_ratio(samples, self.straight_path(), delta=0.05) == 1.0
        # but a point past the segment end does not
        samples = [(np.array([1.2, 0.0]), True)]
        assert delta_useful_ratio(samples, self.straight_path(), delta=0.05) == 0.0

    def test_boundary_distance_is_inclusive(self):
        samples = [(np.array([0.5, 0.1]), True)]
        assert delta_useful_ratio(samples, self.straight_path(), delta=0.1) == 1.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            delta_useful_ratio([], self.straight_path(), delta=0.1)

    def test_nonpositive_delta_rejected(self):
        # NaN fails no `<= 0` check, and inf would count every free sample
        for delta in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                delta_useful_ratio([(np.zeros(2), True)], self.straight_path(), delta=delta)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            delta_useful_ratio([(np.array([0.5, bad]), True)], self.straight_path(), 0.1)
        with pytest.raises(ValueError, match="finite"):
            delta_useful_ratio([(np.zeros(2), True)], np.array([[0.0, 0.0], [bad, 1.0]]), 0.1)

    def test_single_point_path_rejected(self):
        with pytest.raises(ValueError):
            delta_useful_ratio([(np.zeros(2), True)], np.array([[0.0, 0.0]]), delta=0.1)


def assert_matches_all_pairs(samples, path, delta):
    """The pruned ratio equals the all-pairs one exactly, and returns it."""
    got = delta_useful_ratio(samples, path, delta)
    assert got == delta_useful_ratio_all_pairs(samples, path, delta)
    return got


def near_path_samples(rng, path, n, spread):
    """n samples scattered about `spread` away from random points of the
    polyline, about a fifth of them marked colliding."""
    d = path.shape[1]
    i = rng.integers(0, len(path) - 1, n)
    t = rng.uniform(-0.2, 1.2, n)[:, None]
    pts = path[i] + t * (path[i + 1] - path[i]) + rng.normal(scale=spread / math.sqrt(d), size=(n, d))
    return [(q, bool(free)) for q, free in zip(pts, rng.random(n) > 0.2)]


class TestDeltaUsefulMatchesAllPairs:
    """The kd-tree pruning may only skip pairs that cannot decide a sample:
    every ratio must equal the all-pairs reference bit for bit."""

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_random_polylines(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            lam = float(rng.uniform(0.01, 0.2))
            path = np.cumsum(rng.normal(scale=lam, size=(int(rng.integers(2, 60)), d)), axis=0)
            samples = near_path_samples(rng, path, int(rng.integers(1, 400)), 2 * lam)
            assert_matches_all_pairs(samples, path, 2 * lam)

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_zero_length_segments(self, d):
        rng = np.random.default_rng(10 + d)
        path = np.repeat(np.cumsum(rng.normal(scale=0.05, size=(8, d)), axis=0), 2, axis=0)
        samples = near_path_samples(rng, path, 300, 0.1)
        assert assert_matches_all_pairs(samples, path, 0.1) > 0.0
        # a path of one point twice: the distance to that point decides
        point = np.zeros((2, d))
        samples = [(q, True) for q in rng.normal(scale=0.1 / math.sqrt(d), size=(200, d))]
        assert 0.0 < assert_matches_all_pairs(samples, point, 0.1) < 1.0

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_single_segment_path(self, d):
        rng = np.random.default_rng(20 + d)
        path = rng.uniform(0, 1, size=(2, d))
        samples = near_path_samples(rng, path, 500, 0.3)
        assert 0.0 < assert_matches_all_pairs(samples, path, 0.2) < 1.0

    def test_samples_exactly_at_delta_on_dyadic_coordinates(self):
        delta = 0.125
        path = np.array([[0.25, 0.5], [0.75, 0.5], [0.75, 1.0], [0.25, 1.0]])
        on_edge = [[x, 0.5 - delta] for x in np.arange(0.25, 0.8, 0.0625)]
        on_caps = [[0.25 - delta, 0.5], [0.75 + delta, 0.75], [0.25 - delta, 1.0],
                   [0.5, 1.0 + delta], [0.25, 1.0 + delta]]
        samples = [(np.array(q), True) for q in on_edge + on_caps]
        assert assert_matches_all_pairs(samples, path, delta) == 1.0
        # the same in 6-D and 10-D, offset along axes the path does not use
        for d in (6, 10):
            path_d = np.hstack([path, np.zeros((len(path), d - 2))])
            samples_d = [(np.concatenate([q, np.zeros(d - 3), [delta]]), True)
                         for q in path[[0, 1, 3]]]
            assert assert_matches_all_pairs(samples_d, path_d, delta) == 1.0

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_samples_at_delta_in_floating_point(self, d):
        # one step of length delta from a path point, as a straight-line
        # extension leaves a sample: in exact arithmetic at distance delta,
        # so the rounding of each step of the formula decides it
        rng = np.random.default_rng(50 + d)
        delta = 0.1
        ratios = []
        for _ in range(20):
            path = rng.uniform(0, 1, size=(4, d))
            seg = np.diff(path, axis=0)
            i = rng.integers(0, 3, 300)
            out = rng.normal(size=(300, d))
            # past an end cap (first half) or square to a segment's interior
            cap = np.arange(300) < 150
            out[cap] *= np.sign(np.einsum("ij,ij->i", out[cap], seg[i[cap]]))[:, None]
            mid = ~cap
            out[mid] -= (np.einsum("ij,ij->i", out[mid], seg[i[mid]])
                         / np.einsum("ij,ij->i", seg[i[mid]], seg[i[mid]]))[:, None] * seg[i[mid]]
            out /= np.linalg.norm(out, axis=1)[:, None]
            base = np.where(cap[:, None], path[i + 1], path[i] + rng.random((300, 1)) * seg[i])
            samples = [(q, True) for q in base + delta * out]
            ratios.append(assert_matches_all_pairs(samples, path, delta))
        assert 0.0 < min(ratios) and max(ratios) < 1.0

    def test_samples_just_past_an_end_cap(self):
        delta = 0.125
        path = np.array([[0.0, 0.0], [1.0, 0.0]])
        outside = [np.nextafter(1.0 + delta, 2.0), np.nextafter(-delta, -1.0)]
        samples = [(np.array([x, 0.0]), True) for x in outside]
        samples.append((np.array([1.0, np.nextafter(delta, 1.0)]), True))
        assert assert_matches_all_pairs(samples, path, delta) == 0.0
        samples.append((np.array([1.0 + delta, 0.0]), True))
        assert assert_matches_all_pairs(samples, path, delta) == 0.25

    def test_end_caps_far_from_the_origin(self):
        # rounding in a + t*seg grows with the coordinates, not with delta,
        # so the pruning slack must too
        rng = np.random.default_rng(30)
        for _ in range(50):
            path = 1e6 + np.cumsum(rng.normal(scale=1e-3, size=(3, 2)), axis=0)
            seg = np.diff(path, axis=0)
            u = seg / np.linalg.norm(seg, axis=1)[:, None]
            jitter = 1.0 + rng.uniform(-3e-6, 3e-6, size=(100, 1, 1))
            ends = np.concatenate([path[1:] + 2e-4 * u * jitter, path[:-1] - 2e-4 * u * jitter])
            samples = [(q, True) for q in ends.reshape(-1, 2)]
            assert_matches_all_pairs(samples, path, 2e-4)

    def test_all_samples_colliding(self):
        path = np.array([[0.0, 0.0], [1.0, 0.0]])
        samples = [(np.array([x, 0.0]), False) for x in (0.0, 0.5, 1.0)]
        assert assert_matches_all_pairs(samples, path, 0.1) == 0.0

    def test_segments_longer_than_delta(self):
        rng = np.random.default_rng(40)
        path = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
        samples = near_path_samples(rng, path, 1000, 0.05)
        assert 0.0 < assert_matches_all_pairs(samples, path, 0.05) < 1.0

    @pytest.mark.parametrize("planner", ["sprint", "rrt", "rrt-connect"])
    @pytest.mark.parametrize("name", ["narrow_passage_2d", "narrow_passage_6d"])
    def test_planner_sample_logs(self, planner, name):
        # straight-line extensions put free samples at exactly 2*lam from
        # the path in exact arithmetic; rounding decides them
        start, goal = fixture_endpoints(name)
        lam = fixture_lam(name)
        _, result, oracle = run_trial(planner, fixture_scene(name), start, goal, 0,
                                      SprintParams(lam=lam), 50_000)
        assert_matches_all_pairs(oracle.samples, result.path, 2.0 * lam)


class TestAblation:
    def test_default_mode_keeps_params(self):
        p = SprintParams(lam=0.01)
        q, variant = SPRINT_VARIANTS["sprint"](p, np.random.default_rng(0))
        assert q is p
        assert astuple(variant) == (None, None, None)

    @pytest.mark.parametrize("planner", sorted(SPRINT_VARIANTS))
    def test_every_override_is_a_function_or_none(self, planner):
        _, variant = SPRINT_VARIANTS[planner](SprintParams(), np.random.default_rng(0))
        for f in fields(variant):
            assert f.name.endswith("_fn")
            value = getattr(variant, f.name)
            assert value is None or callable(value)

    def test_random_params_stays_within_quarter(self):
        p = SprintParams(lam=0.01)
        q, _ = SPRINT_VARIANTS["sprint:random-params"](p, np.random.default_rng(1))
        for name in ("lam", "kappa", "c_base", "w1_g", "w2_g"):
            lo, hi = 0.75 * getattr(p, name), 1.25 * getattr(p, name)
            assert lo <= getattr(q, name) <= hi
        # derived step sizes are perturbed off their defaults too
        assert 0.75 * p.eta_eff <= q.eta <= 1.25 * p.eta_eff

    def test_random_params_never_mutates_input(self):
        p = SprintParams(lam=0.01)
        before = asdict(p)
        SPRINT_VARIANTS["sprint:random-params"](p, np.random.default_rng(2))
        assert asdict(p) == before

    @pytest.mark.parametrize("overrides, ok", [
        ({"kappa": 0.79}, True),
        ({"kappa": 0.8}, False),  # 0.8 * 1.25 == 1.0, and uniform() can round onto 1.25
        ({"c_base": 1.2e-162}, False),
        ({}, True),
    ])
    def test_random_params_checked_at_both_factor_ends(self, overrides, ok):
        def build(planners):
            return bench.trial_params("empty_2d", fixture_scene("empty_2d"), overrides,
                                      planners)

        assert build(["sprint"]) == build(()) == SprintParams(
            **{**overrides, "lam": fixture_lam("empty_2d")})
        if ok:
            assert build(["rrt", "sprint:random-params"]) == build(())
        else:
            with pytest.raises(ValueError, match="^sprint:random-params at factor "):
                build(["rrt", "sprint:random-params"])

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_fixture_takes_its_own_lam_on_every_planner(self, name):
        assert bench.trial_params(name, fixture_scene(name), {}, bench.PLANNER_IDS) == \
            SprintParams(lam=fixture_lam(name))

    def test_random_params_factor_ends_are_drawable(self):
        lo, hi = bench.RANDOM_FACTORS
        # uniform() is lo + (hi - lo) * random(), random() in [0, 1)
        assert lo + (hi - lo) * 0.0 == lo
        assert lo + (hi - lo) * (1.0 - 2.0 ** -53) == hi

    def test_heuristic_swaps_per_mode(self):
        p = SprintParams(lam=0.01)
        rng = np.random.default_rng(0)
        _, v1 = SPRINT_VARIANTS["sprint:no-pr1"](p, rng)
        assert v1.select_fn is not None
        _, v2 = SPRINT_VARIANTS["sprint:no-pr2"](p, rng)
        assert v2.gate_fn is not None
        _, v3 = SPRINT_VARIANTS["sprint:no-pr3"](p, rng)
        assert v3.edge_fn is not None

    def test_random_selection_draws_from_the_ablation_generator(self):
        # as the coin gate below: the uniform pick keeps its place in the
        # trial's draw sequence
        from sprint_planner.global_planner import _PairSelector
        _, v = SPRINT_VARIANTS["sprint:no-pr1"](SprintParams(), np.random.default_rng(3))
        sel = _PairSelector(np.array([0.1, 0.1]), np.array([0.9, 0.9]), SprintParams())
        sel.add_milestones(np.random.default_rng(0).uniform(0, 1, (5, 2)))
        twin = np.random.default_rng(3)
        assert ([v.select_fn(sel) for _ in range(32)]
                == [sel.select_random(twin) for _ in range(32)])

    def test_coin_gate_is_fair_coin(self):
        _, v = SPRINT_VARIANTS["sprint:no-pr2"](SprintParams(), np.random.default_rng(3))
        accepts = sum(v.gate_fn(0, None) for _ in range(4000))
        assert 1800 < accepts < 2200

    def test_coin_gate_draws_from_the_ablation_generator(self):
        # run_trial hands the planner the generator its variant received,
        # so the coin flips keep their place in the trial's draw sequence
        _, v = SPRINT_VARIANTS["sprint:no-pr2"](SprintParams(), np.random.default_rng(3))
        twin = np.random.default_rng(3)
        assert ([v.gate_fn(0, None) for _ in range(64)]
                == [bool(twin.random() < 0.5) for _ in range(64)])

    def test_random_edge_has_unit_scaled_length(self):
        p = SprintParams(lam=0.02)
        _, v = SPRINT_VARIANTS["sprint:no-pr3"](p, np.random.default_rng(0))
        from sprint_planner.local_planner import LocalTree
        t = LocalTree(np.array([0.2, 0.2]), np.array([0.8, 0.8]), p)
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = v.edge_fn(0, t, [], rng)
            assert np.linalg.norm(q - t.root) == pytest.approx(p.lam, abs=1e-12)


class TestRunTrial:
    def trial(self, planner="sprint", seed=0, max_samples=10_000):
        scene = fixture_scene("empty_2d")
        start, goal = fixture_endpoints("empty_2d")
        return run_trial(planner, scene, start, goal, seed,
                         SprintParams(lam=0.05), max_samples)

    def test_solved_trial_has_ratio(self):
        record, result, oracle = self.trial()
        assert record.status == "Solved"
        assert 0.0 < record.delta_useful_ratio <= 1.0
        assert record.total_samples == oracle.sample_count

    def test_unsolved_trial_has_no_ratio(self):
        # every trial keeps its sample log; only a solved one gets a ratio
        record, _, oracle = self.trial(max_samples=30)
        assert record.status == "BudgetExhausted"
        assert record.delta_useful_ratio is None
        assert len(oracle.samples) == oracle.sample_count == 30

    def test_rows_identical_per_seed_up_to_wall_time(self):
        rows = []
        for _ in range(2):
            record, _, _ = self.trial(seed=3)
            row = record_row(record)
            row[6] = ""  # wall time is the one machine-dependent column
            rows.append(row)
        assert rows[0] == rows[1]

    def test_baseline_trial(self):
        record, result, _ = self.trial(planner="rrt-connect")
        assert record.planner == "rrt-connect"
        assert record.status == "Solved"

    def test_unknown_planner_rejected(self):
        with pytest.raises(ValueError):
            self.trial(planner="prm")

    def test_ablation_spec_on_baseline_rejected(self):
        with pytest.raises(ValueError):
            self.trial(planner="rrt:no-pr1")

    @pytest.mark.parametrize("planner", ["sprint:", "rrt:", "sprint:default"])
    def test_alias_spelling_rejected(self, planner):
        with pytest.raises(ValueError, match=f"unknown planner {planner!r}"):
            self.trial(planner=planner)


class TestCsvOutput:
    def records(self, n=4):
        scene = fixture_scene("empty_2d")
        start, goal = fixture_endpoints("empty_2d")
        out = []
        for planner in ("sprint", "rrt"):
            for seed in range(n):
                rec, _, _ = run_trial(planner, scene, start, goal, seed,
                                      SprintParams(lam=0.05), 10_000)
                out.append(rec)
        return out

    def test_header_and_row_counts(self, tmp_path):
        path = tmp_path / "results.csv"
        write_csv(self.records(4), path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == CSV_HEADER.split(",")
        data = rows[1 : 1 + 8]
        assert all(r[3] == "Solved" for r in data)
        # three aggregate statistics per planner x scene cell
        assert len(rows) == 1 + 8 + 2 * 3

    def test_data_rows_stable_across_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(self.records(3), a)
        write_csv(self.records(3), b)
        strip = lambda p: [r[:6] + r[7:] for r in csv.reader(open(p, newline=""))]
        assert strip(a) == strip(b)


class TestRunGrid:
    def config(self, tmp_path, **extra):
        cfg = {"scenes": ["empty_2d"], "planners": ["sprint", "rrt"],
               "seeds": {"start": 0, "count": 3}, "max_samples": 10_000,
               "params": {"lam": 0.05}}
        cfg.update(extra)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_produces_expected_rows(self, tmp_path):
        records = run_grid(self.config(tmp_path), tmp_path / "out")
        assert len(records) == 2 * 3
        with open(tmp_path / "out" / "results.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 6 + 2 * 3

    def test_rerun_is_byte_identical_in_data_rows(self, tmp_path):
        run_grid(self.config(tmp_path), tmp_path / "o1")
        run_grid(self.config(tmp_path), tmp_path / "o2")
        def strip(p):
            with open(p, newline="") as f:
                return [r[:6] + r[7:] for r in csv.reader(f)]
        assert strip(tmp_path / "o1" / "results.csv") == strip(tmp_path / "o2" / "results.csv")

    def test_missing_scene_list_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"planners": ["sprint"]}), encoding="utf-8")
        with pytest.raises(ValueError):
            run_grid(path, tmp_path / "out")

    def test_unknown_planner_fails_before_any_trial(self, tmp_path):
        cfg = self.config(tmp_path, planners=["sprint", "dijkstra"])
        with pytest.raises(ValueError):
            run_grid(cfg, tmp_path / "out")
        assert not (tmp_path / "out" / "results.csv").exists()

    FIXTURES_2D = ["single_box_2d", "narrow_passage_2d", "vertical_bars_2d"]

    def data_rows(self, out):
        with open(out / "results.csv", newline="") as f:
            rows = [r[:6] + r[7:] for r in csv.reader(f)]
        return rows[1:-3 * 2 * len(self.FIXTURES_2D)]

    def trial_rows(self, lam_of):
        rows = [record_row(run_trial(planner, fixture_scene(name), *fixture_endpoints(name),
                                     seed, SprintParams(lam=lam_of(name)), 50_000)[0])
                for planner in ("rrt", "sprint") for name in sorted(self.FIXTURES_2D)
                for seed in (0, 1)]
        return [r[:6] + r[7:] for r in rows]

    def test_each_fixture_runs_at_its_own_lam(self, tmp_path):
        cfg = self.config(tmp_path, scenes=self.FIXTURES_2D, seeds=[0, 1],
                          max_samples=50_000, params={})
        run_grid(cfg, tmp_path / "out")
        assert self.data_rows(tmp_path / "out") == self.trial_rows(fixture_lam)

    def test_grid_params_lam_wins_over_the_fixtures(self, tmp_path):
        cfg = self.config(tmp_path, scenes=self.FIXTURES_2D, seeds=[0, 1],
                          max_samples=50_000, params={"lam": 0.05})
        run_grid(cfg, tmp_path / "out")
        assert self.data_rows(tmp_path / "out") == self.trial_rows(lambda name: 0.05)

    def scene_file(self, tmp_path, ident):
        (tmp_path / ident).parent.mkdir(exist_ok=True)
        save_scene(Scene(name="box", lower=np.zeros(2), upper=np.ones(2)), tmp_path / ident)
        return {ident: [[0.1, 0.1], [0.9, 0.9]]}

    def test_svg_of_a_scene_in_a_subdirectory_lands_in_out(self, tmp_path, monkeypatch):
        # the SVG name holds the scene's label with its path separator replaced
        monkeypatch.chdir(tmp_path)
        cfg = self.config(tmp_path, scenes=["sub/box.json"], planners=["rrt"], seeds=[0],
                          svg=True, endpoints=self.scene_file(tmp_path, "sub/box.json"))
        run_grid(cfg, "out")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "results.csv", "rrt__sub_box.json__0.svg"]

    def test_scenes_with_the_same_svg_names_fail_before_any_trial(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        endpoints = self.scene_file(tmp_path, "sub/box.json")
        endpoints.update(self.scene_file(tmp_path, "sub_box.json"))
        cfg = self.config(tmp_path, scenes=list(endpoints), svg=True, endpoints=endpoints)
        monkeypatch.setattr(bench, "run_trial", None)
        with pytest.raises(ValueError, match="'sub_box.json': its SVG names would repeat"):
            run_grid(cfg, "out")
        assert not (tmp_path / "out" / "results.csv").exists()


class TestResolveScene:
    def test_fixture_name(self):
        assert resolve_scene("empty_2d").dim == 2

    def test_scene_file(self, tmp_path):
        path = tmp_path / "custom.json"
        save_scene(Scene(name="c", lower=np.zeros(3), upper=np.ones(3)), path)
        assert resolve_scene(str(path)).dim == 3

    def test_unknown_identifier(self):
        with pytest.raises(ValueError):
            resolve_scene("no_such_scene")

    def test_directory_is_no_scene_file(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scene"):
            resolve_scene(str(tmp_path))
