import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from sprint_planner import bench
from sprint_planner.cli import main
from sprint_planner.params import SprintParams
from sprint_planner.scenes import fixture_endpoints, fixture_lam, fixture_scene

# free space is the sliver [0, 1e-6]^2, so milestone rejection sampling
# spends any budget before it draws a free point
NO_FREE_SPACE = {"name": "tiny", "lower": [0, 0], "upper": [1, 1], "obstacles": [
    {"type": "box", "min": [1e-6, -1], "max": [2, 2]},
    {"type": "box", "min": [-1, 1e-6], "max": [2, 2]}]}
# a scene file, which carries geometry but no endpoints
FIXTURE_FILE = str(Path(bench.__file__).parent / "data" / "empty_2d.json")
# valid JSON nested deeper than the parser's recursion allows
DEEP = "[" * 100_000 + "]" * 100_000


class TestPlanCommand:
    def test_fixture_run(self, capsys):
        rc = main(["plan", "--scene", "empty_2d", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "status=Solved" in out
        assert "delta_useful_ratio=" in out

    def test_explicit_endpoints(self, capsys):
        rc = main(["plan", "--scene", "empty_2d", "--start", "0.2,0.2",
                   "--goal", "0.8,0.8"])
        assert rc == 0
        assert "status=Solved" in capsys.readouterr().out

    def test_baseline_planner(self, capsys):
        rc = main(["plan", "--scene", "empty_2d", "--planner", "rrt-connect"])
        assert rc == 0
        assert "planner=rrt-connect" in capsys.readouterr().out

    def test_ablation_run(self, capsys):
        rc = main(["plan", "--scene", "empty_2d", "--planner", "sprint:random-params"])
        assert rc == 0
        assert "planner=sprint:random-params" in capsys.readouterr().out

    def test_params_override_file(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"lam": 0.1}), encoding="utf-8")
        rc = main(["plan", "--scene", "empty_2d", "--params", str(params)])
        assert rc == 0

    @pytest.mark.parametrize("params, lam", [
        (None, fixture_lam("vertical_bars_2d")),
        ({"lam": 0.05}, 0.05),  # the lam this run took before fixtures had their own
        ({"k_obs": 5}, fixture_lam("vertical_bars_2d")),
    ])
    def test_fixture_runs_at_its_own_lam_unless_params_set_one(self, tmp_path, capsys,
                                                               params, lam):
        argv = ["plan", "--scene", "vertical_bars_2d", "--seed", "0"]
        if params is not None:
            (tmp_path / "p.json").write_text(json.dumps(params), encoding="utf-8")
            argv += ["--params", str(tmp_path / "p.json")]
        assert main(argv) == 0
        rec, _, _ = bench.run_trial(
            "sprint", fixture_scene("vertical_bars_2d"), *fixture_endpoints("vertical_bars_2d"),
            0, SprintParams(**{**(params or {}), "lam": lam}), 200_000)
        assert f" samples={rec.total_samples} " in capsys.readouterr().out

    def test_svg_output(self, tmp_path, capsys):
        svg = tmp_path / "run.svg"
        rc = main(["plan", "--scene", "single_box_2d", "--svg", str(svg)])
        assert rc == 0
        root = ET.fromstring(svg.read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")

    def test_unknown_scene_is_an_error(self, capsys):
        rc = main(["plan", "--scene", "atlantis"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_non_fixture_scene_requires_endpoints(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"name": "x", "lower": [0, 0], "upper": [1, 1],
                                     "obstacles": []}), encoding="utf-8")
        rc = main(["plan", "--scene", str(scene)])
        assert rc == 2
        assert "--start" in capsys.readouterr().err

    @pytest.mark.parametrize("text, needle", [
        ('{"name": "x", "lower": [0, 0], "upper": [1, 1], "obstacles": '
         '[{"type": "sphere", "center": [0.5, 0.5], "radius": NaN}]}', "radius"),
        ("[1, 2]", "JSON object"),
        ('{"name": "x", "lower": [0, 0], "upper": [1, 1], "obstacles": [5]}',
         "obstacles[0]"),
        pytest.param(DEEP, "scene.json: JSON nested too deeply", id="deeply-nested"),
        # numbers are JSON numbers and a name is a JSON string
        ('{"name": "x", "lower": ["0", false], "upper": [1, 1]}', "field 'lower'"),
        ('{"name": "x", "lower": [0, 0], "upper": [1, 1], "obstacles": '
         '[{"type": "sphere", "center": ["0.5", "0.5"], "radius": 0.1}]}', "field 'center'"),
        ('{"name": "x", "lower": [0, 0], "upper": [1, 1], "obstacles": '
         '[{"type": "sphere", "center": [0.5, 0.5], "radius": "0.1"}]}', "field 'radius'"),
        ('{"name": ["x"], "lower": [0, 0], "upper": [1, 1]}', "field 'name'"),
    ])
    def test_bad_scene_file_is_a_one_line_error(self, tmp_path, capsys, text, needle):
        scene = tmp_path / "scene.json"
        scene.write_text(text, encoding="utf-8")
        rc = main(["plan", "--scene", str(scene), "--start", "0.1,0.1",
                   "--goal", "0.9,0.9"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("start, needle", [
        ("0.1,nan", "non-finite"),
        ("0.1,inf", "non-finite"),
        ("", "nonempty"),
        ("0.1,x", "could not convert"),
    ])
    def test_bad_endpoint_is_a_one_line_error(self, capsys, start, needle):
        rc = main(["plan", "--scene", "empty_2d", "--start", start, "--goal", "0.9,0.9"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: --start: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("planner", ["sprint", "rrt", "rrt-connect"])
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_max_samples_is_an_error(self, capsys, planner, budget):
        rc = main(["plan", "--scene", "empty_2d", "--planner", planner,
                   "--max-samples", budget])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and "must be positive" in captured.err
        assert "status=" not in captured.out

    @pytest.mark.parametrize("planner, budget", [
        pytest.param("sprint", "200000", id="sprint"),
        pytest.param("rrt", "200000", id="rrt"),
        pytest.param("rrt-connect", "200000", id="rrt-connect"),
        # the equality test takes no sample, so it comes before the budget
        pytest.param("sprint", "1", id="sprint-budget-1"),
        pytest.param("rrt", "1", id="rrt-budget-1"),
        pytest.param("rrt-connect", "1", id="rrt-connect-budget-1"),
    ])
    def test_equal_endpoints_are_a_one_line_error(self, capsys, planner, budget):
        rc = main(["plan", "--scene", "empty_2d", "--planner", planner,
                   "--start", "0.1,0.1", "--goal", "0.1,0.1", "--max-samples", budget])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: q_init equals q_goal\n"
        assert "status=" not in captured.out

    def test_no_free_space_ends_at_the_budget(self, tmp_path, capsys):
        # the first milestone draw spends the whole budget, however large
        scene = tmp_path / "tiny.json"
        scene.write_text(json.dumps(NO_FREE_SPACE), encoding="utf-8")
        rc = main(["plan", "--scene", str(scene), "--start", "0,0",
                   "--goal", "0.0000005,0", "--max-samples", "200000"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert "status=BudgetExhausted samples=200000 " in captured.out

    def test_no_free_space_within_a_smaller_budget_exhausts_it(self, tmp_path, capsys):
        scene = tmp_path / "tiny.json"
        scene.write_text(json.dumps(NO_FREE_SPACE), encoding="utf-8")
        rc = main(["plan", "--scene", str(scene), "--start", "0,0",
                   "--goal", "0.0000005,0", "--max-samples", "1000"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "status=BudgetExhausted samples=1000 " in captured.out

    def test_huge_milestone_batch_stops_at_the_budget(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"milestone_batch": 10 ** 12}), encoding="utf-8")
        rc = main(["plan", "--scene", "empty_2d", "--max-samples", "1000",
                   "--params", str(path)])
        assert rc == 0
        assert "status=BudgetExhausted samples=1000 " in capsys.readouterr().out

    @pytest.mark.parametrize("planner", ["sprint", "rrt", "rrt-connect"])
    @pytest.mark.parametrize("start, goal", [("0.1,0.1,0.1", "0.9,0.9"),
                                             ("0.1,0.1", "0.9,0.9,0.9")])
    def test_endpoint_of_the_wrong_dimension_is_a_one_line_error(self, capsys, planner,
                                                                 start, goal):
        rc = main(["plan", "--scene", "empty_2d", "--planner", planner,
                   "--start", start, "--goal", goal])
        assert rc == 2
        assert capsys.readouterr().err == "error: query dimension 3 != scene dimension 2\n"

    @pytest.mark.parametrize("planner", ["sprint", "rrt", "rrt-connect"])
    def test_budget_of_one_checks_only_the_start(self, capsys, planner):
        rc = main(["plan", "--scene", "empty_2d", "--planner", planner,
                   "--max-samples", "1"])
        assert rc == 0
        assert "status=BudgetExhausted samples=1 " in capsys.readouterr().out

    def test_svg_of_a_non_2d_scene_fails_before_the_trial(self, tmp_path, capsys, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("the trial ran")

        monkeypatch.setattr("sprint_planner.cli.run_trial", no_trial)
        svg = tmp_path / "run.svg"
        rc = main(["plan", "--scene", "box_maze_10d", "--svg", str(svg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: SVG rendering supports 2-D scenes only, got d=10\n"
        assert not svg.exists()

    @pytest.mark.parametrize("target, err", [
        ("", "error: --svg '' names no file in an existing directory\n"),
        (".", "error: --svg '.' names no file in an existing directory\n"),
        ("missing/run.svg",
         "error: --svg 'missing/run.svg' names no file in an existing directory\n"),
    ])
    def test_bad_svg_target_fails_before_the_trial(self, tmp_path, capsys, monkeypatch,
                                                   target, err):
        def no_trial(*args, **kwargs):
            raise AssertionError("the trial ran")

        monkeypatch.setattr("sprint_planner.cli.run_trial", no_trial)
        monkeypatch.chdir(tmp_path)
        rc = main(["plan", "--scene", "empty_2d", "--svg", target])
        assert rc == 2
        assert capsys.readouterr() == ("", err)

    def test_start_without_goal_is_an_error(self, capsys):
        rc = main(["plan", "--scene", "empty_2d", "--start", "0.2,0.2"])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: --start and --goal must be given together\n")

    def test_bad_planner_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "--scene", "empty_2d", "--planner", "astar"])

    @pytest.mark.parametrize("params, needle", [
        ({"lam": 0.1, "lamda": 0.2}, "lamda"),
        ({"lam": "fast"}, "lam"),
        ({"k_obs": 2.5}, "k_obs"),
        ({"ascent_iters": True}, "ascent_iters"),
        ({"c_base": float("nan")}, "c_base"),
        ({"lam": float("inf")}, "lam"),
        ([0.1], "JSON object"),
        ({"lam": 10 ** 400}, "lam"),
        ({"k_obs": 2 ** 63}, "k_obs"),
        ({"seed": 3}, "'seed'"),
        # the sample budget is --max-samples alone
        ({"max_total_samples": 5}, "'max_total_samples'"),
        # a string is the file's text
        pytest.param(DEEP, "params.json: JSON nested too deeply", id="deeply-nested"),
        # the error shows a huge value cut short
        ({"lam": [0] * 10 ** 6}, "'lam' must be float, got [0, 0, 0, 0, 0, 0, ...]"),
        # the culling gate and the budget end every local search
        ({"max_local_samples": 2000}, "unknown params field 'max_local_samples'"),
        # 2 * c_base**2 underflows to 0, which the culling gate divides by
        ({"c_base": 1e-200}, "c_base"),
        # 2 * lam, the delta-useful ratio's delta, overflows to inf
        ({"lam": 1e308}, "lam 1e+308 is too large"),
        # the edge step does not fit the scene's floats: a lam-long step
        # rounds away, or the step's square overflows
        ({"lam": 1e-300}, "scene 'empty_2d': lam 1e-300 is below the resolution"),
        ({"lam": 1e-160}, "lam 1e-160 is below the resolution"),
        ({"eta": 1e308}, "eta"),
        ({"w1_l": 1e308}, "w1_l"),
        ({"w2_l": 1e308}, "w2_l"),
        ({"w3_l": 1e308}, "w3_l"),
    ])
    def test_bad_params_file_is_a_one_line_error(self, tmp_path, capsys, params, needle):
        path = tmp_path / "params.json"
        path.write_text(params if isinstance(params, str) else json.dumps(params),
                        encoding="utf-8")
        rc = main(["plan", "--scene", "empty_2d", "--params", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err
        assert len(err) < 200

    @pytest.mark.parametrize("params, err", [
        # some seeds draw factors these params survive (c_base: 0 and 1; kappa: 0)
        pytest.param({"c_base": 1.2e-162},
                     "error: sprint:random-params at factor 0.75: c_base 9.000000000000001e-163 "
                     "is too small: 2 * c_base**2 underflows to 0\n", id="c_base"),
        pytest.param({"kappa": 0.9},
                     "error: sprint:random-params at factor 1.25: kappa must lie in (0, 1)\n",
                     id="kappa"),
    ])
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_random_params_out_of_range_fail_every_seed(self, tmp_path, capsys, monkeypatch,
                                                        params, err, seed):
        def no_trial(*args, **kwargs):
            raise AssertionError("the trial ran")

        monkeypatch.setattr("sprint_planner.cli.run_trial", no_trial)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params), encoding="utf-8")
        rc = main(["plan", "--scene", "empty_2d", "--planner", "sprint:random-params",
                   "--params", str(path), "--seed", seed])
        assert rc == 2
        assert capsys.readouterr() == ("", err)

    def test_null_eta_in_params_file_means_default(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"lam": 0.1, "eta": None}), encoding="utf-8")
        assert main(["plan", "--scene", "empty_2d", "--params", str(path)]) == 0

    def test_huge_collision_memory_in_params_file_solves(self, tmp_path, capsys):
        # k_obs only bounds how many collision points a checkpoint keeps
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"k_obs": 10 ** 12}), encoding="utf-8")
        assert main(["plan", "--scene", "empty_2d", "--params", str(path)]) == 0
        assert "status=Solved" in capsys.readouterr().out


class TestBenchCommand:
    def test_grid_run(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({
            "scenes": ["empty_2d"], "planners": ["sprint"],
            "seeds": {"start": 0, "count": 2}, "max_samples": 10_000,
            "params": {"lam": 0.05},
        }), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["bench", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "results.csv").exists()
        assert "2 trials" in capsys.readouterr().out

    def test_bad_config_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"planners": ["sprint"]}), encoding="utf-8")
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "scenes" in capsys.readouterr().err

    @pytest.mark.parametrize("change, needle", [
        ({"params": {"lam": 0.05, "kapa": 0.3}}, "kapa"),
        ({"params": {"lam": [0.05]}}, "lam"),
        ({"params": 0.05}, "params"),
        ({"seeds": 5}, "seeds"),
        ({"seeds": {"start": 0}}, "seeds"),
        ({"seeds": [0, "1"]}, "seeds"),
        ({"seeds": [-1]}, "seeds"),
        ({"max_samples": "10000"}, "max_samples"),
        ({"max_samples": 0}, "max_samples"),
        ({"scenes": "empty_2d"}, "scenes"),
        ({"planners": [1]}, "planners"),
        ({"svg": "yes"}, "svg"),
        ({"endpoints": {"empty_2d": [[0.1, 0.1]]}}, "endpoints"),
        ({"seed": 3}, "seed"),
        ({"endpoints": {"empty_2d": [[10 ** 400, 0.1], [0.9, 0.9]]}}, "endpoints"),
        ({"endpoints": {"empty_2d": [[float("nan"), 0.1], [0.9, 0.9]]}}, "endpoints"),
        # endpoints are checked before any trial runs, the second scene's too
        ({"scenes": ["empty_2d", "single_box_2d"],
          "endpoints": {"single_box_2d": [[0.1, 0.5, 0.5], [0.9, 0.5, 0.5]]}},
         "scene 'single_box_2d': query dimension 3"),
        ({"scenes": ["empty_2d", "single_box_2d"],
          "endpoints": {"single_box_2d": [[0.5, 0.5], [0.9, 0.5]]}},
         "scene 'single_box_2d': q_init is in collision"),
        ({"endpoints": {"empty_2": [[0.1, 0.1], [0.9, 0.9]]}}, "'empty_2'"),
        ({"scenes": [FIXTURE_FILE]}, '"endpoints"'),
        ({"planners": ["rrt", "sprint", "rrt"]}, "'planners' lists 'rrt' more than once"),
        ({"scenes": ["empty_2d", "empty_2d"]}, "'scenes' lists 'empty_2d' more than once"),
        # a string is the file's text
        pytest.param(DEEP, "grid.json: JSON nested too deeply", id="deeply-nested"),
        ({"params": {"max_local_samples": 2000}}, "unknown params field 'max_local_samples'"),
        ({"params": {"c_base": 1e-200}}, "c_base"),
        # sprint:random-params scales c_base by as little as 0.75 and kappa by
        # as much as 1.25; seed 0 alone would survive these
        ({"planners": ["sprint:random-params"], "params": {"c_base": 1.2e-162}},
         "sprint:random-params at factor 0.75: c_base"),
        ({"planners": ["sprint:random-params"], "params": {"kappa": 0.9}},
         "sprint:random-params at factor 1.25: kappa"),
        ({"planners": ["rrt"], "params": {"lam": 1e308}}, "lam 1e+308 is too large"),
        ({"planners": ["sprint:random-params"], "params": {"lam": 8e307}},
         "sprint:random-params at factor 1.25: lam"),
        # the edge step does not fit the scene's floats, for every planner
        ({"planners": ["rrt"], "params": {"lam": 1e-300}},
         "scene 'empty_2d': lam 1e-300 is below the resolution"),
        ({"scenes": ["narrow_passage_6d"], "params": {"lam": 1e-160}},
         "scene 'narrow_passage_6d': lam 1e-160 is below the resolution"),
        ({"scenes": ["narrow_passage_6d"], "params": {"eta": 1e308}}, "eta"),
        ({"scenes": ["narrow_passage_6d"], "params": {"w1_l": 1e308}}, "w1_l"),
        ({"scenes": ["narrow_passage_6d"], "params": {"w2_l": 1e308}}, "w2_l"),
        ({"scenes": ["narrow_passage_6d"], "params": {"w3_l": 1e308}}, "w3_l"),
        # lam / sqrt(2) clears the spacing of 1.0, 2.2e-16, but not at factor 0.75
        ({"planners": ["sprint:random-params"], "params": {"lam": 4e-16}},
         "scene 'empty_2d': sprint:random-params at factor 0.75: lam 3"),
    ])
    def test_bad_config_field_is_a_one_line_error(self, tmp_path, capsys, change, needle):
        cfg = tmp_path / "grid.json"
        cfg.write_text(change if isinstance(change, str) else json.dumps(
            {"scenes": ["empty_2d"], "planners": ["sprint"], "seeds": {"start": 0, "count": 1},
             "max_samples": 10_000, **change}), encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["bench", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err
        assert not (out / "results.csv").exists()

    def test_bad_endpoints_stop_the_grid_before_any_trial(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "run_trial", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({
            "scenes": ["empty_2d", "single_box_2d"], "planners": ["sprint"], "seeds": [0],
            "endpoints": {"single_box_2d": [[0.5, 0.5], [0.9, 0.5]]},
        }), encoding="utf-8")
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "in collision" in capsys.readouterr().err
        assert calls == []

    def test_random_params_out_of_range_stop_the_grid_before_any_trial(self, tmp_path, capsys,
                                                                         monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "run_trial", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({
            "scenes": ["empty_2d"], "planners": ["sprint", "sprint:random-params"],
            "seeds": {"start": 0, "count": 4}, "params": {"c_base": 1.2e-162},
        }), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sprint:random-params at factor 0.75: c_base ")
        assert err.count("\n") == 1
        assert calls == []
        assert not (out / "results.csv").exists()

    def test_alias_planner_stops_the_grid_before_any_trial(self, tmp_path, capsys,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "run_trial", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"scenes": ["empty_2d"], "planners": ["rrt", "rrt:"],
                                   "seeds": [0]}), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown planner 'rrt:'; known: ") and err.count("\n") == 1
        assert calls == []
        assert not (out / "results.csv").exists()

    def test_too_long_svg_names_stop_the_grid_before_any_trial(self, tmp_path, capsys,
                                                                monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "run_trial", lambda *a, **k: calls.append(a))
        monkeypatch.chdir(tmp_path)
        scene = "sub/" + "b" * 245 + ".json"  # a file name of 250 characters
        (tmp_path / "sub").mkdir()
        (tmp_path / scene).write_text(json.dumps(
            {"name": "box", "lower": [0, 0], "upper": [1, 1], "obstacles": []}), encoding="utf-8")
        (tmp_path / "grid.json").write_text(json.dumps({
            "scenes": [scene], "planners": ["rrt"], "seeds": [0], "svg": True,
            "endpoints": {scene: [[0.1, 0.1], [0.9, 0.9]]},
        }), encoding="utf-8")
        assert main(["bench", "--config", "grid.json", "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scene 'sub/bbb") and err.count("\n") == 1
        assert "SVG names would be longer than the file system's" in err
        assert calls == []
        assert not (tmp_path / "out" / "results.csv").exists()

    @staticmethod
    def no_free_space_grid(tmp_path, budget, planners=("sprint",)):
        scene = tmp_path / "tiny.json"
        scene.write_text(json.dumps(NO_FREE_SPACE), encoding="utf-8")
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({
            "scenes": [str(scene)], "planners": list(planners), "seeds": [0],
            "max_samples": budget, "endpoints": {str(scene): [[0, 0], [0.0000005, 0]]},
        }), encoding="utf-8")
        return main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")])

    def test_no_free_space_writes_every_planners_row(self, tmp_path):
        # sprint's milestone draw spends its whole budget; rrt's trial is
        # its own, and its row is kept
        assert self.no_free_space_grid(tmp_path, 200_000, ("sprint", "rrt")) == 0
        rows = (tmp_path / "out" / "results.csv").read_text(encoding="utf-8").splitlines()
        assert [[r.split(",")[0], *r.split(",")[3:5]] for r in rows[1:3]] == [
            ["rrt", "Solved", "4"], ["sprint", "BudgetExhausted", "200000"]]

    def test_no_free_space_within_a_smaller_budget_exhausts_it(self, tmp_path):
        assert self.no_free_space_grid(tmp_path, 1000) == 0
        rows = (tmp_path / "out" / "results.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1].split(",")[3:5] == ["BudgetExhausted", "1000"]

    def test_seed_list_and_endpoints(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({
            "scenes": ["empty_2d"], "planners": ["rrt-connect"], "seeds": [3, 5],
            "endpoints": {"empty_2d": [[0.2, 0.2], [0.7, 0.6]]},
        }), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text(encoding="utf-8").splitlines()
        assert [r.split(",")[2] for r in rows[1:3]] == ["3", "5"]
