import json

import numpy as np
import pytest

from sprint_planner.world import (Box, CollisionOracle, FreeSpaceNotFound, Scene,
                                  Sphere, load_scene, save_scene, scene_from_dict,
                                  scene_to_dict)


def unit_square(obstacles=()):
    return Scene(name="sq", lower=np.zeros(2), upper=np.ones(2),
                 obstacles=tuple(obstacles))


class TestObstacles:
    def test_box_boundary_collides(self):
        b = Box(np.array([0.2, 0.2]), np.array([0.4, 0.4]))
        assert b.contains(np.array([0.2, 0.3]))
        assert b.contains(np.array([0.4, 0.4]))
        assert not b.contains(np.array([0.41, 0.3]))

    def test_box_min_above_max_rejected(self):
        with pytest.raises(ValueError):
            Box(np.array([0.5, 0.0]), np.array([0.4, 1.0]))

    def test_sphere_boundary_collides(self):
        s = Sphere(np.array([0.0, 0.0]), 1.0)
        assert s.contains(np.array([1.0, 0.0]))
        assert not s.contains(np.array([1.0 + 1e-9, 0.0]))

    def test_sphere_radius_positive(self):
        with pytest.raises(ValueError):
            Sphere(np.zeros(2), 0.0)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), -1.0])
    def test_sphere_radius_must_be_finite(self, radius):
        # a NaN radius would give a sphere that never collides
        with pytest.raises(ValueError, match="radius"):
            Sphere(np.zeros(2), radius)


class TestScene:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            Scene(name="bad", lower=np.array([0.0, 1.0]), upper=np.array([1.0, 1.0]))

    def test_obstacle_dimension_checked(self):
        with pytest.raises(ValueError):
            unit_square([Box(np.zeros(3), np.ones(3))])

    def test_dim(self):
        assert unit_square().dim == 2


class TestOracle:
    def test_every_query_is_counted(self):
        o = CollisionOracle(unit_square())
        for _ in range(5):
            o.is_free(np.array([0.5, 0.5]))
        assert o.sample_count == 5

    def test_out_of_bounds_is_collision(self):
        o = CollisionOracle(unit_square())
        assert not o.is_free(np.array([1.5, 0.5]))
        assert not o.is_free(np.array([0.5, -0.1]))

    def test_boundary_of_world_is_free(self):
        o = CollisionOracle(unit_square())
        assert o.is_free(np.array([0.0, 0.0]))
        assert o.is_free(np.array([1.0, 1.0]))

    def test_obstacle_hit(self):
        o = CollisionOracle(unit_square([Box(np.array([0.4, 0.4]), np.array([0.6, 0.6]))]))
        assert not o.is_free(np.array([0.5, 0.5]))
        assert o.is_free(np.array([0.1, 0.1]))

    def test_dimension_mismatch_raises(self):
        o = CollisionOracle(unit_square())
        with pytest.raises(ValueError):
            o.is_free(np.array([0.5, 0.5, 0.5]))

    def test_rejection_attempts_are_metered(self):
        # the box blocks most of the square so rejections must show up in the count
        o = CollisionOracle(unit_square([Box(np.array([0.0, 0.0]), np.array([0.9, 1.0]))]))
        rng = np.random.default_rng(0)
        q = o.sample_free(rng)
        assert o.is_free(q)
        assert o.sample_count >= 2  # the success plus at least the final recheck

    def test_sample_free_is_deterministic(self):
        scene = unit_square([Box(np.array([0.2, 0.0]), np.array([0.8, 0.8]))])
        a = CollisionOracle(scene).sample_free(np.random.default_rng(42))
        b = CollisionOracle(scene).sample_free(np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_sample_free_gives_up(self):
        # oracle cannot find free space when obstacles cover the whole world
        o = CollisionOracle(unit_square([Box(np.zeros(2), np.ones(2))]))
        with pytest.raises(FreeSpaceNotFound):
            o.sample_free(np.random.default_rng(0), max_attempts=50)
        assert o.sample_count == 50

    def test_sample_log_only_when_enabled(self):
        scene = unit_square()
        quiet = CollisionOracle(scene)
        quiet.is_free(np.array([0.5, 0.5]))
        assert quiet.samples == []
        loud = CollisionOracle(scene, record_samples=True)
        loud.is_free(np.array([0.5, 0.5]))
        loud.is_free(np.array([2.0, 0.5]))
        assert [free for _, free in loud.samples] == [True, False]


class TestSerialization:
    def scene(self):
        return Scene(name="mixed", lower=np.zeros(3), upper=np.ones(3) * 2,
                     obstacles=(Box(np.zeros(3), np.ones(3) * 0.5),
                                Sphere(np.ones(3), 0.25)))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(self.scene(), path)
        loaded = load_scene(path)
        assert loaded.name == "mixed"
        np.testing.assert_array_equal(loaded.upper, self.scene().upper)
        assert isinstance(loaded.obstacles[0], Box)
        assert isinstance(loaded.obstacles[1], Sphere)
        assert loaded.obstacles[1].radius == 0.25

    def test_dict_round_trip_is_stable(self):
        d = scene_to_dict(self.scene())
        assert scene_to_dict(scene_from_dict(d)) == d

    def test_missing_field_names_the_field(self):
        with pytest.raises(ValueError, match="lower"):
            scene_from_dict({"name": "x", "upper": [1, 1]})

    def test_bad_obstacle_names_its_index(self):
        data = {"name": "x", "lower": [0, 0], "upper": [1, 1],
                "obstacles": [{"type": "cone", "apex": [0, 0]}]}
        with pytest.raises(ValueError, match=r"obstacles\[0\]"):
            scene_from_dict(data)

    def test_nan_radius_in_scene_file_rejected(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text('{"name": "x", "lower": [0, 0], "upper": [1, 1], "obstacles": '
                        '[{"type": "sphere", "center": [0.5, 0.5], "radius": NaN}]}',
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"obstacles\[0\]: .*radius"):
            load_scene(path)

    @pytest.mark.parametrize("data, needle", [
        ([1, 2], "JSON object"),
        ("scene", "JSON object"),
        ({"name": "x", "lower": [0, 0], "upper": [1, 1], "obstacles": [5]},
         r"obstacles\[0\]: obstacle must be a JSON object"),
        ({"name": "x", "lower": [0, 0], "upper": [1, 1], "obstacles": {"type": "box"}},
         "'obstacles' must be a list"),
        ({"name": "x", "lower": {"a": 0}, "upper": [1, 1]}, "'lower'"),
        ({"name": "x", "lower": [0, 0], "upper": "high"}, "'upper'"),
        ({"name": "x", "lower": [0, 0], "upper": [1, 1],
          "obstacles": [{"type": "sphere", "center": [0.5, 0.5], "radius": [1]}]},
         r"obstacles\[0\]: field 'radius'"),
        ({"name": "x", "lower": [0, 0], "upper": [1, 1],
          "obstacles": [{"type": "box", "min": [0, 0]}]},
         r"obstacles\[0\]: missing field 'max'"),
    ])
    def test_malformed_scene_names_the_field(self, data, needle):
        with pytest.raises(ValueError, match=needle):
            scene_from_dict(data)

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="broken.json"):
            load_scene(path)
