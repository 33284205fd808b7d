import itertools

import numpy as np
import pytest

from sprint_planner.bench import run_trial
from sprint_planner.params import SprintParams
from sprint_planner.scenes import (FIXTURE_NAMES, fixture_endpoints, fixture_lam,
                                   fixture_scene)
from sprint_planner.world import (BudgetExhausted, Box, CollisionOracle, Scene,
                                  Sphere, load_scene, save_scene, scene_from_dict,
                                  scene_to_dict)

from reference import is_free_reference


def unit_square(obstacles=()):
    return Scene(name="sq", lower=np.zeros(2), upper=np.ones(2),
                 obstacles=tuple(obstacles))


class TestObstacles:
    def test_box_boundary_collides(self):
        o = CollisionOracle(unit_square([Box(np.array([0.2, 0.2]), np.array([0.4, 0.4]))]))
        assert not o.is_free(np.array([0.2, 0.3]))
        assert not o.is_free(np.array([0.4, 0.4]))
        assert o.is_free(np.array([0.41, 0.3]))

    def test_box_min_above_max_rejected(self):
        with pytest.raises(ValueError):
            Box(np.array([0.5, 0.0]), np.array([0.4, 1.0]))

    def test_sphere_boundary_collides(self):
        scene = Scene(name="disc", lower=np.full(2, -2.0), upper=np.full(2, 2.0),
                      obstacles=(Sphere(np.array([0.0, 0.0]), 1.0),))
        o = CollisionOracle(scene)
        assert not o.is_free(np.array([1.0, 0.0]))
        assert o.is_free(np.array([1.0 + 1e-9, 0.0]))

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

    def test_budget_must_be_positive(self):
        for budget in (0, -5, float("nan")):
            with pytest.raises(ValueError, match="must be positive"):
                CollisionOracle(unit_square(), budget=budget)

    def test_default_budget(self):
        assert CollisionOracle(unit_square()).budget == 200_000

    def test_query_past_the_budget_is_refused_unmetered(self, monkeypatch):
        o = CollisionOracle(unit_square(), record_samples=True, budget=3)
        assert [o.query(np.array([x, 0.5])) for x in (0.5, 1.5, 0.5)] == [True, False, True]
        calls = []
        monkeypatch.setattr(CollisionOracle, "is_free", lambda self, q: calls.append(q))
        for _ in range(2):
            with pytest.raises(BudgetExhausted):
                o.query(np.array([0.5, 0.5]))
        assert calls == []
        assert o.sample_count == len(o.samples) == 3

    def test_sample_free_stops_at_the_budget(self):
        o = CollisionOracle(unit_square([Box(np.zeros(2), np.ones(2))]), budget=10)
        with pytest.raises(BudgetExhausted):
            o.sample_free(np.random.default_rng(0))
        assert o.sample_count == 10

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

    def test_sample_log_only_when_enabled(self):
        scene = unit_square()
        quiet = CollisionOracle(scene)
        quiet.is_free(np.array([0.5, 0.5]))
        assert quiet.samples == []
        loud = CollisionOracle(scene, record_samples=True)
        loud.is_free(np.array([0.5, 0.5]))
        loud.is_free(np.array([2.0, 0.5]))
        assert [free for _, free in loud.samples] == [True, False]


def mixed_scene(d):
    """Random boxes and spheres in [-1, 2]^d, interleaved, plus one sphere
    with a dyadic centre and radius whose surface points are exact."""
    rng = np.random.default_rng(d)
    obstacles = []
    for _ in range(4):
        a, b = rng.uniform(-1.0, 2.0, d), rng.uniform(-1.0, 2.0, d)
        obstacles.append(Box(np.minimum(a, b), np.maximum(a, b)))
        obstacles.append(Sphere(rng.uniform(-1.0, 2.0, d), float(rng.uniform(0.1, 0.5))))
    obstacles.append(Sphere(np.full(d, 0.5), DYADIC_RADIUS))
    return Scene(name=f"mixed_{d}d", lower=np.full(d, -1.0), upper=np.full(d, 2.0),
                 obstacles=tuple(obstacles))


DYADIC_RADIUS = 5 / 16


def on_faces_and_corners(lo, hi, rng, k=20):
    """Points with one coordinate on a face of [lo, hi], and corners."""
    d = len(lo)
    pts = []
    for _ in range(k):
        q = rng.uniform(lo, hi)
        i = int(rng.integers(d))
        q[i] = (lo if rng.random() < 0.5 else hi)[i]
        pts.append(q)
    corners = itertools.product((False, True), repeat=d) if d == 2 else (
        rng.random(d) < 0.5 for _ in range(k))
    pts.extend(np.where(np.array(c), lo, hi) for c in corners)
    return pts


def dyadic_sphere_surface(d):
    """Points exactly on the dyadic sphere of `mixed_scene`: the squared
    offsets (3/16)^2 + (4/16)^2 and 4 * (5/32)^2 both sum to (5/16)^2."""
    c = np.full(d, 0.5)
    offsets = [(DYADIC_RADIUS,), (3 / 16, 4 / 16)]
    if d >= 4:
        offsets.append((DYADIC_RADIUS / 2,) * 4)
    pts = []
    for off in offsets:
        for axes in itertools.permutations(range(d), len(off)):
            for signs in itertools.product((-1.0, 1.0), repeat=len(off)):
                q = c.copy()
                q[list(axes)] += np.array(signs) * off
                pts.append(q)
    return pts


def nudged(pts, on_mark):
    """Each point, then each point with one coordinate where `on_mark(q)`
    holds moved one float step down and one step up."""
    out = []
    for q in pts:
        out.append(q)
        for i in np.flatnonzero(on_mark(q)):
            for toward in (-np.inf, np.inf):
                p = q.copy()
                p[i] = np.nextafter(q[i], toward)
                out.append(p)
    return out


class TestIsFreeMatchesReference:
    """The early-exit oracle against the plain `all()` check of
    `reference.is_free_reference`, boundaries and one-ulp steps included."""

    @staticmethod
    def assert_same(scene, pts):
        o = CollisionOracle(scene, record_samples=True)
        got = [o.is_free(q) for q in pts]
        assert got == [is_free_reference(scene, q) for q in pts]
        assert o.sample_count == len(pts)
        assert [free for _, free in o.samples] == got
        return got

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_random_points_in_and_around_the_scene(self, d):
        scene = mixed_scene(d)
        rng = np.random.default_rng(100 + d)
        pts = list(rng.uniform(-1.5, 2.5, size=(2000, d)))
        for o in scene.obstacles:
            if isinstance(o, Box):
                pts.extend(rng.uniform(o.min, o.max, size=(50, d)))
            else:
                pts.extend(o.center + rng.uniform(-1.2, 1.2, size=(50, d)) * o.radius)
        got = self.assert_same(scene, pts)
        assert 0 < sum(got) < len(got)

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_scene_bounds_and_one_step_either_side(self, d):
        scene = mixed_scene(d)
        exact = on_faces_and_corners(scene.lower, scene.upper, np.random.default_rng(d))
        got = self.assert_same(
            scene, nudged(exact, lambda q: (q == scene.lower) | (q == scene.upper)))
        # the world boundary itself is free, one step outside is not
        assert any(self.assert_same(scene, exact))
        assert not all(got)

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_box_faces_corners_and_one_step_either_side(self, d):
        scene = mixed_scene(d)
        rng = np.random.default_rng(200 + d)
        for box in (o for o in scene.obstacles if isinstance(o, Box)):
            exact = on_faces_and_corners(box.min, box.max, rng)
            # a box boundary collides
            assert not any(self.assert_same(scene, exact))
            got = self.assert_same(
                scene, nudged(exact, lambda q: (q == box.min) | (q == box.max)))
            assert any(got)

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_dyadic_sphere_surface_and_one_step_either_side(self, d):
        scene = mixed_scene(d)
        exact = dyadic_sphere_surface(d)
        got = self.assert_same(scene, exact)
        # a sphere boundary collides
        assert not any(got)
        sphere_only = Scene(name="ball", lower=scene.lower, upper=scene.upper,
                            obstacles=scene.obstacles[-1:])
        assert not any(self.assert_same(sphere_only, exact))
        assert any(self.assert_same(sphere_only, nudged(exact, lambda q: q != 0.5)))

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_nan_is_never_free(self, d):
        q = np.full(d, 0.0)
        q[d // 2] = np.nan
        assert self.assert_same(mixed_scene(d), [q]) == [False]

    @pytest.mark.parametrize("planner", ["sprint", "rrt", "rrt-connect"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_planner_sample_logs(self, planner, name):
        scene = fixture_scene(name)
        start, goal = fixture_endpoints(name)
        _, res, oracle = run_trial(planner, scene, start, goal, 0,
                                   SprintParams(lam=fixture_lam(name)), 3000)
        assert oracle.sample_count == len(oracle.samples) == res.total_samples
        assert ([free for _, free in oracle.samples]
                == [is_free_reference(scene, q) for q, _ in oracle.samples])

    def test_log_keeps_call_order_and_copies(self):
        scene = mixed_scene(6)
        pts = list(np.random.default_rng(7).uniform(-1.5, 2.5, size=(300, 6)))
        o = CollisionOracle(scene, record_samples=True)
        got = [o.is_free(q) for q in pts]
        pts[0][:] = 0.0
        expect = np.random.default_rng(7).uniform(-1.5, 2.5, size=(300, 6))
        np.testing.assert_array_equal(np.array([q for q, _ in o.samples]), expect)
        assert [free for _, free in o.samples] == got


class TestSampleFreeDraws:
    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_draw_is_the_uniform_draw(self, d):
        # `lo + (hi - lo) * random(d)` is `Generator.uniform(lo, hi)` bit for
        # bit, and it leaves the generator in the same state
        lo, hi = np.linspace(-1.5, 0.25, d), np.linspace(0.5, 3.0, d)
        span = hi - lo
        for seed in range(300):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                assert (lo + span * rng.random(d)).tobytes() == ref.uniform(lo, hi).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_each_attempt_is_one_metered_query(self, monkeypatch, d):
        lo, hi = np.linspace(-1.5, 0.25, d), np.linspace(0.5, 3.0, d)
        wall_max = hi.copy()
        wall_max[0] = lo[0] + 0.8 * (hi[0] - lo[0])
        scene = Scene(name="wall", lower=lo, upper=hi, obstacles=(Box(lo, wall_max),))
        queried = []
        plain = CollisionOracle.is_free

        def recording(self, q):
            queried.append(q.copy())
            return plain(self, q)

        monkeypatch.setattr(CollisionOracle, "is_free", recording)
        o = CollisionOracle(scene, record_samples=True)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        drawn = [o.sample_free(rng) for _ in range(20)]
        expect = [ref.uniform(lo, hi) for _ in queried]
        np.testing.assert_array_equal(np.array(queried), np.array(expect))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert o.sample_count == len(o.samples) == len(queried) > 40
        free = [f for _, f in o.samples]
        assert free == [is_free_reference(scene, q) for q in queried]
        np.testing.assert_array_equal(np.array(drawn),
                                      np.array([q for q, f in o.samples if f]))


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
        # the square of twice the diagonal, about 8e320, overflows
        ({"name": "x", "lower": [0, 0], "upper": [1e160, 1e160]}, "scene box is too large"),
    ])
    def test_malformed_scene_names_the_field(self, data, needle):
        with pytest.raises(ValueError, match=needle):
            scene_from_dict(data)

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="broken.json"):
            load_scene(path)


@pytest.mark.parametrize("lookup", [fixture_scene, fixture_endpoints, fixture_lam])
def test_unknown_fixture_is_a_value_error(lookup):
    # the input-error type every other check raises, which the CLI reports
    with pytest.raises(ValueError, match="^unknown scene fixture 'empty_3d'; known: empty_2d, "):
        lookup("empty_3d")
