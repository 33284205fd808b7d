import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sprint_planner.geometry import as_config, dist, polyline_length, unit

from reference import Region, hvs, proj, proj_scalar


def vectors(dim, lo=-10.0, hi=10.0):
    return st.lists(st.floats(lo, hi, allow_nan=False), min_size=dim, max_size=dim).map(
        lambda xs: np.array(xs, dtype=float))


class TestAsConfig:
    def test_accepts_list(self):
        q = as_config([1.0, 2.0])
        assert q.dtype == np.float64
        assert q.shape == (2,)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            as_config([[1.0, 2.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_config([])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_config([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_config([float("inf"), 0.0])


class TestDist:
    def test_matches_stdlib(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(1, 12))
            a, b = rng.normal(size=d), rng.normal(size=d)
            assert dist(a, b) == pytest.approx(math.dist(a, b), abs=1e-12)

    def test_zero_on_equal(self):
        q = np.array([0.3, -1.5, 2.0])
        assert dist(q, q) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dist(np.array([0.0]), np.array([0.0, 1.0]))

    @given(vectors(3), vectors(3))
    def test_symmetry(self, a, b):
        assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-12)

    @given(vectors(3), vectors(3), vectors(3))
    def test_triangle_inequality(self, a, b, c):
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9


class TestProjection:
    def region(self):
        return Region(np.array([0.0, 0.0]), np.array([2.0, 0.0]))

    def test_midpoint(self):
        assert proj_scalar(np.array([1.0, 5.0]), self.region()) == pytest.approx(0.5)

    def test_behind_start_is_negative(self):
        assert proj_scalar(np.array([-1.0, 3.0]), self.region()) < 0.0

    def test_past_end_exceeds_one(self):
        assert proj_scalar(np.array([3.0, -2.0]), self.region()) > 1.0

    def test_proj_point(self):
        p = proj(np.array([1.0, 5.0]), self.region())
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)

    def test_degenerate_region_raises(self):
        q = np.array([1.0, 1.0])
        with pytest.raises(ValueError):
            proj_scalar(np.array([0.0, 0.0]), Region(q, q.copy()))

    @given(vectors(3), vectors(3), vectors(3))
    def test_residual_orthogonal_to_axis(self, a, b, p):
        d = b - a
        if float(d.dot(d)) < 1e-6:
            return
        r = Region(a, b)
        residual = p - proj(p, r)
        assert abs(float(residual.dot(d))) <= 1e-6 * (1.0 + float(d.dot(d)))


class TestHvs:
    def test_negative(self):
        assert hvs(-1e-12) == 0.0

    def test_zero_maps_to_one(self):
        assert hvs(0.0) == 1.0

    def test_positive(self):
        assert hvs(2.5) == 1.0


class TestPolyline:
    def test_length_of_unit_l(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
        assert polyline_length(pts) == pytest.approx(2.0)

    def test_length_invariant_under_reversal(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(8, 4))
        assert polyline_length(pts) == pytest.approx(polyline_length(pts[::-1]))


class TestUnit:
    def test_normalizes(self):
        v = unit(np.array([3.0, 4.0]))
        np.testing.assert_allclose(v, [0.6, 0.8])

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            unit(np.zeros(3))
