import dataclasses
import math

import pytest

from sprint_planner.params import SprintParams


class TestSprintParams:
    def test_defaults(self):
        p = SprintParams()
        assert p.kappa == 0.3
        assert p.milestone_batch == 50
        assert p.r_retry == 3
        assert p.k_obs == 10
        assert p.ascent_iters == 2

    def test_derived_step_size(self):
        p = SprintParams(lam=0.2)
        assert p.eta_eff == pytest.approx(0.1)
        assert p.eps_prog_eff == pytest.approx(0.02)

    def test_explicit_eta_wins(self):
        p = SprintParams(lam=0.2, eta=0.05)
        assert p.eta_eff == 0.05

    def test_replace_returns_new_validated_instance(self):
        p = SprintParams()
        q = dataclasses.replace(p, lam=0.01)
        assert q.lam == 0.01
        assert p.lam == 0.05
        with pytest.raises(ValueError):
            dataclasses.replace(p, lam=-0.01)

    @pytest.mark.parametrize("kwargs", [
        {"lam": 0.0},
        {"lam": -1.0},
        {"kappa": 0.0},
        {"kappa": 1.0},
        {"milestone_batch": 0},
        {"r_retry": 0},
        {"k_obs": -1},
        {"c_base": 0.0},
        {"n_scale": 0.0},
        {"ascent_iters": 3},
        {"lam": math.nan},
        {"kappa": math.nan},
        {"c_base": math.nan},
        {"w1_g": math.nan},
        {"sigma_slack": math.nan},
        {"eta": math.nan},
        {"eta": 0.0},
        {"eps_prog": -1.0},
        {"eps_prog": math.nan},
        {"lam": math.nan, "c_base": math.nan, "eps_prog": -1.0},
        {"c_base": 1e-200},
        # 2 * lam, the delta-useful ratio's delta, overflows to inf
        {"lam": 1e308},
        {"lam": math.inf},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SprintParams(**kwargs)

