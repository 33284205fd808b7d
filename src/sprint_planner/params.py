"""SPRINT's parameter bundle and its JSON loader."""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, fields

from .world import is_json_int, is_json_number


@dataclass(frozen=True)
class SprintParams:
    """All SPRINT tuning knobs, held constant across a planning run.

    lam is the fixed local edge length; eta and eps_prog default to lam/2 and
    lam/10 when left as None.
    """

    lam: float = 0.05
    kappa: float = 0.3
    milestone_batch: int = 50
    # global region-selection weights
    w1_g: float = 1.0
    w2_g: float = 1.0
    # local gradient-ascent weights
    w1_l: float = 1.0
    w2_l: float = 1.0
    w3_l: float = 1.0
    # node-culling Gaussian shape
    c_base: float = 30.0
    sigma_slack: float = 2.0
    n_scale: float = 10.0
    eta: float | None = None
    ascent_iters: int = 2
    r_retry: int = 3
    k_obs: int = 10
    eps_prog: float | None = None

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        # the delta-useful ratio of a solved trial takes delta = 2 lam
        if not 2.0 * self.lam < math.inf:
            raise ValueError(f"lam {self.lam!r} is too large: 2 * lam overflows to inf")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")
        if self.ascent_iters not in (1, 2):
            raise ValueError("ascent_iters must be 1 or 2")
        for name in ("milestone_batch", "r_retry", "k_obs", "w1_g", "w2_g",
                     "w1_l", "w2_l", "w3_l", "c_base", "sigma_slack", "n_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # the culling gate divides by 2 c^2 for a c >= c_base
        if 2.0 * self.c_base * self.c_base == 0.0:
            raise ValueError(f"c_base {self.c_base!r} is too small: 2 * c_base**2 underflows to 0")
        for name in ("eta", "eps_prog"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be None or positive")

    @property
    def eta_eff(self) -> float:
        return self.eta if self.eta is not None else self.lam / 2.0

    @property
    def eps_prog_eff(self) -> float:
        return self.eps_prog if self.eps_prog is not None else self.lam / 10.0


def params_from_json(obj) -> SprintParams:
    """SprintParams from a parsed JSON object of field overrides.

    Raises ValueError for a non-object, an unknown field, or a value of the
    wrong type (int fields take integers up to sys.maxsize in magnitude,
    float fields any finite number that fits a float, eta and eps_prog also
    null), so bad config files give a one-line error; it shows the key and
    value cut short by `reprlib`, so a huge one cannot flood it.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"params must be a JSON object, got {type(obj).__name__}")
    types = {f.name: f.type for f in fields(SprintParams)}
    for key, value in obj.items():
        if key not in types:
            raise ValueError(f"unknown params field {reprlib.repr(key)}; known: {' '.join(types)}")
        kind = types[key]
        if value is None:
            ok = kind.endswith("| None")
        elif kind == "int":
            ok = is_json_int(value) and abs(value) <= sys.maxsize
        else:
            ok = is_json_number(value)
        if not ok:
            raise ValueError(f"params field {key!r} must be {kind}, got {reprlib.repr(value)}")
    return SprintParams(**obj)
