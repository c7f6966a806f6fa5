"""Explicit steady states of the singular heat equation.

The limit profile is u_inf = nu / (F2 + C), where F2 is the double primitive
of the forcing and C is the unique constant making the profile integrate to
one.  G(C) = integral of (F2 + C)^-1 is strictly decreasing, so the constant
is found by guarded bisection; the profile is always rebuilt from this closed
form, never by time-integrating the PDE.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoRootError, SingularSteadyStateError
from .grid import Field, l2, primitive, rhs, trapezoid, write_field_csv, write_json
from .source import SourceTerm

_CNU_TOL = 1e-12
_MAX_BISECT = 200


@dataclass(frozen=True)
class SteadyState:
    """Limit profile with its normalization constant and diagnostics.

    F2 is the forcing's double primitive, as an array on u_infinity's grid.
    residual_l2 is ||grid.rhs at u_infinity||_2, the march's residual: O(dx²).
    """

    u_infinity: Field
    C_nu: float
    nu: float
    F2: np.ndarray
    residual_l2: float
    mass_defect: float

    def q_infinity(self) -> Field:
        """Minimizer of the energy functional, sqrt(nu)/u_inf."""
        return self.u_infinity.with_values(self.inverse_profiles[0])

    @cached_property
    def inverse_profiles(self) -> np.ndarray:
        """Read-only rows sqrt(nu)/u_inf and 1/u_inf, computed once."""
        rows = np.array([[np.sqrt(self.nu)], [1.0]]) / self.u_infinity.values
        rows.setflags(write=False)
        return rows

    def to_json(self, path) -> None:
        write_json(path, {
            "C_nu": self.C_nu,
            "nu": self.nu,
            "residual_l2": self.residual_l2,
            "mass_defect": self.mass_defect,
        })

    def profile_csv(self, path) -> None:
        write_field_csv(path, self.u_infinity, header=("x", "u_infinity"))


def double_primitive(f: np.ndarray, dx: float) -> np.ndarray:
    """Twice-iterated primitive of the forcing samples, vanishing at x = 0."""
    return primitive(primitive(f, dx), dx)


def _mass_integral(F2: np.ndarray, c: float, dx: float) -> float:
    # c > -min(F2) on every call, so 1/(F2 + c) is finite
    return trapezoid(1.0 / (F2 + c), dx)


def solve_cnu(F2: np.ndarray, nu: float, dx: float) -> float:
    """Root of integral((F2 + C)^-1) = 1/nu by bisection.

    The integrand is singular as C approaches -min(F2); the bracket starts
    just above that end (where G is large) and doubles outward until G drops
    below 1/nu.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    target = 1.0 / nu
    fmin = float(np.min(F2))
    span = float(np.ptp(F2))
    scale = max(span, 1.0)
    lo = -fmin + 1e-3 * scale
    # walk toward the singular end until G(lo) exceeds the target
    for _ in range(60):
        if _mass_integral(F2, lo, dx) > target:
            break
        lo = -fmin + 0.5 * (lo + fmin)
        if lo + fmin < 1e-300:
            raise NoRootError("mass integral never exceeds 1/nu near the bracket end")
    else:
        raise NoRootError("mass integral never exceeds 1/nu near the bracket end")
    hi = lo + scale
    for _ in range(200):
        if _mass_integral(F2, hi, dx) < target:
            break
        hi *= 2.0
    else:
        raise NoRootError("mass integral never drops below 1/nu")
    g_lo = _mass_integral(F2, lo, dx)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        g_mid = _mass_integral(F2, mid, dx)
        if abs(g_mid - target) <= _CNU_TOL:
            return mid
        # G is strictly decreasing in C on the bracket
        if not g_mid < g_lo + 1e-15:
            raise NoRootError(f"mass integral increases on the bracket at C={mid!r}")
        if g_mid > target:
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def steady_profile(src: SourceTerm, nu: float, which: str = "limit") -> SteadyState:
    """Steady state for the source's initial or limit profile."""
    if which == "initial":
        f = src.evaluate(0.0)
    elif which == "limit":
        f = src.f_limit()
    else:
        raise ValueError(f"which must be 'initial' or 'limit', got {which!r}")
    dx = src.grid.dx
    F2 = double_primitive(f.values, dx)
    c = solve_cnu(F2, nu, dx)
    denom = F2 + c
    if np.any(denom <= 0):
        raise SingularSteadyStateError("steady-state denominator loses positivity")
    u_inf = Field(src.grid, nu / denom)
    return SteadyState(
        u_infinity=u_inf,
        C_nu=c,
        nu=nu,
        F2=F2,
        residual_l2=l2(rhs(u_inf.values, f.values, nu, dx), dx),
        mass_defect=abs(trapezoid(u_inf.values, dx) - 1.0),
    )
