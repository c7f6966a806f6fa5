"""Admissibility constants and predicted decay rates of the two theorems.

The homogeneous theorem needs R0 < 1 and nu > 2*P0/(1 - R0) and predicts the
rate lambda = pi^2 [nu(1-R0) - 2*P0]^2 / nu.  The inhomogeneous theorem needs
nu above the threshold nu_plus, yields pointwise bounds A- <= u <= A+, and
predicts the rate B = nu pi^2 / (2 A+^2) with prefactor
C = nu^{-1/2} (A-^{-2} + A+^{-2}).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import HypothesisError
from .grid import Field, gradient, l2, write_json
from .source import SourceTerm, compute_N_infinity, compute_P0


def compute_R0(u0: Field) -> float:
    """L2 norm of the derivative of 1/u0."""
    if np.any(u0.values <= 0):
        raise ValueError("u0 must be positive nodewise")
    dx = u0.grid.dx
    return l2(gradient(1.0 / u0.values, dx), dx)


def compute_nu_plus(R0: float, P0: float, N_inf: float) -> float:
    """Viscosity threshold of the inhomogeneous theorem."""
    if not (R0 >= 0 and P0 >= 0 and N_inf >= 0):
        raise ValueError(
            f"R0, P0 and N_inf must be nonnegative, got {R0}, {P0}, {N_inf}"
        )
    if R0 >= 1:
        raise HypothesisError(f"R0={R0} must be below 1")
    # nonnegative: (2N + P(1+R))^2 >= (2N)^2 >= N^2 (1 - R^2) for R in [0, 1)
    disc = (2 * N_inf + P0 * (1 + R0)) ** 2 - N_inf**2 * (1 - R0**2)
    return (2 * N_inf + (1 + R0) * P0 + math.sqrt(disc)) / (1 - R0**2)


def _pointwise_bracket(R0: float, P0: float, N_inf: float, nu: float) -> float:
    s = N_inf + P0
    return 2 * N_inf + P0 + math.sqrt(
        s**2 + 2 * s * N_inf + nu**2 * R0**2 + 2 * nu * P0 * R0
    )


def compute_A_bounds(R0, P0, N_inf, nu):
    """Uniform pointwise solution bounds (A_minus, A_plus)."""
    if R0 >= 1 or nu <= compute_nu_plus(R0, P0, N_inf):
        raise HypothesisError(
            f"inhomogeneous hypotheses fail: R0={R0}, nu={nu} "
            f"<= nu_plus={compute_nu_plus(R0, P0, N_inf) if R0 < 1 else float('inf')}"
        )
    k = _pointwise_bracket(R0, P0, N_inf, nu)
    return nu / (nu + k), nu / (nu - k)


def homogeneous_rate(R0: float, P0: float, nu: float) -> float:
    """Decay-rate exponent of the homogeneous H1 estimate."""
    if R0 >= 1 or nu <= 2 * P0 / (1 - R0):
        raise HypothesisError(
            f"homogeneous hypotheses fail: R0={R0}, nu={nu} <= {2 * P0 / (1 - R0) if R0 < 1 else float('inf')}"
        )
    return math.pi**2 * (nu * (1 - R0) - 2 * P0) ** 2 / nu


@dataclass(frozen=True)
class TheoremConstants:
    """All constants of both theorems for one data set (u0, f, nu)."""

    R0: float
    P0: float
    N_infinity: float
    nu: float
    nu_plus: float
    hom_ok: bool
    inhom_ok: bool
    A_minus: float = float("nan")
    A_plus: float = float("nan")
    lambda_hom: float = float("nan")
    B: float = float("nan")
    C_big: float = float("nan")

    @classmethod
    def from_values(cls, R0, P0, N_inf, nu) -> "TheoremConstants":
        if not (R0 >= 0 and P0 >= 0 and N_inf >= 0 and nu > 0):   # NaN fails too
            raise ValueError("constants must be nonnegative and nu positive")
        nu_plus = compute_nu_plus(R0, P0, N_inf) if R0 < 1 else float("inf")
        hom_ok = bool(R0 < 1 and nu > 2 * P0 / (1 - R0))
        inhom_ok = bool(R0 < 1 and nu > nu_plus)
        fields = dict(
            R0=R0, P0=P0, N_infinity=N_inf, nu=nu, nu_plus=nu_plus,
            hom_ok=hom_ok, inhom_ok=inhom_ok,
        )
        try:    # the rate and the bracket square nu, and ** raises on overflow
            if hom_ok:
                fields["lambda_hom"] = homogeneous_rate(R0, P0, nu)
            if inhom_ok:
                a_minus, a_plus = compute_A_bounds(R0, P0, N_inf, nu)
                fields["A_minus"] = a_minus
                fields["A_plus"] = a_plus
                fields["B"] = nu * math.pi**2 / (2 * a_plus**2)
                fields["C_big"] = (1 / a_minus**2 + 1 / a_plus**2) / math.sqrt(nu)
        except OverflowError as err:
            raise ValueError(f"nu={nu!r} is too large: the theorem constants overflow") from err
        return cls(**fields)

    @classmethod
    def from_problem(cls, u0: Field, src: SourceTerm, nu: float) -> "TheoremConstants":
        """The constants for initial data and a forcing; N_infinity is 0 for static forcing."""
        R0, P0 = compute_R0(u0), compute_P0(src)
        return cls.from_values(R0, P0, compute_N_infinity(src), nu)

    def homogeneous_bounds(self):
        """Pointwise solution bounds of the homogeneous theorem."""
        if not self.hom_ok:
            raise HypothesisError("homogeneous hypotheses do not hold")
        lo = self.nu / (self.nu * (1 + self.R0) + 2 * self.P0)
        hi = self.nu / (self.nu * (1 - self.R0) - 2 * self.P0)
        return lo, hi

    def as_dict(self) -> dict:
        data = asdict(self)
        hypotheses = {"hom": data.pop("hom_ok"), "inhom": data.pop("inhom_ok")}
        return {**data, "hypotheses": hypotheses}

    def to_json(self, path) -> None:
        write_json(path, self.as_dict())
