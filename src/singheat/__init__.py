"""Numerical laboratory for the singular nonlinear heat equation
u_t = nu (u^-2 u_x)_x + f(x, t) with Neumann ends and unit mass, its explicit
steady states, the proved exponential convergence envelopes, and the
Lagrangian dictionary to the viscous thin-sheet (shallow-water) system.

Profiles enter and leave the package as `Field`s (nodal samples on a `Grid`,
checked once as they are built); inside it they are plain numpy arrays.
"""

from .grid import Field, Grid, antiderivative, derivative, h1, l2, trapezoid_integral
from .constants import TheoremConstants, compute_A_bounds, compute_nu_plus, compute_R0
from .source import (
    CosineDecaySource,
    CosineExpSource,
    CosineStaticSource,
    HomogeneousSource,
    compute_N_infinity,
    compute_P0,
    make_source,
    mean_zero,
)
from .steady import SteadyState, double_primitive, solve_cnu, steady_profile
from .solver import SimulationConfig, SimulationRecord, simulate, step

__version__ = "0.1.0"
