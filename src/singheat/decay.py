"""Empirical decay rates and the proved exponential envelopes.

Fits are ordinary least squares on log(error) over a window that starts once
the error has halved and stops above a noise floor, so neither the initial
transient nor the discretization plateau pollutes the slope.  Envelope checks
compare the recorded H1 error of 1/u against the theorems' right-hand sides
with a 5% tolerance absorbing discretization bias.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import HypothesisError, SolverError
from .constants import TheoremConstants
from .grid import h1, write_csv, write_json
from .solver import SimulationRecord
from .source import SourceTerm, forcing_gap_sq

ENVELOPE_TOL = 0.05
DEFAULT_FLOOR = 1e-9


@dataclass(frozen=True)
class DecayReport:
    fitted_rate: float
    fitted_prefactor: float
    theory_rate: float
    envelope_ok: bool
    envelope_margin: float
    fit_window: tuple
    floor: float

    def as_dict(self) -> dict:
        return {**asdict(self), "fit_window": list(self.fit_window)}

    def to_json(self, path) -> None:
        write_json(path, self.as_dict())


def fit_rate(times, errors, floor: float = DEFAULT_FLOOR):
    """Least-squares exponential fit; returns (rate, prefactor, window).

    The window runs from the first sample at or below half the initial error
    to the last sample above the floor.
    """
    times = np.asarray(times, dtype=float)
    errors = np.asarray(errors, dtype=float)
    above = errors > floor
    half = errors <= 0.5 * errors[0]
    start_candidates = np.nonzero(half & above)[0]
    if len(start_candidates) == 0:
        raise SolverError("no samples below half the initial error and above the floor")
    start = start_candidates[0]
    end = np.nonzero(above)[0][-1]
    sel = slice(start, end + 1)
    if end + 1 - start < 10:
        raise SolverError(
            f"only {end + 1 - start} samples in the fit window, need at least 10"
        )
    slope, intercept = np.polyfit(times[sel], np.log(errors[sel]), 1)
    return -float(slope), float(np.exp(intercept)), (float(times[start]), float(times[end]))


def _envelope_report(times, observed, bound, theory_rate, floor):
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = observed / ((1 + ENVELOPE_TOL) * bound)
    # samples at or below the noise floor carry no envelope information
    # (they also dodge 0/0 on degenerate runs that start at the steady state)
    ratios = np.where(observed <= floor, 0.0, ratios)
    margin = float(np.max(ratios))
    try:
        rate, prefactor, window = fit_rate(times, observed, floor)
    except SolverError:
        rate, prefactor, window = float("nan"), float("nan"), (np.nan, np.nan)
    return DecayReport(
        fitted_rate=rate,
        fitted_prefactor=prefactor,
        theory_rate=theory_rate,
        envelope_ok=bool(margin <= 1.0),
        envelope_margin=margin,
        fit_window=window,
        floor=floor,
    )


def check_homogeneous_envelope(record: SimulationRecord,
                               consts: TheoremConstants,
                               floor: float = DEFAULT_FLOOR,
                               rate: float | None = None) -> DecayReport:
    """H1 error of 1/u against its initial value times exp(-lambda t); static forcing only."""
    if record.config.source.time_dependent:
        raise HypothesisError("homogeneous theorem applied to a time-dependent source")
    if not consts.hom_ok:
        raise HypothesisError("homogeneous theorem hypotheses do not hold")
    lam = consts.lambda_hom if rate is None else rate
    return _envelope_report(record.times, record.h1_error_inverse,
                            homogeneous_bound(record, lam), lam, floor)


def homogeneous_bound(record: SimulationRecord, rate: float) -> np.ndarray:
    """The homogeneous envelope: the initial H1 error of 1/u times exp(-rate t)."""
    return record.h1_error_inverse[0] * np.exp(-rate * record.times)


def check_inhomogeneous_envelope(record: SimulationRecord,
                                 consts: TheoremConstants,
                                 src: SourceTerm,
                                 floor: float = DEFAULT_FLOOR) -> DecayReport:
    """Literal inhomogeneous H1 envelope with rate B and prefactor C.

    Bounds the unsquared ||1/u - 1/u_inf||_H1 by e^{-Bt} times its initial
    value plus C times the e^{-B(t-s)}-weighted integral of
    ||f - f_inf||_2^2.  This form is reported for reference only: it is not
    implied by the energy estimate.  Its left side scales linearly with the
    size of the data and its right side quadratically, so for small forcing
    it must fail whatever the solver does (on the decaying-cosine example,
    scaling f by 1, 0.1 and 0.01 gives margins of about 7.7, 101 and 1039).
    The inequality the energy argument yields is
    `check_gradient_energy_envelope`.
    """
    return _forced_envelope(record, consts, src, record.h1_error_inverse,
                            consts.C_big, floor)


def check_gradient_energy_envelope(record: SimulationRecord,
                                   consts: TheoremConstants,
                                   src: SourceTerm,
                                   floor: float = DEFAULT_FLOOR) -> DecayReport:
    """Squared-gradient envelope: the inequality the energy argument yields.

    Twice the relative energy (the squared L2 norm of the gradient of
    q - q_inf) is bounded by e^{-Bt} [initial value + integral of
    (A-^{-2} + A+^{-2}) ||f - f_inf||_2^2 e^{Bs} ds].
    """
    return _forced_envelope(record, consts, src, 2.0 * record.relative_energy,
                            1 / consts.A_minus**2 + 1 / consts.A_plus**2, floor)


def _forced_envelope(record, consts, src, observed, coeff, floor):
    """observed against e^{-Bt} observed[0] + coeff * (weighted forcing gap)."""
    if not consts.inhom_ok:
        raise HypothesisError("inhomogeneous theorem hypotheses do not hold")
    times = record.times
    gap_sq = forcing_gap_sq(src, times)
    weighted = _exp_weighted_cumulative(times, gap_sq, consts.B)
    bound = np.exp(-consts.B * times) * observed[0] + coeff * weighted
    return _envelope_report(times, observed, bound, consts.B, floor)


def _exp_weighted_cumulative(times, gap_sq, B):
    """e^{-Bt} * cumulative trapezoid of gap_sq * e^{Bs}, overflow-safe.

    Accumulated by the recursion W_k = e^{-B dt_k} W_{k-1} + (trapezoid
    piece on [t_{k-1}, t_k], scaled by e^{-B t_k}), which only ever forms
    the decaying factors e^{-B dt_k}, so no exponent grows with B t.
    """
    dts = np.diff(np.asarray(times, dtype=float))
    decay = np.exp(-B * dts)
    pieces = 0.5 * dts * (gap_sq[1:] + decay * gap_sq[:-1])
    acc, out = 0.0, [0.0]
    for d, p in zip(decay.tolist(), pieces.tolist()):
        acc = d * acc + p
        out.append(acc)
    return np.array(out)


def check_direct_convergence(record: SimulationRecord,
                             theory_rate: float,
                             floor: float = DEFAULT_FLOOR) -> DecayReport:
    """Fit the decay of ||u - u_inf||_H1 from the recorded snapshots.

    The corollaries' prefactors are not explicit, so only the rate is
    checked (observed at least the theory rate up to fit tolerance); the
    observed prefactor is reported.
    """
    u_inf = record.steady.u_infinity
    times = np.asarray(record.snapshot_times)
    err = np.array([h1(u.values - u_inf.values, u_inf.grid.dx)
                    for u in record.snapshots])
    rate, prefactor, window = fit_rate(times, err, floor)
    return DecayReport(
        fitted_rate=rate,
        fitted_prefactor=prefactor,
        theory_rate=theory_rate,
        envelope_ok=bool(rate >= 0.95 * theory_rate),
        envelope_margin=float(theory_rate / rate) if rate > 0 else float("inf"),
        fit_window=window,
        floor=floor,
    )


def envelope_csv(path, times, bound, observed) -> None:
    write_csv(path, ("t", "bound", "observed"), (times, bound, observed))
