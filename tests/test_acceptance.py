"""Acceptance gate: twelve numbered criteria, one printed line each.

Each criterion records a PASS/FAIL line (replayed in the terminal summary
by the shared fixtures) and then asserts, so a red criterion is both visible
in the log and fails the suite.
"""

import json
import math
import time

import numpy as np
import pytest

from singheat.cli import main as cli_main
from singheat.constants import TheoremConstants, compute_nu_plus
from singheat.decay import check_gradient_energy_envelope, check_inhomogeneous_envelope
from singheat.grid import Field, Grid, h1, trapezoid_integral
from singheat.lagrangian import (
    SheetState,
    crosscheck_heights,
    initial_map,
    limit_sheet,
    pde_time_derivative,
    sheet_from_u,
    solve_ssm,
    source_from_sheet,
)
from singheat.solver import SimulationConfig, simulate
from singheat.source import (
    CallableSource,
    CosineDecaySource,
    CosineStaticSource,
    compute_N_infinity,
    make_source,
)
from singheat.steady import steady_profile

C_EXACT = math.sqrt(4 * math.pi**2 + 1)


def test_criterion_01_steady_state_constant(criterion, tmp_path):
    cfg = tmp_path / "steady.txt"
    cfg.write_text(f"source = cosine_static {math.pi / 2}\nnu = 1\n")
    out = tmp_path / "out"
    t0 = time.perf_counter()
    code = cli_main(["steady", "--config", str(cfg), "--out", str(out),
                     "--n", "4097"])
    elapsed = time.perf_counter() - t0
    data = json.loads((out / "report.json").read_text())
    err = abs(data["C_infinity"] - C_EXACT)
    ok = code == 0 and err <= 1e-4 and elapsed < 1.0
    criterion(1, ok, f"C_infinity error {err:.2e} (tol 1e-4), {elapsed:.2f}s")
    assert ok


def test_criterion_01_oracle_brute_force():
    # independent check of the closed form behind criterion 1:
    # integral of 1/(C - cos(pi x)) equals 1/sqrt(C^2 - 1), and bisection on
    # the brute-force quadrature lands on the same constant
    x = np.linspace(0.0, 1.0, 100001)

    def mass(c):
        return np.trapezoid(1.0 / (c - np.cos(np.pi * x)), x)

    lo, hi = 1.5, 50.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mass(mid) > 1.0 / (2 * np.pi):
            lo = mid
        else:
            hi = mid
    c_brute = 0.5 * (lo + hi)
    assert abs(c_brute - C_EXACT) < 1e-6
    assert mass(C_EXACT) == pytest.approx(1 / math.sqrt(C_EXACT**2 - 1), rel=1e-9)


def test_criterion_02_h1_distance(criterion):
    t0 = time.perf_counter()
    g = Grid(4001)
    ss = steady_profile(CosineStaticSource(g, math.pi / 2), 1.0, which="initial")
    view = limit_sheet(ss, 1.0)
    gap = Field(g, view.h_on_map.values - np.ones(g.n))  # initial height is 1
    dist = h1(gap.values, g.dx)
    elapsed = time.perf_counter() - t0
    ok = abs(dist - 0.37) <= 0.01 and elapsed < 1.0
    criterion(2, ok, f"H1 distance {dist:.4f} (target 0.37 ± 0.01), {elapsed:.2f}s")
    assert ok


def test_criterion_03_homogeneous_envelope(criterion, ex24_record):
    times = np.asarray(ex24_record.times)
    err = np.asarray(ex24_record.h1_error_inverse)
    bound = 1.05 * err[0] * np.exp(-0.8467 * times)
    margin = float(np.max(err / bound))
    ok = margin <= 1.0
    criterion(3, ok, f"envelope margin {margin:.3f} at rate 0.8467 over t in [0, 8]")
    assert ok


def test_criterion_04_mass_conservation(criterion, ex24_record, ex33_record, long_record):
    worst = 0.0
    steps = 0
    for rec in (ex24_record, ex33_record, long_record):
        worst = max(worst, float(np.max(np.abs(np.asarray(rec.mass) - 1.0))))
        steps = max(steps, len(rec.times) - 1)
    ok = worst <= 1e-10 and steps >= 10**4
    criterion(4, ok, f"max |mass - 1| = {worst:.2e} over {steps} steps")
    assert ok


def test_criterion_05_pointwise_bounds(criterion, ex24_record, ex33_record):
    lo24 = 1.0 / (1.0 + 1.0 / math.sqrt(2))
    hi24 = 1.0 / (1.0 - 1.0 / math.sqrt(2))
    ok24 = (min(ex24_record.min_u) >= lo24 - 1e-12
            and max(ex24_record.max_u) <= hi24 + 1e-12)
    ok33 = (min(ex33_record.min_u) >= 0.7081 - 1e-4
            and max(ex33_record.max_u) <= 1.7011 + 1e-4)
    ok = ok24 and ok33
    criterion(5, ok,
           f"kicked run in [{min(ex24_record.min_u):.4f}, "
           f"{max(ex24_record.max_u):.4f}] vs [{lo24:.4f}, {hi24:.4f}]; "
           f"decaying run in [{min(ex33_record.min_u):.4f}, "
           f"{max(ex33_record.max_u):.4f}] vs [0.7081, 1.7011]")
    assert ok


def test_criterion_06_inhomogeneous_constants(criterion):
    # threshold from the stated data constants
    nu_plus = compute_nu_plus(0.0, 1 / math.sqrt(2), 1 / math.sqrt(2))
    thr_ok = abs(nu_plus - (3 / math.sqrt(2) + 2)) <= 1e-12

    # N_infinity measured from the decaying cosine forcing itself.  By
    # definition N_inf = int_0^inf ||primitive of f_t||_2 dt.  For
    # f = min(1, 1/t) cos(pi x), f_t = 0 for t < 1 and -cos(pi x)/t^2 for
    # t > 1; the primitive of cos(pi x) is sin(pi x)/pi, with L2 norm
    # 1/(pi sqrt(2)), and int_1^inf t^-2 dt = 1, so N_inf = 1/(pi sqrt(2)).
    n_target = 1 / (math.pi * math.sqrt(2))
    n_inf, truncated = compute_N_infinity(CosineDecaySource(Grid(4001)))
    n_ok = (not truncated) and abs(n_inf - n_target) <= 1e-4

    # rate B at nu = 10: reduced closed form vs the generic constants path
    b_closed = math.pi**2 * (10 - 3 / math.sqrt(2) - 2) ** 2 / 20
    tc = TheoremConstants.from_values(0.0, 1 / math.sqrt(2), 1 / math.sqrt(2), 10.0)
    b_ok = abs(tc.B - b_closed) <= 1e-12

    ok = thr_ok and n_ok and b_ok
    criterion(6, ok,
           f"nu_plus ok={thr_ok}; N_infinity={n_inf:.6f} vs 1/(pi sqrt(2))="
           f"{n_target:.6f} ok={n_ok}; B paths ok={b_ok}")
    assert ok


def test_criterion_07_inhomogeneous_envelope(criterion, ex33_record):
    cfg = ex33_record.config
    consts = TheoremConstants.from_problem(cfg.u0, cfg.source, cfg.nu)
    # The energy argument bounds the squared H1 seminorm of 1/u - 1/u_inf
    # (as ||(q - q_inf)_x||_2^2 with q = sqrt(nu)/u) by e^{-Bt} times its
    # initial value plus (A-^-2 + A+^-2) int_0^t e^{-B(t-s)} ||f - f_inf||_2^2.
    # The literal unsquared form is linear in the data on the left and
    # quadratic on the right, so it fails for small forcing whatever the
    # solver does; it is printed for reference only.
    rep = check_gradient_energy_envelope(ex33_record, consts, cfg.source)
    literal = check_inhomogeneous_envelope(ex33_record, consts, cfg.source)
    ok = rep.envelope_ok
    criterion(7, ok,
           f"squared-gradient energy envelope margin {rep.envelope_margin:.3f} "
           f"(B={consts.B:.2f}, A-={consts.A_minus:.4f}, A+={consts.A_plus:.4f}); "
           f"literal unsquared H1 form, not asserted: {literal.envelope_margin:.2f}")
    assert ok


def test_criterion_08_energy_dissipation(criterion, ex24_record, long_record):
    ok = True
    details = []
    for name, rec, p0, r0 in (
        ("kicked-401", ex24_record, 1 / (2 * math.sqrt(2)), 0.0),
        ("kicked-201", long_record, 1 / (2 * math.sqrt(2)), 0.0),
    ):
        de = float(np.max(np.diff(np.asarray(rec.energy))))
        nu = rec.config.nu
        qx_bound = 2 * p0 / math.sqrt(nu) + math.sqrt(nu) * r0
        qx_max = float(np.max(rec.qx_l2))
        this_ok = de <= 1e-10 and qx_max <= qx_bound * (1 + 1e-6)
        ok = ok and this_ok
        details.append(f"{name}: dE_max={de:.1e}, ||q_x||={qx_max:.4f}"
                       f"<= {qx_bound:.4f}")
    criterion(8, ok, "; ".join(details))
    assert ok


def _mms_error(n: int) -> float:
    eps = 0.05

    def exact(x, t):
        return 1.0 + eps * np.exp(-t) * np.cos(np.pi * x)

    def defect(x, t):
        c, s = np.cos(np.pi * x), np.sin(np.pi * x)
        u = 1.0 + eps * np.exp(-t) * c
        ut = -eps * np.exp(-t) * c
        ux = -eps * np.exp(-t) * np.pi * s
        uxx = -eps * np.exp(-t) * np.pi**2 * c
        return ut - (uxx / u**2 - 2 * ux**2 / u**3)

    g = Grid(n)
    u0 = Field(g, exact(g.nodes, 0.0))
    u0 = u0.with_values(u0.values / trapezoid_integral(u0))
    dt = g.dx**2
    t_end = round(0.5 / dt) * dt
    cfg = SimulationConfig(
        nu=1.0, grid=g, u0=u0,
        source=CallableSource(g, defect, f_limit_fn=lambda x: np.zeros_like(x)),
        dt=dt, t_end=t_end, snapshot_stride=10**9,
    )
    rec = simulate(cfg)
    assert rec.failure is None
    return float(np.max(np.abs(rec.snapshots[-1].values - exact(g.nodes, t_end))))


def test_criterion_09_manufactured_solution_order(criterion):
    errs = [_mms_error(n) for n in (41, 81, 161)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    criterion(9, ok, f"L-inf error ratios under dx halving: "
                  f"{ratios[0]:.3f}, {ratios[1]:.3f} (need [3.5, 4.5])")
    assert ok


def test_criterion_10_lagrangian_round_trip(criterion):
    g = Grid(4097)
    h0 = Field(g, np.ones(g.n))
    v0 = Field(g, 0.5 * np.sin(np.pi * g.nodes))
    f0 = source_from_sheet(initial_map(h0, 1.0), v0, nu=1.0)
    f_err = float(np.max(np.abs(f0.values - (np.pi / 2) * np.cos(np.pi * g.nodes))))

    # velocity recovery at t = 0: v_x = u_t = f0 at the flat state
    gv = Grid(401)
    src = CosineStaticSource(gv, math.pi / 2)
    u0 = Field(gv, np.ones(gv.n))
    ut = pde_time_derivative(u0, src.f_initial(), 1.0)
    view = sheet_from_u(u0, ut, 1.0)
    v_err = float(np.max(np.abs(view.v_on_map.values
                                - 0.5 * np.sin(np.pi * gv.nodes))))
    dx2_dt = gv.dx**2 + 1e-3
    ok = f_err <= 1e-6 and v_err <= 20 * dx2_dt
    criterion(10, ok, f"forcing recovery {f_err:.2e} (tol 1e-6); "
                   f"velocity recovery {v_err:.2e} (O(dx^2)+O(dt) scale)")
    assert ok


def test_criterion_11_ssm_crosscheck(criterion, ex24_record):
    n = 201
    g = Grid(n)
    init = SheetState(
        t=0.0, grid=g, h=Field(g, np.ones(n)),
        v=Field(g, 0.5 * np.sin(np.pi * g.nodes)), M=1.0, nu=1.0,
    )
    src = CosineStaticSource(g, math.pi / 2)
    cfg = SimulationConfig(
        nu=1.0, grid=g, u0=Field(g, np.ones(n)), source=src,
        dt=1e-3, t_end=1.0, snapshot_stride=1000,
    )
    rec1 = simulate(cfg)
    u1 = rec1.snapshots[-1]
    ssm1 = solve_ssm(init, dt=1e-3, t_end=1.0)
    mismatch_t1 = crosscheck_heights(ssm1, u1, 1.0)

    # long-time limit: both routes against h_inf composed through the map
    ss = steady_profile(src, 1.0, which="initial")
    h_inf_view = limit_sheet(ss, 1.0)
    ssm8 = solve_ssm(init, dt=1e-3, t_end=8.0)
    h_ssm_on_map = np.interp(h_inf_view.y_of_x.values, g.nodes, ssm8.h.values)
    ssm_rel = float(np.max(np.abs(h_ssm_on_map - h_inf_view.h_on_map.values)
                           / h_inf_view.h_on_map.values))

    u8 = ex24_record.snapshots[-1]
    u_inf = ex24_record.steady.u_infinity
    u_rel = float(np.max(np.abs(u_inf.values / u8.values - 1.0)))

    ok = mismatch_t1 <= 0.02 and ssm_rel <= 0.02 and u_rel <= 0.02
    criterion(11, ok, f"t=1 mismatch {mismatch_t1:.4f}; t=8 vs h_inf: "
                   f"sheet solve {ssm_rel:.4f}, transformed u {u_rel:.2e} "
                   "(all <= 0.02)")
    assert ok


def test_criterion_12_reduction_consistency(criterion):
    rng = np.random.default_rng(12)
    worst = 0.0
    implied = True
    for _ in range(100):
        R0 = rng.uniform(0.0, 0.95)
        P0 = rng.uniform(0.0, 2.0)
        nu_thr = compute_nu_plus(R0, P0, 0.0)
        nu = nu_thr * (1.0 + rng.uniform(0.01, 10.0))
        tc = TheoremConstants.from_values(R0, P0, 0.0, nu)
        lo, hi = tc.homogeneous_bounds()
        worst = max(worst,
                    abs(tc.A_minus - lo) / lo,
                    abs(tc.A_plus - hi) / hi)
        # admissibility in the two-constant sense must imply the one-constant
        # sense: nu > nu_plus(R0, P0, 0) = 2 P0 / (1 - R0)
        implied = implied and tc.hom_ok
    ok = worst <= 1e-12 and implied
    criterion(12, ok, f"max relative bound gap {worst:.2e} over 100 draws; "
                   f"admissibility implication holds: {implied}")
    assert ok
