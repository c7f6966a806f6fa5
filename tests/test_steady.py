import numpy as np
import pytest

from singheat.errors import NoRootError
from singheat.grid import Grid, derivative, l2, rhs, trapezoid_integral
from singheat.source import CosineDecaySource, CosineStaticSource, make_source
from singheat.steady import (
    double_primitive,
    solve_cnu,
    steady_profile,
)


def kicked_cosine(grid, nu=1.0):
    """Steady state for f = (pi/2) cos(pi x) at the given viscosity."""
    return steady_profile(CosineStaticSource(grid, np.pi / 2), nu, which="initial")


class TestClosedFormOracle:
    """The f = (pi/2) cos(pi x), nu = 1 case has a closed-form constant.

    F2 = (1 - cos(pi x)) / (2 pi), so the profile is
    u = 2 pi nu / (C - cos(pi x)) with C = 2 pi C_nu + 1, and the mass
    condition integral(1 / (C - cos(pi x))) = 1 / sqrt(C^2 - 1) (for C > 1)
    pins C = sqrt(4 pi^2 + 1).
    """

    C_EXACT = np.sqrt(4 * np.pi**2 + 1)

    def test_mass_identity_by_quadrature(self):
        # verify the closed-form identity itself with brute-force quadrature
        x = np.linspace(0.0, 1.0, 200001)
        for c in (1.5, 3.0, self.C_EXACT, 20.0):
            val = np.trapezoid(1.0 / (c - np.cos(np.pi * x)), x)
            assert val == pytest.approx(1.0 / np.sqrt(c**2 - 1.0), rel=1e-8)

    def test_cnu_converges_to_exact(self):
        errs = []
        for n in (1001, 2001):
            ss = kicked_cosine(Grid(n))
            c_big = 2 * np.pi * ss.C_nu + 1.0
            errs.append(abs(c_big - self.C_EXACT))
        # quadrature-limited, second order in dx
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
        assert errs[1] < 5e-7

    def test_profile_matches_closed_form(self):
        g = Grid(2001)
        ss = kicked_cosine(g)
        exact = 2 * np.pi / (self.C_EXACT - np.cos(np.pi * g.nodes))
        assert np.max(np.abs(ss.u_infinity.values - exact)) < 1e-6


class TestDoublePrimitive:
    def test_cosine(self):
        g = Grid(4001)
        F2 = double_primitive((np.pi / 2) * np.cos(np.pi * g.nodes), g.dx)
        exact = (1.0 - np.cos(np.pi * g.nodes)) / (2 * np.pi)
        assert np.max(np.abs(F2 - exact)) < 1e-7
        assert F2[0] == 0.0

    def test_zero(self):
        g = Grid(11)
        F2 = double_primitive(np.zeros(11), g.dx)
        assert np.all(F2 == 0.0)


class TestSolveCnu:
    def test_zero_forcing_gives_nu(self):
        # flat profile u = 1 needs C = nu exactly
        g = Grid(101)
        for nu in (0.3, 1.0, 7.5):
            c = solve_cnu(np.zeros(101), nu, g.dx)
            assert c == pytest.approx(nu, abs=1e-10)

    def test_monotone_in_nu(self):
        g = Grid(501)
        F2 = double_primitive(np.cos(np.pi * g.nodes), g.dx)
        cs = [solve_cnu(F2, nu, g.dx) for nu in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(cs) > 0)

    def test_increasing_mass_integral_raises(self, monkeypatch):
        # G(C) must decrease on the bracket; a G that rises between the
        # bracket ends is reported, not asserted away under python -O
        import singheat.steady as steady

        def rising_in_middle(F2, c, dx):
            return 10.0 if c < 0.01 else (11.0 if c < 1.0 else 0.0)

        monkeypatch.setattr(steady, "_mass_integral", rising_in_middle)
        with pytest.raises(NoRootError, match="increases"):
            solve_cnu(np.zeros(11), 1.0, Grid(11).dx)

    def test_rejects_nonpositive_nu(self):
        g = Grid(11)
        with pytest.raises(ValueError):
            solve_cnu(np.zeros(11), 0.0, g.dx)


class TestSteadyProfile:
    def test_invariants(self):
        g = Grid(1001)
        ss = kicked_cosine(g)
        assert abs(ss.mass_defect) < 1e-11
        assert np.all(ss.u_infinity.values > 0)
        assert ss.residual_l2 < 1e-4
        # the profile solves u = nu / (F2 + C) nodewise by construction
        recon = ss.nu / (ss.F2 + ss.C_nu)
        assert np.max(np.abs(ss.u_infinity.values - recon)) < 1e-15

    def test_residual_is_second_order(self):
        # ex-2-4's data: the residual at n = 201 over that at 401 reads 4.00
        ratio = kicked_cosine(Grid(201)).residual_l2 / kicked_cosine(Grid(401)).residual_l2
        assert 3.5 <= ratio <= 4.5

    def test_q_infinity(self):
        g = Grid(501)
        ss = kicked_cosine(g, nu=2.0)
        q = ss.q_infinity()
        assert np.max(np.abs(q.values * ss.u_infinity.values - np.sqrt(2.0))) < 1e-13

    def test_limit_of_decaying_source_is_flat(self):
        g = Grid(401)
        ss = steady_profile(CosineDecaySource(g), nu=10.0, which="limit")
        assert np.max(np.abs(ss.u_infinity.values - 1.0)) < 1e-10

    def test_initial_vs_limit(self):
        g = Grid(401)
        src = CosineDecaySource(g)
        ss0 = steady_profile(src, nu=10.0, which="initial")
        assert np.ptp(ss0.u_infinity.values) > 1e-3

    def test_large_forcing_needs_no_root_or_positive_profile(self):
        # amplitude far beyond the positivity threshold: the solver must
        # either refuse or still return a positive unit-mass profile
        g = Grid(801)
        try:
            ss = steady_profile(CosineStaticSource(g, 50.0), nu=0.05, which="initial")
        except NoRootError:
            return
        assert np.all(ss.u_infinity.values > 0)
        assert abs(ss.mass_defect) < 1e-10


def test_steady_profile_builds_fields_independent_of_bisection(monkeypatch, fields_built):
    # the bisection works on arrays: u_infinity is the one Field built, for a
    # static source, however many mass integrals the root takes
    import singheat.steady as steady

    g = Grid(101)
    sources = [CosineStaticSource(g, 0.1), CosineStaticSource(g, 2.0)]
    evaluations = []
    mass_integral = steady._mass_integral

    def counted(*args):
        evaluations.append(args[1])
        return mass_integral(*args)

    monkeypatch.setattr(steady, "_mass_integral", counted)
    counts = []
    for src, nu in zip(sources, (1.0, 0.05)):
        fields_built.clear()
        evaluations.clear()
        steady_profile(src, nu)
        counts.append((len(fields_built), len(evaluations)))
    assert [built for built, _ in counts] == [1, 1]
    assert counts[0][1] != counts[1][1]


def test_pde_residual_flags_wrong_profile():
    g = Grid(1001)
    src = CosineStaticSource(g, np.pi / 2)
    ss = steady_profile(src, 1.0, which="initial")
    wrong = ss.u_infinity.with_values(1.0 + 0.3 * np.cos(np.pi * g.nodes))
    f = src.evaluate(0.0).values
    # residual_l2 is the march's own residual at u_inf
    assert ss.residual_l2 == l2(rhs(ss.u_infinity.values, f, 1.0, g.dx), g.dx)
    assert l2(rhs(wrong.values, f, 1.0, g.dx), g.dx) > 100 * ss.residual_l2
