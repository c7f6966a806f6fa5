import math

import numpy as np
import pytest

from singheat.constants import (
    TheoremConstants,
    compute_A_bounds,
    compute_nu_plus,
    compute_R0,
    homogeneous_rate,
)
from singheat.errors import HypothesisError
from singheat.grid import Field, Grid
from singheat.source import CosineStaticSource


class TestR0:
    def test_constant_profile(self):
        g = Grid(101)
        assert compute_R0(Field(g, np.ones(101))) == 0.0

    def test_analytic_profile(self):
        # u0 = 1 / (1 + eps sin(pi x)): (1/u0)' = eps pi cos(pi x),
        # so R0 = eps pi / sqrt(2)
        g = Grid(4001)
        eps = 0.2
        u0 = Field(g, 1.0 / (1.0 + eps * np.sin(np.pi * g.nodes)))
        assert compute_R0(u0) == pytest.approx(eps * np.pi / np.sqrt(2), rel=1e-6)

    def test_rejects_nonpositive(self):
        g = Grid(11)
        with pytest.raises(ValueError):
            compute_R0(Field(g, np.linspace(-0.1, 1.0, 11)))


class TestNuPlus:
    def test_zero_data(self):
        assert compute_nu_plus(0.0, 0.0, 0.0) == 0.0

    def test_pure_P(self):
        # with R0 = N = 0 the threshold is exactly 2 P0
        for p in (0.1, 1.0, 5.0):
            assert compute_nu_plus(0.0, p, 0.0) == pytest.approx(2 * p, rel=1e-14)

    def test_pure_N(self):
        # with R0 = P = 0 the threshold is (2 + sqrt(3)) N
        for n in (0.2, 1.0, 3.0):
            assert compute_nu_plus(0.0, 0.0, n) == pytest.approx(
                (2 + math.sqrt(3)) * n, rel=1e-14
            )

    def test_threshold_is_exact(self):
        # nu_plus is the root of nu - bracket(nu) = 0: the bound
        # hypothesis nu > bracket(nu) holds just above it and fails below
        from singheat.constants import _pointwise_bracket

        R0, P0, N = 0.3, 0.4, 0.2
        nup = compute_nu_plus(R0, P0, N)
        assert nup - _pointwise_bracket(R0, P0, N, nup) == pytest.approx(0.0, abs=1e-12)
        assert (nup * 1.01) - _pointwise_bracket(R0, P0, N, nup * 1.01) > 0
        assert (nup * 0.99) - _pointwise_bracket(R0, P0, N, nup * 0.99) < 0

    def test_R0_near_one_diverges(self):
        assert compute_nu_plus(0.999, 0.1, 0.1) > 100
        with pytest.raises(HypothesisError):
            compute_nu_plus(1.0, 0.1, 0.1)

    @pytest.mark.parametrize("data", [(0.0, -2.0, 1.0), (-0.1, 0.0, 0.0),
                                      (0.0, 0.0, -1.0), (0.0, float("nan"), 0.0)])
    def test_rejects_negative_data(self, data):
        # an explicit check, so it also holds under python -O
        with pytest.raises(ValueError, match="nonnegative"):
            compute_nu_plus(*data)


class TestABounds:
    def test_zero_data_is_unity(self):
        lo, hi = compute_A_bounds(0.0, 0.0, 0.0, 1.0)
        assert lo == 1.0 and hi == 1.0

    def test_bracket_order(self):
        lo, hi = compute_A_bounds(0.2, 0.1, 0.05, 3.0)
        assert 0 < lo < 1 < hi

    def test_large_nu_limit(self):
        # the bracket grows like nu R0, so the bounds tend to 1/(1 +- R0)
        lo, hi = compute_A_bounds(0.2, 0.1, 0.05, 1e6)
        assert lo == pytest.approx(1 / 1.2, abs=1e-3)
        assert hi == pytest.approx(1 / 0.8, abs=1e-3)

    def test_below_threshold_raises(self):
        with pytest.raises(HypothesisError):
            compute_A_bounds(0.2, 0.5, 0.5, 1.0)


class TestHomogeneousRate:
    def test_zero_data(self):
        for nu in (0.5, 1.0, 4.0):
            assert homogeneous_rate(0.0, 0.0, nu) == pytest.approx(
                math.pi**2 * nu, rel=1e-14
            )

    def test_kicked_cosine_rate(self):
        # flat start u0 = 1 (R0 = 0) kicked by (pi/2) cos(pi x), so
        # P0 = 1/(2 sqrt(2)) and the rate is pi^2 (1 - 1/sqrt(2))^2
        lam = homogeneous_rate(0.0, 1 / (2 * math.sqrt(2)), 1.0)
        assert lam == pytest.approx(math.pi**2 * (1 - 1 / math.sqrt(2)) ** 2, rel=1e-14)
        assert lam == pytest.approx(0.8467, abs=1e-4)

    def test_threshold_raises(self):
        with pytest.raises(HypothesisError):
            homogeneous_rate(0.5, 1.0, 4.0)  # needs nu > 4


class TestReductionSweep:
    """With N = 0 the pointwise bracket collapses to 2 P0 + nu R0, so the
    two-constant bounds must coincide with the homogeneous ones exactly."""

    rng = np.random.default_rng(20260826)

    @pytest.mark.parametrize("trial", range(100))
    def test_bounds_coincide(self, trial):
        R0 = self.rng.uniform(0.0, 0.95)
        P0 = self.rng.uniform(0.0, 2.0)
        nu_min = compute_nu_plus(R0, P0, 0.0)
        nu = nu_min * (1.0 + self.rng.uniform(0.05, 10.0))
        tc = TheoremConstants.from_values(R0, P0, 0.0, nu)
        assert tc.hom_ok and tc.inhom_ok
        lo_h, hi_h = tc.homogeneous_bounds()
        assert tc.A_minus == pytest.approx(lo_h, rel=1e-13)
        assert tc.A_plus == pytest.approx(hi_h, rel=1e-13)

    def test_threshold_reduction(self):
        # nu_plus(R0, P0, 0) = 2 P0 / (1 - R0) exactly
        for R0, P0 in [(0.0, 1.0), (0.3, 0.7), (0.9, 0.1)]:
            assert compute_nu_plus(R0, P0, 0.0) == pytest.approx(
                2 * P0 / (1 - R0), rel=1e-14
            )


class TestTheoremConstants:
    def test_from_values_consistency(self):
        tc = TheoremConstants.from_values(0.1, 0.2, 0.05, 5.0)
        assert tc.inhom_ok and tc.hom_ok
        assert tc.B == pytest.approx(5.0 * math.pi**2 / (2 * tc.A_plus**2), rel=1e-14)
        assert tc.C_big == pytest.approx(
            (tc.A_minus**-2 + tc.A_plus**-2) / math.sqrt(5.0), rel=1e-14
        )

    def test_failed_hypotheses_leave_nan(self):
        tc = TheoremConstants.from_values(0.5, 2.0, 1.0, 0.5)
        assert not tc.hom_ok and not tc.inhom_ok
        assert math.isnan(tc.A_minus) and math.isnan(tc.lambda_hom)

    def test_from_problem_kicked_cosine(self):
        # flat start, static cosine kick: R0 = 0, P0 = 1/(2 sqrt(2))
        g = Grid(4001)
        u0 = Field(g, np.ones(g.n))
        src = CosineStaticSource(g, math.pi / 2)
        tc = TheoremConstants.from_problem(u0, src, 1.0)
        assert tc.R0 == 0.0
        assert tc.P0 == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-6)
        assert tc.N_infinity == 0.0
        assert tc.lambda_hom == pytest.approx(0.8467, abs=1e-3)

    def test_R0_of_limit_profile(self):
        # 1/u_inf = (C - cos(pi x)) / (2 pi) has derivative sin(pi x)/2,
        # so R0 = 1/(2 sqrt(2)) regardless of C
        g = Grid(4001)
        c_exact = math.sqrt(4 * math.pi**2 + 1)
        u_inf = Field(g, 2 * math.pi / (c_exact - np.cos(np.pi * g.nodes)))
        assert compute_R0(u_inf) == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-6)

    def test_json_roundtrip(self, tmp_path):
        import json

        tc = TheoremConstants.from_values(0.1, 0.2, 0.05, 5.0)
        path = tmp_path / "constants.json"
        tc.to_json(path)
        data = json.loads(path.read_text())
        assert data["A_plus"] == tc.A_plus
        assert data["hypotheses"] == {"hom": True, "inhom": True}
