"""Moment engine tests: frozen oracle values, invariants, and error paths."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erfcx, ndtr

from tobitiv import (
    BivariateNormalSpec,
    MomentQuery,
    UnivariateNormalSpec,
    bivariate_truncated_moment_mc,
    bivariate_truncated_moment_quad,
    moment_identity_residual,
    quadrant_moments,
    univariate_truncated_moment,
    univariate_truncated_moment_quad,
)
from tobitiv.errors import (
    DomainError,
    InsufficientAcceptanceError,
    UnsupportedOrderError,
)
from tobitiv.truncmoments import (
    MAX_TOTAL_ORDER,
    _axis_nodes,
    _full_power_integrals,
    _raw_quadrant_integrals,
    _weighted_density_grid,
)


def mills(a):
    """phi(a) / Phi(a), the closed-form oracle for the truncated mean."""
    return math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi) / ndtr(a)


def truncated_mean(mu, sigma2):
    s = math.sqrt(sigma2)
    return mu + s * mills(mu / s)


class TestUnivariate:
    def test_standard_normal_mean_frozen(self):
        # E[U | U > 0] for U ~ N(0, 1) is sqrt(2 / pi).
        got = univariate_truncated_moment(UnivariateNormalSpec(0.0, 1.0), 1)
        assert got == pytest.approx(0.7978845608028654, abs=1e-12)
        assert got == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-13)

    def test_third_moment_frozen(self):
        # Value derived once from two independent oracles (adaptive 1D
        # quadrature and the closed-form recursion seeded by the Mills ratio).
        got = univariate_truncated_moment(UnivariateNormalSpec(2.0, 0.25), 3)
        assert got == pytest.approx(9.500301127545056, rel=1e-13)

    @pytest.mark.parametrize("mu", [-1.5, -0.5, 0.0, 0.7, 2.0])
    @pytest.mark.parametrize("sigma2", [0.25, 1.0, 4.0])
    def test_first_moment_closed_form(self, mu, sigma2):
        got = univariate_truncated_moment(UnivariateNormalSpec(mu, sigma2), 1)
        assert got == pytest.approx(truncated_mean(mu, sigma2), rel=1e-12)

    @pytest.mark.parametrize("mu", [-1.0, 0.0, 1.3])
    @pytest.mark.parametrize("sigma2", [0.5, 2.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_recursion_matches_quadrature(self, mu, sigma2, k):
        spec = UnivariateNormalSpec(mu, sigma2)
        rec = univariate_truncated_moment(spec, k)
        quad = univariate_truncated_moment_quad(spec, k)
        assert rec == pytest.approx(quad, rel=1e-8, abs=1e-8)

    def test_moments_increase_with_k_for_large_mean(self):
        # With nearly all mass above 1, higher powers dominate.
        spec = UnivariateNormalSpec(3.0, 1.0)
        vals = [univariate_truncated_moment(spec, k) for k in range(6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("mu", [-13.0, -40.0])
    def test_far_censored_mean(self, mu):
        # phi(mu) / Phi(mu) through erfcx, which does not underflow (Phi(-40) does).
        want = mu + math.sqrt(2.0 / math.pi) / erfcx(-mu / math.sqrt(2.0))
        spec = UnivariateNormalSpec(mu, 1.0)
        assert univariate_truncated_moment(spec, 1) == pytest.approx(want, rel=1e-11)
        assert univariate_truncated_moment_quad(spec, 1) == pytest.approx(want, rel=1e-11)
        for k in range(MAX_TOTAL_ORDER + 1):
            rec = univariate_truncated_moment(spec, k)
            assert rec > 0.0
            assert univariate_truncated_moment_quad(spec, k) == pytest.approx(rec, rel=1e-12)

    def test_far_positive_mean(self):
        # The quadrature range starts at mu - 12 sigma, not at 0, so it holds the
        # mass; rounding u near mu costs about eps * mu / sigma relative.
        spec = UnivariateNormalSpec(1e6, 1.0)
        for k in (1, MAX_TOTAL_ORDER):
            rec = univariate_truncated_moment(spec, k)
            assert univariate_truncated_moment_quad(spec, k) == pytest.approx(rec, rel=1e-10)

    @pytest.mark.parametrize("mu, sigma2, k", [(1e300, 1.0, 2), (1e100, 1e180, 8)])
    def test_overflowing_moment_raises(self, mu, sigma2, k):
        spec = UnivariateNormalSpec(mu, sigma2)
        with pytest.raises(DomainError):
            univariate_truncated_moment(spec, k)
        with pytest.raises(DomainError):
            univariate_truncated_moment_quad(spec, k)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            UnivariateNormalSpec(0.0, -1.0)
        with pytest.raises(DomainError):
            UnivariateNormalSpec(math.nan, 1.0)


class TestBivariate:
    def test_independence_factorization(self):
        # sigma12 = 0: the quadrant moment factorizes into the two
        # univariate truncated moments.
        spec = BivariateNormalSpec(0.4, -0.3, 1.5, 0.7, 0.0)
        for k, m in [(1, 1), (2, 1), (2, 3)]:
            got = bivariate_truncated_moment_quad(spec, MomentQuery(k, m), tol=1e-10)
            want = univariate_truncated_moment(
                UnivariateNormalSpec(spec.mu1, spec.sigma1_sq), k
            ) * univariate_truncated_moment(
                UnivariateNormalSpec(spec.mu2, spec.sigma2_sq), m
            )
            assert got == pytest.approx(want, rel=1e-9)

    def test_exchangeability(self):
        spec = BivariateNormalSpec(0.8, -0.2, 2.0, 0.5, 0.4)
        swapped = BivariateNormalSpec(-0.2, 0.8, 0.5, 2.0, 0.4)
        for k, m in [(1, 2), (3, 1)]:
            a = bivariate_truncated_moment_quad(spec, MomentQuery(k, m), tol=1e-10)
            b = bivariate_truncated_moment_quad(swapped, MomentQuery(m, k), tol=1e-10)
            assert a == pytest.approx(b, rel=1e-9)

    def test_batch_matches_single(self):
        spec = BivariateNormalSpec(0.1, 0.6, 1.0, 2.0, -0.7)
        pairs = [(1, 1), (2, 1), (1, 2)]
        batch = quadrant_moments(spec, pairs, tol=1e-9)
        for pair in pairs:
            single = bivariate_truncated_moment_quad(spec, MomentQuery(*pair), tol=1e-9)
            assert batch[pair] == pytest.approx(single, rel=1e-10)

    def test_zeroth_moment_is_one(self):
        spec = BivariateNormalSpec(-0.5, 0.3, 0.6, 1.1, 0.2)
        got = bivariate_truncated_moment_quad(spec, MomentQuery(0, 0), tol=1e-10)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_mc_oracle_agrees_with_quadrature(self):
        rng = np.random.default_rng(11)
        for trial in range(4):
            spec = BivariateNormalSpec(
                rng.uniform(-1, 1), rng.uniform(-1, 1),
                rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                0.0,
            )
            spec = BivariateNormalSpec(
                spec.mu1, spec.mu2, spec.sigma1_sq, spec.sigma2_sq,
                rng.uniform(-0.6, 0.6) * math.sqrt(spec.sigma1_sq * spec.sigma2_sq),
            )
            q = MomentQuery(2, 1)
            quad = bivariate_truncated_moment_quad(spec, q, tol=1e-9)
            mc, se = bivariate_truncated_moment_mc(spec, q, n_draws=200_000, seed=trial)
            assert abs(mc - quad) < 5.0 * se

    def test_mc_deterministic_given_seed(self):
        spec = BivariateNormalSpec(0.2, 0.2, 1.0, 1.0, 0.3)
        a = bivariate_truncated_moment_mc(spec, MomentQuery(1, 1), 50_000, seed=3)
        b = bivariate_truncated_moment_mc(spec, MomentQuery(1, 1), 50_000, seed=3)
        assert a == b

    def test_mc_insufficient_acceptance(self):
        # Both means far below zero: essentially nothing lands in the
        # positive quadrant.
        spec = BivariateNormalSpec(-6.0, -6.0, 0.25, 0.25, 0.0)
        with pytest.raises(InsufficientAcceptanceError) as err:
            bivariate_truncated_moment_mc(spec, MomentQuery(1, 1), 2_000, seed=0)
        assert err.value.acceptance_rate < 0.05

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            MomentQuery(5, 4)

    def test_covariance_domain(self):
        with pytest.raises(DomainError):
            BivariateNormalSpec(0.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            BivariateNormalSpec(0.0, 0.0, -1.0, 1.0, 0.0)


class TestMomentIdentityResidual:
    @pytest.mark.parametrize(
        "spec",
        [
            BivariateNormalSpec(0.5, -0.5, 1.0, 2.0, 0.8),
            BivariateNormalSpec(-1.0, 1.5, 0.25, 4.0, -0.6),
            BivariateNormalSpec(0.0, 0.0, 1.0, 1.0, 0.0),
        ],
    )
    @pytest.mark.parametrize("km", [(1, 1), (2, 1), (3, 3)])
    def test_residual_at_quadrature_noise_level(self, spec, km):
        res = moment_identity_residual(spec, MomentQuery(*km), tol=1e-9)
        assert abs(res) < 1e-9

    def test_far_censored_point(self):
        # Both means lie 8-12 sd below the quadrant: the integration range must
        # follow the truncated density, which decays within about sigma^2 / |mu|.
        spec = BivariateNormalSpec(-12.0, -8.0, 1.0, 1.0, 0.3)
        res = moment_identity_residual(spec, MomentQuery(1, 1), tol=1e-9)
        assert abs(res) < 1e-9

    def test_symmetric_point_exchangeable(self):
        # k = m at an exchangeable parameter point: both sides coincide term
        # by term, so the residual sits at quadrature-noise level.
        spec = BivariateNormalSpec(0.7, 0.7, 1.3, 1.3, 0.5)
        res = moment_identity_residual(spec, MomentQuery(1, 1), tol=1e-9)
        assert abs(res) < 1e-10

    def test_requires_first_order(self):
        spec = BivariateNormalSpec(0.0, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            moment_identity_residual(spec, MomentQuery(0, 1))


def textbook_quadrant_integrals(spec, amax, bmax, pps):
    """The quadrant integrals as one out-of-place expression, uncached."""
    s1, s2, rho = spec.sigma1, spec.sigma2, spec.rho
    u1, w1 = _axis_nodes(spec.mu1, s1, pps)
    u2, w2 = _axis_nodes(spec.mu2, s2, pps)
    z1 = (u1 - spec.mu1) / s1
    z2 = (u2 - spec.mu2) / s2
    one_minus_r2 = 1.0 - rho * rho
    quad_form = (
        z1[:, None] ** 2 - 2.0 * rho * z1[:, None] * z2[None, :] + z2[None, :] ** 2
    ) / one_minus_r2
    dens = np.exp(-0.5 * quad_form) / (2.0 * math.pi * s1 * s2 * math.sqrt(one_minus_r2))
    weighted = (w1[:, None] * dens) * w2[None, :]
    pow1 = np.vander(u1, amax + 1, increasing=True)
    pow2 = np.vander(u2, bmax + 1, increasing=True)
    return pow1.T @ weighted @ pow2


class TestFullPowerIntegralsCache:
    SPECS = [
        BivariateNormalSpec(0.5, -0.5, 1.0, 2.0, 0.8),
        BivariateNormalSpec(-1.0, 1.5, 0.25, 4.0, -0.6),
        BivariateNormalSpec(-12.0, -8.0, 1.0, 1.0, 0.3),
    ]
    ORDERS = [(1, 1), (2, 1), (3, 3)]

    @pytest.mark.parametrize("pps", [1, 2, 4])
    def test_cached_integrals_have_the_textbook_bits(self, pps):
        for spec in self.SPECS:
            want = textbook_quadrant_integrals(spec, MAX_TOTAL_ORDER, MAX_TOTAL_ORDER, pps)
            assert np.array_equal(_full_power_integrals(spec, pps), want)
            for amax, bmax in [(0, 0), (2, 1), (4, 3)]:
                got = _raw_quadrant_integrals(spec, amax, bmax, pps)
                assert np.array_equal(got, want[: amax + 1, : bmax + 1])

    def evaluate(self, i, km):
        spec = self.SPECS[i]
        # 4 panels per sigma, asked for between the two levels verify uses, evicts entries
        raw = [_raw_quadrant_integrals(spec, km[0] + 1, km[1] + 1, pps).tolist()
               for pps in (1, 4, 2)]
        return moment_identity_residual(spec, MomentQuery(*km)), raw

    @pytest.mark.parametrize("schedule", ["order_outer", "point_outer", "interleaved"])
    def test_warm_cache_gives_cold_cache_bits(self, schedule):
        calls = [(i, km) for i in range(len(self.SPECS)) for km in self.ORDERS]
        cold = {}
        for call in calls:
            _full_power_integrals.cache_clear()
            cold[call] = self.evaluate(*call)
        if schedule == "order_outer":
            calls.sort(key=lambda call: self.ORDERS.index(call[1]))
        elif schedule == "interleaved":
            calls = [calls[j] for j in np.random.default_rng(5).permutation(len(calls))]
        _full_power_integrals.cache_clear()
        for call in calls:
            assert self.evaluate(*call) == cold[call]

    def test_cached_arrays_are_read_only(self):
        full = _full_power_integrals(self.SPECS[0], 1)
        for arr in (full, _raw_quadrant_integrals(self.SPECS[0], 2, 1, 1)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0


@st.composite
def verify_default_specs(draw):
    """Points from `tobitiv verify`'s default ranges, built as verify builds them."""
    unit = st.floats(0.0, 1.0)
    s1_sq, s2_sq = 0.25 + 3.75 * draw(unit), 0.25 + 3.75 * draw(unit)
    rho = 0.9 * (2.0 * draw(unit) - 1.0)
    return BivariateNormalSpec(
        mu1=4.0 * draw(unit) - 2.0,
        mu2=4.0 * draw(unit) - 2.0,
        sigma1_sq=s1_sq,
        sigma2_sq=s2_sq,
        sigma12=rho * math.sqrt(s1_sq) * math.sqrt(s2_sq),
    )


# Every term of these sums is >= 0, so nothing cancels: a double product of
# ~420 x 400 terms stays within a few eps of the exact sum (at most 4.2e-15
# relative over 600 default-range points and levels).
FULL_ORDER_REL_BOUND = 1e-14


@given(verify_default_specs(), st.sampled_from([1, 2]))
def test_full_order_integrals_match_a_long_double_product(spec, pps):
    u1, u2, weighted = _weighted_density_grid(spec, pps)
    full = np.longdouble
    pow1 = np.vander(u1.astype(full), MAX_TOTAL_ORDER + 1, increasing=True)
    pow2 = np.vander(u2.astype(full), MAX_TOTAL_ORDER + 1, increasing=True)
    want = pow1.T @ weighted.astype(full) @ pow2
    got = _full_power_integrals(spec, pps)
    assert np.all(want > 0.0)
    assert np.max(np.abs(got - want) / want) < FULL_ORDER_REL_BOUND


class TestOverflow:
    @pytest.mark.parametrize("sigma_sq", [1e100, 1e160, 1e300])
    def test_overflowing_quadrant_moment_raises(self, sigma_sq):
        spec = BivariateNormalSpec(0.5, -0.5, sigma_sq, sigma_sq, 0.3 * sigma_sq)
        with pytest.raises(DomainError, match="overflows"):
            quadrant_moments(spec, [(0, 0), (4, 4)])

    def test_covariance_check_does_not_square_large_variances(self):
        # sigma12**2 overflows a Python float here; the check must not
        BivariateNormalSpec(0.0, 0.0, 1e300, 1e300, 0.5e300)
        with pytest.raises(DomainError, match="positive definite"):
            BivariateNormalSpec(0.0, 0.0, 1e300, 1e300, 1e300)
