import numpy as np
import pytest

import hypofp as hp
from hypofp import entropy as ent, flow
from conftest import make_random_system

GENERATORS = [
    ent.LogEntropy(),
    ent.LogEntropy(alpha=2.0, beta=0.5),
    ent.QuadraticEntropy(),
    ent.QuadraticEntropy(alpha=0.7),
    ent.PowerEntropy(p=1.5),
    ent.PowerEntropy(p=1.2, alpha=1.3, beta=0.2),
    ent.PowerEntropy(p=1.9),
]


@pytest.fixture(scope="module")
def fig1b():
    spec = hp.SystemSpec(D=np.diag([1.0, 0.0]), C=np.array([[1.0, -1.0], [1.0, 0.0]]))
    ss = hp.steady_state(spec)
    q = hp.gauss_hermite_rule(ss.K, 64)
    return spec, ss, q


class TestGenerators:
    @pytest.mark.parametrize("gen", GENERATORS)
    def test_normalization(self, gen):
        assert gen.psi(1.0, 0) == pytest.approx(0.0, abs=1e-15)
        assert gen.psi(1.0, 1) == pytest.approx(0.0, abs=1e-15)
        assert gen.psi(1.0, 2) > 0

    def test_log_values(self):
        gen = ent.LogEntropy()
        assert gen.psi(np.e, 0) == pytest.approx(1.0, rel=1e-14)
        assert gen.psi(2.0, 2) == pytest.approx(0.5, rel=1e-14)

    def test_quadratic_value(self):
        assert ent.QuadraticEntropy().psi(1.0, 0) == 0.0
        assert ent.QuadraticEntropy(alpha=2.0).psi(3.0, 0) == pytest.approx(8.0)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_derivatives_consistent(self, gen):
        # Central differences of psi^(k) match psi^(k+1).
        s = np.linspace(0.4, 3.0, 7)
        h = 1e-5
        for order in range(4):
            num = (gen.psi(s + h, order) - gen.psi(s - h, order)) / (2 * h)
            ana = gen.psi(s, order + 1)
            assert np.allclose(num, ana, rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_admissibility(self, gen):
        beta = getattr(gen, "beta", 0.0)
        s = np.geomspace(beta + 1e-6, 1e3, 10000) - beta
        lhs = gen.psi(s, 3) ** 2
        rhs = 0.5 * gen.psi(s, 2) * gen.psi(s, 4)
        assert np.all(lhs <= rhs + 1e-12 * np.maximum(1.0, np.abs(rhs)))

    def test_log_domain_violation(self):
        with pytest.raises(ent.DomainError):
            ent.LogEntropy().psi(-0.5, 2)

    def test_w_transform(self):
        assert ent.QuadraticEntropy().w(1.0) == 0.0
        assert ent.LogEntropy().w(4.0) == pytest.approx(2.0)
        assert ent.PowerEntropy(p=1.5).w(1.0) == 0.0
        # w'(r) = sqrt(psi''(r)) for every family.
        for gen in GENERATORS:
            r = np.linspace(0.5, 2.5, 9)
            h = 1e-6
            num = (gen.w(r + h) - gen.w(r - h)) / (2 * h)
            assert np.allclose(num, np.sqrt(gen.psi(r, 2)), rtol=1e-6)

    def test_ordering_log_below_quadratic(self):
        # alpha-matched comparison on ratios bounded by 2.
        s = np.linspace(0.0, 2.0, 500)
        assert np.all(ent.LogEntropy().psi(s, 0) <= ent.QuadraticEntropy().psi(s, 0) + 1e-14)


class TestQuadratureFunctionals:
    def test_steady_state_is_zero(self, fig1b):
        _, ss, q = fig1b
        f = ent.shifted_steady(ss, np.zeros(2))
        for gen in (ent.LogEntropy(), ent.QuadraticEntropy(), ent.PowerEntropy(p=1.5)):
            assert hp.relative_entropy(f, ss, gen, q) == pytest.approx(0.0, abs=1e-13)
            assert hp.modified_dissipation_S(f, ss, np.eye(2), gen, q) == pytest.approx(0.0, abs=1e-13)

    def test_shifted_log_closed_form(self, fig1b):
        spec, ss, q = fig1b
        v0 = np.array([0.7, -0.4])
        f = ent.shifted_steady(ss, v0)
        gen = ent.LogEntropy()
        e = hp.relative_entropy(f, ss, gen, q)
        assert e == pytest.approx(flow.entropy_log_shift(v0, ss.K), rel=1e-10)
        I = hp.entropy_dissipation_I(f, ss, spec, gen, q)
        assert I == pytest.approx(flow.dissipation_log_shift(v0, ss.K, spec.D), rel=1e-10)
        P = np.array([[1.0, -0.5], [-0.5, 1.0]])
        S = hp.modified_dissipation_S(f, ss, P, gen, q)
        assert S == pytest.approx(flow.dissipation_log_shift(v0, ss.K, P), rel=1e-10)

    def test_affine_quadratic_closed_form(self, fig1b):
        spec, ss, q = fig1b
        v0 = np.array([1.0, 0.3])
        f = ent.affine_steady(ss, v0)
        gen = ent.QuadraticEntropy()
        assert hp.relative_entropy(f, ss, gen, q) == pytest.approx(
            flow.entropy_quad_affine(v0, ss.K), rel=1e-10
        )
        assert hp.entropy_dissipation_I(f, ss, spec, gen, q) == pytest.approx(
            2.0 * flow.dissipation_log_shift(v0, ss.K, spec.D), rel=1e-10
        )

    def test_kernel_shift_dissipation_vanishes(self, fig1b):
        # v* = K w with w in ker D: the gradient direction K^{-1}v* sits in
        # ker D and the dissipation vanishes.
        spec, ss, q = fig1b
        w = np.array([0.0, 1.0])
        f = ent.shifted_steady(ss, ss.K @ w)
        I = hp.entropy_dissipation_I(f, ss, spec, ent.LogEntropy(), q)
        assert abs(I) <= 1e-8

    def test_rule_on_other_covariance_rejected(self, fig1b):
        spec, ss, _ = fig1b
        q = hp.gauss_hermite_rule(2.0 * ss.K, 16)
        f = ent.shifted_steady(ss, np.array([0.7, -0.4]))
        gen = ent.LogEntropy()
        with pytest.raises(ValueError, match="steady K"):
            hp.entropy_dissipation_I(f, ss, spec, gen, q)
        with pytest.raises(ValueError, match="steady K"):
            hp.modified_dissipation_S(f, ss, np.eye(2), gen, q)

    def test_quadrature_convergence(self, fig1b):
        spec, ss, _ = fig1b
        mix = hp.GaussianMixture((
            ent.GaussianComponent(0.6, np.array([0.5, -0.3]), 1.3 * np.eye(2)),
            ent.GaussianComponent(0.4, np.array([-0.4, 0.2]), np.array([[1.5, 0.3], [0.3, 1.1]])),
        ))
        gen = ent.LogEntropy()
        P = np.array([[1.0, -0.5], [-0.5, 1.0]])
        vals = {}
        for order in (64, 128):
            q = hp.gauss_hermite_rule(ss.K, order)
            vals[order] = (
                hp.relative_entropy(mix, ss, gen, q),
                hp.entropy_dissipation_I(mix, ss, spec, gen, q),
                hp.modified_dissipation_S(mix, ss, P, gen, q),
            )
        for a, b in zip(vals[64], vals[128]):
            assert abs(a - b) <= 1e-8 * max(abs(b), 1e-3)

    def test_signed_mixture_requires_quadratic(self, fig1b):
        _, ss, q = fig1b
        mix = hp.GaussianMixture((
            ent.GaussianComponent(1.4, np.zeros(2), ss.K),
            ent.GaussianComponent(-0.4, np.array([1.5, 1.5]), 0.5 * ss.K),
        ))
        with pytest.raises(ent.DomainError):
            hp.relative_entropy(mix, ss, ent.LogEntropy(), q)
        # Quadratic handles it fine.
        val = hp.relative_entropy(mix, ss, ent.QuadraticEntropy(), q)
        assert np.isfinite(val)

    def test_s_dominates_cp_times_i(self, fig1b, rng):
        # S >= c_P * I with c_P the largest c keeping P - c D PSD,
        # i.e. 1 / max eig of P^{-1/2} D P^{-1/2}.
        from hypofp import linalg

        spec, ss, q = fig1b
        P = np.array([[2.0, -0.5], [-0.5, 1.5]])
        Pi = np.linalg.inv(linalg.sqrt_spd(P))
        c_P = 1.0 / np.linalg.eigvalsh(Pi @ spec.D @ Pi)[-1]
        assert c_P == pytest.approx(11.0 / 6.0, rel=1e-12)
        gen = ent.LogEntropy()
        for _ in range(5):
            v = rng.standard_normal(2)
            f = ent.shifted_steady(ss, v)
            S = hp.modified_dissipation_S(f, ss, P, gen, q)
            I = hp.entropy_dissipation_I(f, ss, spec, gen, q)
            assert S >= c_P * I - 1e-10

    def test_qmc_fallback_dim4(self, rng):
        spec, _ = make_random_system(rng, 4, rank=4)
        ss = hp.steady_state(spec)
        q = hp.gauss_hermite_rule(ss.K, 32)
        assert q.kind == "qmc-sobol"
        v0 = 0.3 * rng.standard_normal(4)
        f = ent.shifted_steady(ss, v0)
        e = hp.relative_entropy(f, ss, ent.LogEntropy(), q)
        assert e == pytest.approx(flow.entropy_log_shift(v0, ss.K), rel=5e-2)


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            hp.GaussianMixture((ent.GaussianComponent(0.5, np.zeros(2), np.eye(2)),))

    def test_cov_must_be_spd(self):
        with pytest.raises(ValueError):
            ent.GaussianComponent(1.0, np.zeros(2), np.diag([1.0, 0.0]))
