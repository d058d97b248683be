import numpy as np
import pytest

import hypofp as hp
from hypofp import entropy as ent, flow, linalg
from conftest import make_defective_minimal_system, make_random_system

SEC8 = dict(D=np.diag([0.25, 1.0]), C=np.array([[0.25, -4.0], [4.0, 1.0]]))
FIG1B = dict(D=np.diag([1.0, 0.0]), C=np.array([[1.0, -1.0], [1.0, 0.0]]))


@pytest.fixture(scope="module")
def fig1b():
    spec = hp.SystemSpec(**FIG1B)
    ss = hp.steady_state(spec)
    return spec, ss


class TestEvolution:
    def test_shift_diagonal(self):
        v = hp.evolve_shift(np.array([1.0, 2.0]), 1.0, np.diag([1.0, 3.0]))
        assert v == pytest.approx([np.exp(-1.0), 2 * np.exp(-3.0)], rel=1e-13)

    def test_shift_semigroup(self, fig1b):
        spec, _ = fig1b
        v0 = np.array([1.0, -0.5])
        a = hp.evolve_shift(hp.evolve_shift(v0, 0.4, spec.C), 0.6, spec.C)
        b = hp.evolve_shift(v0, 1.0, spec.C)
        assert np.allclose(a, b, atol=1e-12)

    def test_cov_fixed_point(self, fig1b):
        spec, ss = fig1b
        A = hp.evolve_cov(ss.K, 2.0, spec.C, ss.K)
        assert np.allclose(A, ss.K, atol=1e-12)

    def test_cov_relaxes_to_K(self, fig1b):
        spec, ss = fig1b
        A0 = np.array([[2.0, 0.3], [0.3, 0.5]])
        A = hp.evolve_cov(A0, 40.0, spec.C, ss.K)
        assert np.linalg.norm(A - ss.K, 2) <= 1e-10

    def test_negative_time_rejected(self, fig1b):
        spec, ss = fig1b
        with pytest.raises(ValueError):
            hp.evolve_shift(np.zeros(2), -1.0, spec.C)
        with pytest.raises(ValueError):
            hp.evolve_cov(ss.K, -0.1, spec.C, ss.K)

    @pytest.mark.parametrize("t", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda spec, ss, t: hp.evolve_shift(np.ones(2), t, spec.C), id="evolve_shift"),
        pytest.param(lambda spec, ss, t: hp.evolve_cov(ss.K, t, spec.C, ss.K), id="evolve_cov"),
        pytest.param(lambda spec, ss, t: hp.evolve_mixture(ent.shifted_steady(ss, np.ones(2)), t,
                                                           spec.C, ss.K), id="evolve_mixture"),
        pytest.param(lambda spec, ss, t: hp.zero_tangent_initial(t, np.array([0.0, 1.0]), ss, spec),
                     id="zero_tangent_initial"),
        pytest.param(lambda spec, ss, t: hp.green_covariance(spec, t), id="green_covariance"),
    ])
    def test_time_must_be_finite_and_nonnegative(self, fig1b, call, t):
        with pytest.raises(ValueError, match=r"t(_star)? must be finite and nonnegative"):
            call(*fig1b, t)

    def test_mixture_components(self, fig1b):
        spec, ss = fig1b
        m0 = hp.GaussianMixture((
            ent.GaussianComponent(0.5, np.array([1.0, 0.0]), 2.0 * np.eye(2)),
            ent.GaussianComponent(0.5, np.array([-1.0, 0.0]), 0.5 * np.eye(2)),
        ))
        mt = hp.evolve_mixture(m0, 0.8, spec.C, ss.K)
        for c0, ct in zip(m0.components, mt.components):
            assert np.allclose(ct.mean, hp.evolve_shift(c0.mean, 0.8, spec.C))
            assert np.allclose(ct.cov, hp.evolve_cov(c0.cov, 0.8, spec.C, ss.K))

    def test_affine_requires_steady_shape(self, fig1b):
        spec, ss = fig1b
        bad = hp.GaussianMixture((
            ent.GaussianComponent(1.0, np.array([1.0, 0.0]), ss.K, affine=np.array([0.1, 0.0])),
        ))
        with pytest.raises(ValueError):
            hp.evolve_mixture(bad, 0.5, spec.C, ss.K)


class TestClosedForms:
    def test_shift_entropy_value(self):
        K = np.diag([2.0, 0.5])
        v = np.array([2.0, 1.0])
        assert hp.entropy_log_shift(v, K) == pytest.approx(0.5 * (4 / 2 + 1 / 0.5))
        assert hp.entropy_quad_affine(v, K) == pytest.approx(4.0)

    def test_cov_entropy_scalar(self):
        # d=1, A = 2K: (2 - ln 2 - 1)/2.
        assert hp.entropy_log_cov(np.array([[2.0]]), np.array([[1.0]])) == pytest.approx(
            0.5 * (1.0 - np.log(2.0)), rel=1e-13
        )
        assert hp.entropy_log_cov(np.eye(3), np.eye(3)) == 0.0

    def test_cov_entropy_matches_quadrature(self, fig1b):
        _, ss = fig1b
        A = np.array([[1.4, 0.2], [0.2, 0.9]])
        f = hp.GaussianMixture((ent.GaussianComponent(1.0, np.zeros(2), A),))
        q = hp.gauss_hermite_rule(ss.K, 64)
        e_quad = hp.relative_entropy(f, ss, ent.LogEntropy(), q)
        assert e_quad == pytest.approx(hp.entropy_log_cov(A, ss.K), rel=1e-8)

    def test_cov_dissipation_matches_quadrature(self, fig1b):
        spec, ss = fig1b
        A = np.array([[1.4, 0.2], [0.2, 0.9]])
        f = hp.GaussianMixture((ent.GaussianComponent(1.0, np.zeros(2), A),))
        q = hp.gauss_hermite_rule(ss.K, 64)
        i_quad = hp.entropy_dissipation_I(f, ss, spec, ent.LogEntropy(), q)
        assert i_quad == pytest.approx(hp.dissipation_log_cov(A, ss.K, spec.D), rel=1e-8)

    def test_entropy_rate_matches_difference(self, fig1b):
        spec, ss = fig1b
        v = np.array([0.8, -0.6])
        h = 1e-6
        g = lambda t: hp.entropy_quad_affine(hp.evolve_shift(v, t, spec.C), ss.K)
        num = (g(1.0 + h) - g(1.0 - h)) / (2 * h)
        vt = hp.evolve_shift(v, 1.0, spec.C)
        assert num == pytest.approx(hp.entropy_rate_shift(vt, ss.K, spec.D), rel=1e-6)

    def test_rate_vanishes_on_kernel(self, fig1b):
        spec, ss = fig1b
        w = np.array([0.0, 1.0])  # ker D
        assert hp.entropy_rate_shift(ss.K @ w, ss.K, spec.D) == pytest.approx(0.0, abs=1e-14)

    def test_entropy_decay_exponent(self, fig1b):
        # e(t) decays like ||e^{-Ct}||^2 for shifts; fitted exponent >= 2 mu.
        spec, ss = fig1b
        v0 = np.array([1.0, 0.4])
        # Fit over an integer number of oscillation periods (omega = sqrt(3)/2)
        # so the periodic factor does not bias the slope.
        period = np.pi / (np.sqrt(3.0) / 2.0)
        ts = np.linspace(8.0, 8.0 + 2 * period, 25)
        es = np.array([hp.entropy_log_shift(hp.evolve_shift(v0, t, spec.C), ss.K) for t in ts])
        slope = np.polyfit(ts, np.log(es), 1)[0]
        assert -slope == pytest.approx(2 * 0.5, abs=5e-2)

    def test_cov_perturbation_fourth_order(self, fig1b):
        # Covariance perturbations decay at twice the shift rate: the
        # entropy is quadratic in A - K ~ e^{-Ct}(A0-K)e^{-C^T t}.
        spec, ss = fig1b
        A0 = ss.K + 0.3 * np.array([[1.0, 0.2], [0.2, 0.5]])
        period = np.pi / (np.sqrt(3.0) / 2.0)
        ts = np.linspace(5.0, 5.0 + 2 * period, 25)
        es = np.array([hp.entropy_log_cov(hp.evolve_cov(A0, t, spec.C, ss.K), ss.K) for t in ts])
        slope = np.polyfit(ts, np.log(es), 1)[0]
        assert -slope == pytest.approx(4 * 0.5, abs=1e-1)


class TestSharpness:
    def test_real_eig_constant_ratio(self):
        C = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 1.0, 3.0]])
        spec = hp.SystemSpec(D=np.diag([1.0, 1.0, 0.0]), C=C)
        ss = hp.steady_state(spec)
        sc = hp.sharpness_scenario("real-eig", spec, ss)
        assert sc.mu == pytest.approx(1.0)
        ts = np.linspace(0.0, 5.0, 21)
        pred = sc.predicted_entropy(ts)
        actual = np.array([
            hp.entropy_log_shift(hp.evolve_shift(sc.v0, t, spec.C), ss.K) for t in ts
        ])
        assert np.allclose(actual, pred, rtol=1e-10)
        # e(t) e^{2 mu t} is constant.
        assert np.ptp(actual * np.exp(2 * sc.mu * ts)) <= 1e-12

    def test_complex_pair_prediction(self):
        spec = hp.SystemSpec(**SEC8)
        ss = hp.steady_state(spec)
        sc = hp.sharpness_scenario("complex-pair", spec, ss)
        assert sc.mu == pytest.approx(0.625)
        assert sc.omega == pytest.approx(np.sqrt(1015.0) / 8.0, rel=1e-12)
        ts = np.linspace(0.0, 3.0, 31)
        pred = sc.predicted_quadratic(ts, ss.K)
        actual = np.array([
            hp.entropy_log_shift(hp.evolve_shift(sc.v0, t, spec.C), ss.K) for t in ts
        ])
        assert np.allclose(actual, pred, rtol=1e-9, atol=1e-12)

    def test_defective_quadratic_factor(self, rng):
        spec, _ = make_defective_minimal_system(rng)
        ss = hp.steady_state(spec)
        eig = linalg.eigen_structure(spec.C, tol=1e-6)
        sc = hp.sharpness_scenario("defective", spec, ss, eig=eig)
        ts = np.linspace(0.0, 4.0, 17)
        pred = sc.predicted_entropy(ts)
        actual = np.array([
            hp.entropy_log_shift(hp.evolve_shift(sc.v0, t, spec.C), ss.K) for t in ts
        ])
        assert np.allclose(actual, pred, rtol=1e-5, atol=1e-10)

    def test_missing_scenarios_raise(self):
        spec = hp.SystemSpec(**SEC8)
        ss = hp.steady_state(spec)
        with pytest.raises(ValueError):
            hp.sharpness_scenario("real-eig", spec, ss)
        with pytest.raises(ValueError):
            hp.sharpness_scenario("defective", spec, ss)
        with pytest.raises(ValueError):
            hp.sharpness_scenario("nonsense", spec, ss)


class TestZeroTangent:
    def test_rate_zero_at_tstar(self, fig1b):
        spec, ss = fig1b
        w = np.array([0.0, 1.0])
        for t_star in (0.5, 1.5, 3.0):
            v0 = hp.zero_tangent_initial(t_star, w, ss, spec)
            vt = hp.evolve_shift(v0, t_star, spec.C)
            assert hp.entropy_rate_shift(vt, ss.K, spec.D) == pytest.approx(0.0, abs=1e-10)
            assert hp.entropy_log_shift(vt, ss.K) > 0

    def test_rejects_nonkernel_direction(self, fig1b):
        spec, ss = fig1b
        with pytest.raises(ValueError):
            hp.zero_tangent_initial(1.0, np.array([1.0, 0.0]), ss, spec)


TRAJ_V0 = np.array([1.0, 0.0])


@pytest.fixture(scope="module")
def traj():
    spec = hp.SystemSpec(**SEC8)
    ss = hp.steady_state(spec)
    tm = hp.build_P(ss)
    f0 = ent.shifted_steady(ss, TRAJ_V0)
    times = np.linspace(0.0, 4.0, 81)
    rec = flow.run_trajectory(spec, ss, tm, f0, ent.LogEntropy(), times)
    return spec, ss, tm, rec


class TestTrajectory:
    def test_entropy_monotone(self, traj):
        _, _, _, rec = traj
        assert np.all(np.diff(rec.entropy) <= 1e-10)

    def test_dissipation_identity(self, traj):
        # e'(t) = -I(t): central differences of e match -I.
        _, _, _, rec = traj
        t, e = rec.times, rec.entropy
        mid = -(e[2:] - e[:-2]) / (t[2:] - t[:-2])
        # Second-order difference on dt = 0.05 with omega ~ 4 oscillations.
        assert np.allclose(mid, rec.dissipation[1:-1], rtol=5e-2, atol=1e-5)

    def test_envelope_dominates(self, traj):
        _, _, _, rec = traj
        assert np.all(rec.entropy <= rec.envelope * (1 + 1e-9))

    def test_modified_dissipation_decays(self, traj):
        _, _, tm, rec = traj
        rate = 2.0 * tm.kappa
        bound = rec.modified[0] * np.exp(-rate * rec.times)
        assert np.all(rec.modified <= bound * (1 + 1e-6) + 1e-12)

    def test_tangency_detection(self, traj):
        spec, ss, tm, rec = traj
        ratio = rec.entropy / rec.envelope
        hits = flow.tangency_times(rec.times, ratio, gap=5e-2)
        omega = np.sqrt(1015.0) / 8.0
        assert len(hits) >= 3
        gaps = np.diff(hits)
        assert np.allclose(gaps, np.pi / omega, rtol=0.1)

    def test_series_match_closed_forms(self, traj):
        spec, ss, tm, rec = traj
        for t, e, i, s in zip(rec.times, rec.entropy, rec.dissipation, rec.modified):
            vt = hp.evolve_shift(TRAJ_V0, t, spec.C)
            assert e == pytest.approx(hp.entropy_log_shift(vt, ss.K), rel=1e-10)
            assert i == pytest.approx(hp.dissipation_log_shift(vt, ss.K, spec.D), rel=1e-10)
            assert s == pytest.approx(hp.dissipation_log_shift(vt, ss.K, tm.P), rel=1e-10)
        S0 = hp.dissipation_log_shift(TRAJ_V0, ss.K, tm.P)
        envelope = S0 / (2.0 * hp.lambda_P(ss.K, tm.P)) * np.exp(-2.0 * tm.kappa * rec.times)
        assert np.allclose(rec.envelope, envelope, rtol=1e-10, atol=0.0)

    def test_envelope_from_f0_when_grid_starts_later(self, traj):
        spec, ss, tm, rec = traj
        f0 = ent.shifted_steady(ss, TRAJ_V0)
        late = flow.run_trajectory(spec, ss, tm, f0, ent.LogEntropy(), rec.times[10:20])
        assert np.allclose(late.envelope, rec.envelope[10:20], rtol=1e-12, atol=0.0)
        assert np.allclose(late.modified, rec.modified[10:20], rtol=1e-12, atol=0.0)

    def test_refine_maximum(self):
        t = flow.refine_maximum(lambda x: -(x - 1.234) ** 2, 0.0, 3.0)
        assert t == pytest.approx(1.234, abs=1e-9)
