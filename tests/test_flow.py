import numpy as np
import scipy.linalg
import pytest

import hypofp as hp
from hypofp import entropy as ent, flow, linalg
from conftest import (bare_steady, make_defective_minimal_system, make_random_system,
                      quadratic_pair_sums, spd_sqrt)

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
        A = hp.evolve_cov(ss.K, 2.0, ss)
        assert np.allclose(A, ss.K, atol=1e-12)

    def test_cov_relaxes_to_K(self, fig1b):
        spec, ss = fig1b
        A0 = np.array([[2.0, 0.3], [0.3, 0.5]])
        A = hp.evolve_cov(A0, 40.0, ss)
        assert np.linalg.norm(A - ss.K, 2) <= 1e-10

    def test_negative_time_rejected(self, fig1b):
        spec, ss = fig1b
        with pytest.raises(ValueError):
            hp.evolve_shift(np.zeros(2), -1.0, spec.C)
        with pytest.raises(ValueError):
            hp.evolve_cov(ss.K, -0.1, ss)

    @pytest.mark.parametrize("t", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda spec, ss, t: hp.evolve_shift(np.ones(2), t, spec.C), id="evolve_shift"),
        pytest.param(lambda spec, ss, t: hp.evolve_cov(ss.K, t, ss), id="evolve_cov"),
        pytest.param(lambda spec, ss, t: hp.evolve_mixture(ent.shifted_steady(ss, np.ones(2)), t, ss),
                     id="evolve_mixture"),
        pytest.param(lambda spec, ss, t: hp.zero_tangent_initial(t, np.array([0.0, 1.0]), ss),
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
        mt = hp.evolve_mixture(m0, 0.8, ss)
        for c0, ct in zip(m0.components, mt.components):
            assert np.allclose(ct.mean, hp.evolve_shift(c0.mean, 0.8, spec.C))
            assert np.allclose(ct.cov, hp.evolve_cov(c0.cov, 0.8, ss))

    def test_affine_requires_steady_shape(self, fig1b):
        spec, ss = fig1b
        bad = hp.GaussianMixture((
            ent.GaussianComponent(1.0, np.array([1.0, 0.0]), ss.K, affine=np.array([0.1, 0.0])),
        ))
        with pytest.raises(ValueError):
            hp.evolve_mixture(bad, 0.5, ss)


@pytest.mark.parametrize("call", [
    pytest.param(lambda ss, tm: hp.evolve_cov(ss.K, 1.0, ss), id="evolve_cov"),
    pytest.param(lambda ss, tm: hp.evolve_mixture(ent.shifted_steady(ss, np.ones(2)), 1.0, ss),
                 id="evolve_mixture"),
    pytest.param(lambda ss, tm: hp.sharpness_scenario("complex-pair", ss), id="sharpness_scenario"),
    pytest.param(lambda ss, tm: hp.zero_tangent_initial(1.0, np.array([0.0, 1.0]), ss),
                 id="zero_tangent_initial"),
    pytest.param(lambda ss, tm: flow.run_trajectory(ss, tm, ent.shifted_steady(ss, np.ones(2)),
                                                    ent.LogEntropy(), np.linspace(0.0, 1.0, 3)),
                 id="run_trajectory"),
])
def test_steady_state_without_a_spec_is_refused(fig1b, call):
    _, ss = fig1b
    with pytest.raises(ValueError, match="without a spec"):
        call(bare_steady(ss.K), hp.build_P(ss))


def test_state_of_another_dimension_is_refused_by_the_flow(fig1b):
    _, ss = fig1b
    f0 = hp.GaussianMixture((ent.GaussianComponent(1.0, np.zeros(3), np.eye(3)),))
    with pytest.raises(ValueError, match="state dimension 3 differs from the steady state's 2"):
        hp.evolve_mixture(f0, 1.0, ss)
    with pytest.raises(ValueError, match="state dimension 3 differs from the steady state's 2"):
        flow.run_trajectory(ss, hp.build_P(ss), f0, ent.LogEntropy(), np.linspace(0.0, 1.0, 3))


class TestClosedForms:
    def test_shift_entropy_value(self):
        ss = bare_steady(np.diag([2.0, 0.5]))
        v = np.array([2.0, 1.0])
        e = hp.gaussian_log_functionals(v, ss.K, ss)[0]
        assert e == pytest.approx(0.5 * (4 / 2 + 1 / 0.5))
        assert 2 * e == pytest.approx(4.0)

    def test_cov_entropy_scalar(self):
        # d=1, A = 2K: (2 - ln 2 - 1)/2.
        e = hp.gaussian_log_functionals(np.zeros(1), [[2.0]], bare_steady([[1.0]]))[0]
        assert e == pytest.approx(0.5 * (1.0 - np.log(2.0)), rel=1e-13)
        assert hp.gaussian_log_functionals(np.zeros(3), np.eye(3), bare_steady(np.eye(3)))[0] == 0.0

    def test_cov_entropy_matches_quadrature(self, fig1b):
        _, ss = fig1b
        A = np.array([[1.4, 0.2], [0.2, 0.9]])
        f = hp.GaussianMixture((ent.GaussianComponent(1.0, np.zeros(2), A),))
        q = hp.gauss_hermite_rule(ss.K, 64)
        e_quad = ent.functionals(f, ss, ent.LogEntropy(), q)[0]
        assert e_quad == pytest.approx(hp.gaussian_log_functionals(np.zeros(2), A, ss)[0], rel=1e-8)

    def test_cov_dissipation_matches_quadrature(self, fig1b):
        spec, ss = fig1b
        A = np.array([[1.4, 0.2], [0.2, 0.9]])
        f = hp.GaussianMixture((ent.GaussianComponent(1.0, np.zeros(2), A),))
        q = hp.gauss_hermite_rule(ss.K, 64)
        i_quad = np.vdot(spec.D, ent.functionals(f, ss, ent.LogEntropy(), q)[1])
        i_closed = np.vdot(spec.D, hp.gaussian_log_functionals(np.zeros(2), A, ss)[1])
        assert i_quad == pytest.approx(i_closed, rel=1e-8)

    def test_entropy_rate_matches_difference(self, fig1b):
        spec, ss = fig1b
        v = np.array([0.8, -0.6])
        h = 1e-6
        g = lambda t: 2 * hp.gaussian_log_functionals(hp.evolve_shift(v, t, spec.C), ss.K, ss)[0]
        num = (g(1.0 + h) - g(1.0 - h)) / (2 * h)
        vt = hp.evolve_shift(v, 1.0, spec.C)
        G = hp.gaussian_log_functionals(vt, ss.K, ss)[1]
        assert num == pytest.approx(-2 * np.vdot(spec.D, G), rel=1e-6)

    def test_rate_vanishes_on_kernel(self, fig1b):
        spec, ss = fig1b
        w = np.array([0.0, 1.0])  # ker D
        G = hp.gaussian_log_functionals(ss.K @ w, ss.K, ss)[1]
        assert -2 * np.vdot(spec.D, G) == pytest.approx(0.0, abs=1e-14)

    def test_entropy_decay_exponent(self, fig1b):
        # e(t) decays like ||e^{-Ct}||^2 for shifts; fitted exponent >= 2 mu.
        spec, ss = fig1b
        v0 = np.array([1.0, 0.4])
        # Fit over an integer number of oscillation periods (omega = sqrt(3)/2)
        # so the periodic factor does not bias the slope.
        period = np.pi / (np.sqrt(3.0) / 2.0)
        ts = np.linspace(8.0, 8.0 + 2 * period, 25)
        es = np.array([hp.gaussian_log_functionals(hp.evolve_shift(v0, t, spec.C), ss.K, ss)[0]
                       for t in ts])
        slope = np.polyfit(ts, np.log(es), 1)[0]
        assert -slope == pytest.approx(2 * 0.5, abs=5e-2)

    def test_cov_perturbation_fourth_order(self, fig1b):
        # Covariance perturbations decay at twice the shift rate: the
        # entropy is quadratic in A - K ~ e^{-Ct}(A0-K)e^{-C^T t}.
        spec, ss = fig1b
        A0 = ss.K + 0.3 * np.array([[1.0, 0.2], [0.2, 0.5]])
        period = np.pi / (np.sqrt(3.0) / 2.0)
        ts = np.linspace(5.0, 5.0 + 2 * period, 25)
        es = np.array([hp.gaussian_log_functionals(np.zeros(2), hp.evolve_cov(A0, t, ss), ss)[0]
                       for t in ts])
        slope = np.polyfit(ts, np.log(es), 1)[0]
        assert -slope == pytest.approx(4 * 0.5, abs=1e-1)


class TestSharpness:
    def test_real_eig_constant_ratio(self):
        C = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 1.0, 3.0]])
        spec = hp.SystemSpec(D=np.diag([1.0, 1.0, 0.0]), C=C)
        ss = hp.steady_state(spec)
        sc = hp.sharpness_scenario("real-eig", ss)
        assert sc.mu == pytest.approx(1.0)
        ts = np.linspace(0.0, 5.0, 21)
        pred = sc.predicted_entropy(ts)
        actual = np.array([
            hp.gaussian_log_functionals(hp.evolve_shift(sc.v0, t, spec.C), ss.K, ss)[0] for t in ts
        ])
        assert np.allclose(actual, pred, rtol=1e-10)
        # e(t) e^{2 mu t} is constant.
        assert np.ptp(actual * np.exp(2 * sc.mu * ts)) <= 1e-12

    def test_complex_pair_prediction(self):
        spec = hp.SystemSpec(**SEC8)
        ss = hp.steady_state(spec)
        sc = hp.sharpness_scenario("complex-pair", ss)
        assert sc.mu == pytest.approx(0.625)
        assert sc.omega == pytest.approx(np.sqrt(1015.0) / 8.0, rel=1e-12)
        ts = np.linspace(0.0, 3.0, 31)
        pred = sc.predicted_entropy(ts)
        actual = np.array([
            hp.gaussian_log_functionals(hp.evolve_shift(sc.v0, t, spec.C), ss.K, ss)[0] for t in ts
        ])
        assert np.allclose(actual, pred, rtol=1e-9, atol=1e-12)

    def test_defective_quadratic_factor(self, rng):
        spec = make_defective_minimal_system(rng)
        ss = hp.steady_state(spec)
        sc = hp.sharpness_scenario("defective", ss)
        ts = np.linspace(0.0, 4.0, 17)
        pred = sc.predicted_entropy(ts)
        actual = np.array([
            hp.gaussian_log_functionals(hp.evolve_shift(sc.v0, t, spec.C), ss.K, ss)[0] for t in ts
        ])
        assert np.allclose(actual, pred, rtol=1e-9, atol=1e-10)

    def test_missing_scenarios_raise(self):
        spec = hp.SystemSpec(**SEC8)
        ss = hp.steady_state(spec)
        with pytest.raises(ValueError):
            hp.sharpness_scenario("real-eig", ss)
        with pytest.raises(ValueError):
            hp.sharpness_scenario("defective", ss)
        with pytest.raises(ValueError):
            hp.sharpness_scenario("nonsense", ss)


class TestZeroTangent:
    def test_rate_zero_at_tstar(self, fig1b):
        spec, ss = fig1b
        w = np.array([0.0, 1.0])
        for t_star in (0.5, 1.5, 3.0):
            v0 = hp.zero_tangent_initial(t_star, w, ss)
            vt = hp.evolve_shift(v0, t_star, spec.C)
            e, G = hp.gaussian_log_functionals(vt, ss.K, ss)
            assert -2 * np.vdot(spec.D, G) == pytest.approx(0.0, abs=1e-10)
            assert e > 0

    def test_rejects_nonkernel_direction(self, fig1b):
        spec, ss = fig1b
        with pytest.raises(ValueError):
            hp.zero_tangent_initial(1.0, np.array([1.0, 0.0]), ss)


TRAJ_V0 = np.array([1.0, 0.0])


@pytest.fixture(scope="module")
def traj():
    spec = hp.SystemSpec(**SEC8)
    ss = hp.steady_state(spec)
    tm = hp.build_P(ss)
    f0 = ent.shifted_steady(ss, TRAJ_V0)
    times = np.linspace(0.0, 4.0, 81)
    rec = flow.run_trajectory(ss, tm, f0, ent.LogEntropy(), times)
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
            e_closed, G = hp.gaussian_log_functionals(vt, ss.K, ss)
            assert e == pytest.approx(e_closed, rel=1e-10)
            assert i == pytest.approx(np.vdot(spec.D, G), rel=1e-10)
            assert s == pytest.approx(np.vdot(tm.P, G), rel=1e-10)
        S0 = np.vdot(tm.P, hp.gaussian_log_functionals(TRAJ_V0, ss.K, ss)[1])
        envelope = S0 / (2.0 * hp.lambda_P(ss.K, tm.P)) * np.exp(-2.0 * tm.kappa * rec.times)
        assert np.allclose(rec.envelope, envelope, rtol=1e-10, atol=0.0)

    def test_envelope_from_f0_when_grid_starts_later(self, traj):
        spec, ss, tm, rec = traj
        f0 = ent.shifted_steady(ss, TRAJ_V0)
        late = flow.run_trajectory(ss, tm, f0, ent.LogEntropy(), rec.times[10:20])
        assert np.allclose(late.envelope, rec.envelope[10:20], rtol=1e-12, atol=0.0)
        assert np.allclose(late.modified, rec.modified[10:20], rtol=1e-12, atol=0.0)

    def test_refine_maximum(self):
        t = flow.refine_maximum(lambda x: -(x - 1.234) ** 2, 0.0, 3.0)
        assert t == pytest.approx(1.234, abs=1e-9)


# ---------------------------------------------------------------------------
# The stacked trajectory pass against the per-sample loop it replaced


def _per_sample_functionals(comps, ss, gen, q, matrices):
    """One state's (e, I_M...) as the per-sample pass computed them: one
    solve and slogdet per component, then the blocked node loop."""
    S = spd_sqrt(ss.K)
    d = len(S)
    logdetK = float(np.linalg.slogdet(ss.K)[1])
    H = np.empty((len(comps), d + 1, d + 1))
    for c, comp in enumerate(comps):
        AinvS = np.linalg.solve(comp.cov, np.column_stack([S, comp.mean]))
        G = np.eye(d) - S @ AinvS[:, :d]
        H[c, :d, :d] = 0.5 * (G + G.T)
        H[c, :d, d] = H[c, d, :d] = S @ AinvS[:, d]
        H[c, d, d] = logdetK - float(np.linalg.slogdet(comp.cov)[1]) - comp.mean @ AinvS[:, d]
    H = H.reshape(-1, d + 1)
    w = np.array([c.weight for c in comps])
    affine = [(c, S @ comp.affine) for c, comp in enumerate(comps) if comp.affine is not None]
    Sinv = np.linalg.inv(S)
    Mw = np.array([Sinv @ M @ Sinv for M in matrices]).reshape(-1, d)
    lo = gen.domain_min
    sums = np.zeros(1 + len(matrices))
    for start in range(0, q.n, ent._BLOCK):
        Y = q.nodes[:, start:start + ent._BLOCK]
        wq = q.weights[start:start + ent._BLOCK]
        Z = (H @ Y).reshape(len(w), d + 1, -1)
        rho = w[:, None] * np.exp(0.5 * np.einsum("cin,in->cn", Z, Y))
        h = 0.0
        for c, at in affine:
            h = h + np.multiply.outer(at, rho[c])
            rho[c] *= 1.0 + at @ Y[:d]
        r, h = rho.sum(axis=0), h + np.einsum("cn,cin->in", rho, Z[:, :d])
        if np.any(r < lo - linalg.TOL.domain):
            raise ent.DomainError("density ratio fell below the domain")
        sums[0] += wq @ gen.psi(r, 0)
        r = np.maximum(r, lo + 1e-300)
        quad = np.einsum("kin,in->kn", (Mw @ h).reshape(len(matrices), d, -1), h)
        sums[1:] += quad @ (wq * gen.psi(r, 2))
    return sums


def _per_sample_trajectory(spec, ss, cert, f0, gen, times, q):
    """(e, I, S) rows and the envelope from one matrix exponential and one
    functionals pass per time sample, each component flowed on its own; the
    quadratic generator takes the per-pair closed form instead of the rule."""
    if isinstance(gen, ent.QuadraticEntropy):
        def one(comps, matrices):
            return quadratic_pair_sums(comps, ss.K, gen, matrices)
    else:
        def one(comps, matrices):
            return _per_sample_functionals(comps, ss, gen, q, matrices)
    Kinv = np.linalg.inv(ss.K)
    rows = []
    for t in times:
        E = scipy.linalg.expm(-t * spec.C)
        comps = []
        for c in f0.components:
            if c.affine is None:
                A = ss.K + E @ (c.cov - ss.K) @ E.T
                comps.append(ent.GaussianComponent(c.weight, E @ c.mean, 0.5 * (A + A.T)))
            else:
                comps.append(ent.GaussianComponent(c.weight, c.mean, c.cov,
                                                   affine=Kinv @ (E @ (ss.K @ c.affine))))
        rows.append(one(comps, (spec.D, cert.P)))
    rows = np.array(rows).reshape(-1, 3)
    S0 = rows[0, 2] if len(times) and times[0] == 0.0 else one(f0.components, (cert.P,))[1]
    envelope = S0 / (2.0 * hp.lambda_P(ss.K, cert.P)) * np.exp(-2.0 * cert.kappa * np.asarray(times))
    return rows, envelope


def _mixture(rng, L, weights, affine=None):
    """Components N(L z, L V diag(lam) V^T L^T), lam in [0.6, 1.1], with the
    given weights; ``affine`` replaces the first by a steady-shaped one."""
    d = len(L)
    comps = []
    for w in weights:
        _, V = np.linalg.eigh(rng.standard_normal((d, d)) + np.eye(d))
        A = L @ (V * rng.uniform(0.6, 1.1, d)) @ V.T @ L.T
        comps.append(ent.GaussianComponent(w, L @ (0.5 * rng.standard_normal(d)), 0.5 * (A + A.T)))
    if affine is not None:
        comps[0] = ent.GaussianComponent(weights[0], np.zeros(d), L @ L.T, affine=affine)
    return hp.GaussianMixture(tuple(comps))


# (d, rank D, order, generator, weights, affine, times).  Rules with fewer
# than _BLOCK nodes put several samples in one block: 256 nodes (32 per
# block), 4 096 Sobol points (2 per block); 13 824 nodes take two blocks per
# sample, the last one partial.
STACK_CASES = {
    "log": (2, 1, 16, ent.LogEntropy(), (0.6, 0.4), False, np.linspace(0.0, 3.0, 25)),
    "log-alpha-beta": (3, 1, 24, ent.LogEntropy(1.5, 0.25), (0.7, 0.3), False, np.linspace(0.0, 2.0, 5)),
    "power": (3, 3, 24, ent.PowerEntropy(p=1.5, beta=0.1), (0.5, 0.5), False, np.linspace(0.0, 2.0, 5)),
    "quadratic-signed": (4, 4, 16, ent.QuadraticEntropy(0.7), (1.2, 0.1, -0.3), False,
                         np.linspace(0.0, 4.0, 9)),
    "affine": (2, 2, 16, ent.QuadraticEntropy(), (0.5, 0.5), True, np.linspace(0.0, 3.0, 13)),
    "late-start": (2, 1, 16, ent.LogEntropy(), (0.6, 0.4), False, np.linspace(0.5, 3.0, 11)),
    "late-start-affine": (3, 2, 12, ent.QuadraticEntropy(), (0.8, 0.2), True, np.linspace(0.25, 2.0, 8)),
    "single-time": (2, 1, 16, ent.PowerEntropy(p=1.3), (0.6, 0.4), False, np.array([1.3])),
    "single-time-zero": (4, 2, 16, ent.QuadraticEntropy(), (1.1, -0.1), False, np.array([0.0])),
    "T200": (2, 2, 16, ent.LogEntropy(), (0.5, 0.3, 0.2), False, np.linspace(0.0, 8.0, 200)),
}


@pytest.mark.parametrize("case", list(STACK_CASES))
def test_stacked_trajectory_matches_per_sample_loop(rng, case):
    d, rank, order, gen, weights, affine, times = STACK_CASES[case]
    spec, _ = make_random_system(rng, d, rank=rank)
    ss = hp.steady_state(spec)
    tm = hp.build_P(ss)
    q = hp.gauss_hermite_rule(ss.K, order)
    L = np.linalg.cholesky(ss.K)
    f0 = _mixture(rng, L, weights, affine=0.4 * rng.standard_normal(d) if affine else None)
    rec = flow.run_trajectory(ss, tm, f0, gen, times, order=order)
    rows, envelope = _per_sample_trajectory(spec, ss, tm, f0, gen, times, q)
    assert not hasattr(rec, "states")
    got = np.column_stack([rec.entropy, rec.dissipation, rec.modified])
    assert got.shape == rows.shape == (len(times), 3)
    np.testing.assert_allclose(got, rows, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rec.envelope, envelope, rtol=1e-12, atol=0)


def test_evolve_mixture_matches_per_component_flow(rng):
    spec, _ = make_random_system(rng, 3, rank=1)
    ss = hp.steady_state(spec)
    L = np.linalg.cholesky(ss.K)
    f0 = _mixture(rng, L, (0.5, 0.7, -0.2), affine=0.3 * rng.standard_normal(3))
    ft = hp.evolve_mixture(f0, 0.7, ss)
    E = scipy.linalg.expm(-0.7 * spec.C)
    for c0, ct in zip(f0.components, ft.components):
        assert ct.weight == c0.weight
        if c0.affine is None:
            assert ct.affine is None
            np.testing.assert_allclose(ct.mean, E @ c0.mean, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(ct.cov, ss.K + E @ (c0.cov - ss.K) @ E.T, rtol=1e-13)
        else:
            assert np.array_equal(ct.mean, c0.mean) and np.array_equal(ct.cov, c0.cov)
            np.testing.assert_allclose(ct.affine, np.linalg.solve(ss.K, E @ ss.K @ c0.affine),
                                       rtol=1e-12)


def _rotating_signed_state():
    """K = I, C = I + 20 J: shifts shrink like e^{-t} and turn at rate 20.
    f0 = (1 + eps) f_inf - eps f_inf(. - e_0) is negative where
    v(t).y - |v(t)|^2/2 > log((1 + eps)/eps) = 4.4.  On the order-8 grid
    (largest node 4.14 per axis) the left side peaks at 3.6 at t = 0, at 4.2
    at t = 0.008, and at 5.2 at the corner nodes at t = pi/80, when v(t)
    points along a diagonal."""
    C = np.array([[1.0, -20.0], [20.0, 1.0]])
    spec = hp.SystemSpec(D=np.eye(2), C=C)
    ss = hp.steady_state(spec)
    eps = 0.0124
    f0 = hp.GaussianMixture((ent.GaussianComponent(1.0 + eps, np.zeros(2), ss.K),
                             ent.GaussianComponent(-eps, np.array([1.0, 0.0]), ss.K)))
    return spec, ss, f0, hp.gauss_hermite_rule(ss.K, 8)


@pytest.mark.parametrize("samples", [5, 301])
def test_domain_error_in_a_middle_sample(samples):
    # 64 nodes: 128 samples per block, so sample 150 of 301 is in the second.
    spec, ss, f0, q = _rotating_signed_state()
    tm = hp.build_P(ss)
    gen = ent.LogEntropy()
    times = np.linspace(0.0, 0.008, samples)
    t_bad = times[samples // 2] = np.pi / 80.0
    for t in (0.0, times[-1]):
        assert np.isfinite(ent.functionals(hp.evolve_mixture(f0, t, ss), ss, gen, q)[0])
    with pytest.raises(ent.DomainError):
        ent.functionals(hp.evolve_mixture(f0, t_bad, ss), ss, gen, q)
    with pytest.raises(ent.DomainError):
        flow.run_trajectory(ss, tm, f0, gen, times, order=q.order)
    # The quadratic generator takes signed states, in closed form.
    rec = flow.run_trajectory(ss, tm, f0, ent.QuadraticEntropy(), times, order=q.order)
    assert np.all(np.isfinite(rec.entropy))


@pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
def test_trajectory_rejects_bad_times(traj, t):
    spec, ss, tm, _ = traj
    f0 = ent.shifted_steady(ss, TRAJ_V0)
    for times in ([0.0, 1.0, t, 2.0], [t], [t, 0.0]):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            flow.run_trajectory(ss, tm, f0, ent.LogEntropy(), np.array(times))


def test_trajectory_raises_when_a_covariance_loses_definiteness(traj):
    # With the drift reversed e^{-Ct} grows and K + E (A0 - K) E^T turns
    # indefinite for A0 < K; far enough out the exponential overflows.
    spec, ss, tm, _ = traj
    wrong = hp.SteadyState(K=ss.K, cK=ss.cK, R=ss.R, Q=ss.Q, spec=hp.SystemSpec(D=spec.D, C=-spec.C))
    f0 = hp.GaussianMixture((ent.GaussianComponent(1.0, np.zeros(2), 0.5 * ss.K),))
    with pytest.raises(np.linalg.LinAlgError, match="lost positive definiteness"):
        flow.run_trajectory(wrong, tm, f0, ent.LogEntropy(), np.linspace(0.0, 3.0, 7))
    with pytest.raises(OverflowError), np.errstate(over="ignore", invalid="ignore"):
        flow.run_trajectory(wrong, tm, f0, ent.LogEntropy(), np.array([0.0, 1e4]))
    bad = hp.GaussianMixture((ent.GaussianComponent(1.0, np.ones(2), ss.K, affine=np.ones(2)),))
    with pytest.raises(ValueError, match="steady-shaped"):
        flow.run_trajectory(ss, tm, bad, ent.QuadraticEntropy(), np.linspace(0.0, 1.0, 3))


# The benchmark's d = 3 system: D = diag(1, 0, 0), hypoelliptic with tau = 2.
D3 = dict(D=np.diag([1.0, 0.0, 0.0]), C=np.array([[2.0, -1.0, 0.0], [1.0, 1.0, -1.0], [0.0, 1.0, 0.5]]))


@pytest.mark.parametrize("times", [np.array([0.0]), np.linspace(0.0, 2.0, 7),
                                   np.linspace(0.5, 2.0, 200)])
def test_one_exponential_and_one_fold_per_trajectory(traj, monkeypatch, times):
    # An explicit order, and the adaptive order at d = 2 and d = 3: one stack,
    # one exponential and one fold, and one rule built per order visited.
    _, ss, tm, _ = traj
    ss3 = hp.steady_state(hp.SystemSpec(**D3))
    # d = 3 visits all four orders, so it takes at most 7 samples.
    cases = [(ss, tm, 16, times), (ss, tm, None, times),
             (ss3, hp.build_P(ss3), None, times[:7])]
    calls = dict.fromkeys(["matrix_exponential", "expm", "_fold", "gauss_hermite_rule"], 0)

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(linalg, "matrix_exponential")
    counted(scipy.linalg, "expm")
    counted(ent, "_fold")
    counted(ent, "gauss_hermite_rule")
    for ss, tm, order, times in cases:
        calls.update(dict.fromkeys(calls, 0))
        v0 = np.eye(ss.d)[0]  # TRAJ_V0 at d = 2
        f0 = hp.GaussianMixture((ent.GaussianComponent(0.7, v0, ss.K),
                                 ent.GaussianComponent(0.3, -v0, 0.8 * ss.K)))
        rec = flow.run_trajectory(ss, tm, f0, ent.LogEntropy(), times, order=order)
        assert len(rec.entropy) == len(times)
        rules = 1 if order else ent.ADAPTIVE_ORDERS.index(rec.quadrature_order) + 1
        assert order or rules >= 2
        assert calls == {"matrix_exponential": 1, "expm": 1, "_fold": 1, "gauss_hermite_rule": rules}


# Whitened mean scale and covariance eigenvalue range of each component: the
# benchmark pool's states, states localised far below K, and states wider than K.
STATE_KINDS = {"workload": (0.3, 0.7, 1.0), "localised": (1.0, 0.03, 0.12), "wide": (0.5, 1.2, 1.9)}
# Relative roundoff of the order-128 reference's sums over up to 2.1 M nodes:
# where the estimate is below it, the two agree to roundoff.
SUM_ROUNDOFF = 1e-13


def _kind_mixture(rng, L, kind):
    scale, lo, hi = STATE_KINDS[kind]
    w = rng.uniform(0.2, 0.8)
    comps = []
    for weight in (w, 1.0 - w):
        _, V = np.linalg.eigh(rng.standard_normal((len(L), len(L))) * (1.0 + np.eye(len(L))))
        A = L @ (V * rng.uniform(lo, hi, len(L))) @ V.T @ L.T
        comps.append(ent.GaussianComponent(weight, L @ (scale * rng.standard_normal(len(L))),
                                           0.5 * (A + A.T)))
    return hp.GaussianMixture(tuple(comps))


def _rows(rec):
    return np.column_stack([rec.entropy, rec.dissipation, rec.modified])


@pytest.mark.parametrize("kind", list(STATE_KINDS))
@pytest.mark.parametrize("gen", [ent.LogEntropy(), ent.PowerEntropy(p=1.5)], ids=["log", "power"])
@pytest.mark.parametrize("d", [2, 3])
def test_adaptive_order_is_one_fixed_rule_and_its_estimate_bounds_the_error(d, gen, kind):
    spec = hp.SystemSpec(**(D3 if d == 3 else FIG1B))
    ss = hp.steady_state(spec)
    tm = hp.build_P(ss)
    rng = np.random.default_rng(2200 + 10 * d + list(STATE_KINDS).index(kind))
    f0 = _kind_mixture(rng, np.linalg.cholesky(ss.K), kind)
    times = np.linspace(0.0, 3.0, 4)
    rec = flow.run_trajectory(ss, tm, f0, gen, times)
    assert rec.quadrature_order in ent.ADAPTIVE_ORDERS[1:]
    # The series are those of the fixed rule of that order, bit for bit.
    fixed = flow.run_trajectory(ss, tm, f0, gen, times, order=rec.quadrature_order)
    assert fixed.quadrature_order == rec.quadrature_order and fixed.quadrature_error is None
    for name in ("entropy", "dissipation", "modified", "envelope"):
        assert np.array_equal(getattr(rec, name), getattr(fixed, name)), name
    # The estimate bounds the deviation from order 128 in the same scale.
    ref = _rows(flow.run_trajectory(ss, tm, f0, gen, times, order=128))
    dev = np.max(np.abs(_rows(rec) - ref) / np.maximum(np.abs(ref), np.abs(ref[0])))
    assert dev <= max(rec.quadrature_error, SUM_ROUNDOFF)
    if kind == "localised":  # no order converges: order 64, with its estimate
        assert rec.quadrature_order == 64 and rec.quadrature_error > linalg.TOL.quadrature
    if kind == "workload":
        assert rec.quadrature_order <= 48 and rec.quadrature_error <= linalg.TOL.quadrature


def test_closed_form_and_d4_build_no_extra_rule_and_record_no_estimate(rng, monkeypatch):
    built = []
    inner = ent.gauss_hermite_rule

    def recorded(K, order):
        built.append(order)
        return inner(K, order)
    monkeypatch.setattr(ent, "gauss_hermite_rule", recorded)
    times = np.linspace(0.0, 1.0, 3)
    for d, gen, order, want_built, want_order in [
            (2, ent.QuadraticEntropy(), None, [], None),
            (3, ent.QuadraticEntropy(), 16, [], None),  # an order the closed form does not read
            (4, ent.LogEntropy(), None, [64], None),  # the default Sobol rule
            (4, ent.LogEntropy(), 8, [8], 8)]:
        spec, _ = make_random_system(rng, d, rank=d)
        ss = hp.steady_state(spec)
        built.clear()
        f0 = _mixture(rng, np.linalg.cholesky(ss.K), (0.6, 0.4))
        rec = flow.run_trajectory(ss, hp.build_P(ss), f0, gen, times, order=order)
        assert built == want_built
        assert rec.quadrature_order == want_order and rec.quadrature_error is None


def test_a_search_stopped_early_leaves_the_callers_errstate():
    # Under numpy 2 errstate is a context variable: one held across a yield of
    # functionals_by_rule would stay set in the caller while it is suspended.
    spec = hp.SystemSpec(**D3)
    ss = hp.steady_state(spec)
    f0 = _kind_mixture(np.random.default_rng(1), np.linalg.cholesky(ss.K), "workload")
    before = np.geterr()
    rec = flow.run_trajectory(ss, hp.build_P(ss), f0, ent.LogEntropy(), np.linspace(0.0, 3.0, 4))
    assert rec.quadrature_order == 32 and np.geterr() == before
    rules = (hp.gauss_hermite_rule(ss.K, order) for order in ent.ADAPTIVE_ORDERS)
    passes = ent.functionals_by_rule(ent.MixtureStack.of(f0), ss, ent.LogEntropy(), rules)
    for order in ent.ADAPTIVE_ORDERS[:2]:
        q, e, _ = next(passes)
        assert q.order == order and np.isfinite(e[0]) and np.geterr() == before


@pytest.mark.parametrize("gen", [ent.LogEntropy(), ent.PowerEntropy(p=1.5)], ids=["log", "power"])
def test_adaptive_order_refuses_a_state_negative_inside_order_16(gen):
    # K = I: 1.2 f_inf - 0.2 N(0, 1.5 I) is negative for |y| > 3.63, inside
    # order 16's outermost node 6.63, so the first rule visited refuses it.
    spec = hp.SystemSpec(D=np.eye(2), C=np.array([[1.0, -1.0], [1.0, 1.0]]))
    ss = hp.steady_state(spec)
    f0 = hp.GaussianMixture((ent.GaussianComponent(1.2, np.zeros(2), ss.K),
                             ent.GaussianComponent(-0.2, np.zeros(2), 1.5 * ss.K)))
    with pytest.raises(ent.DomainError, match="density ratio fell below"):
        flow.run_trajectory(ss, hp.build_P(ss), f0, gen, np.linspace(0.0, 1.0, 3))


@pytest.mark.parametrize("d, order, per_block", [(2, 16, 32), (3, 24, 1), (4, 16, 2)])
def test_blocks_hold_at_most_BLOCK_values(rng, monkeypatch, d, order, per_block):
    # Samples are grouped; the node count per block is never cut below the
    # rule size or _BLOCK.
    spec, _ = make_random_system(rng, d, rank=d)
    ss = hp.steady_state(spec)
    q = hp.gauss_hermite_rule(ss.K, order)
    blocks = []
    inner = ent.ratio_and_grad

    def recorded(f, X):
        blocks.append((len(f[0]), len(X)))
        return inner(f, X)
    monkeypatch.setattr(ent, "ratio_and_grad", recorded)
    times = np.linspace(0.0, 2.0, 75)
    flow.run_trajectory(ss, hp.build_P(ss), _mixture(rng, np.linalg.cholesky(ss.K), (0.5, 0.5)),
                        ent.LogEntropy(), times, order=order)
    nb = min(q.n, ent._BLOCK)
    assert all(g * n <= ent._BLOCK for g, n in blocks)
    assert {n for _, n in blocks} <= {nb, q.n % nb or nb}  # full blocks, then the rest
    assert {g for g, _ in blocks[:-1]} == {per_block}
    assert sum(g * n for g, n in blocks) == len(times) * q.n


def test_trajectory_allocates_block_sized_buffers(rng):
    import tracemalloc

    spec, _ = make_random_system(rng, 3, rank=1)
    ss = hp.steady_state(spec)
    tm = hp.build_P(ss)
    q = hp.gauss_hermite_rule(ss.K, 64)
    f0 = _mixture(rng, np.linalg.cholesky(ss.K), (0.6, 0.4))
    times = np.linspace(0.0, 8.0, 200)
    tracemalloc.start()
    try:
        flow.run_trajectory(ss, tm, f0, ent.LogEntropy(), times, order=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The same budget as one functionals call on this 262 144-node rule.
    assert q.n == 64 ** 3 and peak <= 8 * 2 ** 20
