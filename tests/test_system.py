import math

import numpy as np
import pytest
import scipy.linalg

import hypofp as hp
from hypofp import linalg
from conftest import harmonic_chain, make_random_system

FIG1B = dict(D=np.diag([1.0, 0.0]), C=np.array([[1.0, -1.0], [1.0, 0.0]]))
SEC8 = dict(D=np.diag([0.25, 1.0]), C=np.array([[0.25, -4.0], [4.0, 1.0]]))


class TestSpecOwnsItsData:
    def test_caller_mutation_does_not_reach_spec(self):
        D, C = FIG1B["D"].copy(), FIG1B["C"].copy()
        spec = hp.SystemSpec(D=D, C=C)
        eig = spec.eig
        C[0, 0], D[1, 1] = 5.0, 3.0
        assert np.array_equal(spec.C, FIG1B["C"]) and np.array_equal(spec.D, FIG1B["D"])
        assert spec.eig is eig
        assert spec.eig.eigenvalues == linalg.eigen_structure(FIG1B["C"]).eigenvalues
        with pytest.raises(ValueError, match="read-only"):
            spec.C[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            spec.D[1, 1] = 3.0

    def test_one_eigen_structure_of_C_per_spec(self, monkeypatch):
        # Every reader of C's spectrum shares spec.eig: one eigen_structure of
        # C, no np.linalg.eig, and D decomposed only in SystemSpec.__post_init__
        # (spec.D_eigh).  SEC8 has a minimal complex pair; the 3x3 drift a real
        # eigenvalue and a complex pair on Re = 1.  Both D are SPD, so
        # compare_rates takes its conditioning branch.
        calls, decompositions = [], []
        eigen_structure = linalg.eigen_structure

        def counting(M, tol=linalg.TOL.cluster):
            calls.append((np.array(M), tol))
            return eigen_structure(M, tol)

        monkeypatch.setattr(linalg, "eigen_structure", counting)
        for name in ("eig", "eigvals", "eigh", "eigvalsh", "svd", "cholesky"):
            def spy(M, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                decompositions.append((_name, np.array(M)))
                return _fn(M, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        C3 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -2.0], [0.0, 2.0, 1.0]])
        for system, kinds in [(SEC8, {"complex-pair"}),
                              (dict(D=np.diag([1.0, 0.5, 2.0]), C=C3), {"real-eig", "complex-pair"})]:
            spec = hp.SystemSpec(**system)
            calls.clear()
            decompositions.clear()
            report = hp.check_condition_A(spec)
            ss = hp.steady_state(spec)
            tm = hp.build_P(ss)
            hp.optimize_weights(ss, np.eye(spec.d))
            scenarios = {}
            for kind in ("real-eig", "complex-pair", "defective"):
                try:
                    scenarios[kind] = hp.sharpness_scenario(kind, ss)
                except ValueError:
                    pass
            cert = hp.compare_rates(spec, ss)
            assert set(scenarios) == kinds and cert.cond_sq_bound is not None
            assert len(calls) == 1
            assert np.array_equal(calls[0][0], spec.C) and calls[0][1] == linalg.TOL.cluster
            assert [name for name, _ in decompositions].count("eig") == 0
            assert not [name for name, M in decompositions
                        if M.shape == spec.D.shape and np.array_equal(M, spec.D)]
            mus = {report.mu, tm.kappa, cert.mu, *(sc.mu for sc in scenarios.values())}
            assert mus == {spec.eig.mu}


class TestHoermanderTau:
    def test_four_dim_pairs(self):
        # Two rank-2 diffusion pairs whose minimal rank index differs.
        D = np.diag([1.0, 1.0, 0.0, 0.0])
        C1T = np.array(
            [[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], float
        )
        C2T = np.array(
            [[1, 0, 0, 0], [0, 1, -1, 0], [0, 1, 0, -1], [0, 0, 1, 0]], float
        )
        tau1, dim1, margin1, _ = hp.hoermander_tau(hp.SystemSpec(D=D, C=C1T.T))
        tau2, dim2, margin2, _ = hp.hoermander_tau(hp.SystemSpec(D=D, C=C2T.T))
        assert (tau1, dim1) == (1, 4) and margin1 > 0
        assert (tau2, dim2) == (2, 4) and margin2 > 0

    def test_fig1b_margin_and_gap(self):
        # Block 0 = range D = e1: eigenvalue 1 of lambda_max(D) = 1 kept, an
        # exact 0 dropped.  Block 1 = e2 with singular value |C[1, 0]| = 1 over
        # ||C||_2: C C^T = [[2, 1], [1, 1]] has eigenvalues (3 +- sqrt 5) / 2,
        # so ||C||_2 = (1 + sqrt 5) / 2, margin = 2 / (1 + sqrt 5) and gap = 0.
        tau, dim, margin, gap = hp.hoermander_tau(hp.SystemSpec(**FIG1B))
        assert (tau, dim) == (1, 2)
        assert margin == pytest.approx(2.0 / (1.0 + np.sqrt(5.0)), rel=1e-14)
        assert gap == 0.0

    def test_full_rank_tau_zero(self):
        # One block, D = I itself: both eigenvalues equal lambda_max(D).
        tau, dim, margin, gap = hp.hoermander_tau(hp.SystemSpec(D=np.eye(2), C=np.eye(2)))
        assert (tau, dim, gap) == (0, 2, 0.0)
        assert margin == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("D, C", [
        (np.diag([1.0, 1e-9]), 100.0 * np.eye(2)),
        (np.eye(2), 1e11 * np.eye(2)),
    ])
    def test_full_rank_D_against_a_stiff_drift(self, D, C):
        # rank D = 2 is decided relative to lambda_max(D) alone, however large ||C||.
        tau, dim, margin, gap = hp.hoermander_tau(hp.SystemSpec(D=D, C=C))
        assert (tau, dim, gap) == (0, 2, 0.0)
        assert margin == pytest.approx(D[1, 1], rel=1e-14)

    def test_not_hypoelliptic(self):
        # C = I maps e1 into span e1: the second block's singular value is an exact 0.
        tau, dim, margin, gap = hp.hoermander_tau(hp.SystemSpec(D=np.diag([1.0, 0.0]), C=np.eye(2)))
        assert (tau, dim, gap) == (None, 1, 0.0)
        assert margin == pytest.approx(1.0, rel=1e-14)

    def test_zero_diffusion(self):
        spec = hp.SystemSpec(D=np.zeros((3, 3)), C=np.eye(3))
        assert hp.hoermander_tau(spec) == (None, 0, 0.0, 0.0)


class TestConditionA:
    def test_fig1b(self):
        rep = hp.check_condition_A(hp.SystemSpec(**FIG1B))
        assert rep.hypoelliptic and rep.positively_stable
        assert rep.tau == 1
        assert rep.mu == pytest.approx(0.5, abs=1e-12)
        assert not rep.minimal_eigs_defective

    def test_invariant_kernel_fails(self):
        rep = hp.check_condition_A(hp.SystemSpec(D=np.diag([1.0, 0.0]), C=np.eye(2)))
        assert not rep.hypoelliptic
        assert rep.tau is None
        assert (rep.controllable_dim, rep.gap) == (1, 0.0)

    @pytest.mark.parametrize("eps, verdict", [
        (1e-11, None), (1e-13, None),  # C e1 has an e2 part eps: hypoelliptic, below TOL.rank
        (1e-17, False), (0.0, False),  # eps at or below roundoff: not hypoelliptic
    ])
    def test_a_dropped_value_above_roundoff_is_undecidable(self, eps, verdict):
        rep = hp.check_condition_A(hp.SystemSpec(D=np.diag([1.0, 0.0]),
                                                 C=np.array([[1.0, 0.0], [eps, 1.0]])))
        assert rep.hypoelliptic is verdict and rep.tau is None and not rep.satisfied
        assert rep.controllable_dim == 1 and rep.gap == pytest.approx(eps, rel=1e-10)
        assert rep.verdict == ("not hypoelliptic" if verdict is False
                               else "undecidable at this conditioning")

    def test_triangular_three_dim(self):
        C = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 1.0, 3.0]])
        rep = hp.check_condition_A(hp.SystemSpec(D=np.diag([1.0, 1.0, 0.0]), C=C))
        assert rep.hypoelliptic and rep.positively_stable
        assert rep.mu == pytest.approx(1.0, abs=1e-12)


class TestSteadyState:
    def test_sec8(self):
        spec = hp.SystemSpec(**SEC8)
        ss = hp.steady_state(spec)
        assert np.allclose(ss.K, np.eye(2), atol=1e-12)
        assert np.allclose(ss.R, [[0.0, -4.0], [4.0, 0.0]], atol=1e-12)
        assert np.allclose(ss.Q, spec.C.T, atol=1e-12)
        assert ss.cK == pytest.approx((2 * np.pi) ** -1, rel=1e-13)

    def test_symmetric_case(self):
        ss = hp.steady_state(hp.SystemSpec(D=np.eye(2), C=np.eye(2)))
        assert np.allclose(ss.K, np.eye(2))
        assert np.allclose(ss.R, 0.0)
        assert np.allclose(ss.Q, np.eye(2))

    def test_fig1b_q(self):
        spec = hp.SystemSpec(**FIG1B)
        ss = hp.steady_state(spec)
        assert np.allclose(ss.K, np.eye(2), atol=1e-12)
        assert np.allclose(ss.Q, spec.C.T, atol=1e-12)

    def test_r_exactly_antisymmetric(self, rng):
        for _ in range(10):
            spec, _ = make_random_system(rng, 3)
            ss = hp.steady_state(spec)
            assert np.array_equal(ss.R, -ss.R.T)
            resid = np.linalg.norm(2 * spec.D - spec.C @ ss.K - ss.K @ spec.C.T, 2)
            scale = np.linalg.norm(spec.C, 2) * np.linalg.norm(ss.K, 2) + np.linalg.norm(spec.D, 2)
            assert resid <= 1e-10 * scale

    @staticmethod
    def _singular_K_message(spec):
        """The error of steady_state, checked to state the measured eigenvalues."""
        w = np.linalg.eigvalsh(linalg.solve_lyapunov(spec.C, spec.D))
        with pytest.raises(np.linalg.LinAlgError) as exc:
            hp.steady_state(spec)
        msg = str(exc.value)
        assert f"lambda_min = {w[0]:.3e}, lambda_max = {w[-1]:.3e}" in msg
        assert f"lambda_min / lambda_max = {w[0] / w[-1]:.3e} <= 1e-10" in msg
        assert "eigenvector" not in msg
        return w

    def test_singular_K_detected(self):
        # e2 is an eigenvector of C^T inside ker D: K must come out singular.
        D = np.diag([1.0, 0.0])
        C = np.array([[1.0, 1.0], [0.0, 1.0]])  # C^T e2 = e2
        self._singular_K_message(hp.SystemSpec(D=D, C=C))

    def test_singular_K_of_a_controllable_system(self):
        # Rank-1 D at d = 10 with a PBH controllability margin >= 1e-3: no
        # eigenvector of C^T lies in ker D, yet K is singular to roundoff.
        rng = np.random.default_rng(1)
        while True:
            G = rng.standard_normal((10, 10))
            C = G + (0.2 + rng.uniform() - np.linalg.eigvals(G).real.min()) * np.eye(10)
            B = rng.standard_normal((10, 1))
            scale = np.linalg.norm(np.hstack([C, B]), 2)
            pbh = min(np.linalg.svd(np.hstack([C - lam * np.eye(10), B]), compute_uv=False)[-1]
                      for lam in np.linalg.eigvals(C)) / scale
            if pbh >= 1e-3:
                break
        w = self._singular_K_message(hp.SystemSpec(D=B @ B.T, C=C))
        assert w[-1] > 1.0

    @pytest.mark.parametrize("s", [1e-11, 1e6])
    def test_singular_K_test_is_scale_free(self, s):
        # K = s I has condition number 1 whatever the units of D; the old
        # absolute test called s = 1e-11 singular.
        ss = hp.steady_state(hp.SystemSpec(D=s * np.eye(2), C=np.eye(2)))
        assert np.allclose(ss.K, s * np.eye(2), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("s, d", [(1e-200, 2), (1e-3, 128), (1e200, 2), (0.46, 900),
                                      (math.exp(-354.89125) / (2.0 * math.pi), 4)])
    def test_normalization_when_det_K_leaves_the_float_range(self, s, d):
        # det K = s^d under- or overflows, and (2 pi)^(-d/2) underflows to 0.0
        # at d = 900; cK = (2 pi s)^(-d/2) does neither.  The error of log det K
        # (a sum of d logs, |log det K| = 884 at d = 128) carries over to cK as
        # it does to np.linalg.det: 1.3e-12 at d = 128, 1.1e-12 at d = 900.
        # The last case puts cK at 1.797e308, just below the float maximum.
        ss = hp.steady_state(hp.SystemSpec(D=s * np.eye(d), C=np.eye(d)))
        assert ss.cK == pytest.approx(math.exp(-0.5 * d * math.log(2.0 * math.pi * s)), rel=1e-11)

    @pytest.mark.parametrize("s, cK", [(1e-300, math.inf), (1e300, 0.0)])
    def test_normalization_outside_the_float_range(self, s, cK):
        assert hp.steady_state(hp.SystemSpec(D=s * np.eye(4), C=np.eye(4))).cK == cK

    def test_zero_diffusion_K_is_singular(self):
        # K = 0: singular, and the message forms no 0 / 0.
        with np.errstate(divide="raise", invalid="raise"):
            with pytest.raises(np.linalg.LinAlgError, match="no positive eigenvalue"):
                hp.steady_state(hp.SystemSpec(D=np.zeros((2, 2)), C=np.eye(2)))

    @pytest.mark.parametrize("d, rank", [(2, 1), (3, 3), (6, 2), (10, 10)])
    def test_K_eigh_is_read_only_and_factors_K(self, rng, d, rank):
        spec, _ = make_random_system(rng, d, rank)
        ss = hp.steady_state(spec)
        w, V = ss.K_eigh
        assert not (w.flags.writeable or V.flags.writeable)
        with pytest.raises(ValueError):
            w[0] = 1.0
        assert np.all(np.diff(w) >= 0.0)
        u = np.finfo(float).eps
        nK = np.linalg.norm(ss.K, 2)
        assert np.linalg.norm((V * w) @ V.T - ss.K, 2) <= 10 * d * u * nK
        assert np.linalg.norm(V.T @ V - np.eye(d), 2) <= 10 * d * u
        # The root, its inverse and log det K all come from (w, V).
        S, Sinv = ss.sqrtK, ss.sqrtK_inv
        assert np.linalg.norm(S - S.T, 2) <= 10 * d * u * np.sqrt(nK)
        assert np.linalg.norm(S @ S - ss.K, 2) <= 10 * d * u * nK
        assert np.linalg.norm(Sinv @ S - np.eye(d), 2) <= 10 * d * u * np.linalg.cond(S)
        assert ss.logdet_K == pytest.approx(np.linalg.slogdet(ss.K)[1], rel=1e-12, abs=1e-12)

    def test_one_decomposition_of_K(self, rng, monkeypatch):
        # steady_state hands its one eigh of K to the state, which keeps it;
        # nothing else factors, inverts or solves with K.
        spec, _ = make_random_system(rng, 5, 1)
        calls = []
        for name in ("eigh", "eigvalsh", "slogdet", "solve", "inv", "cholesky"):
            inner = getattr(np.linalg, name)

            def counted(*args, _inner=inner, _name=name, **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        ss = hp.steady_state(spec)
        ss.sqrt_w, ss.sqrtK, ss.sqrtK_inv, ss.logdet_K
        assert calls == ["eigh"]

    def test_root_of_a_hand_built_state(self):
        ss = hp.SteadyState(K=np.diag([4.0, 9.0]), cK=np.nan, R=np.zeros((2, 2)), Q=np.eye(2))
        assert np.allclose(ss.sqrtK, np.diag([2.0, 3.0]), rtol=1e-15, atol=0.0)
        assert np.allclose(ss.sqrtK_inv, np.diag([0.5, 1.0 / 3.0]), rtol=1e-15, atol=0.0)
        assert ss.logdet_K == pytest.approx(math.log(36.0), rel=1e-15)
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        S = hp.SteadyState(K=M, cK=np.nan, R=np.zeros((2, 2)), Q=np.eye(2)).sqrtK
        assert np.linalg.norm(S @ S - M, 2) <= 1e-15 * np.linalg.norm(M, 2)
        assert sorted(np.linalg.eigvalsh(S)) == pytest.approx([1.0, np.sqrt(3.0)], rel=1e-15)
        assert not S.flags.writeable

    @pytest.mark.parametrize("K", [np.diag([1.0, -0.5]), np.zeros((2, 2)),
                                   np.array([[1.0, 2.0], [2.0, 1.0]])],
                             ids=["negative", "zero", "indefinite"])
    def test_root_of_an_indefinite_hand_built_state_raises(self, K):
        # The state constructs, as a benchmark's hand-built fallback needs;
        # only reading the root (or log det K) raises.
        ss = hp.SteadyState(K=K, cK=np.nan, R=np.zeros((2, 2)), Q=np.eye(2))
        assert np.allclose((ss.K_eigh[1] * ss.K_eigh[0]) @ ss.K_eigh[1].T, K, atol=1e-15)
        for read in ("sqrt_w", "sqrtK", "sqrtK_inv", "logdet_K"):
            with pytest.raises(np.linalg.LinAlgError, match="not SPD"):
                getattr(ss, read)


CHAINS = [(N, baths) for N in (2, 4, 8, 16) for baths in (1, 2)]


class TestHarmonicChain:
    """Oscillator chains at equal bath temperatures: exact K, rate and tau."""

    @pytest.mark.parametrize("N, baths", CHAINS + [(32, 1), (32, 2)])
    def test_steady_state_is_gibbs(self, N, baths):
        spec, K = harmonic_chain(N, baths)
        err = np.linalg.norm(hp.steady_state(spec).K - K, 2)
        assert err <= 1e-12 * np.linalg.norm(K, 2)

    @pytest.mark.parametrize("N, baths", CHAINS + [(32, 1), (32, 2)])
    def test_certificate_at_the_sharp_rate(self, N, baths):
        spec, _ = harmonic_chain(N, baths)
        ss = hp.steady_state(spec)
        tm = hp.build_P(ss)
        assert abs(tm.kappa - spec.eig.mu) <= 1e-8 * spec.eig.mu
        assert hp.verify_P(ss, tm.P, tm.kappa) >= -tm.margin_tolerance
        assert hp.lambda_P(ss.K, tm.P) > 0.0

    @pytest.mark.parametrize("N, baths", CHAINS + [(32, 1), (32, 2)])
    def test_hoermander_index(self, N, baths):
        # Exact tau at every d, a staircase margin that stays O(1) (~0.25), no
        # dropped value above roundoff (measured: exactly 0 up to d = 128).
        report = hp.check_condition_A(harmonic_chain(N, baths)[0])
        assert report.hypoelliptic is True and report.verdict == "hypoelliptic"
        assert report.tau == (2 * N - 1 if baths == 1 else N - 1)
        assert report.controllable_dim == 2 * N
        assert report.margin > 0.2 and report.gap <= 1e-15


class TestGreenCovariance:
    def test_zero_time(self):
        assert np.array_equal(hp.green_covariance(hp.SystemSpec(**FIG1B), 0.0), np.zeros((2, 2)))

    def test_scalar_closed_form(self):
        spec = hp.SystemSpec(D=np.eye(2), C=np.eye(2))
        W = hp.green_covariance(spec, 1.0)
        assert np.allclose(W, (1 - np.exp(-2.0)) / 2.0 * np.eye(2), atol=1e-12)

    def test_long_time_limit(self):
        # Stationary limit of W' = D - CW - WC^T is the solution of
        # CW + WC^T = D, i.e. half the steady covariance.
        spec = hp.SystemSpec(**FIG1B)
        ss = hp.steady_state(spec)
        W = hp.green_covariance(spec, 100.0)
        assert np.linalg.norm(W - 0.5 * ss.K, 2) <= 1e-8

    def test_positive_definite(self, rng):
        spec, _ = make_random_system(rng, 3)
        for t in (0.01, 0.1, 1.0, 5.0):
            W = hp.green_covariance(spec, t)
            assert linalg.min_sym_eigenvalue(W) > 0

    @pytest.mark.parametrize("d", range(3, 9))
    def test_singular_without_hypoellipticity(self, d):
        # W(t) > 0 for t > 0 exactly when (C, D) is hypoelliptic; the test
        # above covers "<=".  For "=>": C block upper triangular with D inside
        # its invariant leading block of size k < d leaves the trailing d - k
        # directions unreached, so W(t) is singular; a random orthogonal Q
        # hides the blocks from both W and the staircase.
        rng = np.random.default_rng(2300 + d)
        for _ in range(5):
            k = int(rng.integers(1, d))
            C = np.triu(rng.standard_normal((d, d)), 0)
            C[:k, :k] = rng.standard_normal((k, k))
            C[k:, k:] = rng.standard_normal((d - k, d - k))
            C += (0.2 - np.linalg.eigvals(C).real.min()) * np.eye(d)
            B = np.zeros((d, int(rng.integers(1, k + 1))))
            B[:k] = rng.standard_normal((k, B.shape[1]))
            Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            spec = hp.SystemSpec(D=Q @ B @ B.T @ Q.T, C=Q @ C @ Q.T)
            assert hp.check_condition_A(spec).verdict != "hypoelliptic"
            for t in (0.1, 1.0, 10.0):
                w = np.linalg.eigvalsh(hp.green_covariance(spec, t))
                assert w[0] <= linalg.TOL.roundoff * d * w[-1], (k, t, w[0] / w[-1])


def panel_rule(spec, t):
    """W(t) by the composite 8-point Gauss-Legendre rule on
    max(16, ceil(4 t ||C||_2)) equal panels that green_covariance used to
    apply.  Summed panel by panel: with width h, F = e^{-Ch} and V the
    one-panel sum over u in [0, h], W = sum_m F^m V F^mT; these are the same
    nodes and weights as the per-node exponentials (5e-15 apart on the
    cases below) at a fraction of the cost."""
    panels = max(16, math.ceil(4.0 * t * np.linalg.norm(spec.C, 2)))
    h = t / panels
    x, w = np.polynomial.legendre.leggauss(8)
    G = scipy.linalg.expm(-0.5 * h * (1.0 - x)[:, None, None] * spec.C)
    V = np.einsum("n,nij,jk,nlk->il", 0.5 * h * w, G, spec.D, G)
    F = scipy.linalg.expm(-h * spec.C)
    W = V
    for _ in range(panels - 1):
        W = V + F @ W @ F.T
    return 0.5 * (W + W.T)


def seeded_system(d, rank, seed):
    """Positively stable C (min Re eig in [0.2, 1.2]) and D = B B^T, B d x rank."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d))
    C = G + (0.2 + rng.uniform() - np.linalg.eigvals(G).real.min()) * np.eye(d)
    B = rng.standard_normal((d, rank))
    return hp.SystemSpec(D=B @ B.T, C=C)


GREEN_SYSTEMS = [pytest.param(lambda: hp.SystemSpec(**FIG1B), id="fig1b")] + [
    pytest.param(lambda d=d, r=r: seeded_system(d, r, 100 * d + r), id=f"d{d}-rank{r}")
    for d in (3, 4, 6, 10) for r in (1, d)
]


@pytest.mark.parametrize("make", GREEN_SYSTEMS)
def test_green_covariance_matches_panel_rule(make):
    spec = make()
    for t in (1e-5, 1e-3, 0.1, 1.0, 5.0, 30.0, 100.0):
        W, ref = hp.green_covariance(spec, t), panel_rule(spec, t)
        assert np.linalg.norm(W - ref, 2) <= 1e-13 * np.linalg.norm(ref, 2), t


def test_green_covariance_small_time_eigenvalue():
    # W(t) ~ [[t, -t^2/2], [-t^2/2, t^3/3]] for FIG1B: smallest eigenvalue t^3/12.
    t = 1e-5
    lam = np.linalg.eigvalsh(hp.green_covariance(hp.SystemSpec(**FIG1B), t))[0]
    assert lam == pytest.approx(t ** 3 / 12.0, rel=1e-4)


def test_green_covariance_without_drift_is_tD():
    D = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])
    for t in (0.0, 0.3, 7.0):
        W = hp.green_covariance(hp.SystemSpec(D=D, C=np.zeros((3, 3))), t)
        assert np.allclose(W, t * D, rtol=1e-15, atol=0.0)
