from fractions import Fraction

import numpy as np
import pytest

import hypofp as hp
from hypofp import certificates as cert, linalg
from conftest import make_defective_minimal_system, make_random_system

SEC8 = dict(D=np.diag([0.25, 1.0]), C=np.array([[0.25, -4.0], [4.0, 1.0]]))
FIG1B = dict(D=np.diag([1.0, 0.0]), C=np.array([[1.0, -1.0], [1.0, 0.0]]))


def _three_dim():
    spec = hp.SystemSpec(
        D=np.diag([1.0, 1.0, 0.0]),
        C=np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 1.0, 3.0]]),
    )
    return spec, hp.steady_state(spec)


def _jordan_block_steady_state():
    C = np.array([[1.0, 0.0], [1.0, 1.0]])
    return hp.steady_state(hp.SystemSpec(D=0.5 * (C + C.T), C=C))


class TestChainWeights:
    def test_length_one(self):
        assert np.array_equal(cert._chain_weights(1, 0.5), [1.0])

    def test_length_three(self):
        # c = (1, 2, 5); b^j = c_j tau^{2(1-j)}; column order w1..w3 is
        # (b^3, b^2, b^1).
        tau = 0.5
        b = cert._chain_weights(3, tau)
        assert b == pytest.approx([5.0 * tau ** -4, 2.0 * tau ** -2, 1.0])

    def test_weights_grow_toward_eigenvector(self):
        b = cert._chain_weights(4, 0.3)
        assert np.all(np.diff(b) < 0) and b[-1] == 1.0


class TestBuildP:
    def test_symmetric_identity(self):
        ss = hp.steady_state(hp.SystemSpec(D=np.eye(2), C=np.eye(2)))
        tm = hp.build_P(ss)
        assert tm.construction == "eigen-sum"
        assert tm.kappa == pytest.approx(1.0)
        assert tm.epsilon == 0.0
        # Orthonormal eigenvectors with unit weights give P = I.
        assert np.allclose(tm.P, np.eye(2), atol=1e-12)

    def test_three_dim_example(self):
        # Triangular drift with one defective-free spectrum {1, 2, 3}:
        # the certified rate equals mu = 1 and P passes verification.
        spec, ss = _three_dim()
        tm = hp.build_P(ss)
        assert tm.kappa == pytest.approx(1.0)
        margin = hp.verify_P(ss, tm.P, tm.kappa)
        assert margin >= -tm.margin_tolerance

    def test_reference_P_three_dim(self):
        # Known admissible transport matrix for the same system with
        # exactly zero margin at kappa = mu = 1.
        spec, ss = _three_dim()
        P = np.array([[2.0, 0, 0], [0, 61.0, -11.0], [0, -11.0, 2.0]])
        margin = hp.verify_P(ss, P, 1.0)
        assert abs(margin) <= 1e-10 * np.linalg.norm(P, 2)

    def test_defective_literal(self):
        # C = Q^T with D = (C + C^T)/2 gives K = I exactly, so Q is the 2x2
        # Jordan block at 1: the rate mu = 1 is not certifiable, 1 - eps is.
        ss = _jordan_block_steady_state()
        assert np.array_equal(ss.K, np.eye(2)) and np.array_equal(ss.Q, [[1.0, 1.0], [0.0, 1.0]])
        eps = 0.05
        tm = hp.build_P(ss, epsilon=eps)
        assert tm.construction == "jordan"
        assert tm.kappa == pytest.approx(1.0 - eps)
        assert hp.verify_P(ss, tm.P, tm.kappa) >= -tm.margin_tolerance
        # Chain columns are (w, h) = (e1, e2) so with tau = 2 eps the
        # weighted product gives P = diag(2) blocks:
        tau = 2 * eps
        expected = np.array([[2.0 * tau ** -2, 0.0], [0.0, 1.0]])
        assert np.allclose(tm.P, expected, rtol=1e-10)

    def test_defective_default_epsilon(self):
        tm = hp.build_P(_jordan_block_steady_state())
        assert tm.epsilon == pytest.approx(cert.DEFAULT_EPSILON_FACTOR * 1.0)

    def test_defective_rejects_nonpositive_epsilon(self):
        with pytest.raises(cert.CertificateError, match="defective"):
            hp.build_P(_jordan_block_steady_state(), epsilon=0.0)

    def test_complex_pair_real_P(self):
        spec = hp.SystemSpec(**SEC8)
        ss = hp.steady_state(spec)
        tm = hp.build_P(ss)
        assert tm.P.dtype == float
        assert np.array_equal(tm.P, tm.P.T)
        assert hp.verify_P(ss, tm.P, tm.kappa) >= -tm.margin_tolerance
        assert tm.kappa == pytest.approx(0.625, abs=1e-12)

    def test_conjugate_weights_enforced(self):
        spec = hp.SystemSpec(**SEC8)
        ss = hp.steady_state(spec)
        with pytest.raises(cert.CertificateError):
            hp.build_P(ss, weights=np.array([1.0, 2.0]))

    def test_random_systems_verify(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            spec, report = make_random_system(rng, d)
            ss = hp.steady_state(spec)
            tm = hp.build_P(ss)
            margin = hp.verify_P(ss, tm.P, tm.kappa)
            assert margin >= -tm.margin_tolerance
            assert tm.kappa == pytest.approx(report.mu, rel=1e-8)

    def test_random_defective_verify(self, rng):
        for _ in range(10):
            spec = make_defective_minimal_system(rng)
            ss = hp.steady_state(spec)
            tm = hp.build_P(ss)
            assert tm.construction == "jordan"
            margin = hp.verify_P(ss, tm.P, tm.kappa)
            assert margin >= -tm.margin_tolerance
            assert tm.kappa < spec.eig.mu

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_defective_builder_is_exact(self, rng, d):
        # C = S J S^-1 with exact S^-1: the default clustering of spec.eig
        # finds the 2-chain at mu and no other minimal chain.
        for _ in range(10):
            eig = make_defective_minimal_system(rng, d).eig
            assert [ch.length for ch in eig.minimal_chains()] == [2]

    def test_inexactly_defective_verify_or_refuse(self):
        # A dense conjugation S J S^-1 (S = randn + 2I) splits the double
        # eigenvalue by about sqrt(roundoff): at the default clustering each
        # draw is either refused as ambiguous or certified, and every
        # certificate verifies.
        rng = np.random.default_rng(20260824)
        outcomes = set()
        for _ in range(100):
            S = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
            mu = 0.5 + rng.uniform(0.0, 1.0)
            J = np.diag([mu, mu, mu + 1.0])
            J[0, 1] = 1.0
            ss = hp.steady_state(hp.SystemSpec(D=np.eye(3), C=S @ J @ np.linalg.inv(S)))
            try:
                tm = hp.build_P(ss)
            except linalg.ClusteringError:
                outcomes.add("ambiguous")
                continue
            outcomes.add(tm.construction)
            assert hp.verify_P(ss, tm.P, tm.kappa) >= -tm.margin_tolerance
        assert {"ambiguous", "jordan"} <= outcomes

    def test_inflated_kappa_fails(self, rng):
        for _ in range(10):
            spec, report = make_random_system(rng, 3)
            ss = hp.steady_state(spec)
            tm = hp.build_P(ss)
            margin = hp.verify_P(ss, tm.P, 1.05 * tm.kappa + 0.05)
            assert margin < -tm.margin_tolerance

    def test_chains_of_Q_from_the_eigenstructure_of_C(self, rng):
        # Simple eigenvalues fix each chain of Q up to a phase, so P from C's
        # eigenstructure equals the eigen-sum over eigen_structure(Q).
        for _ in range(10):
            spec, _ = make_random_system(rng, int(rng.integers(2, 6)))
            ss = hp.steady_state(spec)
            eig_Q = linalg.eigen_structure(ss.Q)
            if any(ch.length > 1 for ch in eig_Q.chains):
                continue
            P = sum(np.outer(ch.vectors[0], ch.vectors[0].conj()) for ch in eig_Q.chains).real
            np.testing.assert_allclose(hp.build_P(ss).P, P, rtol=1e-8, atol=1e-10)

    def test_steady_state_without_a_spec_needs_eig(self, rng):
        # C is not recovered from K and Q: a steady state without a spec is refused.
        spec, _ = make_random_system(rng, 4)
        ss = hp.steady_state(spec)
        bare = hp.SteadyState(K=ss.K, cK=ss.cK, R=ss.R, Q=ss.Q)
        assert ss.spec is spec and bare.spec is None
        with pytest.raises(cert.CertificateError, match="without a spec"):
            hp.build_P(bare)
        with pytest.raises(cert.CertificateError, match="without a spec"):
            hp.optimize_weights(bare, np.eye(4))

    def test_verify_rejects_indefinite(self):
        ss = hp.steady_state(hp.SystemSpec(D=np.eye(2), C=np.eye(2)))
        with pytest.raises(cert.CertificateError):
            hp.verify_P(ss, np.diag([1.0, -1.0]), 0.5)


class TestLambdaConstants:
    def test_lambda_P_identity(self):
        assert hp.lambda_P(np.eye(2), np.eye(2)) == pytest.approx(1.0)
        assert hp.lambda_P(np.eye(2), 4.0 * np.eye(2)) == pytest.approx(4.0)

    def test_lambda_P_three_dim(self):
        _, ss = _three_dim()
        P = np.array([[2.0, 0, 0], [0, 61.0, -11.0], [0, -11.0, 2.0]])
        assert hp.lambda_P(ss.K, P) == pytest.approx(1.2117, abs=5e-4)

    def test_lambda_K_sec8(self):
        spec = hp.SystemSpec(**SEC8)
        ss = hp.steady_state(spec)
        assert hp.compare_rates(spec, ss).lambda_K == pytest.approx(0.25, abs=1e-12)

    def test_lambda_P_variational(self, rng):
        # K^{-1} - lam_P P^{-1} is PSD and singular at the optimum.
        spec, _ = make_random_system(rng, 3, rank=3)
        ss = hp.steady_state(spec)
        tm = hp.build_P(ss)
        lam = hp.lambda_P(ss.K, tm.P)
        M = np.linalg.inv(ss.K) - lam * np.linalg.inv(tm.P)
        w = np.linalg.eigvalsh(0.5 * (M + M.T))
        assert w[0] >= -1e-10 * max(abs(w).max(), 1.0)
        assert abs(w[0]) <= 1e-8 * max(abs(w).max(), 1.0)

    def test_scaling_covariance(self, rng):
        # Scaling all chain weights by s scales P and lambda_P by s; since
        # S0 is linear in P, the amplitude S0/(2 lam_P) is invariant.
        spec, _ = make_random_system(rng, 3)
        ss = hp.steady_state(spec)
        n = len(spec.eig.chains)
        tm1 = hp.build_P(ss, weights=np.ones(n))
        s = 3.7
        tm2 = hp.build_P(ss, weights=s * np.ones(n))
        assert np.allclose(tm2.P, s * tm1.P, rtol=1e-12)
        lam1 = hp.lambda_P(ss.K, tm1.P)
        lam2 = hp.lambda_P(ss.K, tm2.P)
        assert lam2 == pytest.approx(lam1 * s, rel=1e-10)


class TestCompareRates:
    def test_sec8(self):
        spec = hp.SystemSpec(**SEC8)
        ss = hp.steady_state(spec)
        dc = hp.compare_rates(spec, ss)
        assert dc.lambda_K == pytest.approx(0.25, abs=1e-12)
        assert dc.mu == pytest.approx(0.625, abs=1e-12)
        assert dc.rate == pytest.approx(1.25, abs=1e-12)
        assert dc.cond_sq_bound is not None
        assert dc.lambda_K <= dc.mu <= dc.cond_sq_bound + 1e-9

    def test_symmetric_equality(self):
        # Normal drift commuting with D: both bounds collapse to mu.
        spec = hp.SystemSpec(D=np.eye(2), C=np.diag([1.0, 2.0]))
        ss = hp.steady_state(spec)
        dc = hp.compare_rates(spec, ss)
        assert dc.lambda_K == pytest.approx(1.0, abs=1e-12)
        assert dc.mu == pytest.approx(1.0, abs=1e-12)
        assert dc.cond_sq_bound == pytest.approx(1.0, abs=1e-9)

    def test_random_sandwich(self, rng):
        for _ in range(10):
            spec, _ = make_random_system(rng, 3, rank=3)
            ss = hp.steady_state(spec)
            dc = hp.compare_rates(spec, ss)  # raises on violation
            assert dc.lambda_K <= dc.mu + 1e-10

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8, 1e9])
    @pytest.mark.parametrize("C0", [np.eye(2), np.array([[1.0, 0.3], [0.3, 2.0]])],
                             ids=["identity", "symmetric"])
    def test_slacks_relative_to_C(self, scale, C0):
        # D = I and a symmetric C: K = C^-1, so lambda_K = mu = lambda_min(C)
        # and cond(A~) = 1.  At 1e8 and 1e9 the three agree only to ulps of
        # mu, far above an absolute slack of 1e-10 or 1e-9.
        spec = hp.SystemSpec(D=np.eye(2), C=scale * C0)
        dc = hp.compare_rates(spec, hp.steady_state(spec))
        assert dc.mu == pytest.approx(scale * np.linalg.eigvalsh(C0)[0], rel=1e-13)
        assert dc.lambda_K == pytest.approx(dc.mu, rel=1e-12)
        assert dc.cond_sq_bound == pytest.approx(dc.mu, rel=1e-12)

    def test_degenerate_D_rejected(self):
        spec = hp.SystemSpec(**FIG1B)
        ss = hp.steady_state(spec)
        with pytest.raises(np.linalg.LinAlgError):
            hp.compare_rates(spec, ss)

    def test_steady_state_of_another_system_rejected(self):
        # D = I: ss is that of C = I + J, spec has C = 3I + J.  Read together they
        # would fail spec's conditioning bound (mu = 3 > 1), a fault of neither.
        spec = hp.SystemSpec(D=np.eye(2), C=np.array([[3.0, -1.0], [1.0, 3.0]]))
        ss = hp.steady_state(hp.SystemSpec(D=np.eye(2), C=np.array([[1.0, -1.0], [1.0, 1.0]])))
        with pytest.raises(ValueError, match="another system"):
            hp.compare_rates(spec, ss)
        own = hp.steady_state(spec)
        bare = hp.SteadyState(K=own.K, cK=own.cK, R=own.R, Q=own.Q)  # no spec: read as spec's
        for state in (own, bare):
            assert hp.compare_rates(spec, state).mu == pytest.approx(3.0, rel=1e-12)

    def test_numerically_singular_D_rejected(self):
        # lambda_min / lambda_max(D) = 1e-400 is rank 1 by spec.rank_D; the
        # comparison refuses it rather than returning lambda_K = 0 and a NaN bound.
        spec = hp.SystemSpec(D=np.diag([1e-200, 1e200]), C=np.array([[1.0, -1.0], [1.0, 1.0]]))
        assert spec.rank_D == 1
        with pytest.raises(np.linalg.LinAlgError, match="rank 1 < 2"):
            hp.compare_rates(spec, hp.steady_state(spec))


class TestEnvelope:
    def test_arithmetic(self):
        amp, rate = hp.entropy_envelope(kappa=0.625, lam_P=2.0, S0=8.0)
        assert amp == pytest.approx(2.0)
        assert rate == pytest.approx(1.25)

    def test_invalid_S0(self):
        with pytest.raises(cert.CertificateError):
            hp.entropy_envelope(1.0, 1.0, -1.0)
        with pytest.raises(cert.CertificateError):
            hp.entropy_envelope(1.0, 1.0, np.inf)


class TestOptimizeWeights:
    def test_improves_amplitude(self, rng):
        spec, _ = make_random_system(rng, 3)
        ss = hp.steady_state(spec)
        from hypofp import entropy as ent

        v0 = rng.standard_normal(3)
        f0 = ent.shifted_steady(ss, v0)
        # The log dissipation matrix of the shifted state is u u^T, u = K^-1 v0.
        u = np.linalg.solve(ss.K, v0)

        def S0_of_P(P):
            return np.vdot(P, hp.gaussian_log_functionals(v0, ss.K, ss)[1])

        tm0 = hp.build_P(ss)
        amp0 = S0_of_P(tm0.P) / (2.0 * hp.lambda_P(ss.K, tm0.P))
        tm = hp.optimize_weights(ss, np.outer(u, u))
        amp = S0_of_P(tm.P) / (2.0 * hp.lambda_P(ss.K, tm.P))
        assert amp <= amp0 + 1e-12
        assert hp.verify_P(ss, tm.P, tm.kappa) >= -tm.margin_tolerance


def _draw_controllable(rng, d, rank):
    """Random (C, B) screened as the certify-sweep benchmark draws them: PBH
    controllability margin >= 1e-3 and min Re eig(C) >= 0.2."""
    while True:
        G = rng.standard_normal((d, d))
        C = G + (0.2 + rng.uniform() - np.linalg.eigvals(G).real.min()) * np.eye(d)
        B = rng.standard_normal((d, rank))
        eigs = np.linalg.eigvals(C)
        pbh = min(np.linalg.svd(np.hstack([C - lam * np.eye(d), B]), compute_uv=False)[-1]
                  for lam in eigs) / np.linalg.norm(np.hstack([C, B]), 2)
        if pbh >= 1e-3 and eigs.real.min() >= 0.2:
            return hp.SystemSpec(D=B @ B.T, C=C)


@pytest.mark.parametrize("d", [6, 8, 10])
def test_rank_one_sweep(d):
    # Rank-1 D: cond K runs from 5e4 to 2e15 on these draws.  build_P reads
    # C's eigenstructure, and no draw, with or without a steady state, meets
    # an ambiguous clustering of it (in Q's, 47 of the 60 did).  Every certificate built on a steady state verifies,
    # at the sharp rate when the minimal eigenvalues are simple.  Where K is
    # singular to roundoff, the steady state is assembled from the matrices
    # alone, as the certify-sweep benchmark does, and build_P refuses it.
    rng = np.random.default_rng(1700 + d)
    certified = 0
    for _ in range(20):
        spec = _draw_controllable(rng, d, 1)
        try:
            ss = hp.steady_state(spec)
        except np.linalg.LinAlgError:
            K = linalg.solve_lyapunov(spec.C, spec.D)
            bare = hp.SteadyState(K=K, cK=np.nan, R=np.zeros((d, d)),
                                  Q=np.linalg.solve(K, spec.C @ K).T)
            assert spec.eig.mu >= 0.2 - 1e-12  # C clusters unambiguously here too
            with pytest.raises(cert.CertificateError, match="without a spec"):
                hp.build_P(bare)
            continue
        try:
            tm = hp.build_P(ss)
        except cert.CertificateError:  # P singular to roundoff
            assert np.linalg.cond(ss.K) > 1e8
            continue
        certified += 1
        assert hp.verify_P(ss, tm.P, tm.kappa) >= -tm.margin_tolerance
        assert hp.lambda_P(ss.K, tm.P) > 0.0
        eigs = np.linalg.eigvals(spec.C)
        mu = eigs.real.min()
        minimal = np.flatnonzero(eigs.real - mu <= 1e-8 * linalg._scale(spec.C))
        if all(np.sort(np.abs(eigs - eigs[i]))[1] > 1e-6 for i in minimal):
            assert tm.kappa == pytest.approx(mu, rel=1e-12)
    assert certified >= 4


def _positive_definite(M) -> bool:
    """Whether the symmetric matrix M (rows of Fractions) is positive
    definite, exactly: every pivot of its LDL^T factorisation is positive."""
    A = [row[:] for row in M]
    for k in range(len(A)):
        if A[k][k] <= 0:
            return False
        for i in range(k + 1, len(A)):
            f = A[i][k] / A[k][k]
            for j in range(k + 1, i + 1):
                A[i][j] -= f * A[j][k]
    return True


def test_lambda_P_passes_an_exact_bracket_when_K_is_ill_conditioned():
    # lambda_P(K, P) is the largest c with P - c K >= 0.  Rank-1 draws at
    # d = 6..10 with cond K in [1e7, 1e12] against a well-conditioned SPD P:
    # the pencil of the two stored matrices is then determined to roundoff,
    # and the bracket judges how lambda_P treats K.  In rational arithmetic,
    # P - c K is positive definite at c = lambda_P (1 - 1e-6) and not at
    # c = lambda_P (1 + 1e-6).  The K^{-1} formula lambda_min(W K^{-1} W)
    # misses the bracket on 3 of these 12 draws (cond K 7e10, 2e11 and 6e11);
    # on 43 such draws the pencil form was within 3e-15 of a 50-digit value
    # and the K^{-1} formula up to 4e-5 off.
    rng = np.random.default_rng(2100)
    conds = []
    while len(conds) < 12:
        d = int(rng.integers(6, 11))
        spec = _draw_controllable(rng, d, 1)
        K = linalg.solve_lyapunov(spec.C, spec.D)
        cond = np.linalg.cond(K)
        if not 1e7 <= cond <= 1e12:
            continue
        conds.append(cond)
        A = rng.standard_normal((d, d))
        P = A @ A.T + d * np.eye(d)
        lam = hp.lambda_P(K, P)
        for c, definite in ((lam * (1.0 - 1e-6), True), (lam * (1.0 + 1e-6), False)):
            c = Fraction(c)
            M = [[Fraction(p) - c * Fraction(k) for p, k in zip(rp, rk)]
                 for rp, rk in zip(P.tolist(), K.tolist())]
            assert _positive_definite(M) == definite, (d, cond, float(c) / lam)
    assert max(conds) > 1e11
