import numpy as np
import pytest

from hypofp import linalg


class TestEigenStructure:
    def test_identity(self):
        es = linalg.eigen_structure(np.eye(3))
        assert es.eigenvalues == (1.0 + 0j,)
        assert es.algebraic == (3,)
        assert es.geometric == (3,)
        assert all(ch.length == 1 for ch in es.chains)

    def test_canonical_jordan_block(self):
        es = linalg.eigen_structure(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert es.eigenvalues == (1.0 + 0j,)
        assert es.algebraic == (2,)
        assert es.geometric == (1,)
        assert len(es.chains) == 1
        assert es.chains[0].length == 2

    def test_triangular_distinct(self):
        M = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 1.0, 3.0]])
        es = linalg.eigen_structure(M)
        assert sorted(lam.real for lam in es.eigenvalues) == [1.0, 2.0, 3.0]
        assert es.geometric == es.algebraic == (1, 1, 1)

    def test_chain_relation(self, rng):
        # Random conjugated Jordan form: chains must satisfy
        # (M - lam I) w_{k+1} = w_k within tol * ||M|| * ||w||.
        S = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        J = np.array([[2.0, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 0], [0, 0, 0, 5.0]])
        M = S @ J @ np.linalg.inv(S)
        # The 3-chain splits numerically like eps^(1/3) ~ 1e-5, so the
        # clustering tolerance has to sit above that.
        es = linalg.eigen_structure(M, tol=1e-4)
        assert sum(es.algebraic) == 4
        nM = np.linalg.norm(M, 2)
        for ch in es.chains:
            A = M - ch.eigenvalue * np.eye(4)
            assert np.linalg.norm(A @ ch.vectors[0]) <= 1e-4 * nM
            for k in range(ch.length - 1):
                resid = A @ ch.vectors[k + 1] - ch.vectors[k]
                assert np.linalg.norm(resid) <= 1e-4 * nM * np.linalg.norm(ch.vectors[k + 1])

    def test_ambiguous_clustering_raises(self):
        # Two eigenvalues separated by ~1.5*tol: mergeable nor separable.
        M = np.diag([1.0, 1.0 + 1.5e-8])
        with pytest.raises(linalg.ClusteringError):
            linalg.eigen_structure(M, tol=1e-8)

    def test_multiplicity_sums(self, rng):
        for _ in range(10):
            M = rng.standard_normal((4, 4))
            es = linalg.eigen_structure(M)
            assert sum(es.algebraic) == 4
            assert all(g <= a for g, a in zip(es.geometric, es.algebraic))


def reference_clusters(w, tol_abs):
    """Union-find single linkage over all pairs, clusters in order of their
    smallest index."""
    parent = list(range(len(w)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if abs(w[i] - w[j]) <= tol_abs:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(w)):
        groups.setdefault(find(i), []).append(i)
    return [np.array(idx) for idx in groups.values()]


class TestSimpleEigenvalues:
    def test_chains_are_unit_kernel_vectors(self, rng):
        for d in (2, 3, 5, 8, 10):
            for _ in range(5):
                M = rng.standard_normal((d, d))
                es = linalg.eigen_structure(M)
                assert es.algebraic == es.geometric == (1,) * d
                tol_M = linalg.DEFAULT_CLUSTER_TOL * np.linalg.norm(M, 2)
                for ch in es.chains:
                    w = ch.vectors[0]
                    assert ch.length == 1
                    assert abs(np.linalg.norm(w) - 1.0) <= 1e-14
                    assert np.linalg.norm(M @ w - ch.eigenvalue * w) <= tol_M

    def test_clusters_match_pairwise_linkage(self, rng):
        tol = 1e-3
        # A chain of four points whose smallest index sits at one end.
        got, _ = linalg._cluster_eigenvalues(np.array([0.0, 0.7e-3, 1.4e-3, 2.1e-3, 1.0]), tol)
        assert [list(c) for c in got] == [[0, 1, 2, 3], [4]]
        for _ in range(50):
            # Points on a coarse grid plus jitter, so that chains of close
            # points link clusters whose end points are far apart.
            n = int(rng.integers(1, 12))
            w = rng.integers(0, 6, n) * 0.7e-3 + 1j * rng.integers(0, 2, n) + rng.uniform(0, 1e-5, n)
            try:
                got, centers = linalg._cluster_eigenvalues(w, tol)
            except linalg.ClusteringError:
                continue
            ref = reference_clusters(w, tol)
            assert [list(c) for c in got] == [list(c) for c in ref]
            assert list(centers) == [np.mean(w[c]) for c in ref]

    def test_ambiguous_message_names_first_pair(self):
        w = np.array([0.0, 3.0, 1.5e-8, 3.0 + 1.5e-8])
        with pytest.raises(linalg.ClusteringError, match=r"centers 0 and 1\.5e-08 are within"):
            linalg._cluster_eigenvalues(w, 1e-8)


class TestMatrixExponential:
    def test_t_zero(self, rng):
        M = rng.standard_normal((3, 3))
        assert np.allclose(linalg.matrix_exponential(M, 0.0), np.eye(3))

    def test_diagonal(self):
        out = linalg.matrix_exponential(np.diag([1.0, -2.0]), 0.5)
        assert np.allclose(out, np.diag([np.exp(0.5), np.exp(-1.0)]), rtol=1e-13)

    def test_nilpotent(self):
        out = linalg.matrix_exponential(np.array([[0.0, 1.0], [0.0, 0.0]]), 3.0)
        assert np.allclose(out, [[1.0, 3.0], [0.0, 1.0]], atol=1e-14)

    def test_semigroup(self, rng):
        M = rng.standard_normal((3, 3))
        M *= 10.0 / (np.linalg.norm(M, 2) * 3.0)
        E1 = linalg.matrix_exponential(M, 1.2)
        E2 = linalg.matrix_exponential(M, 1.8)
        E3 = linalg.matrix_exponential(M, 3.0)
        assert np.linalg.norm(E1 @ E2 - E3, 2) <= 1e-10 * np.linalg.norm(E3, 2)


class TestSolveLyapunov:
    def test_identity(self):
        assert np.allclose(linalg.solve_lyapunov(np.eye(2), np.eye(2)), np.eye(2))

    def test_rotation_example(self):
        # Strongly rotational drift with unequal diffusion: K is still the
        # identity (checked by substitution).
        C = np.array([[0.25, -4.0], [4.0, 1.0]])
        D = np.diag([0.25, 1.0])
        K = linalg.solve_lyapunov(C, D)
        assert np.allclose(K, np.eye(2), atol=1e-12)

    def test_degenerate_diffusion(self):
        C = np.array([[1.0, -1.0], [1.0, 0.0]])
        D = np.diag([1.0, 0.0])
        K = linalg.solve_lyapunov(C, D)
        assert np.allclose(K, np.eye(2), atol=1e-12)
        assert np.linalg.norm(2 * D - C @ K - K @ C.T, 2) <= 1e-12

    def test_symmetry_and_residual(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            C = rng.standard_normal((d, d))
            C += (0.2 - min(np.linalg.eigvals(C).real)) * np.eye(d)
            B = rng.standard_normal((d, d))
            D = B @ B.T
            K = linalg.solve_lyapunov(C, D)
            assert np.linalg.norm(K - K.T, 2) <= 1e-12 * max(np.linalg.norm(K, 2), 1.0)
            resid = np.linalg.norm(2 * D - C @ K - K @ C.T, 2)
            bound = 1e-10 * (np.linalg.norm(C, 2) * np.linalg.norm(K, 2) + np.linalg.norm(D, 2))
            assert resid <= bound

    def test_not_stable_raises(self):
        # Eigenvalues +1 and -1 sum to zero: singular Kronecker system.
        with pytest.raises(np.linalg.LinAlgError):
            linalg.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


class TestSpdUtilities:
    def test_min_sym_eigenvalue(self):
        assert linalg.min_sym_eigenvalue(np.eye(3)) == pytest.approx(1.0)
        assert linalg.min_sym_eigenvalue(np.diag([2.0, -3.0])) == pytest.approx(-3.0)
        val = linalg.min_sym_eigenvalue(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert val == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, abs=1e-12)

    def test_sqrt_spd(self):
        assert np.allclose(linalg.sqrt_spd(np.eye(2)), np.eye(2))
        assert np.allclose(linalg.sqrt_spd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        S = linalg.sqrt_spd(M)
        assert np.linalg.norm(S @ S - M, 2) <= 1e-10 * np.linalg.norm(M, 2)
        assert sorted(np.linalg.eigvalsh(S)) == pytest.approx([1.0, np.sqrt(3.0)])

    def test_sqrt_spd_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            linalg.sqrt_spd(np.diag([1.0, -0.5]))
