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

    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e4, 1e8])
    def test_multiplicities_free_of_the_units(self, s):
        # Kernel ranks are taken against ||(M - lam I)^k|| / ||M||^k and chain
        # tops against the dimensionless tol, so scaling M keeps the Jordan
        # structure (thresholds growing with ||M||^2 and ||M|| made both 1e8
        # cases a ClusteringError).
        simple = linalg.eigen_structure(s * np.diag([1.0, 2.0]))
        assert simple.algebraic == simple.geometric == (1, 1)
        jordan = linalg.eigen_structure(s * np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert (jordan.algebraic, jordan.geometric) == ((2,), (1,))
        assert [ch.length for ch in jordan.chains] == [2]

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
                tol_M = linalg.TOL.cluster * np.linalg.norm(M, 2)
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


# ---------------------------------------------------------------------------
# The stacked first kernel step against the per-cluster loop it replaced


def _per_cluster_eigen_structure(M, tol):
    """Clustering by labels and means for every cluster, then one SVD of
    (M - lam I)^k per cluster and step; returns (eigenvalues, algebraic,
    geometric, chains) as eigen_structure builds them."""
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    tol_abs = tol * linalg._scale(M)
    w = np.linalg.eigvals(M)
    near = np.abs(w[:, None] - w[None, :]) <= tol_abs
    labels, prev = np.arange(len(w)), None
    while not np.array_equal(labels, prev):
        labels, prev = np.where(near, labels, len(w)).min(axis=1), labels
    clusters = [np.flatnonzero(labels == lab) for lab in np.unique(labels)]
    centers = np.array([np.mean(w[idx]) for idx in clusters])
    a, b = np.nonzero(np.triu(np.abs(centers[:, None] - centers[None, :]) <= 2.0 * tol_abs, 1))
    if len(a):
        raise linalg.ClusteringError(
            "ambiguous eigenvalue clustering: centers "
            f"{centers[a[0]]:.6g} and {centers[b[0]]:.6g} are within "
            f"2*tol = {2 * tol_abs:.3g}"
        )
    out = ([], [], [], [])
    Mc = M.astype(complex)
    for center, idx in sorted(zip(centers, clusters), key=lambda cc: (cc[0].real, cc[0].imag)):
        lam = complex(center)
        if abs(lam.imag) <= tol_abs:
            lam = complex(lam.real, 0.0)
        alg = len(idx)
        A = Mc - lam * np.eye(d)
        null_bases, Ak, dims, k = [], np.eye(d, dtype=complex), [0], 0
        while dims[-1] < alg and k < d:
            k += 1
            Ak = Ak @ A
            _, sv, Vh = np.linalg.svd(Ak)
            rank = int(np.sum(sv > tol_abs * max(1.0, sv[0])))
            null_bases.append(Vh[rank:].conj().T)
            dims.append(d - rank)
        if dims[-1] != alg:
            raise linalg.ClusteringError(
                f"generalized eigenspace of {lam:.6g} has numerical dimension "
                f"{dims[-1]} != algebraic multiplicity {alg}"
            )
        chains_ge = [dims[j] - dims[j - 1] for j in range(1, k + 1)]
        if alg == 1:
            lam_chains = [linalg._chain_top(null_bases[0], tol_abs)[None, :]]
        else:
            lam_chains = linalg._build_chains(A, null_bases, chains_ge, tol_abs)
        for part, value in zip(out, (lam, alg, dims[1])):
            part.append(value)
        out[3].extend(linalg.JordanChain(lam, ch) for ch in lam_chains)
    return out


def _bits(x):
    """Exact fingerprint: bytes of every float, the sign of zero included."""
    if isinstance(x, linalg.ClusteringError):
        return ("error", str(x))
    if isinstance(x, linalg.EigenStructure):
        x = (x.eigenvalues, x.algebraic, x.geometric, x.chains)
    eigenvalues, algebraic, geometric, chains = x
    return (np.array(eigenvalues, complex).tobytes(), tuple(algebraic), tuple(geometric),
            [(complex(ch.eigenvalue), ch.vectors.tobytes()) for ch in chains])


def _outcome(fn, M, tol):
    try:
        return _bits(fn(M, tol))
    except linalg.ClusteringError as exc:
        return _bits(exc)


def _jordan(lam, sizes):
    J = lam * np.eye(sum(sizes))
    start = 0
    for s in sizes:
        J[np.arange(start, start + s - 1), np.arange(start + 1, start + s)] = 1.0
        start += s
    return J


def test_batched_kernel_step_matches_per_cluster_loop(rng):
    cases = []
    for d in range(2, 11):
        cases += [(rng.standard_normal((d, d)), 1e-8) for _ in range(12)]
        # Exact zeros of both signs, repeated and conjugate eigenvalues.
        Z = rng.integers(-1, 2, (d, d)).astype(float)
        cases.append((np.where(Z == 0, -0.0, Z), 1e-8))
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rot = np.zeros((d, d))
        for i in range(0, d - 1, 2):
            a, b = rng.uniform(0.1, 2.0, 2)
            rot[i:i + 2, i:i + 2] = [[a, b], [-b, a]]
        rot[-1, -1] = rot[-1, -1] or 0.5
        cases += [(rot, 1e-8), (Q @ rot @ Q.T, 1e-8)]
        semisimple = np.diag(rng.integers(1, 3, d).astype(float))
        cases += [(semisimple, 1e-8), (Q @ semisimple @ Q.T, 1e-8)]
    S = rng.standard_normal((6, 6)) + 2.0 * np.eye(6)
    for lam in (0.5, -1.0):
        for sizes in ((3, 2, 1), (2, 2), (4, 1, 1)):
            J = _jordan(lam, sizes)
            n = len(J)
            cases += [(J, 1e-8), (S[:n, :n] @ J @ np.linalg.inv(S[:n, :n]), 1e-6)]
    # ||M|| < 1: the rank threshold is tol_abs * max(1, s_0), not tol_abs * s_0.
    cases.append((np.diag([0.0, 1e-9, 1e-2]), 1e-8))
    errors = [
        (np.diag([1.0, 1.0 + 1.5e-8]), 1e-8),  # ambiguous clustering
        # Simple eigenvalue 0 (others 1e-6, 3e-6) whose M - 0 I has two
        # singular values below tol: numerical dimension 2.
        (np.array([[0.0, 0.0, 0.0], [0.0, 1e-6, 1.0], [0.0, 0.0, 3e-6]]), 1e-8),
    ]
    for M, tol in cases + errors:
        want = _outcome(_per_cluster_eigen_structure, M, tol)
        assert _outcome(linalg.eigen_structure, M, tol) == want, (M, tol)
    messages = [_outcome(linalg.eigen_structure, M, tol) for M, tol in errors]
    assert messages[0][1].startswith("ambiguous eigenvalue clustering")
    assert "numerical dimension 2 != algebraic multiplicity 1" in messages[1][1]
    jordan = linalg.eigen_structure(_jordan(0.5, (3, 2, 1)))
    assert sorted(ch.length for ch in jordan.chains) == [1, 2, 3]


def test_eigen_structure_records_its_scale(rng):
    M = 5.0 * rng.standard_normal((4, 4))
    assert linalg.eigen_structure(M).scale == linalg._scale(M)
    assert linalg.eigen_structure(1e-3 * np.eye(2)).scale == 1.0


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

    @pytest.mark.parametrize("k", [-1000, 0, 1000])
    def test_power_of_two_scaling_is_exact(self, rng, k):
        # K(C, 2^k D) = 2^k K(C, D) bit for bit: D is solved for at a fixed
        # binary exponent, so at 2^1000 dtrsyl does not scale down to avoid overflow.
        C = rng.standard_normal((4, 4))
        C += (0.2 - min(np.linalg.eigvals(C).real)) * np.eye(4)
        B = rng.standard_normal((4, 2))
        D = B @ B.T
        K = linalg.solve_lyapunov(C, D)
        assert np.array_equal(linalg.solve_lyapunov(C, np.ldexp(D, k)), np.ldexp(K, k))


class TestSpdUtilities:
    def test_min_sym_eigenvalue(self):
        assert linalg.min_sym_eigenvalue(np.eye(3)) == pytest.approx(1.0)
        assert linalg.min_sym_eigenvalue(np.diag([2.0, -3.0])) == pytest.approx(-3.0)
        val = linalg.min_sym_eigenvalue(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert val == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, abs=1e-12)
