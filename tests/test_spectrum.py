import itertools
import time
from math import comb

import numpy as np
import pytest

import hypofp as hp
from hypofp import entropy as ent, linalg, spectrum
from conftest import assert_multisets_close, make_random_system

SEC8 = dict(D=np.diag([0.25, 1.0]), C=np.array([[0.25, -4.0], [4.0, 1.0]]))
FIG1B = dict(D=np.diag([1.0, 0.0]), C=np.array([[1.0, -1.0], [1.0, 0.0]]))


def ou_spec(d):
    return hp.SystemSpec(D=np.eye(d), C=np.eye(d))


def reference_multi_indices(d, m_max):
    """The filtered tensor-product enumeration the direct generator replaced."""
    for m in range(m_max + 1):
        degree = [a for a in itertools.product(range(m + 1), repeat=d) if sum(a) == m]
        yield from sorted(degree, reverse=True)


def reference_poly_matrix(spec, ss, basis):
    """Loop assembly of the generator on monomials, one term at a time, in the
    frame W = V diag(sqrt w) of the state's ``K_eigh`` (the frame
    poly_operator_matrix whitens by, so the assembly is compared bit for bit)."""
    d, n = spec.d, len(basis)
    index = {alpha: i for i, alpha in enumerate(basis)}
    V, r = ss.K_eigh[1], ss.sqrt_w
    G = (V.T @ spec.C @ V) * (r / r[:, None])
    D = (V.T @ spec.D @ V) / np.outer(r, r)
    M = np.zeros((n, n))
    for col, alpha in enumerate(basis):
        a = np.array(alpha)
        for l in range(d):
            if a[l] == 0:
                continue
            for j in range(d):
                if G[j, l] == 0.0:
                    continue
                target = a.copy()
                target[l] -= 1
                target[j] += 1
                M[index[tuple(target)], col] -= G[j, l] * a[l]
        for l in range(d):
            if a[l] == 0:
                continue
            for j in range(d):
                al = a.copy()
                al[l] -= 1
                if al[j] == 0 or D[j, l] == 0.0:
                    continue
                target = al.copy()
                target[j] -= 1
                M[index[tuple(target)], col] += D[j, l] * a[l] * al[j]
    return M


def draw_spec(rng, d, rank):
    """Random positively stable (D, C) with D of the given rank and a
    steady state whose K has a Cholesky factor."""
    while True:
        C = rng.standard_normal((d, d))
        C += (0.2 + rng.uniform() - np.linalg.eigvals(C).real.min()) * np.eye(d)
        B = rng.standard_normal((d, rank))
        spec = hp.SystemSpec(D=B @ B.T, C=C)
        try:
            ss = hp.steady_state(spec)
            np.linalg.cholesky(ss.K)
        except (ValueError, np.linalg.LinAlgError):
            continue
        return spec, ss


class TestMultiIndices:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_reference_order(self, d):
        for m in range(5):
            got = list(spectrum._multi_indices(d, m))
            assert got == list(reference_multi_indices(d, m))
            assert len(got) == comb(d + m, m)

    def test_cost_linear_in_output(self):
        # The tensor-product scan would take 3**30 steps here.
        t0 = time.perf_counter()
        assert len(list(spectrum._multi_indices(30, 2))) == 496
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("d, m", [(1, 0), (1, 1999), (2, 5), (5, 4), (30, 2)])
    def test_rank_inverts_enumeration(self, d, m):
        basis = np.array(list(spectrum._multi_indices(d, m))).reshape(-1, d)
        assert np.array_equal(spectrum._rank(basis, m), np.arange(len(basis)))


class TestEnumerate:
    def test_ou_low_degrees(self):
        # Isotropic C = I: eigenvalue -m with multiplicity C(d+m-1, m).
        d = 3
        eig = linalg.eigen_structure(np.eye(d))
        sp = hp.enumerate_spectrum(eig, 2)
        vals = sorted(v.real for v in sp.values())
        assert vals == [-2.0] * 6 + [-1.0] * 3 + [0.0]

    def test_sec8_degree_one(self):
        eig = linalg.eigen_structure(np.array(SEC8["C"]))
        sp = hp.enumerate_spectrum(eig, 1)
        omega = np.sqrt(1015.0) / 8.0
        expected = [0.0, -0.625 + 1j * omega, -0.625 - 1j * omega]
        assert_multisets_close(sp.values(), expected, atol=1e-12)

    def test_fig1b_alpha_labels(self):
        eig = linalg.eigen_structure(np.array(FIG1B["C"]))
        sp = hp.enumerate_spectrum(eig, 2)
        # lam = 1/2 +- i sqrt(3)/2; alpha = (1, 1) pairs conjugates into -1.
        by_alpha = {e.alpha: e.value for e in sp.entries}
        assert by_alpha[(1, 1)] == pytest.approx(-1.0, abs=1e-12)
        assert by_alpha[(0, 0)] == 0.0

    def test_count(self):
        eig = linalg.eigen_structure(np.diag([1.0, 2.0, 3.0]))
        sp = hp.enumerate_spectrum(eig, 4)
        from math import comb

        assert len(sp.entries) == comb(3 + 4, 4)

    def test_entry_count_is_capped_before_any_allocation(self, monkeypatch):
        eig = linalg.eigen_structure(np.array(SEC8["C"]))
        monkeypatch.setattr(spectrum, "ENTRY_CAP", 6)  # d = 2: comb(4, 2) = 6, comb(5, 2) = 10
        assert len(hp.enumerate_spectrum(eig, 2).entries) == 6
        with pytest.raises(ValueError, match="m_max = 3 at d = 2 lists 10 entries, above 6"):
            hp.enumerate_spectrum(eig, 3)
        # At the real cap, m_max = 100000 would list comb(100002, 2) ~ 5.0e9
        # entries: the count is refused before any multi-index is built.
        monkeypatch.undo()

        def fail(*args):
            raise AssertionError("multi-indices built above the entry cap")

        monkeypatch.setattr(spectrum, "_multi_indices", fail)
        with pytest.raises(ValueError, match="m_max = 100000 at d = 2 lists 5000150001 entries"):
            hp.enumerate_spectrum(eig, 100000)

    def test_defective_uses_all_eigenvalues(self):
        eig = linalg.eigen_structure(np.array([[1.0, 1.0], [0.0, 1.0]]))
        sp = hp.enumerate_spectrum(eig, 1)
        assert_multisets_close(sp.values(), [0.0, -1.0, -1.0], atol=1e-12)


class TestPolyOperatorMatrix:
    def test_degree_zero(self):
        spec = ou_spec(2)
        ss = hp.steady_state(spec)
        pm = hp.poly_operator_matrix(spec, ss, 0)
        assert pm.M.shape == (1, 1)
        assert pm.M[0, 0] == 0.0

    def test_degree_one_block_is_minus_drift(self):
        # On linear monomials the operator acts by -(K^{-1} C K)^T.
        spec = hp.SystemSpec(**SEC8)
        ss = hp.steady_state(spec)
        pm = hp.poly_operator_matrix(spec, ss, 1)
        ev = np.linalg.eigvals(pm.M)
        eig = linalg.eigen_structure(spec.C)
        expected = hp.enumerate_spectrum(eig, 1).values()
        assert_multisets_close(ev, expected, atol=1e-10)

    def test_ou_matches_oracle(self):
        d = 2
        spec = ou_spec(d)
        ss = hp.steady_state(spec)
        pm = hp.poly_operator_matrix(spec, ss, 2)
        ev = sorted(np.linalg.eigvals(pm.M).real)
        assert ev == pytest.approx([-2.0, -2.0, -2.0, -1.0, -1.0, 0.0], abs=1e-12)

    def test_block_triangular_by_degree(self):
        # Entries mapping low degree to higher degree must vanish.
        spec = hp.SystemSpec(**FIG1B)
        ss = hp.steady_state(spec)
        pm = hp.poly_operator_matrix(spec, ss, 3)
        deg = np.array([sum(a) for a in pm.basis])
        for i in range(len(deg)):
            for j in range(len(deg)):
                if deg[i] > deg[j]:
                    assert pm.M[i, j] == 0.0

    def test_cross_check_random(self, rng):
        for _ in range(5):
            spec, _ = make_random_system(rng, 2)
            ss = hp.steady_state(spec)
            eig = linalg.eigen_structure(spec.C)
            for m in (1, 2, 3):
                enum = hp.enumerate_spectrum(eig, m).values()
                brute = np.linalg.eigvals(hp.poly_operator_matrix(spec, ss, m).M)
                scale = max(1.0, np.abs(enum).max())
                assert_multisets_close(enum, brute, atol=1e-8 * scale)

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    @pytest.mark.parametrize("full_rank", [False, True], ids=["rank1", "full"])
    def test_matches_loop_assembly(self, rng, d, full_rank):
        spec, ss = draw_spec(rng, d, d if full_rank else 1)
        for m in (1, 2, 3):
            pm = hp.poly_operator_matrix(spec, ss, m)
            assert pm.basis == tuple(reference_multi_indices(d, m))
            assert np.array_equal(pm.M, reference_poly_matrix(spec, ss, pm.basis))

    def test_index_pattern_built_once_per_shape(self, rng):
        spectrum._operator_pattern.cache_clear()
        for _ in range(3):
            spec, ss = draw_spec(rng, 3, 1)
            hp.poly_operator_matrix(spec, ss, 2)
        info = spectrum._operator_pattern.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert not any(arr.flags.writeable for arr in spectrum._operator_pattern(3, 2))

    def test_d10_eigenvalues_match_enumeration(self, rng):
        spec, ss = draw_spec(rng, 10, 10)
        enum = hp.enumerate_spectrum(linalg.eigen_structure(spec.C), 2).values()
        brute = hp.poly_operator_matrix(spec, ss, 2).eigenvalues()
        assert_multisets_close(enum, brute, atol=1e-8 * max(1.0, np.abs(enum).max()))

    def test_spectral_gap_equals_mu(self, rng):
        for _ in range(5):
            spec, report = make_random_system(rng, 3)
            ss = hp.steady_state(spec)
            ev = np.linalg.eigvals(hp.poly_operator_matrix(spec, ss, 2).M)
            nonzero = sorted(-v.real for v in ev if abs(v) > 1e-8)
            assert nonzero[0] == pytest.approx(report.mu, abs=1e-10)

    def test_dimension_cap(self):
        spec = ou_spec(3)
        ss = hp.steady_state(spec)
        with pytest.raises(ValueError):
            hp.poly_operator_matrix(spec, ss, 40)

    def test_steady_state_of_another_system_rejected(self):
        # D = I: ss is that of C = I + J (K = I), spec has C = 3I + J.  Read as
        # spec's, the degree-1 block would be -1 -+ i, ss's drift; a state without
        # a spec is taken as spec's, and gives spec's own -3 -+ i.
        spec = hp.SystemSpec(D=np.eye(2), C=np.array([[3.0, -1.0], [1.0, 3.0]]))
        ss = hp.steady_state(hp.SystemSpec(D=np.eye(2), C=np.array([[1.0, -1.0], [1.0, 1.0]])))
        with pytest.raises(ValueError, match="another system"):
            hp.poly_operator_matrix(spec, ss, 1)
        bare = hp.SteadyState(K=ss.K, cK=ss.cK, R=ss.R, Q=ss.Q)
        for state in (bare, hp.steady_state(spec)):
            assert_multisets_close(hp.poly_operator_matrix(spec, state, 1).eigenvalues(),
                                   [0.0, -3.0 + 1.0j, -3.0 - 1.0j], atol=1e-12)


class TestDegreeOneEigenfunction:
    def test_evolution_consistency(self):
        # (x.K^{-1}w) f_inf is an eigenfunction with eigenvalue -lam when
        # Cw = lam w: evolving the affine carrier for time t multiplies its
        # coefficient K^{-1}w by e^{-lam t}.
        C = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 1.0, 3.0]])
        spec = hp.SystemSpec(D=np.diag([1.0, 1.0, 0.0]), C=C)
        ss = hp.steady_state(spec)
        t = 0.7
        for lam, w in ((1.0, np.array([1.0, 0.0, 0.0])), (2.0, np.array([0.0, 1.0, -1.0]))):
            assert np.array_equal(C @ w, lam * w)
            evolved = hp.evolve_mixture(ent.affine_steady(ss, w), t, ss)
            a_t = evolved.components[0].affine
            assert np.allclose(a_t, np.exp(-lam * t) * np.linalg.solve(ss.K, w), rtol=1e-10)
