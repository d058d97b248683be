"""Shared helpers: random system generation and multiset matching."""

from __future__ import annotations

import numpy as np
import pytest

import hypofp as hp
from hypofp import linalg


def make_random_system(rng, d, rank=None, stability_margin=0.2):
    """Random hypoelliptic, positively stable (D, C) pair of dimension d.

    C is a random matrix shifted to put its spectrum in the right half
    plane; D is a random PSD matrix of the requested rank.  Retries until
    the structural condition holds, C's eigenstructure is unambiguous and
    the steady state exists.
    """
    for _ in range(200):
        C = rng.standard_normal((d, d))
        mre = min(np.linalg.eigvals(C).real)
        C = C + (stability_margin + rng.uniform(0.0, 1.0) - mre) * np.eye(d)
        r = rank if rank is not None else int(rng.integers(1, d + 1))
        B = rng.standard_normal((d, r))
        D = B @ B.T
        try:
            spec = hp.SystemSpec(D=D, C=C)
            report = hp.check_condition_A(spec)
            if not report.satisfied:
                continue
            hp.steady_state(spec)
        except (ValueError, np.linalg.LinAlgError, linalg.ClusteringError):
            continue
        return spec, report
    raise RuntimeError("failed to draw a valid random system")


def make_defective_minimal_system(rng, d=3):
    """System whose drift has a defective minimal eigenvalue (a 2-chain):
    C = S J S^-1 for J = diag(mu, mu, mu + 1, ..., mu + d - 2) with J[0, 1] = 1,
    mu a multiple of 1/8 in [1/2, 3/2].  S is a row-permuted integer unit
    upper-triangular matrix, so round(inv(S)) is its exact inverse, every
    product is exact and C is exactly defective: the default clustering of
    ``spec.eig`` sees the chain.  D = I, so the pair is hypoelliptic.
    Returns the spec."""
    S = np.triu(rng.integers(-2, 3, (d, d)), 1).astype(float) + np.eye(d)
    S = S[rng.permutation(d)]
    J = np.diag(rng.integers(4, 13) / 8.0 + np.concatenate([[0.0, 0.0], 1.0 + np.arange(d - 2)]))
    J[0, 1] = 1.0
    return hp.SystemSpec(D=np.eye(d), C=S @ J @ np.round(np.linalg.inv(S)))


def harmonic_chain(N, baths, gamma=1.0, T=1.0):
    """N unit masses with pinned springs Phi = tridiag(-1, 2.1, -1) and a
    Langevin bath (friction gamma, temperature T) at site 1, and at site N
    when baths == 2: C = [[0, -I], [Phi, Gamma]], D = diag(0, Gamma T), d = 2N.
    Returns the spec and the exact Gibbs covariance T diag(Phi^-1, I)."""
    Phi = 2.1 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)
    Gamma = np.zeros((N, N))
    Gamma[0, 0] = gamma
    if baths == 2:
        Gamma[N - 1, N - 1] = gamma
    Z = np.zeros((N, N))
    spec = hp.SystemSpec(D=np.block([[Z, Z], [Z, T * Gamma]]),
                         C=np.block([[Z, -np.eye(N)], [Phi, Gamma]]))
    return spec, T * np.block([[np.linalg.inv(Phi), Z], [Z, np.eye(N)]])


def quadratic_pair_sums(components, K, gen, matrices):
    """(e, I_M for each M) of psi = alpha (s-1)^2, one pair of components at a
    time, in the frame x = L y of the Cholesky factor K = L L^T, where
    f_inf = N(0, I); there a component N(v, A) becomes N(L^-1 v, L^-1 A L^-T),
    an affine factor a becomes L^T a and M becomes L^-1 M L^-T.
    e = alpha sum w_a w_b (Z_ab - 1) and I_M = 2 alpha sum w_a w_b J_ab with,
    for Gaussians a and b, P = A^-1, Lam = P_a + P_b - I, Sig = Lam^-1,
    m = Sig (P_a v_a + P_b v_b), log Z the k = 2 term of the ratio moment
    (its log det A_a + log det A_b + log det Lam is log det(I - X_a X_b) with
    X = A - I: one determinant near I in place of three whose first-order
    terms cancel),
    B = I - P, g(y) = B y + P v and J = Z [tr(B_a M B_b Sig) + g_a(m).M g_b(m)];
    for an affine factor a with a Gaussian b, Z = 1 + a.v_b and J = a.M v_b;
    for two affine factors, Z = 1 + a.a' and J = a.M a'."""
    L = np.linalg.cholesky(K)
    Li = np.linalg.inv(L)
    Ms = [Li @ M @ Li.T for M in matrices]
    white = [(c.weight, Li @ c.mean, Li @ c.cov @ Li.T, Li @ (c.cov - K) @ Li.T,
              None if c.affine is None else L.T @ c.affine)
             for c in components]
    eye = np.eye(len(K))
    sums = np.zeros(1 + len(matrices))
    for wa, va, Aa, Xa, aa in white:
        for wb, vb, Ab, Xb, ab in white:
            if aa is not None and ab is not None:
                z1, J = aa @ ab, [aa @ M @ ab for M in Ms]
            elif aa is not None:
                z1, J = aa @ vb, [aa @ M @ vb for M in Ms]
            elif ab is not None:
                z1, J = va @ ab, [va @ M @ ab for M in Ms]
            else:
                Pa, Pb = np.linalg.inv(Aa), np.linalg.inv(Ab)
                Sig = np.linalg.inv(Pa + Pb - eye)
                b = Pa @ va + Pb @ vb
                m = Sig @ b
                z1 = np.expm1(0.5 * (b @ m - va @ Pa @ va - vb @ Pb @ vb
                                     - np.linalg.slogdet(eye - Xa @ Xb)[1]))
                Ba, Bb = eye - Pa, eye - Pb
                ga, gb = Ba @ m + Pa @ va, Bb @ m + Pb @ vb
                J = [(1.0 + z1) * (np.trace(Ba @ M @ Bb @ Sig) + ga @ M @ gb) for M in Ms]
            sums += wa * wb * gen.alpha * np.array([z1] + [2.0 * j for j in J])
    return sums


def assert_multisets_close(a, b, atol=1e-6):
    """Greedy nearest-neighbour matching of two complex multisets (robust
    against ordering flips from +-0 imaginary noise)."""
    a = sorted(np.asarray(a, complex), key=lambda z: (z.real, abs(z.imag)))
    b = list(np.asarray(b, complex))
    assert len(a) == len(b)
    for z in a:
        j = int(np.argmin([abs(z - w) for w in b]))
        assert abs(z - b[j]) <= atol, f"unmatched eigenvalue {z} (closest {b[j]})"
        b.pop(j)


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def pytest_terminal_summary(terminalreporter):
    """Print the one-line acceptance results collected by test_acceptance."""
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(mod, "RESULT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
