"""Dense-matrix kernels shared across the toolkit.

Everything here is deterministic: eigenstructure with defect detection,
matrix exponentials, Lyapunov solves on a real Schur form (Bartels-Stewart),
and a couple of SPD utilities.  Every kernel is a dense O(d^3) LAPACK path,
so the oscillator chains run to d = 64 and beyond.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


class ClusteringError(ValueError):
    """Eigenvalue clustering is ambiguous at the requested tolerance."""


@dataclass(frozen=True)
class Tolerances:
    """Every decision threshold of the package, with what it is relative to
    and what it decides.  ``TOL`` is the one instance; ``eigen_structure``'s
    ``tol`` defaults to its ``cluster`` field."""

    # Eigenvalue clustering gap, |Im| snapped to 0 and shortest chain top, times
    # _scale(M).  A kernel step of A = (M - lam I)^k counts singular values above
    # cluster * _scale(M) * max(1, ||A||_2) as rank, which grows with ||M||^2.
    cluster: float = 1e-8
    minimal: float = 1e-8  # |Re lam - mu| <= minimal * _scale(M): lam is minimal; pairs conjugates
    # Zero when <= rank * lambda_max (eigenvalues of D, the steady K's smallest)
    # or <= rank * _scale(C) (singular values of the later staircase blocks).
    rank: float = 1e-10
    # A dropped staircase value (over its reference, as for rank) at most
    # roundoff * d is zero to working precision: 8 u per dimension, about 12x the
    # largest generic one measured (0.68 d u).  A larger dropped value leaves
    # hypoellipticity undecidable; the staircase is exact only to ~d u.
    roundoff: float = 8.0 * float(np.finfo(float).eps)
    stability: float = 1e-10  # min Re eig(C) > stability (absolute): C is positively stable
    # Identities that hold up to roundoff, times max(1, size): D = D^T, D >= 0,
    # D w = 0, D in normal form, weights summing to 1, equal conjugate weights
    # (size: the smaller one), an affine component's zero mean.
    exact: float = 1e-12
    # Backward residual over the size of its terms: ||C|| ||K|| + ||D|| for
    # 2D = CK + KC^T; max(1, ||C||) ||w|| for Cw = lam w (2-norms).
    residual: float = 1e-10
    margin: float = 1e-8  # certificate margin >= -margin * ||P||_2: P is valid
    steady: float = 1e-10  # ||A - K||_2 <= steady * _scale(K): A is the steady K
    domain: float = 1e-13  # density ratios may undershoot the entropy's domain by this (absolute)
    lambda_K_slack: float = 1e-10  # compare_rates: lambda_K <= mu + lambda_K_slack * _scale(C)
    bound_slack: float = 1e-9  # compare_rates: mu <= cond^2 lambda_K + bound_slack * _scale(C)
    # |nu^2 - 4 omega0^2| <= boundary * max(nu^2, 4 omega0^2): excluded defective case.
    boundary: float = 1e-12
    edge_mass: float = 1e-6  # kinetic FD: steady mass in the outermost cells (of total 1)
    mass_drift: float = 1e-8  # kinetic FD: |mass(t_end) - mass(0)| / max(t_end, 1)
    ratio_floor: float = 1e-14  # kinetic FD: density ratio floor above the domain edge (absolute)
    bracket: float = 1e-12  # golden-section search stops at width bracket * max(1, |a| + |b|)


TOL = Tolerances()


def _scale(M: np.ndarray) -> float:
    """Scale used for relative tolerances: spectral-norm-like, floored at 1."""
    return max(float(np.linalg.norm(M, 2)), 1.0)


@dataclass(frozen=True)
class JordanChain:
    """A single chain w_1, ..., w_l with (M - lam*I) w_{k+1} = w_k and
    (M - lam*I) w_1 = 0.  ``vectors[k]`` is w_{k+1} (shape (l, d), complex)."""

    eigenvalue: complex
    vectors: np.ndarray

    @property
    def length(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class EigenStructure:
    """Clustered eigenvalues of a real matrix with Jordan-chain data.

    ``eigenvalues`` lists each distinct (clustered) eigenvalue once;
    ``algebraic`` / ``geometric`` are the matching multiplicities.
    ``chains`` contains one JordanChain per Jordan block, so the chain
    vectors of all chains together form a basis of C^d.
    """

    eigenvalues: tuple[complex, ...]
    algebraic: tuple[int, ...]
    geometric: tuple[int, ...]
    chains: tuple[JordanChain, ...] = field(repr=False)
    # _scale of the matrix; the clustering, minimal and conjugate tolerances are
    # relative to it.  A hand-built structure without it serves all_eigenvalues.
    scale: float | None = field(default=None, repr=False, compare=False)

    @property
    def all_eigenvalues(self) -> np.ndarray:
        """Eigenvalues repeated with algebraic multiplicity."""
        return np.concatenate(
            [np.full(a, lam) for lam, a in zip(self.eigenvalues, self.algebraic)]
        )

    @property
    def mu(self) -> float:
        """Smallest real part of the spectrum."""
        return float(min(lam.real for lam in self.eigenvalues))

    def minimal_chains(self) -> tuple[JordanChain, ...]:
        """Chains whose eigenvalue has real part within TOL.minimal * scale of mu."""
        mu, tol_abs = self.mu, TOL.minimal * self.scale
        return tuple(ch for ch in self.chains if abs(ch.eigenvalue.real - mu) <= tol_abs)

    def conjugate_groups(self) -> list[list[int]]:
        """Chain indices grouped so that each chain of a non-real eigenvalue
        shares its group with the first later, still unpaired chain within
        TOL.minimal * scale of the conjugate eigenvalue; other chains stand
        alone.  Real means Im = 0: eigen_structure snaps every |Im| up to its
        clustering tolerance to exactly 0."""
        tol_abs = TOL.minimal * self.scale
        groups: list[list[int]] = []
        paired: set[int] = set()
        for i, ch in enumerate(self.chains):
            if i in paired:
                continue
            groups.append([i])
            if ch.eigenvalue.imag == 0:
                continue
            conj = ch.eigenvalue.conjugate()
            for j in range(i + 1, len(self.chains)):
                if j not in paired and abs(self.chains[j].eigenvalue - conj) <= tol_abs:
                    groups[-1].append(j)
                    paired.add(j)
                    break
        return groups


def _cluster_eigenvalues(w: np.ndarray, tol_abs: float):
    """Single-linkage clustering of complex points at absolute gap tol_abs.

    Returns the clusters as index arrays, ordered by their smallest index,
    and the cluster centres.  Raises ClusteringError when two distinct
    clusters end up closer than 2*tol_abs (the defective/non-defective call
    would be unstable there).
    """
    dist = np.abs(w[:, None] - w[None, :])
    near = dist <= tol_abs
    if np.count_nonzero(near) == len(w):  # singletons; np.mean of one point is w + 0.0
        clusters, centers = list(np.arange(len(w))[:, None]), w + 0.0
    else:
        # Each point takes the smallest label among its neighbours until the
        # labels settle: then every cluster carries its smallest index.
        labels, prev = np.arange(len(w)), None
        while not np.array_equal(labels, prev):
            labels, prev = np.where(near, labels, len(w)).min(axis=1), labels
        clusters = [np.flatnonzero(labels == lab) for lab in np.unique(labels)]
        centers = np.array([np.mean(w[idx]) for idx in clusters])
        dist = np.abs(centers[:, None] - centers[None, :])
    a, b = np.nonzero(np.triu(dist <= 2.0 * tol_abs, 1))
    if len(a):
        raise ClusteringError(
            "ambiguous eigenvalue clustering: centers "
            f"{centers[a[0]]:.6g} and {centers[b[0]]:.6g} are within "
            f"2*tol = {2 * tol_abs:.3g}"
        )
    return clusters, centers


def eigen_structure(M: np.ndarray, tol: float = TOL.cluster) -> EigenStructure:
    """Eigenvalues of M clustered at relative tolerance ``tol``, with
    geometric multiplicities and Jordan chains from rank-revealing kernels
    of (M - lam*I)^k.

    Raises ClusteringError when the clustering is ambiguous (two clusters
    within 2*tol), which signals that defect detection is unreliable.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    if M.shape != (d, d) or not np.all(np.isfinite(M)):
        raise ValueError("eigen_structure expects a finite square matrix")
    if tol <= 0:
        raise ValueError("tol must be positive")

    scale = _scale(M)
    tol_abs = tol * scale
    clusters, centers = _cluster_eigenvalues(np.linalg.eigvals(M), tol_abs)
    # Deterministic order: by (real part, imaginary part) of the center.
    by_center = sorted(zip(centers, clusters), key=lambda cc: (cc[0].real, cc[0].imag))
    # Snap tiny imaginary parts so real eigenvalues stay real.
    lams = [complex(c.real, 0.0) if abs(c.imag) <= tol_abs else complex(c) for c, _ in by_center]
    eigenvalues, algebraic, geometric, chains = [], [], [], []

    # Kernel filtration N_k = ker A^k, A = M - lam*I, until the full
    # generalized eigenspace (dimension = alg) is captured; one SVD per step
    # gives the norm for the threshold and the kernel.  Step 1 of all clusters
    # is one stacked SVD of A^1 = I @ A (the product turns -0.0 into 0.0).
    A = M.astype(complex) - np.array(lams)[:, None, None] * np.eye(d)
    A1 = np.eye(d, dtype=complex) @ A
    _, sv1, Vh1 = np.linalg.svd(A1)
    ranks1 = np.sum(sv1 > tol_abs * np.maximum(1.0, sv1[:, :1] / scale), axis=1)
    for c, ((_, idx), lam) in enumerate(zip(by_center, lams)):
        alg, rank = len(idx), int(ranks1[c])
        null_bases = [Vh1[c, rank:].conj().T]
        dims = [0, d - rank]
        Ak, k = A1[c], 1
        while dims[-1] < alg and k < d:  # only defective or rank-deficient steps
            k += 1
            Ak = Ak @ A[c]
            _, sv, Vh = np.linalg.svd(Ak)
            rank = int(np.sum(sv > tol_abs * max(1.0, sv[0] * scale ** -k)))
            null_bases.append(Vh[rank:].conj().T)
            dims.append(d - rank)
        if dims[-1] != alg:
            raise ClusteringError(
                f"generalized eigenspace of {lam:.6g} has numerical dimension "
                f"{dims[-1]} != algebraic multiplicity {alg}"
            )

        if alg == 1:  # the chain is the kernel vector
            lam_chains = [_chain_top(null_bases[0], tol)[None, :]]
        else:
            # chains_ge[k] = number of chains with length >= k.
            chains_ge = [dims[k] - dims[k - 1] for k in range(1, len(dims))]
            lam_chains = _build_chains(A[c], null_bases, chains_ge, tol)
        eigenvalues.append(lam)
        algebraic.append(alg)
        geometric.append(dims[1])
        chains.extend(JordanChain(lam, ch) for ch in lam_chains)

    assert sum(algebraic) == d
    return EigenStructure(tuple(eigenvalues), tuple(algebraic), tuple(geometric),
                          tuple(chains), scale)


def _build_chains(A, null_bases, chains_ge, tol):
    """Jordan chains for one eigenvalue.

    ``null_bases[k-1]`` spans ker A^k; ``chains_ge[k-1]`` is the number of
    chains of length >= k.  Chain tops of height k are picked from ker A^k
    independent modulo ker A^{k-1} plus the height-k vectors of the taller
    chains already built.
    """
    d = A.shape[0]
    kmax = len(chains_ge)
    chains: list[np.ndarray] = []  # each: array (length, d), row j = w_{j+1}

    for k in range(kmax, 0, -1):
        n_new = chains_ge[k - 1] - (chains_ge[k] if k < kmax else 0)
        if n_new == 0:
            continue
        # Subspace already "used up" at level k.
        used_cols = []
        if k >= 2:
            used_cols.append(null_bases[k - 2])  # ker A^{k-1}
        for ch in chains:
            if ch.shape[0] >= k:
                used_cols.append(ch[k - 1][:, None])  # its level-k vector
        E = np.hstack(used_cols) if used_cols else np.zeros((d, 0), dtype=complex)
        Q_used, _ = np.linalg.qr(E) if E.shape[1] else (E, None)

        cand = null_bases[k - 1]  # ker A^k
        for _ in range(n_new):
            # Residuals of candidates after projecting out span(Q_used).
            R = cand - Q_used @ (Q_used.conj().T @ cand) if Q_used.shape[1] else cand
            top = _chain_top(R, tol)
            chain = np.empty((k, d), dtype=complex)
            chain[k - 1] = top
            for j in range(k - 2, -1, -1):
                chain[j] = A @ chain[j + 1]
            chains.append(chain)
            Q_used, _ = np.linalg.qr(np.hstack([Q_used, top[:, None]]))
    return chains


def _chain_top(R: np.ndarray, tol: float) -> np.ndarray:
    """Longest column of R (unit candidate chain tops, used span projected
    out), normalised; its norm must exceed the dimensionless tol."""
    norms = np.linalg.norm(R, axis=0)
    best = int(np.argmax(norms))
    if norms[best] <= tol:
        raise ClusteringError(
            "failed to extend Jordan chain basis (rank deficiency "
            "inconsistent with kernel filtration)"
        )
    return R[:, best] / norms[best]


def matrix_exponential(M: np.ndarray, t=1.0) -> np.ndarray:
    """exp(t*M) by scaling-and-squaring (Pade), via scipy.linalg.expm; for
    an array of times the (T, d, d) stack from one call."""
    M = np.asarray(M, dtype=float)
    out = scipy.linalg.expm(np.multiply.outer(t, M))
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed; ||tM|| too large")
    return out


def solve_lyapunov(C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Unique symmetric K with 2D = CK + KC^T (Bartels and Stewart, CACM 15,
    1972).

    One real Schur form C = U T U^T turns the equation into the
    quasi-triangular T X + X T^T = U^T 2D U, which LAPACK's dtrsyl solves in
    O(d^3); one refinement step solves for the residual on the same form.  It
    solves for D 2^-e with max |D 2^-e| in [1/2, 1) and returns K 2^e (exact),
    so a large D cannot overflow dtrsyl.  A singular or overflowing dtrsyl
    means the Lyapunov operator is singular to working precision; a residual
    above TOL.residual raises too.
    """
    C = np.asarray(C, dtype=float)
    e = np.frexp(np.abs(D).max())[1]
    D = np.ldexp(np.asarray(D, dtype=float), -e)
    T, U = scipy.linalg.schur(C, output="real")

    def solve(F):  # the X with C X + X C^T = F
        X, scale, info = scipy.linalg.lapack.dtrsyl(T, T, U.T @ F @ U, trana="N", tranb="T")
        if info != 0 or scale != 1.0:
            raise np.linalg.LinAlgError(
                f"Lyapunov operator singular to working precision (dtrsyl info {info}, "
                f"scale {scale:.3g})")
        return U @ X @ U.T

    K = solve(2.0 * D)
    K = K + solve(2.0 * D - C @ K - K @ C.T)
    K = 0.5 * (K + K.T)
    # The 2-norms of the residual, C, K and D from one stacked SVD.
    resid, nC, nK, nD = np.linalg.svd(
        np.stack([2.0 * D - C @ K - K @ C.T, C, K, D]), compute_uv=False)[:, 0]
    bound = TOL.residual * (nC * nK + nD)
    if not resid <= bound:  # a NaN fails too
        raise np.linalg.LinAlgError(
            f"Lyapunov residual {resid:.3e} exceeds tolerance {bound:.3e}; "
            "C is likely not positively stable"
        )
    return np.ldexp(K, e)


def min_sym_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part (M + M^T)/2, over a stack too."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("non-finite input")
    w = np.linalg.eigvalsh(0.5 * (M + M.swapaxes(-1, -2)))
    return float(w[0] if w.ndim == 1 else w[..., 0].min())


def sqrt_spd(M: np.ndarray) -> np.ndarray:
    """Symmetric square root of an SPD matrix by spectral decomposition."""
    M = np.asarray(M, dtype=float)
    S = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(S)
    if w[0] <= 0:
        raise np.linalg.LinAlgError(
            f"matrix not SPD: min eigenvalue {w[0]:.3e}"
        )
    return (V * np.sqrt(w)) @ V.T
