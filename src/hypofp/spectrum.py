"""Point spectrum of the Fokker-Planck generator and a brute-force check.

For condition-(A) systems the generator has pure point spectrum

    sigma(L) = { -sum_j alpha_j lambda_j(C) : alpha in N_0^d },

one eigenvalue per multi-index.  The independent cross-check represents the
conjugated operator q -> lap_D q - x.K^{-1}CK.grad q on monomials of total
degree <= m and diagonalizes that matrix; the two eigenvalue multisets must
agree.  Monomials are ordered by total degree, then reverse-lexicographic
within a degree (any order preserves eigenvalues).  The multi-indices are
generated directly in that order, so the cost is linear in the number of
eigenvalues listed.  The operator matrix's index pattern depends only on
(d, m): it is built once per process, and each matrix is one gather and
one scatter of the whitened drift and diffusion entries.

The degree-one eigenfunctions (x.K^{-1}w) f_inf, w a real eigenvector of C
with Cw = lambda w, need no code here: ``flow.evolve_mixture`` carries the
affine factor of ``affine_steady(ss, w)`` to e^{-lambda t} K^{-1}w.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from . import linalg
from .system import SteadyState, SystemSpec, _check_spec

DIMENSION_CAP = 2000


@dataclass(frozen=True)
class SpectrumEntry:
    value: complex
    alpha: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.alpha)


@dataclass(frozen=True)
class SpectrumSet:
    entries: tuple[SpectrumEntry, ...]

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries])


def _compositions(d: int, m: int):
    """All alpha in N_0^d with |alpha| = m, in reverse-lexicographic order."""
    if m == 0 or d == 1:
        yield (0,) * (d - 1) + (m,)
        return
    for first in range(m, -1, -1):
        for rest in _compositions(d - 1, m - first):
            yield (first,) + rest


@lru_cache(maxsize=8)
def _multi_indices(d: int, m_max: int) -> tuple[tuple[int, ...], ...]:
    """All alpha in N_0^d with |alpha| <= m_max, by degree then reverse-lex."""
    return tuple(alpha for m in range(m_max + 1) for alpha in _compositions(d, m))


@lru_cache(maxsize=8)
def _multi_index_array(d: int, m_max: int) -> np.ndarray:
    """_multi_indices(d, m_max) as a read-only (n, d) integer array."""
    A = np.array(_multi_indices(d, m_max)).reshape(-1, d)
    A.flags.writeable = False
    return A


def _rank(A: np.ndarray, m_max: int) -> np.ndarray:
    """Positions of the rows of A in the order of _multi_indices(d, m_max):
    sum_i comb(T_i + d-1-i, d-i) with the tail sums T_i = a_i + ... + a_{d-1}.
    Term i counts multi-indices of degree < T_i in d-i variables, so it stays
    below comb(d + m_max, m_max) and cannot overflow."""
    d = A.shape[1]
    T = np.cumsum(A[:, ::-1], axis=1)[:, ::-1]
    table = np.array([[comb(t + k, k + 1) for k in range(d)] for t in range(m_max + 1)])
    return table[T, np.arange(d - 1, -1, -1)].sum(axis=1)


@lru_cache(maxsize=8)
def _operator_pattern(d: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where poly_operator_matrix's terms land, whatever the drift matrix G
    and diffusion matrix D: per term its flat position target * n + column,
    the entry it reads from the flattened stack [G, D], and its integer
    factor (negated for the drift).  Drift terms come first, then diffusion,
    each in (column, l, j) order.  Read-only."""
    B = _multi_index_array(d, m)
    n = len(B)
    eye = np.eye(d, dtype=int)
    # Drift: -x.G.grad x^a = -sum_{j,l} G[j,l] a_l x^{a - e_l + e_j}
    col, l, j = np.nonzero(np.broadcast_to(B[:, :, None] > 0, (n, d, d)))
    drift = (_rank(B[col] - eye[l] + eye[j], m) * n + col, j * d + l, -B[col, l])
    # Diffusion: sum_{j,l} D[j,l] d_j d_l x^a
    lowered = B[:, None, :] - eye  # [col, l, j] = (a - e_l)_j
    col, l, j = np.nonzero((B[:, :, None] > 0) & (lowered > 0))
    diffusion = (_rank(lowered[col, l] - eye[j], m) * n + col, d * d + j * d + l,
                 B[col, l] * lowered[col, l, j])
    out = tuple(np.concatenate(parts) for parts in zip(drift, diffusion))
    for arr in out:
        arr.flags.writeable = False
    return out


def enumerate_spectrum(eig: linalg.EigenStructure, m_max: int) -> SpectrumSet:
    """All nu_alpha = -sum alpha_j lambda_j for |alpha| <= m_max; duplicates
    are kept with their multi-index labels."""
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    lams = eig.all_eigenvalues
    d = len(lams)
    values = -(_multi_index_array(d, m_max) @ lams)
    return SpectrumSet(entries=tuple(SpectrumEntry(value=complex(v), alpha=alpha)
                                     for v, alpha in zip(values, _multi_indices(d, m_max))))


@dataclass(frozen=True)
class PolyOperatorMatrix:
    basis: tuple[tuple[int, ...], ...]
    M: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.M)


def poly_operator_matrix(spec: SystemSpec, ss: SteadyState, m: int) -> PolyOperatorMatrix:
    """Matrix of q -> div(D grad q) - x.(K^{-1} C K).grad q on monomials of
    total degree <= m (the polynomial factors of eigenfunctions q*f_inf).

    The drift term preserves total degree and the diffusion term lowers it
    by two, so the matrix is block-triangular by degree and its eigenvalues
    are exactly the nu_alpha of the enumerated spectrum.

    Assembled in whitened coordinates y = W^{-1} x, W = V diag(sqrt w) from
    ``ss.K_eigh``: K^{-1} C K becomes W^{-1} C W, formed by the orthogonal V and a
    diagonal scaling alone, so its eigenvalues stay accurate when K is not.
    An ss of another system (``ss.spec``'s C or D not spec's) is a ValueError."""
    _check_spec(spec, ss)
    d = spec.d
    n = comb(d + m, m)
    if n > DIMENSION_CAP:
        raise ValueError(f"monomial basis dimension {n} exceeds the cap {DIMENSION_CAP}")
    V, r = ss.K_eigh[1], ss.sqrt_w
    G = (V.T @ spec.C @ V) * (r / r[:, None])  # drift matrix in y.G.grad
    D = (V.T @ spec.D @ V) / np.outer(r, r)
    flat, source, factor = _operator_pattern(d, m)
    # bincount sums the terms hitting one entry in the pattern's order.
    M = np.bincount(flat, weights=np.concatenate([G.ravel(), D.ravel()])[source] * factor,
                    minlength=n * n).reshape(n, n)
    return PolyOperatorMatrix(basis=_multi_indices(d, m), M=M)
