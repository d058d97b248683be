"""Drift-diffusion system data and structural checks.

A system is the matrix pair (D, C) of the degenerate Fokker-Planck equation

    d/dt f = div(D grad f + C x f),

with D symmetric positive semidefinite (possibly singular) and C the drift.
This module certifies the structural condition needed for convergence to a
Gaussian steady state: hypoellipticity (an orthogonal staircase of (C, D))
plus positive stability of C.  It also computes the steady-state covariance,
the symmetric/antisymmetric operator split, and the Green-function
covariance W(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import TOL

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # exp of anything above overflows


def _time(t: float, name: str = "t") -> float:
    """``t``, checked to be a finite time >= 0 (NaN fails the comparison)."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {t!r}")
    return t


@dataclass(frozen=True)
class SystemSpec:
    """The pair (D, C); D must be symmetric PSD.  The spec owns read-only
    copies of both, so ``eig`` (computed on first use) cannot go stale.
    ``D_eigh`` is D's one eigendecomposition (w ascending, U), read-only;
    ``rank_D`` counts its eigenvalues above rank * lambda_max."""

    D: np.ndarray
    C: np.ndarray
    D_eigh: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    rank_D: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        D = np.asarray(self.D, dtype=float)
        C = np.array(self.C, dtype=float)
        if D.ndim != 2 or D.shape[0] != D.shape[1] or C.shape != D.shape:
            raise ValueError("D and C must be square matrices of equal size")
        if not (np.all(np.isfinite(D)) and np.all(np.isfinite(C))):
            raise ValueError("matrix entries must be finite")
        # ||D||_2 and ||D - D^T||_2 from one stacked SVD.
        nD, asym = np.linalg.svd(np.stack([D, D - D.T]), compute_uv=False)[:, 0]
        nD = max(float(nD), 1.0)  # linalg._scale(D)
        if asym > TOL.exact * nD:
            raise ValueError("D must be symmetric")
        D = 0.5 * (D + D.T)
        w, U = np.linalg.eigh(D)
        if w[0] < -TOL.exact * nD:
            raise ValueError("D must be positive semidefinite")
        D.flags.writeable = C.flags.writeable = w.flags.writeable = U.flags.writeable = False
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D_eigh", (w, U))
        object.__setattr__(self, "rank_D", int(np.sum(w > TOL.rank * max(w[-1], 1e-300))))

    @property
    def d(self) -> int:
        return self.D.shape[0]

    @cached_property
    def eig(self) -> linalg.EigenStructure:
        """Eigenstructure of C at the default cluster tolerance."""
        return linalg.eigen_structure(self.C)


@dataclass(frozen=True)
class ConditionAReport:
    hypoelliptic: bool | None  # None: undecidable at this conditioning (see check_condition_A)
    tau: int | None
    controllable_dim: int
    margin: float  # smallest kept staircase value over its reference (see hoermander_tau)
    gap: float  # largest dropped one over its reference
    positively_stable: bool
    mu: float
    minimal_eigs_defective: bool
    defective_details: tuple[tuple[complex, int], ...]

    @property
    def satisfied(self) -> bool:
        return bool(self.hypoelliptic) and self.positively_stable

    @property
    def verdict(self) -> str:
        return {True: "hypoelliptic", False: "not hypoelliptic",
                None: "undecidable at this conditioning"}[self.hypoelliptic]


@dataclass(frozen=True)
class SteadyState:
    """Gaussian steady state: covariance K, normalization cK, R = (CK - KC^T)/2
    and Q = K C^T K^{-1}; ``spec`` (whose ``eig`` the certificates read) is the
    system it was solved for, None for one assembled from matrices.  ``K_eigh``
    is K's one eigendecomposition (w ascending, V), read-only, computed for a
    hand-built state (eigh of a finite symmetric K does not raise).  Its cached
    ``sqrt_w``, ``sqrtK``, ``sqrtK_inv``, ``logdet_K`` raise unless w[0] > 0."""

    K: np.ndarray
    cK: float
    R: np.ndarray
    Q: np.ndarray
    spec: SystemSpec | None = field(default=None, repr=False, compare=False)
    K_eigh: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        w, V = np.linalg.eigh(self.K) if self.K_eigh is None else self.K_eigh
        w.flags.writeable = V.flags.writeable = False
        object.__setattr__(self, "K_eigh", (w, V))

    @property
    def d(self) -> int:
        return self.K.shape[0]

    @cached_property
    def _whitening(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        w, V = self.K_eigh
        if not w[0] > 0:
            raise np.linalg.LinAlgError(f"steady-state covariance not SPD: min eigenvalue {w[0]:.3e}")
        r = np.sqrt(w)
        S, Sinv = (V * r) @ V.T, (V / r) @ V.T
        r.flags.writeable = S.flags.writeable = Sinv.flags.writeable = False
        return r, S, Sinv, float(np.sum(np.log(w)))

    sqrt_w = property(lambda self: self._whitening[0], doc="sqrt(w): V diag(sqrt w) is a root of K.")
    sqrtK = property(lambda self: self._whitening[1], doc="Symmetric root V sqrt(w) V^T of K.")
    sqrtK_inv = property(lambda self: self._whitening[2], doc="Its inverse V diag(w^-1/2) V^T.")
    logdet_K = property(lambda self: self._whitening[3], doc="log det K = sum log w.")


def _check_spec(spec: SystemSpec, ss: SteadyState) -> None:
    """ValueError when ss is the steady state of a system whose C or D is not spec's;
    a state without a spec (``ss.spec`` None) is read as spec's."""
    own = ss.spec or spec
    if own is not spec and not (np.array_equal(own.C, spec.C) and np.array_equal(own.D, spec.D)):
        raise ValueError("the steady state is that of another system: its C or D differs from spec's")


def hoermander_tau(spec: SystemSpec) -> tuple[int | None, int, float, float]:
    """Orthogonal controllability staircase of (C, D) (Van Dooren 1981; Paige,
    IEEE TAC 26, 1981): (tau, dim, margin, gap).

    Block 0 spans range D = range D^{1/2}: the eigenvectors of the rank_D
    eigenvalues of D above rank * lambda_max(D).  Block j + 1 spans what C
    maps block j to outside the blocks so far: one SVD, its singular values
    kept above rank * _scale(C).  dim sums the block sizes; tau = blocks - 1
    is the least tau with sum_{j<=tau} C^j D (C^T)^j > 0, None when dim < d.
    margin / gap: smallest kept / largest dropped value, over lambda_max(D) in
    block 0 and over _scale(C) after it, each the reference of its threshold.
    """
    C = spec.C
    d, k = spec.d, spec.rank_D
    if k == 0:
        return None, 0, 0.0, 0.0
    w, U = spec.D_eigh  # ascending: range D is the last k columns
    kept = list(w[d - k:] / w[-1])
    dropped = list(np.abs(w[:d - k]) / w[-1])
    scale = linalg._scale(C)
    V, Y = U[:, :d - k], U[:, d - k:]  # basis of the unreached complement; the newest block
    blocks = 1
    while V.shape[1]:
        Z, s, _ = np.linalg.svd(V.T @ C @ Y)
        r = int(np.sum(s > TOL.rank * scale))
        kept += list(s[:r] / scale)
        dropped += list(s[r:] / scale)
        if r == 0:
            break
        W = V @ Z
        V, Y = W[:, r:], W[:, :r]
        blocks += 1
    dim = d - V.shape[1]
    return (blocks - 1 if dim == d else None), dim, min(kept), max(dropped, default=0.0)


def check_condition_A(spec: SystemSpec) -> ConditionAReport:
    """Hypoellipticity (rank condition) + positive stability of C, with the
    defectiveness of the minimal-real-part eigenvalues flagged (that flag
    drives the epsilon-perturbed transport-matrix construction).  The
    spectral verdicts read ``spec.eig``, C's one eigenstructure.

    The staircase is backward stable, exact for a pair within ~d u of (C, D)
    (Van Dooren 1981), so a controllable dimension below d proves "not
    hypoelliptic" only when every dropped value is at most roundoff * d.  A
    larger one, below the rank threshold, is a distance to uncontrollability
    too small to trust (Eising 1984): ``hypoelliptic`` is then None."""
    tau, dim, margin, gap = hoermander_tau(spec)
    eig = spec.eig
    # (eigenvalue, longest chain) of each defective eigenvalue.
    details = tuple((lam, max(ch.length for ch in eig.chains if ch.eigenvalue == lam))
                    for lam, a, g in zip(eig.eigenvalues, eig.algebraic, eig.geometric) if g < a)
    return ConditionAReport(
        hypoelliptic=tau is not None or (None if gap > TOL.roundoff * spec.d else False),
        tau=tau,
        controllable_dim=dim,
        margin=margin,
        gap=gap,
        positively_stable=eig.mu > TOL.stability,
        mu=eig.mu,
        minimal_eigs_defective=any(ch.length > 1 for ch in eig.minimal_chains()),
        defective_details=details,
    )


def steady_state(spec: SystemSpec) -> SteadyState:
    """Steady-state covariance K (unique SPD solution of 2D = CK + KC^T, by
    linalg.solve_lyapunov), and from its one eigendecomposition K = V diag(w) V^T
    (``K_eigh``) normalization cK, flux matrix R and Q = K C^T V diag(1/w) V^T.

    K is singular when lambda_min <= rank * lambda_max (free of the units of D;
    K = 0 too).  An eigenvector of C^T in ker D makes K singular, but so does
    roundoff when K is ill-conditioned: the error states what was measured.
    """
    K = linalg.solve_lyapunov(spec.C, spec.D)
    w, V = np.linalg.eigh(K)
    if w[0] <= TOL.rank * w[-1]:
        why = (f"lambda_min / lambda_max = {w[0] / w[-1]:.3e} <= {TOL.rank:.0e}" if w[-1] > 0
               else "no positive eigenvalue")
        raise np.linalg.LinAlgError(
            f"steady-state covariance is singular: lambda_min = {w[0]:.3e}, "
            f"lambda_max = {w[-1]:.3e}, {why}"
        )
    # In the log domain, as det K and (2 pi)^(-d/2) leave the float range long
    # before cK does; a cK above the float range is inf, one below it 0.0.
    log_cK = -0.5 * (spec.d * math.log(2.0 * math.pi) + float(np.sum(np.log(w))))
    cK = math.exp(log_cK) if log_cK <= _LOG_FLOAT_MAX else math.inf
    M = spec.C @ K - K @ spec.C.T  # antisymmetric up to roundoff
    R = 0.25 * (M - M.T)  # exactly antisymmetric (CK - KC^T)/2
    Q = ((V / w) @ (V.T @ (spec.C @ K))).T  # (K^{-1} C K)^T
    return SteadyState(K=K, cK=cK, R=R, Q=Q, spec=spec, K_eigh=(w, V))


def green_covariance(spec: SystemSpec, t: float) -> np.ndarray:
    """Covariance W(t) = int_0^t e^{-Cs} D e^{-C^T s} ds of the fundamental
    solution, exactly (Van Loan, IEEE TAC 23, 1978).

    With s = t/2^k and s||C||_2 <= 1, one exponential of [[-C, D], [0, C^T]] s
    holds E = e^{-Cs} (top left) and W(s) E^{-T} (top right).  Doubling
    W(2s) = W(s) + E W(s) E^T, E <- E^2 sums PSD terms only, so W(t) stays
    symmetric PSD at every t; it is positive definite for t > 0 exactly when
    the system is hypoelliptic.
    """
    t, d, k = _time(t), spec.d, 0
    nC = float(np.linalg.norm(spec.C, 2))
    while t * nC > 2.0 ** k:
        k += 1
    F = linalg.matrix_exponential(
        np.block([[-spec.C, spec.D], [np.zeros((d, d)), spec.C.T]]), t / 2.0 ** k)
    E = F[:d, :d]
    W = F[:d, d:] @ E.T
    for _ in range(k):
        W = W + E @ W @ E.T
        E = E @ E
    return 0.5 * (W + W.T)
