"""Transport-matrix construction and decay-rate certificates.

The central object is an SPD matrix P with

    Q P + P Q^T  >=  2 kappa P,        Q = K C^T K^{-1},

which turns the modified dissipation S into a Lyapunov functional decaying
at rate 2*kappa.  P is assembled from the Jordan chains of Q: a weighted
sum of eigenvector outer products when every minimal-real-part eigenvalue
is simple enough, and a Jordan-chain construction with epsilon-shifted
weights when a minimal eigenvalue is defective (in which case only the
reduced rate kappa = mu - epsilon is certifiable).  The chains of Q are K
times those of C^T, which are the rows of V^{-1} for C's chain basis V, so
the one eigenstructure of C per system (``SystemSpec.eig``) serves, clusters
and all; C is never recovered from K and Q.

lambda_P is the best constant in K^{-1} >= lambda_P P^{-1} (P >= lambda_P K,
no K^{-1}); with S-decay it yields e(t) <= S(f0)/(2 lambda_P) e^{-2 kappa t}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import TOL, EigenStructure
from .system import SteadyState, SystemSpec, _check_spec, check_condition_A  # noqa: F401 (bench/selftest.py)

DEFAULT_EPSILON_FACTOR = 1e-2


class CertificateError(ValueError):
    """The requested certificate cannot be built or verified."""


@dataclass(frozen=True)
class TransportMatrix:
    P: np.ndarray
    kappa: float
    epsilon: float
    weights: tuple[float, ...]
    construction: str  # "eigen-sum" | "jordan"
    margin_tolerance: float  # verify_P's margin is accepted down to -margin_tolerance


@dataclass(frozen=True)
class DecayCertificate:
    mu: float
    lambda_K: float
    cond_sq_bound: float | None

    @property
    def rate(self) -> float:
        return 2.0 * self.mu


def _chain_weights(length: int, tau: float) -> np.ndarray:
    """Diagonal weights b^l, ..., b^1 along one Jordan chain (the eigenvector
    end carries b^l) with b^1 = 1, b^j = c_j * tau^{2(1-j)}, c_1 = 1 and
    c_j = 1 + c_{j-1}^2."""
    c = [1.0]
    for _ in range(2, length + 1):
        c.append(1.0 + c[-1] ** 2)
    b = np.array([c[j - 1] * tau ** (2.0 * (1 - j)) for j in range(1, length + 1)])
    return b[::-1]  # order along chain columns w_1 .. w_l


def _q_chains(eig: EigenStructure, K: np.ndarray) -> list[np.ndarray]:
    """Jordan chains of Q = K C^T K^{-1}, one (length, d) array per chain of
    ``eig`` (C's), in its order.  With C V = V J for the chain basis V, each
    chain's rows of V^{-1}, reversed, form a chain of C^T; K maps it to one
    of Q, scaled to a unit top as eigen_structure scales its chains (K first
    scaled by a power of 2, exactly, so that a tiny K cannot underflow)."""
    Vinv = np.linalg.inv(np.vstack([ch.vectors for ch in eig.chains]).T)
    rows = np.split(Vinv, np.cumsum([ch.length for ch in eig.chains])[:-1])
    K = np.ldexp(K, -np.frexp(np.abs(K).max())[1])
    return [Z / np.linalg.norm(Z[-1]) for Z in (R[::-1] @ K for R in rows)]


def build_P(
    ss: SteadyState,
    epsilon: float | None = None,
    weights: np.ndarray | None = None,
) -> TransportMatrix:
    """Assemble the transport matrix from the Jordan chains of Q.

    The chains come from ``ss.spec.eig``, C's eigenstructure (without a
    spec, a CertificateError); Q has the same eigenvalues and Jordan
    structure.  ``weights`` are optional per-chain scale factors b_j > 0, one
    per chain (else ValueError; arbitrary in the non-defective construction;
    unequal weights on complex-conjugate chains are a CertificateError).
    ``epsilon`` is required (and must be positive) exactly when a
    minimal-real-part eigenvalue is defective; it trades rate
    (kappa = mu - epsilon) for existence of the certificate.
    """
    if ss.spec is None:
        raise CertificateError("a steady state without a spec has no eigenstructure of C")
    eig = ss.spec.eig
    mu = eig.mu
    minimal = eig.minimal_chains()

    chains = eig.chains
    if any(ch.length > 1 for ch in minimal):
        if epsilon is None:
            epsilon = DEFAULT_EPSILON_FACTOR * mu
        if epsilon <= 0:
            raise CertificateError(
                "a minimal-real-part eigenvalue of Q is defective: the rate mu "
                "is not certifiable; supply epsilon > 0 for rate mu - epsilon"
            )
    else:
        epsilon = 0.0

    if weights is None:
        w_arr = np.ones(len(chains))
    else:
        w_arr = np.asarray(weights, dtype=float)
        if w_arr.shape != (len(chains),) or np.any(w_arr <= 0):
            raise ValueError(f"need one positive weight per Jordan chain ({len(chains)})")
        for grp in eig.conjugate_groups():
            lo, hi = w_arr[grp].min(), w_arr[grp].max()
            if hi - lo > TOL.exact * max(1.0, lo):
                raise CertificateError(
                    "complex-conjugate eigenvector pairs must get equal weights"
                )

    d = ss.K.shape[0]
    P = np.zeros((d, d), dtype=complex)
    any_jordan = False
    minimal_lams = {ch.eigenvalue for ch in minimal}
    for ch, Z, bw in zip(chains, _q_chains(eig, ss.K), w_arr):
        A = Z.T  # columns w_1 .. w_l
        if ch.length == 1:
            P += bw * np.outer(A[:, 0], A[:, 0].conj())
            continue
        any_jordan = True
        if ch.eigenvalue in minimal_lams:
            tau = 2.0 * epsilon
        else:
            tau = 2.0 * (ch.eigenvalue.real - mu)
        B = _chain_weights(ch.length, tau)
        P += bw * (A * B) @ A.conj().T
    P = P.real
    P = 0.5 * (P + P.T)
    if linalg.min_sym_eigenvalue(P) <= 0:
        raise CertificateError("assembled transport matrix is not SPD")
    return TransportMatrix(
        P=P,
        kappa=float(mu - epsilon),
        epsilon=float(epsilon),
        weights=tuple(float(x) for x in w_arr),
        construction="jordan" if any_jordan else "eigen-sum",
        # The margin is a rate times P: its roundoff grows with ||C|| (the time unit).
        margin_tolerance=max(TOL.margin, TOL.roundoff * d * eig.scale) * float(np.linalg.norm(P, 2)),
    )


def verify_P(ss: SteadyState, P: np.ndarray, kappa: float) -> float:
    """PSD margin of the certificate inequality: smallest eigenvalue of
    Q P + P Q^T - 2 kappa P.  Valid iff >= -``TransportMatrix.margin_tolerance``."""
    P = np.asarray(P, dtype=float)
    if linalg.min_sym_eigenvalue(P) <= 0:
        raise CertificateError("P must be SPD")
    Q = ss.Q
    return linalg.min_sym_eigenvalue(Q @ P + P @ Q.T - 2.0 * kappa * P)


def _pencil_ratio(K: np.ndarray, w: np.ndarray, U: np.ndarray) -> float:
    """Largest c with K^{-1} >= c M^{-1} (M >= c K) for M = U diag(w) U^T, a
    LinAlgError unless w > 0: 1 / lambda_max(W^{-1} K W^{-1}), W = M^{1/2}."""
    if not w[0] > 0:
        raise np.linalg.LinAlgError(f"matrix not SPD: min eigenvalue {w[0]:.3e}")
    Winv = (U / np.sqrt(w)) @ U.T
    X = Winv @ np.asarray(K, dtype=float) @ Winv
    return float(1.0 / np.linalg.eigvalsh(0.5 * (X + X.T))[-1])


def lambda_P(K: np.ndarray, P: np.ndarray) -> float:
    """Largest c with K^{-1} >= c P^{-1}: ``_pencil_ratio`` with P's eigh, no K^{-1}."""
    return _pencil_ratio(K, *np.linalg.eigh(0.5 * (P + np.transpose(P))))


def compare_rates(spec: SystemSpec, ss: SteadyState) -> DecayCertificate:
    """Sandwich comparison lam_K <= mu <= cond(A~)^2 * lam_K for SPD D
    (``spec.rank_D`` = d, else a LinAlgError); an ss of another system is a ValueError.

    lam_K is the classical (uniform-convexity) constant, the largest lam with
    K^{-1} >= lam * D^{-1}, as 1 / lambda_max(D^{-1/2} K D^{-1/2}) with no K^{-1}.
    A~ diagonalizes D^{-1/2} C D^{1/2}: it is D^{-1/2} times the unit eigenvectors
    of ``spec.eig``, columns renormalised.  Both roots of D come from ``spec.D_eigh``;
    the slacks are relative to _scale(C).  No upper bound when C is defective."""
    _check_spec(spec, ss)
    if spec.rank_D < spec.d:
        raise np.linalg.LinAlgError(f"D is not SPD: rank {spec.rank_D} < {spec.d}")
    w, U = spec.D_eigh
    lamK = _pencil_ratio(ss.K, w, U)
    eig = spec.eig
    mu = eig.mu
    if lamK > mu + TOL.lambda_K_slack * eig.scale:
        raise CertificateError(f"lambda_K = {lamK} exceeds mu = {mu}")
    cond_sq_bound = None
    if all(ch.length == 1 for ch in eig.chains):
        A = (U / np.sqrt(w)) @ U.T @ np.stack([ch.vectors[0] for ch in eig.chains], axis=1)
        cond_sq_bound = float(np.linalg.cond(A / np.linalg.norm(A, axis=0)) ** 2 * lamK)
        if mu > cond_sq_bound + TOL.bound_slack * eig.scale:
            raise CertificateError(f"mu = {mu} exceeds the conditioning bound {cond_sq_bound}")
    return DecayCertificate(mu=mu, lambda_K=float(lamK), cond_sq_bound=cond_sq_bound)


def entropy_envelope(kappa: float, lam_P: float, S0: float) -> tuple[float, float]:
    """(amplitude, rate) of the dominating curve amplitude * e^{-rate t}:
    amplitude = S0 / (2 lambda_P), rate = 2 kappa (``TransportMatrix.kappa``)."""
    if not np.isfinite(S0) or S0 < 0:
        raise CertificateError(
            "initial modified dissipation must be finite and nonnegative; "
            "the initial state is not compatible with this generator"
        )
    return S0 / (2.0 * lam_P), 2.0 * kappa


def optimize_weights(ss: SteadyState, G0: np.ndarray) -> TransportMatrix:
    """Grid search over per-chain weights minimizing amplitude = S0/(2 lam_P)
    with S0 = tr(P G0) for the initial state's dissipation matrix G0 (the
    weights are free in the construction, so they are tuned per f0); each
    weight runs over 9 log-spaced values in [1e-2, 1e2].

    Conjugate chains share a weight; the overall scale is fixed by leaving
    the first group at 1 (the amplitude is scale-invariant anyway).  The
    chains are those of ``ss.spec.eig``.
    """
    if ss.spec is None:
        raise CertificateError("a steady state without a spec has no chains to weight")
    eig = ss.spec.eig
    groups = eig.conjugate_groups()
    best, best_amp = None, np.inf
    for choice in itertools.product([1.0], *[np.logspace(-2, 2, 9)] * (len(groups) - 1)):
        w = np.ones(len(eig.chains))
        for grp, g in zip(groups, choice):
            w[grp] = g
        tm = build_P(ss, weights=w)
        amp = np.vdot(tm.P, G0) / (2.0 * lambda_P(ss.K, tm.P))
        if amp < best_amp:
            best_amp, best = amp, tm
    return best
