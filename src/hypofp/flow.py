"""Exact evolution of Gaussian-mixture states and sharpness scenarios.

The semi-flow preserves the class of Gaussian mixtures: each component's
mean follows v(t) = e^{-Ct} v0, each covariance follows
A(t) = K + e^{-Ct}(A0 - K)e^{-C^T t}, and an affine factor (1 + x.K^{-1}v)
on a steady-shaped component keeps its form with the same v(t).  That makes
trajectories exact at every output time; no time-stepping is involved.

Closed-form entropies for the basic state families and the three sharpness
scenarios (real minimal eigenvalue, complex pair, defective pair) live here
too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import entropy as ent
from . import linalg
from .certificates import DecayCertificate, TransportMatrix
from .entropy import (
    EntropyGenerator,
    GaussianComponent,
    GaussianMixture,
    QuadratureRule,
)
from .system import SteadyState, SystemSpec


def evolve_shift(v0: np.ndarray, t: float, C: np.ndarray) -> np.ndarray:
    """Mean evolution v(t) = e^{-Ct} v0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return linalg.matrix_exponential(C, -t) @ np.asarray(v0, dtype=float)


def evolve_cov(A0: np.ndarray, t: float, C: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Covariance evolution A(t) = K + e^{-Ct}(A0 - K)e^{-C^T t}; stays SPD
    for SPD A0 (it interpolates toward K)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    E = linalg.matrix_exponential(C, -t)
    A = K + E @ (np.asarray(A0, dtype=float) - K) @ E.T
    A = 0.5 * (A + A.T)
    if linalg.min_sym_eigenvalue(A) <= 0:
        raise np.linalg.LinAlgError("evolved covariance lost positive definiteness")
    return A


def evolve_mixture(
    m0: GaussianMixture, t: float, C: np.ndarray, K: np.ndarray
) -> GaussianMixture:
    """Componentwise exact evolution; affine factors (1 + a.x) on
    steady-shaped components become (1 + x.K^{-1} e^{-Ct} K a)."""
    E = linalg.matrix_exponential(C, -t)
    Kinv = np.linalg.inv(K)
    comps = []
    for c in m0.components:
        if c.affine is not None:
            if (
                np.linalg.norm(c.mean) > 1e-12
                or np.linalg.norm(c.cov - K, 2) > 1e-10 * max(np.linalg.norm(K, 2), 1.0)
            ):
                raise ValueError(
                    "affine factors are only supported on steady-shaped "
                    "components (mean 0, covariance K)"
                )
            a_t = Kinv @ (E @ (K @ c.affine))
            comps.append(GaussianComponent(c.weight, c.mean, c.cov, affine=a_t))
        else:
            comps.append(
                GaussianComponent(c.weight, E @ c.mean, evolve_cov(c.cov, t, C, K))
            )
    return GaussianMixture(tuple(comps))


# ---------------------------------------------------------------------------
# Closed-form entropies and dissipations


def entropy_log_shift(v: np.ndarray, K: np.ndarray) -> float:
    """Logarithmic entropy of the shifted steady state f_inf(. - v):
    v.K^{-1}v / 2."""
    v = np.asarray(v, dtype=float)
    return 0.5 * float(v @ np.linalg.solve(K, v))


def entropy_quad_affine(v: np.ndarray, K: np.ndarray) -> float:
    """Quadratic entropy of the linear-perturbation state
    (1 + x.K^{-1}v) f_inf: v.K^{-1}v."""
    v = np.asarray(v, dtype=float)
    return float(v @ np.linalg.solve(K, v))


def entropy_log_cov(A: np.ndarray, K: np.ndarray) -> float:
    """Logarithmic entropy of the centered Gaussian with covariance A:
    Tr(B)/2 - Tr(ln B)/2 - d/2 with B = sqrt(K^{-1}) A sqrt(K^{-1})."""
    d = A.shape[0]
    Si = np.linalg.inv(linalg.sqrt_spd(K))
    B = Si @ np.asarray(A, dtype=float) @ Si
    w = np.linalg.eigvalsh(0.5 * (B + B.T))
    if w[0] <= 0:
        raise np.linalg.LinAlgError("covariance argument not SPD")
    return float(0.5 * np.sum(w - np.log(w) - 1.0))


def entropy_rate_shift(v: np.ndarray, K: np.ndarray, D: np.ndarray) -> float:
    """d/dt [v.K^{-1}v] along v' = -Cv equals -2 v.K^{-1} D K^{-1} v; this is
    (minus twice) the dissipation of the shifted state and vanishes exactly
    when K^{-1}v lies in ker D."""
    u = np.linalg.solve(K, np.asarray(v, dtype=float))
    return -2.0 * float(u @ D @ u)


def dissipation_log_shift(v: np.ndarray, K: np.ndarray, M: np.ndarray) -> float:
    """Closed form of the (possibly P-weighted) dissipation of f_inf(. - v)
    with logarithmic generator (alpha=1, beta=0): v.K^{-1} M K^{-1} v."""
    u = np.linalg.solve(K, np.asarray(v, dtype=float))
    return float(u @ M @ u)


def dissipation_quad_affine(v: np.ndarray, K: np.ndarray, M: np.ndarray) -> float:
    """Same for the affine state with quadratic generator (alpha=1):
    2 v.K^{-1} M K^{-1} v (the w-gradient is the constant sqrt(2) K^{-1}v)."""
    return 2.0 * dissipation_log_shift(v, K, M)


def dissipation_log_cov(A: np.ndarray, K: np.ndarray, M: np.ndarray) -> float:
    """Closed form of the M-weighted dissipation of the centered Gaussian
    with covariance A (logarithmic generator):  Tr[(A^{-1}-K^{-1}) M
    (A^{-1}-K^{-1}) A].  Robust for extreme A where quadrature fails."""
    G = np.linalg.inv(A) - np.linalg.inv(K)
    return float(np.trace(G @ M @ G @ A))


# ---------------------------------------------------------------------------
# Sharpness scenarios


@dataclass(frozen=True)
class SharpnessScenario:
    kind: str  # "real-eig" | "complex-pair" | "defective"
    v0: np.ndarray
    mu: float
    omega: float | None = None  # complex-pair rotation frequency
    v1: np.ndarray | None = None  # complex-pair second direction
    poly: tuple[float, float, float] | None = None  # defective: e*e^{2mu t} coeffs
    e0: float | None = None  # initial log-entropy (real-eig case)
    chain_w: np.ndarray | None = None  # defective case eigenvector

    def predicted_entropy(self, t: np.ndarray) -> np.ndarray:
        """Closed-form log-entropy e_1(t) of the shifted state."""
        t = np.asarray(t, dtype=float)
        if self.kind == "real-eig":
            return self.e0 * np.exp(-2.0 * self.mu * t)
        if self.kind == "defective":
            c0, c1, c2 = self.poly
            return (c0 + c1 * t + c2 * t * t) * np.exp(-2.0 * self.mu * t)
        raise ValueError("complex-pair prediction is the quadratic form; "
                         "use predicted_quadratic")

    def predicted_quadratic(self, t: np.ndarray, K: np.ndarray) -> np.ndarray:
        """Complex-pair case: e_1(t) = q(t) e^{-2mu t} with the periodic
        q(t) = |cos(wt) v0 + sin(wt) v1|_{K^{-1}}^2 / 2."""
        t = np.asarray(t, dtype=float)
        Kinv = np.linalg.inv(K)
        out = np.empty_like(t)
        for i, ti in enumerate(t):
            v = np.cos(self.omega * ti) * self.v0 + np.sin(self.omega * ti) * self.v1
            out[i] = 0.5 * float(v @ Kinv @ v)
        return out * np.exp(-2.0 * self.mu * t)


def sharpness_scenario(
    kind: str, spec: SystemSpec, ss: SteadyState,
    eig: linalg.EigenStructure | None = None,
) -> SharpnessScenario:
    """Initial shift v0 realizing one of the three sharp-decay cases of the
    minimal eigenvalue(s) of C, with the closed-form predicted entropy:

    - "real-eig":     v0 a real eigenvector, e(t) = e^{-2 mu t} e(0);
    - "complex-pair": v(t) = e^{-mu t}(cos(wt) v0 + sin(wt) v1) spirals, the
      exponential envelope is touched twice per period pi/w;
    - "defective":    v0 = h with Cw = mu w, Ch = mu h + w, so
      v(t) = e^{-mu t}(h - t w) and e(t) e^{2 mu t} is a quadratic in t.
    """
    if eig is None:
        eig = linalg.eigen_structure(spec.C)
    mu = min(lam.real for lam in eig.eigenvalues)
    scale = max(np.linalg.norm(spec.C, 2), 1.0)
    minimal = [ch for ch in eig.chains if abs(ch.eigenvalue.real - mu) <= 1e-8 * scale]
    Kinv = ss.K_inv

    if kind == "real-eig":
        for ch in minimal:
            if abs(ch.eigenvalue.imag) <= 1e-10 * scale and ch.length == 1:
                v0 = np.real(ch.vectors[0])
                v0 = v0 / np.linalg.norm(v0)
                return SharpnessScenario(
                    kind=kind, v0=v0, mu=mu, e0=0.5 * float(v0 @ Kinv @ v0)
                )
        raise ValueError("no simple real minimal eigenvalue available")

    if kind == "complex-pair":
        for ch in minimal:
            if ch.eigenvalue.imag > 1e-10 * scale and ch.length == 1:
                w = ch.vectors[0]
                v0 = np.real(w + w.conj())
                v1 = np.real(1j * (w.conj() - w))
                nrm = np.linalg.norm(v0)
                return SharpnessScenario(
                    kind=kind, v0=v0 / nrm, v1=v1 / nrm, mu=mu,
                    omega=float(ch.eigenvalue.imag),
                )
        raise ValueError("no simple complex minimal pair available")

    if kind == "defective":
        for ch in minimal:
            if ch.length >= 2 and abs(ch.eigenvalue.imag) <= 1e-10 * scale:
                w = np.real(ch.vectors[0])
                h = np.real(ch.vectors[1])
                c0 = 0.5 * float(h @ Kinv @ h)
                c1 = -float(h @ Kinv @ w)
                c2 = 0.5 * float(w @ Kinv @ w)
                return SharpnessScenario(
                    kind=kind, v0=h, mu=mu, poly=(c0, c1, c2), chain_w=w
                )
        raise ValueError("no defective real minimal eigenvalue available")

    raise ValueError(f"unknown scenario kind {kind!r}")


def zero_tangent_initial(
    t_star: float, w: np.ndarray, ss: SteadyState, spec: SystemSpec
) -> np.ndarray:
    """Initial shift v0 = e^{C t*} K w for w in ker D: the entropy of the
    shifted state then has vanishing time-derivative exactly at t*, while the
    entropy itself stays positive (non-convex decay)."""
    w = np.asarray(w, dtype=float)
    if np.linalg.norm(spec.D @ w) > 1e-12 * max(np.linalg.norm(spec.D, 2), 1.0) * np.linalg.norm(w):
        raise ValueError("w must lie in ker D")
    if t_star < 0:
        raise ValueError("t_star must be nonnegative")
    return linalg.matrix_exponential(spec.C, t_star) @ (ss.K @ w)


# ---------------------------------------------------------------------------
# Trajectories


@dataclass(frozen=True)
class TrajectoryRecord:
    times: np.ndarray
    states: tuple[GaussianMixture, ...]
    entropy: np.ndarray
    dissipation: np.ndarray
    modified: np.ndarray
    envelope: np.ndarray


def run_trajectory(
    spec: SystemSpec,
    ss: SteadyState,
    cert: TransportMatrix,
    f0: GaussianMixture,
    gen: EntropyGenerator,
    times: np.ndarray,
    q: QuadratureRule | None = None,
    lam_P: float | None = None,
) -> TrajectoryRecord:
    """Exact states at the requested times with quadrature entropy series
    e(t), I(t), S(t) and the certificate envelope S(f0)/(2 lambda_P)
    e^{-2 kappa t}.  Each sample costs one quadrature pass; S(f0) comes from
    the t = 0 sample when the grid starts there."""
    from .certificates import lambda_P as _lambda_P

    times = np.asarray(times, dtype=float)
    if q is None:
        q = ent.gauss_hermite_rule(ss.K)
    if lam_P is None:
        lam_P = _lambda_P(ss.K, cert.P)

    states = tuple(evolve_mixture(f0, float(t), spec.C, ss.K) for t in times)
    e, i, s = np.array(
        [ent.functionals(ft, ss, gen, q, (spec.D, cert.P)) for ft in states]
    ).reshape(-1, 3).T
    if len(times) and times[0] == 0.0:
        S0 = s[0]
    else:
        S0 = ent.functionals(f0, ss, gen, q, (cert.P,))[1]
    return TrajectoryRecord(
        times=times, states=states, entropy=e, dissipation=i, modified=s,
        envelope=S0 / (2.0 * lam_P) * np.exp(-2.0 * cert.kappa * times),
    )


def refine_maximum(fun, a: float, b: float, tol: float = 1e-12) -> float:
    """Golden-section refinement of a local maximum of fun on [a, b]."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = fun(x1)
    return 0.5 * (a + b)


def tangency_times(
    times: np.ndarray, ratio: np.ndarray, fun=None, gap: float = 1e-2
) -> list[float]:
    """Times where the trajectory touches its envelope: local maxima of
    ratio = e(t)/envelope(t) with relative gap 1 - ratio <= gap.  With a
    callable ``fun`` for the ratio, grid maxima are refined by golden
    section."""
    out = []
    for i in range(1, len(times) - 1):
        if ratio[i] >= ratio[i - 1] and ratio[i] >= ratio[i + 1]:
            t_loc, r_loc = times[i], ratio[i]
            if fun is not None:
                t_loc = refine_maximum(fun, times[i - 1], times[i + 1])
                r_loc = fun(t_loc)
            if 1.0 - r_loc <= gap:
                out.append(float(t_loc))
    return out
