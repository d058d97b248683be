"""Exact evolution of Gaussian-mixture states and sharpness scenarios.

The semi-flow preserves the class of Gaussian mixtures: each component's
mean follows v(t) = e^{-Ct} v0, each covariance follows
A(t) = K + e^{-Ct}(A0 - K)e^{-C^T t}, and an affine factor (1 + x.K^{-1}v)
on a steady-shaped component keeps its form with the same v(t).  Every
output time is exact, with no time-stepping, and a trajectory is one stack:
one matrix exponential for all times and one ``functionals`` call (e and G).

Closed-form entropies for the basic state families and the three sharpness
scenarios (real minimal eigenvalue, complex pair, defective pair) live here
too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entropy as ent
from . import linalg
from .linalg import TOL
from .certificates import TransportMatrix, lambda_P
from .entropy import EntropyGenerator, GaussianComponent, GaussianMixture, MixtureStack, QuadratureRule
from .system import SteadyState, SystemSpec


def _time(t: float, name: str = "t") -> float:
    """``t``, checked to be a finite time >= 0 (NaN fails the comparison)."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {t!r}")
    return t


def evolve_shift(v0: np.ndarray, t: float, C: np.ndarray) -> np.ndarray:
    """Mean evolution v(t) = e^{-Ct} v0."""
    return linalg.matrix_exponential(C, -_time(t)) @ np.asarray(v0, dtype=float)


def _flow_cov(A0: np.ndarray, E: np.ndarray, K: np.ndarray) -> np.ndarray:
    """K + E (A0 - K) E^T for E = e^{-Ct} (or a stack), checked SPD."""
    A = K + E @ (np.asarray(A0, dtype=float) - K) @ np.swapaxes(E, -1, -2)
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    if linalg.min_sym_eigenvalue(A) <= 0:
        raise np.linalg.LinAlgError("evolved covariance lost positive definiteness")
    return A


def evolve_cov(A0: np.ndarray, t: float, C: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Covariance evolution A(t) = K + e^{-Ct}(A0 - K)e^{-C^T t}; stays SPD
    for SPD A0 (it interpolates toward K)."""
    return _flow_cov(A0, linalg.matrix_exponential(C, -_time(t)), K)


def _evolve(m0: GaussianMixture, times, C: np.ndarray, K: np.ndarray) -> MixtureStack:
    """m0 at every time as one stack, from one matrix exponential; an affine
    factor (1 + a.x) on a steady-shaped component becomes (1 + x.K^-1 E K a)."""
    E = linalg.matrix_exponential(C, -np.array([_time(float(t)) for t in times]))
    f = MixtureStack.of(m0)
    means, covs = f.means @ np.swapaxes(E, -1, -2), _flow_cov(f.covs[0], E[:, None], K)
    for c, _ in f.affine:
        if (np.linalg.norm(f.means[0, c]) > TOL.exact
                or np.linalg.norm(f.covs[0, c] - K, 2) > TOL.steady * linalg._scale(K)):
            raise ValueError("affine factors are only supported on steady-shaped "
                             "components (mean 0, covariance K)")
        means[:, c], covs[:, c] = f.means[0, c], f.covs[0, c]
    return MixtureStack(f.weights, means, covs, tuple(
        (c, np.linalg.solve(K, (E @ (K @ a[0])).T).T) for c, a in f.affine))


def evolve_mixture(m0: GaussianMixture, t: float, C: np.ndarray, K: np.ndarray) -> GaussianMixture:
    """Componentwise exact evolution: the T = 1 case of the stacked flow."""
    f = _evolve(m0, [t], C, K)
    affine = {c: a[0] for c, a in f.affine}
    return GaussianMixture(tuple(GaussianComponent(w, f.means[0, c], f.covs[0, c], affine.get(c))
                                 for c, w in enumerate(f.weights)))


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
    return 2.0 * entropy_log_shift(v, K)


def entropy_log_cov(A: np.ndarray, K: np.ndarray) -> float:
    """Logarithmic entropy of the centered Gaussian with covariance A:
    Tr(B)/2 - Tr(ln B)/2 - d/2 with B = sqrt(K^{-1}) A sqrt(K^{-1})."""
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
    return -2.0 * dissipation_log_shift(v, K, D)


def dissipation_log_shift(v: np.ndarray, K: np.ndarray, M: np.ndarray) -> float:
    """Closed form of the (possibly P-weighted) dissipation of f_inf(. - v)
    with logarithmic generator (alpha=1, beta=0): v.K^{-1} M K^{-1} v."""
    u = np.linalg.solve(K, np.asarray(v, dtype=float))
    return float(u @ M @ u)


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
    """A shift v(t) = e^{-mu t} U phi(t) of the steady state along a minimal
    chain of C, with phi = (cos wt, sin wt), w = omega (0 for "real-eig") or
    phi = (1, -t) ("defective"); ``gram`` is U^T K^{-1} U / 2 and ``v0`` =
    v(0) the first column of U."""

    kind: str  # "real-eig" | "complex-pair" | "defective"
    v0: np.ndarray
    mu: float
    omega: float  # Im of the chain's eigenvalue: 0 unless kind is "complex-pair"
    gram: np.ndarray

    def predicted_entropy(self, t: np.ndarray) -> np.ndarray:
        """Closed-form log-entropy e_1(t) = phi^T gram phi e^{-2 mu t} of the
        shifted state."""
        t = np.asarray(t, dtype=float)
        wt = self.omega * t
        phi = np.stack((np.ones_like(t), -t) if self.kind == "defective"
                       else (np.cos(wt), np.sin(wt)), axis=-1)
        return np.einsum("...i,ij,...j->...", phi, self.gram, phi) * np.exp(-2.0 * self.mu * t)


_SCENARIO_CHAIN = {  # which minimal chain of C each kind shifts along
    "real-eig": lambda ch: ch.length == 1 and ch.eigenvalue.imag == 0,
    "complex-pair": lambda ch: ch.length == 1 and ch.eigenvalue.imag > 0,
    "defective": lambda ch: ch.length >= 2 and ch.eigenvalue.imag == 0,
}


def sharpness_scenario(kind: str, spec: SystemSpec, ss: SteadyState) -> SharpnessScenario:
    """Initial shift v0 realizing one of the three sharp-decay cases of the
    minimal eigenvalue(s) of C (``spec.eig``), with the closed-form predicted
    entropy:

    - "real-eig":     v0 a real eigenvector, e(t) = e^{-2 mu t} e(0);
    - "complex-pair": v(t) = e^{-mu t}(cos(wt) v0 + sin(wt) v1), w = omega,
      with v0 + i v1 a multiple of the eigenvector of mu + i omega, spirals;
      the exponential envelope is touched twice per period pi/omega;
    - "defective":    v0 = h with Cw = mu w, Ch = mu h + w, so
      v(t) = e^{-mu t}(h - t w) and e(t) e^{2 mu t} is a quadratic in t.
    """
    if kind not in _SCENARIO_CHAIN:
        raise ValueError(f"unknown scenario kind {kind!r}")
    ch = next((ch for ch in spec.eig.minimal_chains() if _SCENARIO_CHAIN[kind](ch)), None)
    if ch is None:
        raise ValueError(f"no minimal eigenvalue of C for the {kind!r} scenario")
    if kind == "defective":
        U = np.real(ch.vectors[1::-1]).T  # columns h, w
    else:  # Re, Im of the eigenvector; Im counts only for omega > 0 (sin 0 = 0)
        U = np.stack([ch.vectors[0].real, ch.vectors[0].imag], axis=1)
    U = U / np.linalg.norm(U[:, 0])
    return SharpnessScenario(kind=kind, v0=U[:, 0], mu=spec.eig.mu,
                             omega=float(ch.eigenvalue.imag),
                             gram=0.5 * U.T @ np.linalg.solve(ss.K, U))


def zero_tangent_initial(
    t_star: float, w: np.ndarray, ss: SteadyState, spec: SystemSpec
) -> np.ndarray:
    """Initial shift v0 = e^{C t*} K w for w in ker D: the entropy of the
    shifted state then has vanishing time-derivative exactly at t*, while the
    entropy itself stays positive (non-convex decay)."""
    w = np.asarray(w, dtype=float)
    if np.linalg.norm(spec.D @ w) > TOL.exact * linalg._scale(spec.D) * np.linalg.norm(w):
        raise ValueError("w must lie in ker D")
    return linalg.matrix_exponential(spec.C, _time(t_star, "t_star")) @ (ss.K @ w)


# ---------------------------------------------------------------------------
# Trajectories


@dataclass(frozen=True)
class TrajectoryRecord:
    times: np.ndarray
    entropy: np.ndarray
    dissipation: np.ndarray
    modified: np.ndarray
    envelope: np.ndarray


def run_trajectory(spec: SystemSpec, ss: SteadyState, cert: TransportMatrix, f0: GaussianMixture,
                   gen: EntropyGenerator, times: np.ndarray,
                   q: QuadratureRule | None = None) -> TrajectoryRecord:
    """Entropy series e(t), I(t) = tr(D G), S(t) = tr(P G) of the exact states
    at the requested times and the certificate envelope S(f0)/(2 lambda_P)
    e^{-2 kappa t}.  All samples, and f0 when the grid starts after t = 0, are
    one stack: one matrix exponential and one ``functionals`` call.  The
    quadratic generator is exact and builds no rule; the others read q (order
    64 when None)."""
    times = np.asarray(times, dtype=float)
    q = ent.rule_for(gen, ss.K) if q is None else q
    grid = times if len(times) and times[0] == 0.0 else np.concatenate(([0.0], times))
    e, G = ent.functionals(_evolve(f0, grid, spec.C, ss.K), ss, gen, q)
    vals = np.column_stack([e, np.einsum("kij,tij->tk", np.stack([spec.D, cert.P]), G)])
    e, i, s = vals[len(grid) - len(times):].T
    envelope = vals[0, 2] / (2.0 * lambda_P(ss.K, cert.P)) * np.exp(-2.0 * cert.kappa * times)
    return TrajectoryRecord(times=times, entropy=e, dissipation=i, modified=s, envelope=envelope)


def refine_maximum(fun, a: float, b: float) -> float:
    """Golden-section refinement of a local maximum of fun on [a, b]."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > TOL.bracket * max(1.0, abs(a) + abs(b)):
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
