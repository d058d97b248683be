"""Exact evolution of Gaussian-mixture states and sharpness scenarios.

The semi-flow preserves the class of Gaussian mixtures: each component's
mean follows v(t) = e^{-Ct} v0, each covariance follows
A(t) = K + e^{-Ct}(A0 - K)e^{-C^T t}, and an affine factor (1 + x.K^{-1}v)
on a steady-shaped component keeps its form with the same v(t).  Every
output time is exact, with no time-stepping, and a trajectory is one stack:
one matrix exponential for all times and one fold, then e and G from each
rule ``functionals_by_rule`` is given (one, or the orders of a search).

The three sharpness scenarios (real minimal eigenvalue, complex pair,
defective pair) live here too.  Each function that reads the system but
``evolve_shift`` (C alone) takes it as one steady state ss: C, D from ss.spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import entropy as ent
from . import linalg
from .linalg import TOL
from .certificates import TransportMatrix, entropy_envelope, lambda_P
from .entropy import EntropyGenerator, GaussianComponent, GaussianMixture, MixtureStack
from .system import SteadyState, SystemSpec, _time


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


def _system(ss: SteadyState) -> SystemSpec:
    """The system ss is the steady state of: the flow's C and D are its own."""
    if ss.spec is None:
        raise ValueError("a steady state without a spec has no system (C, D) to read")
    return ss.spec


def evolve_cov(A0: np.ndarray, t: float, ss: SteadyState) -> np.ndarray:
    """Covariance evolution A(t) = K + e^{-Ct}(A0 - K)e^{-C^T t}; stays SPD
    for SPD A0 (it interpolates toward K)."""
    return _flow_cov(A0, linalg.matrix_exponential(_system(ss).C, -_time(t)), ss.K)


def _evolve(m0: GaussianMixture, times, ss: SteadyState) -> MixtureStack:
    """m0, checked by ``ent.check_state``, at every time as one stack from one matrix
    exponential; an affine factor (1 + a.x) on its component becomes (1 + x.K^-1 E K a)."""
    E = linalg.matrix_exponential(_system(ss).C, -np.array([_time(float(t)) for t in times]))
    f = MixtureStack.of(m0)
    ent.check_state(f, ss)
    means, covs = f.means @ np.swapaxes(E, -1, -2), _flow_cov(f.covs[0], E[:, None], ss.K)
    for c, _ in f.affine:
        means[:, c], covs[:, c] = f.means[0, c], f.covs[0, c]
    return MixtureStack(f.weights, means, covs, tuple(
        (c, (ss.sqrtK_inv @ (ss.sqrtK_inv @ (E @ (ss.K @ a[0])).T)).T) for c, a in f.affine))


def evolve_mixture(m0: GaussianMixture, t: float, ss: SteadyState) -> GaussianMixture:
    """Componentwise exact evolution: the T = 1 case of the stacked flow."""
    f = _evolve(m0, [t], ss)
    affine = {c: a[0] for c, a in f.affine}
    return GaussianMixture(tuple(GaussianComponent(w, f.means[0, c], f.covs[0, c], affine.get(c))
                                 for c, w in enumerate(f.weights)))


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


def sharpness_scenario(kind: str, ss: SteadyState) -> SharpnessScenario:
    """Initial shift v0 realizing one of the three sharp-decay cases of the
    minimal eigenvalue(s) of C (``ss.spec.eig``), with the closed-form predicted
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
    spec = _system(ss)
    ch = next((ch for ch in spec.eig.minimal_chains() if _SCENARIO_CHAIN[kind](ch)), None)
    if ch is None:
        raise ValueError(f"no minimal eigenvalue of C for the {kind!r} scenario")
    if kind == "defective":
        U = np.real(ch.vectors[1::-1]).T  # columns h, w
    else:  # Re, Im of the eigenvector; Im counts only for omega > 0 (sin 0 = 0)
        U = np.stack([ch.vectors[0].real, ch.vectors[0].imag], axis=1)
    U = U / np.linalg.norm(U[:, 0])
    W = ss.sqrtK_inv @ U
    return SharpnessScenario(kind=kind, v0=U[:, 0], mu=spec.eig.mu,
                             omega=float(ch.eigenvalue.imag), gram=0.5 * W.T @ W)


def zero_tangent_initial(t_star: float, w: np.ndarray, ss: SteadyState) -> np.ndarray:
    """Initial shift v0 = e^{C t*} K w for w in ker D: the entropy of the
    shifted state then has vanishing time-derivative exactly at t*, while the
    entropy itself stays positive (non-convex decay)."""
    spec = _system(ss)
    w = np.asarray(w, dtype=float)
    if np.linalg.norm(spec.D @ w) > TOL.exact * linalg._scale(spec.D) * np.linalg.norm(w):
        raise ValueError("w must lie in ker D")
    return linalg.matrix_exponential(spec.C, _time(t_star, "t_star")) @ (ss.K @ w)


# ---------------------------------------------------------------------------
# Trajectories


@dataclass(frozen=True)
class TrajectoryRecord:
    """``run_trajectory``'s series, their rule's order and its error estimate (see there)."""

    times: np.ndarray
    entropy: np.ndarray
    dissipation: np.ndarray
    modified: np.ndarray
    envelope: np.ndarray
    quadrature_order: int | None = None
    quadrature_error: float | None = None


def _deviation(vals: np.ndarray, prev: np.ndarray) -> float:
    """max |vals - prev| / max(|vals(t)|, |vals(f0)|) over rows (e, I, S); no 0 / 0."""
    dev, scale = np.abs(vals - prev), np.maximum(np.abs(vals), np.abs(vals[0]))
    return float(np.max(np.divide(dev, scale, out=np.where(dev > 0, np.inf, 0.0), where=scale > 0)))


def run_trajectory(ss: SteadyState, cert: TransportMatrix, f0: GaussianMixture,
                   gen: EntropyGenerator, times: np.ndarray,
                   order: int | None = None) -> TrajectoryRecord:
    """Entropy series e(t), I(t) = tr(D G), S(t) = tr(P G) of the exact states
    at the requested times and the envelope S(f0)/(2 lambda_P) e^{-2 kappa t}
    (``entropy_envelope``; S(f0) < 0 raises).  All samples, and f0 when the
    grid starts after t = 0, are one stack: one matrix exponential and one fold.
    The rules, planned before any work, are ``ent.quadrature_rules(gen, ss.K,
    order)``.  Several are an order search: it stops at the first within
    TOL.quadrature of the previous rule (``_deviation``, the error estimate),
    else at the last, estimated by its largest deviation from a lower order.
    The record holds a given or searched order; the closed form records none."""
    rules = ent.quadrature_rules(gen, ss.K, order)
    times = np.asarray(times, dtype=float)
    grid = times if len(times) and times[0] == 0.0 else np.concatenate(([0.0], times))
    f = _evolve(f0, grid, ss)
    DP = np.stack([ss.spec.D, cert.P])
    seen, err = [], None
    for rule, e, G in ent._by_rule(f, ss, gen, rules):  # f0 is checked, so is its flow
        seen.append(np.column_stack([e, np.einsum("kij,tij->tk", DP, G)]))
        if len(seen) > 1:
            err = _deviation(seen[-1], seen[-2])
            if err <= TOL.quadrature:
                break
            # Unresolved orders need not converge monotonically: compare with every lower one.
            err = max(_deviation(seen[-1], prev) for prev in seen[:-1])
    vals = seen[-1]
    e, i, s = vals[len(grid) - len(times):].T
    amplitude, rate = entropy_envelope(cert.kappa, lambda_P(ss.K, cert.P), vals[0, 2])
    envelope = amplitude * np.exp(-rate * times)
    return TrajectoryRecord(times=times, entropy=e, dissipation=i, modified=s, envelope=envelope,
                            quadrature_order=None if rule is None else (
                                order if err is None else rule.order), quadrature_error=err)


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
