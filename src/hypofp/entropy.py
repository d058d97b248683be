"""Admissible entropy generators and quadrature of entropy functionals.

The relative entropy of a state f with respect to the Gaussian steady state
f_inf is e(f) = int psi(f/f_inf) f_inf dx for a convex generator psi with
psi(1) = psi'(1) = 0.  Three closed-form families are provided (logarithmic,
quadratic, power-p).  States live in the flow-invariant class of Gaussian
mixtures, optionally carrying an affine polynomial factor (1 + a.x) on
steady-shaped components; ratios f/f_inf and their gradients are then
analytic, and all integrals reduce to Gauss-Hermite sums in whitened
coordinates where the weight is exactly f_inf.  ``functionals`` gets e, I
and S of a state from one evaluation of the ratio and its gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import math

import numpy as np
from scipy.stats import qmc, norm

from . import linalg
from .system import SteadyState, SystemSpec


class DomainError(ValueError):
    """A density ratio left the domain of the entropy generator."""


# ---------------------------------------------------------------------------
# Entropy generators


@dataclass(frozen=True)
class LogEntropy:
    """psi(s) = alpha*(s+beta)*ln((s+beta)/(1+beta)) - alpha*(s-1).

    beta = 0 is the classical Boltzmann entropy s*ln s - s + 1.
    """

    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta < 0:
            raise ValueError("need alpha > 0 and beta >= 0")

    @property
    def domain_min(self) -> float:
        return -self.beta

    def psi(self, s, order: int = 0):
        s = np.asarray(s, dtype=float)
        a, b = self.alpha, self.beta
        if np.any(s <= -b) and order != 0:
            raise DomainError("ratio at or below -beta")
        if order == 0:
            # s -> -beta limit is finite; guard the log argument.
            sb = np.maximum(s + b, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                val = a * sb * np.log(sb / (1.0 + b)) - a * (s - 1.0)
            return np.where(sb == 0.0, a * (1.0 + b), val)
        if order == 1:
            return a * np.log((s + b) / (1.0 + b))
        if order == 2:
            return a / (s + b)
        if order == 3:
            return -a / (s + b) ** 2
        if order == 4:
            return 2.0 * a / (s + b) ** 3
        raise ValueError("order must be 0..4")

    def w(self, ratio):
        r = np.asarray(ratio, dtype=float)
        return 2.0 * math.sqrt(self.alpha) * (np.sqrt(r + self.beta) - math.sqrt(1.0 + self.beta))


@dataclass(frozen=True)
class QuadraticEntropy:
    """psi(s) = alpha*(s-1)^2; the only generator defined for signed states."""

    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("need alpha > 0")

    @property
    def domain_min(self) -> float:
        return -np.inf

    def psi(self, s, order: int = 0):
        s = np.asarray(s, dtype=float)
        a = self.alpha
        if order == 0:
            return a * (s - 1.0) ** 2
        if order == 1:
            return 2.0 * a * (s - 1.0)
        if order == 2:
            return np.full_like(s, 2.0 * a)
        if order in (3, 4):
            return np.zeros_like(s)
        raise ValueError("order must be 0..4")

    def w(self, ratio):
        r = np.asarray(ratio, dtype=float)
        return math.sqrt(2.0 * self.alpha) * (r - 1.0)


@dataclass(frozen=True)
class PowerEntropy:
    """psi(s) = alpha*[(s+beta)^p - (1+beta)^p - p(1+beta)^(p-1)(s-1)],
    p in (1, 2).  Interpolates between logarithmic and quadratic."""

    p: float
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if not (1.0 < self.p < 2.0):
            raise ValueError("need p in (1, 2)")
        if self.alpha <= 0 or self.beta < 0:
            raise ValueError("need alpha > 0 and beta >= 0")

    @property
    def domain_min(self) -> float:
        return -self.beta

    def psi(self, s, order: int = 0):
        s = np.asarray(s, dtype=float)
        a, b, p = self.alpha, self.beta, self.p
        if np.any(s < -b):
            raise DomainError("ratio below -beta")
        sb = s + b
        if order == 0:
            return a * (sb ** p - (1.0 + b) ** p - p * (1.0 + b) ** (p - 1.0) * (s - 1.0))
        if order == 1:
            return a * p * (sb ** (p - 1.0) - (1.0 + b) ** (p - 1.0))
        coef = a * p * (p - 1.0)
        if order == 2:
            return coef * sb ** (p - 2.0)
        if order == 3:
            return coef * (p - 2.0) * sb ** (p - 3.0)
        if order == 4:
            return coef * (p - 2.0) * (p - 3.0) * sb ** (p - 4.0)
        raise ValueError("order must be 0..4")

    def w(self, ratio):
        r = np.asarray(ratio, dtype=float)
        a, b, p = self.alpha, self.beta, self.p
        c = 2.0 * math.sqrt(a * (p - 1.0) / p)
        return c * ((r + b) ** (p / 2.0) - (1.0 + b) ** (p / 2.0))


EntropyGenerator = LogEntropy | QuadraticEntropy | PowerEntropy


# ---------------------------------------------------------------------------
# States: Gaussian mixtures with optional affine factors


@dataclass(frozen=True)
class GaussianComponent:
    """weight * N(mean, cov), optionally times (1 + affine . x).

    Affine factors are reserved for steady-shaped components (mean 0,
    cov = K): those are exactly the linear-perturbation states that evolve
    in closed form.
    """

    weight: float
    mean: np.ndarray
    cov: np.ndarray
    affine: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if self.affine is not None:
            object.__setattr__(self, "affine", np.asarray(self.affine, dtype=float))
        if linalg.min_sym_eigenvalue(self.cov) <= 0:
            raise ValueError("component covariance must be SPD")


@dataclass(frozen=True)
class GaussianMixture:
    components: tuple[GaussianComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        total = sum(c.weight for c in comps)
        # Written so that a NaN or infinite weight (NaN or inf total) fails.
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")

    @property
    def d(self) -> int:
        return self.components[0].mean.shape[0]


def shifted_steady(ss: SteadyState, v0: np.ndarray) -> GaussianMixture:
    """f_inf(. - v0): single Gaussian at mean v0 with covariance K."""
    return GaussianMixture((GaussianComponent(1.0, np.asarray(v0, float), ss.K),))


def affine_steady(ss: SteadyState, v0: np.ndarray) -> GaussianMixture:
    """(1 + x.K^{-1} v0) f_inf, the linear-perturbation state (unit mass)."""
    a = ss.K_inv @ np.asarray(v0, float)
    return GaussianMixture((GaussianComponent(1.0, np.zeros(ss.d), ss.K, affine=a),))


def ratio_and_grad(f: GaussianMixture, ss: SteadyState, X: np.ndarray):
    """r = f/f_inf and grad r at points X (n, d), both analytic.

    Each plain Gaussian component contributes
        rho(x) = w (cA/cK) exp(x.Kinv.x/2 - (x-v).Ainv.(x-v)/2),
        grad rho = rho * (Kinv x - Ainv (x-v)),
    and an affine factor (1 + a.x) multiplies rho and adds a*rho to the
    gradient by the product rule.  X Kinv and (X-v) Ainv serve both the
    exponents and the gradient.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    logdetK = float(np.linalg.slogdet(ss.K)[1])
    XK = X @ ss.K_inv  # rows: Kinv x (Kinv is symmetric)
    q_ref = 0.5 * np.einsum("ni,ni->n", XK, X)

    r = np.zeros(n)
    grad = np.zeros((n, d))
    for comp in f.components:
        Ainv = np.linalg.inv(comp.cov)
        Ainv = 0.5 * (Ainv + Ainv.T)
        logdetA = float(np.linalg.slogdet(comp.cov)[1])
        Xc = X - comp.mean
        XcA = Xc @ Ainv  # rows: Ainv (x - v)
        q = 0.5 * np.einsum("ni,ni->n", XcA, Xc)
        rho = comp.weight * np.exp(0.5 * (logdetK - logdetA) + q_ref - q)
        drift = XK - XcA
        if comp.affine is None:
            r += rho
            grad += rho[:, None] * drift
        else:
            lin = 1.0 + X @ comp.affine
            r += rho * lin
            grad += (rho * lin)[:, None] * drift + rho[:, None] * comp.affine
    return r, grad


# ---------------------------------------------------------------------------
# Quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights integrating int g(x) f_inf(x) dx for f_inf = N(0, K).

    Tensor Gauss-Hermite in whitened coordinates x = sqrt(K) y for d <= 3;
    one scrambled-Sobol quasi-Monte Carlo point set (fixed seed, equal
    weights) for d >= 4.  No error estimate is attached to either rule.
    """

    points: np.ndarray
    weights: np.ndarray
    K: np.ndarray
    kind: str
    order: int

    @property
    def n(self) -> int:
        return self.weights.shape[0]


# Highest rule order: 2.1 M tensor nodes at d = 3, 16 384 Sobol points at
# d >= 4.  hermgauss builds an order x order matrix before anything else.
MAX_ORDER = 128


@lru_cache(maxsize=32)
def _hermite_1d(order: int):
    x, w = np.polynomial.hermite.hermgauss(order)
    return x, w / math.sqrt(math.pi)


def gauss_hermite_rule(K: np.ndarray, order: int = 64) -> QuadratureRule:
    K = np.asarray(K, dtype=float)
    d = K.shape[0]
    if not 2 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must be in [2, {MAX_ORDER}], got {order}")
    sqrtK = linalg.sqrt_spd(K)
    if d <= 3:
        x1, w1 = _hermite_1d(order)
        grids = np.meshgrid(*([x1] * d), indexing="ij")
        Y = math.sqrt(2.0) * np.stack([g.ravel() for g in grids], axis=-1)
        wgrids = np.meshgrid(*([w1] * d), indexing="ij")
        W = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
        return QuadratureRule(points=Y @ sqrtK.T, weights=W, K=K, kind="gauss-hermite", order=order)
    # Curse of dimensionality: QMC fallback.
    m = max(12, int(math.ceil(math.log2(order ** 2))))
    sob = qmc.Sobol(d, scramble=True, seed=20260824)
    U = sob.random_base2(m)
    Y = norm.ppf(np.clip(U, 1e-15, 1.0 - 1e-15))
    n = Y.shape[0]
    return QuadratureRule(
        points=Y @ sqrtK.T, weights=np.full(n, 1.0 / n), K=K, kind="qmc-sobol", order=order
    )


def _check_domain(gen: EntropyGenerator, r: np.ndarray):
    lo = gen.domain_min
    if lo > -np.inf and np.any(r < lo - 1e-13):
        raise DomainError(
            f"density ratio fell below {lo} at a quadrature node; signed "
            "mixtures are admissible only with the quadratic generator"
        )


def functionals(
    f: GaussianMixture,
    ss: SteadyState,
    gen: EntropyGenerator,
    q: QuadratureRule,
    matrices=(),
) -> tuple[float, ...]:
    """(e, I_M for each M in matrices) from one ``ratio_and_grad`` pass:
    e = int psi(r) f_inf dx and I_M = int psi''(r) grad r . M grad r f_inf dx
    with r = f/f_inf.  M = D gives the dissipation I, M = P gives S."""
    if np.linalg.norm(q.K - ss.K, 2) > 1e-10 * linalg._scale(ss.K):
        raise ValueError("quadrature reference covariance must equal the steady K")
    r, grad = ratio_and_grad(f, ss, q.points)
    _check_domain(gen, r)
    out = [float(q.weights @ gen.psi(r, 0))]
    if matrices:
        lo = gen.domain_min
        if lo > -np.inf:
            # psi'' has a pole at the domain edge; clamp roundoff-negative ratios.
            r = np.maximum(r, lo + 1e-300)
        psi2 = gen.psi(r, 2)
        for M in matrices:
            quad = np.einsum("ni,ni->n", grad @ np.asarray(M, float), grad)
            out.append(float(q.weights @ (psi2 * quad)))
    return tuple(out)


def relative_entropy(
    f: GaussianMixture, ss: SteadyState, gen: EntropyGenerator, q: QuadratureRule
) -> float:
    """e(f) = int psi(f/f_inf) f_inf dx by quadrature."""
    return functionals(f, ss, gen, q)[0]


def entropy_dissipation_I(
    f: GaussianMixture,
    ss: SteadyState,
    spec: SystemSpec,
    gen: EntropyGenerator,
    q: QuadratureRule,
) -> float:
    """I(f) = int psi''(f/f_inf) grad(f/f_inf) . D grad(f/f_inf) f_inf dx,
    the (nonnegative) entropy dissipation."""
    return functionals(f, ss, gen, q, (spec.D,))[1]


def modified_dissipation_S(
    f: GaussianMixture,
    ss: SteadyState,
    P: np.ndarray,
    gen: EntropyGenerator,
    q: QuadratureRule,
) -> float:
    """S(f): the dissipation functional with D replaced by the SPD transport
    matrix P; the engine of the hypocoercive decay estimates."""
    return functionals(f, ss, gen, q, (P,))[1]
