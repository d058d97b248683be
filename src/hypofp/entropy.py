"""Admissible entropy generators and the entropy functionals of states.

The relative entropy of a state f with respect to the Gaussian steady state
f_inf is e(f) = int psi(f/f_inf) f_inf dx for a convex generator psi with
psi(1) = psi'(1) = 0.  Three closed-form families are provided (logarithmic,
quadratic, power-p).  States live in the flow-invariant class of Gaussian
mixtures, optionally carrying an affine polynomial factor (1 + a.x) on
steady-shaped components; ratios f/f_inf and their gradients are then
analytic.  For the quadratic generator every functional is a sum of
Gaussian integrals over pairs of components and is evaluated exactly.  For
the others, integrals are sums over a standard-normal rule in whitened
coordinates y, mapped to x = sqrtK y by the steady state's own K, so the
weight is exactly f_inf; the rule depends only on (d, order) and is built
once.  ``functionals`` gets e and the dissipation matrix G (I = tr(D G)) of
a state, or of a stack of T states (a trajectory), in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import math

import numpy as np

from . import linalg
from .linalg import TOL
from .system import SteadyState, SystemSpec


class DomainError(ValueError):
    """A density ratio left the domain of the entropy generator, or e or G is not finite."""


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
        if order != 0 and np.any(s <= -b):
            raise DomainError("ratio at or below -beta")
        if order == 0:
            # In place: (a sb) ln(sb/(1+b)) - a(s-1), s clamped to -b; there sb is
            # 0, its log argument is floored at tiny, and psi is the limit a(1+b).
            s = np.maximum(s, -b)
            sb = s + b
            val = np.maximum(sb, np.finfo(float).tiny) / (1.0 + b)
            val = np.log(val, out=val if val.ndim else None)
            val *= sb if a == 1.0 else a * sb
            s -= 1.0
            val -= s if a == 1.0 else a * s
            return val
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
    """psi(s) = alpha*(s-1)^2; the only generator defined for signed states,
    and the one whose functionals ``functionals`` evaluates in closed form."""

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
        if order != 0 and np.any(s < -b):
            raise DomainError("ratio below -beta")
        if order == 0:
            s = np.maximum(s, -b)  # clamped to -b, as LogEntropy.psi does
            return a * ((s + b) ** p - (1.0 + b) ** p - p * (1.0 + b) ** (p - 1.0) * (s - 1.0))
        sb = s + b
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
        if not abs(total - 1.0) <= TOL.exact:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")


def shifted_steady(ss: SteadyState, v0: np.ndarray) -> GaussianMixture:
    """f_inf(. - v0): single Gaussian at mean v0 with covariance K."""
    return GaussianMixture((GaussianComponent(1.0, np.asarray(v0, float), ss.K),))


def affine_steady(ss: SteadyState, v0: np.ndarray) -> GaussianMixture:
    """(1 + x.K^{-1} v0) f_inf, the linear-perturbation state (unit mass)."""
    a = np.linalg.solve(ss.K, np.asarray(v0, float))
    return GaussianMixture((GaussianComponent(1.0, np.zeros(ss.d), ss.K, affine=a),))


@dataclass(frozen=True)
class MixtureStack:
    """T states with one mixture's weights (m,): means (T, m, d), covs
    (T, m, d, d), and (c, a) with a (T, d) per component c with (1 + a.x)."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    affine: tuple

    @classmethod
    def of(cls, f: GaussianMixture) -> MixtureStack:  # T = 1
        c = f.components
        return cls(np.array([x.weight for x in c]), np.array([[x.mean for x in c]]),
                   np.array([[x.cov for x in c]]),
                   tuple((i, x.affine[None]) for i, x in enumerate(c) if x.affine is not None))


# ---------------------------------------------------------------------------
# Quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights integrating int g(y) N(0, I)(y) dy in d dimensions.

    The logarithmic and power generators integrate e and G over it; the
    quadratic one is exact and takes no rule.  Tensor Gauss-Hermite for d <= 3;
    one scrambled-Sobol quasi-Monte Carlo point set (fixed seed, equal
    weights) for d >= 4; no error estimate.
    ``nodes`` is whitened and nodes-last, (d+1, n) with columns (y, 1).  The
    rule carries no covariance: ``functionals`` maps y to x = sqrtK y with
    the steady state's K, so one rule serves every steady state of its
    dimension.  Nodes and weights depend only on (d, order), and all rules
    of one shape share one read-only copy.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    order: int

    @property
    def d(self) -> int:
        return self.nodes.shape[0] - 1

    @property
    def n(self) -> int:
        return self.weights.shape[0]


# Highest rule order: 2.1 M tensor nodes at d = 3, 16 384 Sobol points at
# d >= 4.  hermgauss builds an order x order matrix before anything else.
MAX_ORDER = 128
# Nodes per block in ``functionals``: its temporaries stay in cache.
_BLOCK = 8192


@lru_cache(maxsize=4)
def _grid(d: int, order: int):
    """Whitened nodes (d+1, n) with a last row of ones, and their weights."""
    if d <= 3:
        x1, w1 = np.polynomial.hermite.hermgauss(order)
        nodes = np.ones((d + 1, order ** d))
        grid = nodes[:d].reshape((d,) + (order,) * d)
        for k in range(d):
            # Axis 0 varies slowest, as in an "ij" meshgrid.
            grid[k] = math.sqrt(2.0) * x1.reshape([order if i == k else 1 for i in range(d)])
        weights = reduce(np.multiply.outer, [w1 / math.sqrt(math.pi)] * d).reshape(-1)
    else:
        # Curse of dimensionality: QMC fallback.  scipy.stats is slow to import.
        from scipy.stats import norm, qmc
        m = max(12, int(math.ceil(math.log2(order ** 2))))
        U = qmc.Sobol(d, scramble=True, seed=20260824).random_base2(m)
        nodes = np.ones((d + 1, U.shape[0]))
        nodes[:d] = norm.ppf(np.clip(U, 1e-15, 1.0 - 1e-15)).T
        weights = np.full(U.shape[0], 1.0 / U.shape[0])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _check_order(order) -> None:
    if not isinstance(order, (int, np.integer)) or not 2 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must be an integer in [2, {MAX_ORDER}], got {order!r}")


def gauss_hermite_rule(K: np.ndarray, order: int = 64) -> QuadratureRule:
    """The rule of ``order`` in the dimension of the covariance K."""
    d = len(K)
    _check_order(order)
    return QuadratureRule(*_grid(d, order), "gauss-hermite" if d <= 3 else "qmc-sobol", order)


def rule_for(gen: EntropyGenerator, K: np.ndarray, order: int = 64) -> QuadratureRule | None:
    """The rule ``functionals`` reads for ``gen``: none for the quadratic
    generator, which is exact; ``order`` is checked either way."""
    _check_order(order)
    return None if isinstance(gen, QuadraticEntropy) else gauss_hermite_rule(K, order)


# ---------------------------------------------------------------------------
# Functionals


def _fold(f: MixtureStack, K: np.ndarray, S: np.ndarray):
    """The states in the whitened frame x = S y of f_inf = N(0, K), S = sqrtK.

    With yt = (y, 1), a component w N(v, A) has ratio w exp(yt.H yt / 2) and
    S grad_x of it is that ratio times (H yt)[:d], where
        H = [[G, b], [b^T, logdet K - logdet A - v.Ainv v]],
        G = I - S Ainv S,  b = S Ainv v.
    Returns H (T, m, d+1, d+1) from one stacked solve and slogdet, the
    weights, and (c, S a) for each affine component c."""
    d = len(S)
    AinvS = np.linalg.solve(f.covs, np.concatenate(
        [np.broadcast_to(S, f.covs.shape), f.means[..., None]], axis=-1))
    G = np.eye(d) - S @ AinvS[..., :d]
    H = np.empty(f.means.shape[:2] + (d + 1, d + 1))
    H[..., :d, :d] = 0.5 * (G + np.swapaxes(G, -1, -2))
    H[..., :d, d] = H[..., d, :d] = (S @ AinvS[..., d:])[..., 0]
    H[..., d, d] = (float(np.linalg.slogdet(K)[1]) - np.linalg.slogdet(f.covs)[1]
                    - np.einsum("tci,tci->tc", f.means, AinvS[..., d]))
    return H, f.weights, [(c, a @ S.T) for c, a in f.affine]


def ratio_and_grad(f, X: np.ndarray):
    """r = f/f_inf (g, nb) and h = S grad_x r (g, d, nb) at a block X
    (nb, d+1) of whitened nodes, rows (y, 1), for g states folded by
    ``_fold``.  One matmul gives every exponent and gradient; an affine
    factor (1 + at.y) scales its rho and adds rho at to h (product rule)."""
    H, w, affine = f
    Y, d = X.T, X.shape[1] - 1
    Z = (H.reshape(-1, d + 1) @ Y).reshape(H.shape[:3] + (-1,))
    rho = np.exp(0.5 * np.einsum("gcin,in->gcn", Z, Y))
    rho *= w[:, None]
    h = 0.0
    for c, at in affine:
        h = h + at[:, :, None] * rho[:, c, None]
        rho[:, c] *= 1.0 + at @ Y[:d]
    return rho.sum(axis=1), h + np.einsum("gcn,gcin->gin", rho, Z[:, :, :d])


def _quadratic(f: MixtureStack, K: np.ndarray, S: np.ndarray, Sinv: np.ndarray, alpha: float):
    """(e (T,), whitened G (T, d, d)) for psi = alpha (s-1)^2, in closed form.

    In the whitened frame x = S y (S = sqrtK, f_inf = N(0, I)) a Gaussian
    component N(v, A) has the ratio rho with grad rho = rho g, g(y) = B y + P v,
    P = A^-1 and B = I - P.  Over a pair (a, b), rho_a rho_b f_inf = Z N(m, Sig)
    with Sig = (P_a + P_b - I)^-1 and m = Sig (P_a v_a + P_b v_b), so the pair
    gives Z to int r^2 f_inf and Z [B_a Sig B_b + g_a(m) g_b(m)^T] to
    int grad r grad r^T f_inf.  An affine component (1 + a.y) f_inf has
    grad rho = a and first moment a; with a component b of first moment mu_b
    (v_b, or a_b when b is affine too) the pair gives Z = 1 + a.mu_b and a mu_b^T.
    Then e = alpha sum w_a w_b (Z - 1) and G = 2 alpha sum w_a w_b (...).  The
    integral is finite exactly when every P_c + P_c - I is positive definite
    (A_c < 2K); the off-diagonal pairs are their means."""
    (T, m), d = f.means.shape[:2], len(S)
    X = Sinv @ (f.covs - K) @ Sinv  # A - I, as accurate as the deviation A - K
    P = np.linalg.inv(np.eye(d) + X)
    v = f.means @ Sinv
    Pv = (P @ v[..., None])[..., 0]
    Lam = P[:, :, None] + P[:, None] - np.eye(d)
    own = Lam[:, range(m), range(m)]
    try:
        np.linalg.cholesky(own)
    except np.linalg.LinAlgError:
        c = int(np.argmin(np.linalg.eigvalsh(own)[..., 0].min(axis=0)))
        raise DomainError(f"mixture component {c} has a covariance not below 2K: the quadratic "
                          "entropy int (r - 1)^2 f_inf dx is infinite") from None
    Sig = np.linalg.inv(Lam)
    b = Pv[:, :, None] + Pv[:, None]
    mean = (Sig @ b[..., None])[..., 0]
    vPv = (v * Pv).sum(axis=-1)
    # log det A_a + log det A_b + log det Lam = log det(I - X_a X_b): one
    # determinant near I in place of three whose first-order terms cancel.
    ld = np.linalg.slogdet(np.eye(d) - X[:, :, None] @ X[:, None])[1]
    Zm1 = np.expm1(0.5 * ((b * mean).sum(axis=-1) - vPv[:, :, None] - vPv[:, None] - ld))
    B = np.eye(d) - P
    ga = mean - (P[:, :, None] @ (mean - v[:, :, None])[..., None])[..., 0]
    gb = mean - (P[:, None] @ (mean - v[:, None])[..., None])[..., 0]
    G = (Zm1 + 1.0)[..., None, None] * (B[:, :, None] @ Sig @ B[:, None]
                                        + ga[..., :, None] * gb[..., None, :])
    for c, a in f.affine:
        v[:, c] = a @ S  # first moments, whitened
    for c, _ in f.affine:
        at = v[:, c]
        Zm1[:, c] = Zm1[:, :, c] = (v @ at[..., None])[..., 0]
        G[:, c] = at[:, None, :, None] * v[:, :, None, :]
        G[:, :, c] = v[..., None] * at[:, None, None, :]
    W = np.outer(f.weights, f.weights).reshape(-1)
    G = 2.0 * alpha * (W @ G.reshape(T, m * m, -1)).reshape(T, d, d)
    return alpha * (Zm1.reshape(T, -1) @ W), G


def _quadrature(f: MixtureStack, K: np.ndarray, S: np.ndarray, gen: EntropyGenerator,
                q: QuadratureRule | None):
    """(e (T,), whitened G (T, d, d)) from one blocked pass over the rule: with
    h = S grad_x r from ``ratio_and_grad``, each block of _BLOCK nodes, or of
    _BLOCK // n states on n < _BLOCK nodes, is domain-checked and adds
    psi(r) to e and (h psi''(r)) h^T to G, both weighted by the rule."""
    d = len(S)
    if q is None:
        raise ValueError(f"{type(gen).__name__} needs a quadrature rule")
    if q.d != d:
        raise ValueError(f"rule dimension {q.d} differs from the steady state's {d}")
    H, w, affine = _fold(f, K, S)
    lo = gen.domain_min
    nb = min(q.n, _BLOCK)
    g = _BLOCK // nb
    e, G = np.zeros(len(H)), np.zeros((len(H), d, d))
    for t in range(0, len(H), g):
        fold = (H[t:t + g], w, [(c, a[t:t + g]) for c, a in affine])
        for start in range(0, q.n, nb):
            wq = q.weights[start:start + nb]
            r, h = ratio_and_grad(fold, q.nodes[:, start:start + nb].T)
            if np.any(r < lo - TOL.domain):
                raise DomainError(f"density ratio fell below {lo} at a quadrature node; signed "
                                  "mixtures are admissible only with the quadratic generator")
            e[t:t + g] += gen.psi(r, 0) @ wq
            # psi'' has a pole at the domain edge; clamp roundoff-negative ratios.
            r = np.maximum(r, lo + 1e-300)
            G[t:t + g] += (h * (wq * gen.psi(r, 2))[:, None]) @ np.swapaxes(h, -1, -2)
    return e, G


def functionals(f: GaussianMixture | MixtureStack, ss: SteadyState, gen: EntropyGenerator,
                q: QuadratureRule | None):
    """(e, G): e = int psi(r) f_inf dx and the dissipation matrix
    G = int psi''(r) grad r grad r^T f_inf dx, r = f/f_inf, symmetric PSD in x;
    I = tr(D G) and S = tr(P G).  The quadratic generator is evaluated in closed
    form and reads no rule (q may be None); the others take one blocked pass
    over q, which must have the steady state's dimension.  A stack gives e (T,)
    and G (T, d, d), a mixture a float and a (d, d) array; a non-finite one raises."""
    stack = f if isinstance(f, MixtureStack) else MixtureStack.of(f)
    S = linalg.sqrt_spd(ss.K)
    Sinv = np.linalg.inv(S)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(gen, QuadraticEntropy):
            e, G = _quadratic(stack, ss.K, S, Sinv, gen.alpha)
        else:
            e, G = _quadrature(stack, ss.K, S, gen, q)
        # Summed whitened, where a K-shaped P is well conditioned; mapped to x once.
        G = Sinv @ G @ Sinv
        G = 0.5 * (G + np.swapaxes(G, -1, -2))
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(G))):
        raise DomainError("the entropy or its dissipation matrix is not finite at this state")
    return (e, G) if isinstance(f, MixtureStack) else (float(e[0]), G[0])


def relative_entropy(f: GaussianMixture, ss: SteadyState, gen: EntropyGenerator,
                     q: QuadratureRule | None) -> float:
    """e(f) = int psi(f/f_inf) f_inf dx (see ``functionals``)."""
    return functionals(f, ss, gen, q)[0]


def entropy_dissipation_I(f: GaussianMixture, ss: SteadyState, spec: SystemSpec,
                          gen: EntropyGenerator, q: QuadratureRule | None) -> float:
    """I(f) = int psi''(f/f_inf) grad(f/f_inf) . D grad(f/f_inf) f_inf dx,
    the (nonnegative) entropy dissipation: tr(D G)."""
    return float(np.vdot(spec.D, functionals(f, ss, gen, q)[1]))


def modified_dissipation_S(f: GaussianMixture, ss: SteadyState, P: np.ndarray,
                           gen: EntropyGenerator, q: QuadratureRule | None) -> float:
    """S(f): the dissipation functional with D replaced by the SPD transport
    matrix P, tr(P G); the engine of the hypocoercive decay estimates."""
    return float(np.vdot(P, functionals(f, ss, gen, q)[1]))
