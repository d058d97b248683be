"""Kinetic Fokker-Planck (one space dimension): certificates and simulator.

The equation in phase space (x, v) is

    d/dt f + v d/dx f - V'(x) d/dv f = nu d/dv(v f) + sigma d2/dv2 f,

with V(x) = omega0^2 x^2 / 2 + Vt(x).  For Vt = 0 the equation is a d = 2
linear drift-diffusion system, which feeds the generic pipeline for
cross-validation.  The explicit 2x2 transport matrices and the rate constant
kappa0 are provided in closed form, together with the perturbation bound
that extends the certificate to non-quadratic potentials with small |Vt''|.

A desk-scale finite-difference simulator produces discrete entropy series
against the discretized steady state.  Each step is Strang-split: van Leer
(MUSCL) flux-limited transport half-steps in x and v around a Crank-Nicolson
step of the velocity friction+diffusion operator, one O(nx nv w) product
with its propagator's band of width w; between unrecorded steps, two x
half-steps merge into one.  All walls are zero-flux, so mass is conserved to
round-off.  The series also carries the run's CFL number and mass drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .linalg import TOL
from .entropy import LogEntropy
from .system import SystemSpec


class KineticError(ValueError):
    pass


class InfeasibleError(KineticError):
    """The perturbation is too large for any certified rate."""


@dataclass(frozen=True)
class KineticSpec:
    """Parameters of the kinetic equation.  ``potential``/``dpotential`` are V and V'
    as callables, given together with ``vtilde_dd_bound`` = sup|Vt''|; without
    them V is the quadratic reference omega0^2 x^2/2, and the bound 0 if unstated."""

    nu: float
    sigma: float
    omega0: float
    vtilde_dd_bound: float | None = None
    potential: Callable[[np.ndarray], np.ndarray] | None = None
    dpotential: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.nu <= 0 or self.sigma <= 0:
            raise ValueError("need nu > 0 and sigma > 0")
        if self.omega0 == 0:
            raise ValueError("need omega0 != 0")
        if (self.potential is None) != (self.dpotential is None) or (
                self.potential is not None and self.vtilde_dd_bound is None):
            raise ValueError("a potential takes V, V' and vtilde_dd_bound = sup|Vt''| together")
        if self.vtilde_dd_bound is None:
            object.__setattr__(self, "vtilde_dd_bound", 0.0)
        if not 0.0 <= self.vtilde_dd_bound < math.inf:
            raise ValueError(f"vtilde_dd_bound must be finite and >= 0, got {self.vtilde_dd_bound!r}")

    def V(self, x):
        return 0.5 * self.omega0 ** 2 * np.asarray(x) ** 2 if self.potential is None else self.potential(x)

    def Vp(self, x):
        return self.omega0 ** 2 * np.asarray(x) if self.dpotential is None else self.dpotential(x)


@dataclass(frozen=True)
class KineticCertificate:
    kappa0: float
    P: np.ndarray
    lam: float
    rate: float
    regime: str  # "underdamped" | "overdamped"


def assemble_linear(ks: KineticSpec) -> SystemSpec:
    """The quadratic-potential case as a d = 2 system:
    D = [[0,0],[0,sigma]], C = [[0,-1],[omega0^2, nu]]."""
    if ks.potential is not None or ks.vtilde_dd_bound != 0.0:
        raise KineticError("assemble_linear requires the quadratic potential")
    D = np.array([[0.0, 0.0], [0.0, ks.sigma]])
    C = np.array([[0.0, -1.0], [ks.omega0 ** 2, ks.nu]])
    return SystemSpec(D=D, C=C)


def _regime(nu: float, omega0: float) -> str:
    disc = nu * nu - 4.0 * omega0 * omega0
    if abs(disc) <= TOL.boundary * max(nu * nu, 4.0 * omega0 * omega0):
        raise KineticError(
            "defective boundary 4*omega0^2 = nu^2 is excluded (no simple "
            "eigenbasis; perturb the parameters)"
        )
    return "overdamped" if disc > 0 else "underdamped"


def kappa0(nu: float, omega0: float) -> float:
    """2*kappa0 = nu - sqrt(nu^2 - 4 omega0^2) (overdamped) or nu
    (underdamped); equals the spectral gap of the assembled drift matrix."""
    if _regime(nu, omega0) == "overdamped":
        return 0.5 * (nu - math.sqrt(nu * nu - 4.0 * omega0 * omega0))
    return 0.5 * nu


def build_P_kinetic(nu: float, omega0: float) -> np.ndarray:
    """The explicit 2x2 transport matrix:
    [[2, nu], [nu, nu^2 - 2 omega0^2]] (overdamped) or
    [[2, nu], [nu, 2 omega0^2]] (underdamped)."""
    if _regime(nu, omega0) == "overdamped":
        P = np.array([[2.0, nu], [nu, nu * nu - 2.0 * omega0 ** 2]])
    else:
        P = np.array([[2.0, nu], [nu, 2.0 * omega0 ** 2]])
    if linalg.min_sym_eigenvalue(P) <= 0:
        raise KineticError("kinetic transport matrix not SPD")
    return P


def perturbation_bound(P: np.ndarray, lam: float) -> float:
    """The largest tau with M(t) = ``perturbed_margin_matrix(P, lam, t)`` PSD for
    every |t| <= tau: M_11 = lam p11 > 0 and det M(t) = lam^2 det P - t^2 p11^2,
    so tau = lam sqrt(det P) / p11, sharp (M(tau) is singular)."""
    P = np.asarray(P, dtype=float)
    if lam <= 0:
        raise ValueError("lam must be positive")
    det = float(np.linalg.det(P))
    if det <= 0 or P[0, 0] <= 0:
        raise ValueError("P must be SPD")
    return math.sqrt(det) / P[0, 0] * lam


def perturbed_margin_matrix(P: np.ndarray, lam: float, tau: float) -> np.ndarray:
    """M = lam P + tau [[0, p11], [p11, 2 p12]] = [[lam p11, lam p12 + tau p11],
    [lam p12 + tau p11, lam p22 + 2 tau p12]].  The perturbed certificate is
    the 2x2 inequality M >= 0 (PSD) for every tau with |tau| <= sup|Vt''|."""
    P = np.asarray(P, dtype=float)
    return lam * P + tau * np.array([[0.0, P[0, 0]], [P[0, 0], 2.0 * P[0, 1]]])


def kinetic_rate(ks: KineticSpec) -> KineticCertificate:
    """Certificate for the perturbed potential: s = sup|Vt''| needs
    lam = s / ``perturbation_bound(P, 1)``, the smallest lam whose
    ``perturbed_margin_matrix`` is PSD for every |tau| <= s; the rate is
    2*kappa0 - lam when lam < 2*kappa0, otherwise the certificate is
    infeasible.

    Also enforces the uniform-convexity condition sup|Vt''| <= omega0^2 used
    by the decay theorem."""
    k0 = kappa0(ks.nu, ks.omega0)
    regime = _regime(ks.nu, ks.omega0)
    P = build_P_kinetic(ks.nu, ks.omega0)
    s = ks.vtilde_dd_bound
    lam = s / perturbation_bound(P, 1.0)
    if lam >= 2.0 * k0:
        raise InfeasibleError(f"sup|Vt''| = {s} needs lam = {lam:.6g} >= 2*kappa0 = {2 * k0:.6g}: "
                              "no positive certified rate")
    if s > ks.omega0 ** 2:
        raise InfeasibleError(f"sup|Vt''| = {s} exceeds omega0^2 = {ks.omega0 ** 2}: the "
                              "potential may fail uniform convexity")
    return KineticCertificate(kappa0=k0, P=P, lam=lam, rate=2.0 * k0 - lam, regime=regime)


# ---------------------------------------------------------------------------
# Finite-difference simulator


@dataclass(frozen=True)
class PhaseGrid:
    x_range: tuple[float, float]
    v_range: tuple[float, float]
    nx: int
    nv: int

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) and n >= 2 for n in (self.nx, self.nv)):
            raise ValueError(f"need integers nx, nv >= 2, got {self.nx!r}, {self.nv!r}")
        if not all(math.isfinite(lo) and math.isfinite(hi) and lo < hi
                   for lo, hi in (self.x_range, self.v_range)):
            raise ValueError(f"need finite increasing ranges, got {self.x_range}, {self.v_range}")

    @property
    def dx(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.nx

    @property
    def dv(self) -> float:
        return (self.v_range[1] - self.v_range[0]) / self.nv

    @property
    def x(self) -> np.ndarray:
        return self.x_range[0] + (np.arange(self.nx) + 0.5) * self.dx

    @property
    def v(self) -> np.ndarray:
        return self.v_range[0] + (np.arange(self.nv) + 0.5) * self.dv

    @property
    def cell(self) -> float:
        return self.dx * self.dv


@dataclass(frozen=True)
class KineticSeries:
    times: np.ndarray
    entropy: np.ndarray
    dissipation: np.ndarray
    modified: np.ndarray
    mass: np.ndarray
    f_final: np.ndarray
    grid: PhaseGrid
    cfl: float  # dt * max(max|v| / dx, max|V'| / dv) <= 1, the x step's Courant number
    mass_drift: float  # |mass(t_end) - mass(0)| / max(t_end, 1)


def steady_state_grid(ks: KineticSpec, grid: PhaseGrid) -> np.ndarray:
    """Discretized, grid-normalized steady state
    f_inf ~ exp(-(nu/sigma) [V(x) + v^2/2]), shape (nx, nv)."""
    E = ks.V(grid.x)[:, None] + 0.5 * grid.v[None, :] ** 2
    f = np.exp(-(ks.nu / ks.sigma) * E)
    return f / (f.sum() * grid.cell)


def gaussian_on_grid(mean: np.ndarray, cov: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Normal density at cell centers, shape (nx, nv), in log form from cov's Cholesky factor."""
    L = np.linalg.cholesky(cov)
    zx = (grid.x[:, None] - mean[0]) / L[0, 0]
    zv = (grid.v[None, :] - mean[1] - L[1, 0] * zx) / L[1, 1]
    with np.errstate(over="ignore"):  # values beyond the float range read 0 or inf
        return np.exp(-0.5 * (zx ** 2 + zv ** 2) - math.log(2.0 * math.pi) - np.log(np.diag(L)).sum())


class _Sweep:
    """Flux-limited (van Leer / MUSCL) conservative advection along ``axis``
    of an (nx, nv) field whose speed is constant along ``axis`` and varies
    across the other axis.  Zero-flux walls: nothing enters or leaves the
    domain.  Calling it advances a C-contiguous field by ``dt`` in place; the
    work arrays are kept, so repeated steps allocate nothing, and shared with
    ``work``, a sweep along the same axis of a field of the same shape."""

    def __init__(self, speed: np.ndarray, h: float, dt: float, axis: int,
                 shape: tuple[int, int], work: _Sweep | None = None):
        # The sweep runs on the flat field, where neighbours along ``axis`` are
        # ``step`` apart and face i lies between cells i and i + step.  Along
        # axis 1, the seams from the end of one line to the start of the next
        # are walls: their differences are zeroed and they carry no flux.
        n, nv = shape[0] * shape[1], shape[1]
        k = self.step = nv if axis == 0 else 1
        self.seams = slice(nv - 1, None, nv) if axis == 1 else slice(0)
        c = np.broadcast_to(np.expand_dims(speed, axis) * (dt / h), shape).ravel()
        # Upwind flux (dt/h) F_i = c q_i (c > 0) or c q_{i+step} (c < 0), where
        # q = f + face_weight * slope / 2 is a cell's value on its downwind face.
        self.face_weight = (np.sign(c) * (1.0 - np.abs(c)))[k:-k]
        self.c = c[:-k].copy()
        self.c[self.seams] = 0.0
        self.upwind_left = self.c > 0.0
        self.work = work.work if work is not None else (  # b, flux, q, mask
            np.empty(n - k), np.empty(n - k), np.empty(n), np.empty(n - 2 * k, dtype=bool))

    def __call__(self, f: np.ndarray) -> None:
        if not f.flags.c_contiguous:
            raise ValueError("the field must be C-contiguous")
        f, k = f.reshape(-1), self.step
        b, flux, q, mask = self.work
        np.subtract(f[k:], f[:-k], out=b)
        b[self.seams] = 0.0
        # Half the van Leer slope (a|b| + |a|b) / (|a| + |b|) of a cell, from
        # a = b[i-k] and b = b[i]: ab / (a + b) where ab > 0, else 0 (the same
        # bits: both round 2ab / (a + b) once, outside the subnormal range).
        den, half_slope = flux[:-k], q[k:-k]
        np.multiply(b[:-k], b[k:], out=half_slope)
        np.maximum(half_slope, 0.0, out=half_slope)
        np.greater(half_slope, 0.0, out=mask)
        np.add(b[:-k], b[k:], out=den)
        np.divide(half_slope, den, out=half_slope, where=mask)
        half_slope *= self.face_weight
        half_slope += f[k:-k]
        q[:k], q[-k:] = f[:k], f[-k:]  # no slope in the first and last cells
        np.copyto(flux, q[k:])
        np.copyto(flux, q[:-k], where=self.upwind_left)
        flux *= self.c
        f[:-k] -= flux
        f[k:] += flux


def _velocity_operator(ks: KineticSpec, grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower, main and upper diagonals of the tridiagonal (nv, nv)
    divergence-form matrix A for d/dv (nu v f + sigma d/dv f) with zero-flux
    walls.  A has zero column sums, so the implicit step conserves mass
    exactly."""
    dv = grid.dv
    vh = 0.5 * (grid.v[:-1] + grid.v[1:])
    # Interface flux G_{j+1/2} = nu*vh*(f_j+f_{j+1})/2 + sigma*(f_{j+1}-f_j)/dv
    # = dv (c_j f_j + c1_j f_{j+1}); df_j/dt = (G_{j+1/2} - G_{j-1/2})/dv.
    c = (0.5 * ks.nu * vh - ks.sigma / dv) / dv
    c1 = (0.5 * ks.nu * vh + ks.sigma / dv) / dv
    diag = np.zeros(grid.nv)
    diag[:-1] += c
    diag[1:] -= c1
    return -c, diag, c1


class _CrankNicolson:
    """The Crank-Nicolson step f_new = R f, R = (I - dt/2 A)^-1 (I + dt/2 A),
    along axis 1 for the tridiagonal A given by its three diagonals.  R's
    entries decay geometrically off the diagonal; those <= u max|R| (u the
    unit roundoff) are below the error of R itself and are dropped, leaving a
    band of width w.  A step is one O(nx nv w) product per ``_BLOCK`` output
    columns with the input columns their band reaches."""

    _BLOCK = 32

    def __init__(self, diagonals, dt: float, shape: tuple[int, int]):
        lower, diag, upper = (0.5 * dt * d for d in diagonals)
        R = linalg.solve_tridiagonal(-lower, 1.0 - diag, -upper,
                                     np.diag(1.0 + diag) + np.diag(lower, -1) + np.diag(upper, 1))
        R[np.abs(R) <= 0.5 * np.finfo(float).eps * np.abs(R).max()] = 0.0
        self.blocks = []  # (input columns, output columns, R^T restricted to them)
        for outputs in (slice(j, j + self._BLOCK) for j in range(0, shape[1], self._BLOCK)):
            reach = np.flatnonzero(R[outputs].any(axis=0))
            inputs = slice(reach[0], reach[-1] + 1)
            self.blocks.append((inputs, outputs, np.ascontiguousarray(R[outputs, inputs].T)))

    def __call__(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The step of ``f``, written to ``out`` and returned."""
        for inputs, outputs, Rt in self.blocks:
            np.matmul(f[:, inputs], Rt, out=out[:, outputs])
        return out


def _series_point(f, f_inf, ks, grid, P):
    """(e, I, S) of the log-entropy of f against f_inf on the grid."""
    gen = LogEntropy()
    r = np.maximum(f / f_inf, gen.domain_min + TOL.ratio_floor)
    e = float(np.sum(gen.psi(r, 0) * f_inf) * grid.cell)
    gx, gv = np.gradient(r, grid.dx, axis=0), np.gradient(r, grid.dv, axis=1)
    psi2 = gen.psi(r, 2)
    i_val = float(np.sum(psi2 * ks.sigma * gv * gv * f_inf) * grid.cell)
    quad = P[0, 0] * gx * gx + 2.0 * P[0, 1] * gx * gv + P[1, 1] * gv * gv
    s_val = float(np.sum(psi2 * quad * f_inf) * grid.cell)
    return e, i_val, s_val


def step_count(t_end: float, dt: float) -> int:
    """Number of steps of size ``dt`` that reach ``t_end``; raises
    ValueError unless dt > 0 and at least one step is taken."""
    if not (math.isfinite(dt) and dt > 0 and math.isfinite(t_end)):
        raise ValueError(f"need a finite dt > 0 and t_end, got dt = {dt!r}, t_end = {t_end!r}")
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise ValueError(f"t_end = {t_end!r} takes no step of dt = {dt!r}")
    return n_steps


def fd_simulate(ks: KineticSpec, grid: PhaseGrid, f0: np.ndarray, t_end: float, dt: float,
                P: np.ndarray | None = None, n_records: int = 50) -> KineticSeries:
    """Operator-split integration: Strang-symmetrized flux-limited transport
    in x and v (one x step of ``dt`` between unrecorded steps), Crank-Nicolson
    velocity friction+diffusion as one O(nx nv w) product with its propagator
    cut to a band of width w (entries <= u max|R| dropped), zero-flux walls.
    Mass is conserved to roundoff; a CFL violation or an under-resolved steady
    state raises KineticError before stepping, and invalid arguments (``dt``,
    ``t_end``, an ``f0`` of the wrong shape, not finite, negative or without
    mass) ValueError.

    Returns discrete log-entropy/dissipation series against the discretized
    steady state, the final field, the CFL number and the mass drift.
    """
    n_steps = step_count(t_end, dt)
    f = np.array(f0, dtype=float, order="C")
    if f.shape != (grid.nx, grid.nv):
        raise ValueError(f"f0 has shape {f.shape}, the grid needs {(grid.nx, grid.nv)}")
    if not (np.isfinite(f).all() and f.min() >= 0.0 and f.sum() > 0.0):
        raise ValueError("f0 must be finite and nonnegative with positive mass")
    if P is None:
        P = build_P_kinetic(ks.nu, ks.omega0)
    f_inf = steady_state_grid(ks, grid)

    # Steady state must be resolved: negligible mass in the outermost cells.
    edge_mass = (f_inf[0, :].sum() + f_inf[-1, :].sum() + f_inf[:, 0].sum() + f_inf[:, -1].sum()) * grid.cell
    if edge_mass > TOL.edge_mass:
        raise KineticError(f"steady-state mass on the domain boundary is {edge_mass:.2e} "
                           f"(> {TOL.edge_mass:g}): enlarge the domain")
    vmax = max(abs(grid.v[0]), abs(grid.v[-1]))
    amax = float(np.max(np.abs(ks.Vp(grid.x))))
    cfl = dt * max(vmax / grid.dx, amax / grid.dv)
    if cfl > 1.0:
        raise KineticError(f"CFL number {cfl:.3f} > 1; reduce dt")

    rec_every = max(1, n_steps // max(n_records - 1, 1))
    rows = []  # (t, e, I, S, mass) per record

    def record(t):
        rows.append((t, *_series_point(f, f_inf, ks, grid, P), f.sum() * grid.cell))

    record(0.0)
    x_half = _Sweep(grid.v, grid.dx, 0.5 * dt, 0, f.shape)
    x_full = _Sweep(grid.v, grid.dx, dt, 0, f.shape, work=x_half)
    # dv/dt = -V'(x) along characteristics
    v_sweep = _Sweep(-ks.Vp(grid.x), grid.dv, 0.5 * dt, 1, f.shape)
    velocity_step = _CrankNicolson(_velocity_operator(ks, grid), dt, f.shape)
    spare = np.empty_like(f)
    x_half(f)
    for n in range(1, n_steps + 1):
        v_sweep(f)
        f, spare = velocity_step(f, spare), f  # the old field's memory is free now
        v_sweep(f)
        if n % rec_every == 0 or n == n_steps:
            x_half(f)
            record(n * dt)
            if n < n_steps:
                x_half(f)
        else:
            x_full(f)

    times, es, iss, ss_, ms = np.array(rows).T
    drift = abs(ms[-1] - ms[0]) / max(t_end, 1.0)
    if not drift <= TOL.mass_drift:
        raise KineticError(f"mass drift {drift:.2e} per unit time exceeds {TOL.mass_drift:g}")
    return KineticSeries(times=times, entropy=es, dissipation=iss, modified=ss_, mass=ms,
                         f_final=f, grid=grid, cfl=cfl, mass_drift=drift)


def fit_decay_rate(times: np.ndarray, values: np.ndarray, window: tuple[float, float] | None = None) -> float:
    """Least-squares slope of -log(values) over the time window (defaults to
    the second half, where envelope behavior is asymptotic)."""
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    if window is None:
        window = (0.5 * times[-1], times[-1])
    mask = (times >= window[0]) & (times <= window[1]) & (values > 0)
    t, y = times[mask], np.log(values[mask])
    return -float(np.polyfit(t, y, 1)[0])
