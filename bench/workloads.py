"""The four benchmark workloads: seeded inputs, one op, and its checks.

A workload builds its whole input set from the seed when it is created
(that is set-up, timed as ``setup_s``).  ``run`` is one op and is the only
timed code; ``check`` compares the op's outputs with the benchmark's own
references afterwards.  The program sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import hypofp as hp
from hypofp import cli, kinetic, linalg, spectrum, system

import checks
from checks import Failure

HERE = os.path.dirname(os.path.abspath(__file__))
D3_REFERENCE = os.path.join(HERE, "reference_d3.json")


def whitened_gaussian(rng, L, mean_scale, eig_lo, eig_hi):
    """Mean L z and covariance L V diag(lam) V^T L^T with whitened
    eigenvalues lam in [eig_lo, eig_hi]; K = L L^T."""
    d = L.shape[0]
    G = rng.standard_normal((d, d))
    _, V = np.linalg.eigh(G + G.T)
    lam = rng.uniform(eig_lo, eig_hi, d)
    cov = L @ (V * lam) @ V.T @ L.T
    return L @ (mean_scale * rng.standard_normal(d)), 0.5 * (cov + cov.T)


# ---------------------------------------------------------------------------
# certify-sweep


CERTIFY_DIMS = (2, 3, 4, 6, 8, 10)
CERTIFY_DRAWS = 40  # per (d, rank) stratum; enough that fail_ratio varies little with the seed
SPECTRUM_DEGREE = 2
PBH_MIN = 1e-3
STABILITY_MIN = 0.2
CERTIFY_STAGES = ("spec", "condition", "steady", "build_P", "verify_P", "lambda_P",
                  "eigen", "spectrum", "poly", "compare")


@dataclass
class CertifyInput:
    """One random system with the benchmark's references for it."""

    d: int
    rank: int
    C: np.ndarray
    D: np.ndarray
    pbh: float
    mu: float
    K: np.ndarray
    Q: np.ndarray
    spectrum: np.ndarray
    lambda_K: float | None
    minimal_simple: bool
    cond_K: float
    steady_fallback: system.SteadyState = field(repr=False)
    eig_fallback: linalg.EigenStructure = field(repr=False)
    P_ref: np.ndarray = field(repr=False)
    kappa_ref: float = 0.0


def draw_system(rng, d, rank):
    """Random (C, B) screened by numpy only: PBH margin >= PBH_MIN and
    min Re eig(C) >= STABILITY_MIN.  Returns (C, B, pbh margin)."""
    while True:
        G = rng.standard_normal((d, d))
        C = G + (STABILITY_MIN + rng.uniform(0.0, 1.0) - np.linalg.eigvals(G).real.min()) * np.eye(d)
        B = rng.standard_normal((d, rank))
        margin = checks.pbh_margin(C, B)
        if margin >= PBH_MIN and np.linalg.eigvals(C).real.min() >= STABILITY_MIN:
            return C, B, margin


def certify_input(C, B, pbh) -> CertifyInput:
    d, rank = B.shape
    D = B @ B.T
    eigs = np.linalg.eigvals(C)
    mu = float(eigs.real.min())
    K = checks.lyapunov_K(C, D)
    Q = np.linalg.solve(K, C @ K).T  # K C^T K^{-1}
    sign, logdet = np.linalg.slogdet(K)
    cK = (2.0 * math.pi) ** (-d / 2.0) * math.exp(-0.5 * logdet) if sign > 0 else math.inf
    M = C @ K - K @ C.T
    kappa_ref = 0.99 * mu
    P_ref = checks.shift_certificate(Q, kappa_ref)
    if np.linalg.eigvalsh(P_ref)[0] <= 0:  # Q too ill-conditioned for the shift solve
        P_ref = np.eye(d)
    return CertifyInput(
        d=d, rank=rank, C=C, D=D, pbh=pbh, mu=mu, K=K, Q=Q,
        spectrum=checks.spectrum_reference(eigs, SPECTRUM_DEGREE),
        lambda_K=checks.pencil_min(K, D) if rank == d else None,
        minimal_simple=checks.minimal_eigs_simple(eigs, max(np.linalg.norm(C, 2), 1.0)),
        cond_K=float(np.linalg.cond(K)),
        steady_fallback=system.SteadyState(K=K, cK=cK, R=0.25 * (M - M.T), Q=Q),
        eig_fallback=linalg.EigenStructure(
            eigenvalues=tuple(complex(x) for x in eigs),
            algebraic=(1,) * d, geometric=(1,) * d, chains=()),
        P_ref=P_ref,
        kappa_ref=kappa_ref,
    )


class CertifySweep:
    """Random systems through every structural stage, in library calls.

    Strata d in CERTIFY_DIMS x rank D in {1, d}, CERTIFY_DRAWS each,
    interleaved so that any prefix of a pass covers every stratum.  When a
    stage fails, later stages get the benchmark's reference input instead,
    so the work per op does not depend on which stages fail.
    """

    name = "certify-sweep"
    unit = "systems"

    def __init__(self, rng, workdir):
        strata = [(d, r) for d in CERTIFY_DIMS for r in sorted({1, d})]
        self.inputs = [certify_input(*draw_system(rng, d, r))
                       for _ in range(CERTIFY_DRAWS) for d, r in strata]
        self.size = {"systems": len(self.inputs), "dims": list(CERTIFY_DIMS),
                     "ranks": "1 and d", "draws_per_stratum": CERTIFY_DRAWS,
                     "spectrum_degree": SPECTRUM_DEGREE, "pbh_min": PBH_MIN,
                     "stability_min": STABILITY_MIN}

    def work(self, inp) -> float:
        return 1.0

    def run(self, inp):
        out, errors = {}, {}

        def stage(name, fn):
            try:
                out[name] = fn()
            except Exception as exc:  # every stage failure is recorded and the op goes on
                errors[name] = exc
            return out.get(name)

        spec = stage("spec", lambda: hp.SystemSpec(D=inp.D, C=inp.C))
        if spec is None:
            return out, errors
        stage("condition", lambda: hp.check_condition_A(spec))
        ss = stage("steady", lambda: hp.steady_state(spec)) or inp.steady_fallback
        tm = stage("build_P", lambda: hp.build_P(ss))
        P, kappa = (tm.P, tm.kappa) if tm is not None else (inp.P_ref, inp.kappa_ref)
        out.update(P_used=P, kappa_used=kappa, K_used=ss.K, Q_used=ss.Q)
        stage("verify_P", lambda: hp.verify_P(ss, P, kappa))
        stage("lambda_P", lambda: hp.lambda_P(ss.K, P))
        eig = stage("eigen", lambda: linalg.eigen_structure(spec.C)) or inp.eig_fallback
        stage("spectrum", lambda: spectrum.enumerate_spectrum(eig, SPECTRUM_DEGREE).values())
        stage("poly", lambda: spectrum.poly_operator_matrix(spec, ss, SPECTRUM_DEGREE).eigenvalues())
        if inp.rank == inp.d:
            stage("compare", lambda: hp.compare_rates(spec, ss))
        return out, errors

    def check(self, inp, result) -> list[Failure]:
        out, errors = result
        fails = [checks.classify(stage, exc) for stage, exc in errors.items()]
        fails += checks.check_certify(inp, out)
        return sorted(fails, key=lambda f: CERTIFY_STAGES.index(f.stage))


# ---------------------------------------------------------------------------
# evolve-d3-tensor and evolve-d6-qmc


@dataclass
class EvolveInput:
    config: str
    outdir: str
    weights: np.ndarray
    means: list
    covs: list
    reference: dict | None = None  # committed e/I/S/envelope (d=3)
    exact: tuple | None = None  # closed-form quadratic entropy and SE (d=6)


class Evolve:
    """``hypofp evolve`` in-process through ``cli.run``; one op is one run."""

    unit = "samples"
    tracer = None

    def __init__(self, workdir, C, D, entropy_kind, t_end, samples):
        self.C, self.D = np.asarray(C, float), np.asarray(D, float)
        self.K = checks.lyapunov_K(self.C, self.D)
        self.entropy_kind = entropy_kind
        self.times = np.linspace(0.0, t_end, samples)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.inputs = []

    def add_input(self, weights, means, covs, reference=None):
        i = len(self.inputs)
        cfg = {
            "system": {"D": self.D.tolist(), "C": self.C.tolist()},
            "entropy": {"kind": self.entropy_kind},
            "initial": {"components": [
                {"weight": float(w), "mean": np.asarray(m).tolist(), "cov": np.asarray(A).tolist()}
                for w, m, A in zip(weights, means, covs)]},
            "times": {"t_end": float(self.times[-1]), "samples": len(self.times)},
        }
        path = os.path.join(self.workdir, f"{self.name}-{i}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        self.inputs.append(EvolveInput(path, os.path.join(self.workdir, f"{self.name}-{i}"),
                                       np.asarray(weights, float), means, covs, reference))

    def work(self, inp) -> float:
        return float(len(self.times))

    def run(self, inp):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.run("evolve", inp.config, inp.outdir, "csv", "none")
        if self.tracer is not None:
            self.tracer.count("cli.bytes_written",
                              sum(os.path.getsize(p) for p in stdout.getvalue().split()))
        return rc, stderr.getvalue()

    def read_series(self, inp):
        data = np.loadtxt(os.path.join(inp.outdir, "evolve.csv"), delimiter=",",
                          skiprows=1, ndmin=2)
        return {"t": data[:, 0], "e": data[:, 1], "I": data[:, 2], "S": data[:, 3],
                "envelope": data[:, 4]}

    def check(self, inp, result) -> list[Failure]:
        rc, err = result
        if rc != 0:
            return [Failure("evolve", checks.ERROR, f"exit code {rc}: {err.strip()}")]
        s = self.read_series(inp)
        if not np.allclose(s["t"], self.times, rtol=0, atol=1e-12):
            return [Failure("evolve", checks.CHECK_FAILED, "unexpected time grid")]
        return checks.check_series(s["e"], s["I"], s["S"], s["envelope"]) + self.check_values(inp, s)


EVOLVE_D3_PER_SEED = 4


class EvolveD3Tensor(Evolve):
    """d = 3, D = diag(1,0,0), 2-component log-entropy mixtures, tensor
    Gauss-Hermite order 64 (262 144 nodes).  The log entropy of a mixture
    has no closed form, so the initial data are drawn by the seed from a
    committed pool whose outputs were recorded at order 64."""

    name = "evolve-d3-tensor"

    def __init__(self, rng, workdir):
        with open(D3_REFERENCE) as fh:
            ref = json.load(fh)
        super().__init__(workdir, ref["system"]["C"], ref["system"]["D"], "log",
                         ref["t_end"], ref["samples"])
        for i in rng.choice(len(ref["pool"]), EVOLVE_D3_PER_SEED, replace=False):
            item = ref["pool"][int(i)]
            self.add_input(item["weights"], [np.array(m) for m in item["means"]],
                           [np.array(A) for A in item["covs"]], item["outputs"])
        self.size = {"runs": len(self.inputs), "d": 3, "components": 2,
                     "samples_per_run": len(self.times), "quadrature_nodes": 64 ** 3,
                     "pool": len(ref["pool"])}

    def check_values(self, inp, s) -> list[Failure]:
        fails = []
        for key in ("e", "I", "S", "envelope"):
            fails += checks.check_against_reference(key, s[key], inp.reference[key],
                                                    checks.D3_REFERENCE_RTOL)
        return fails


EVOLVE_D6_PER_SEED = 8
EVOLVE_D6_SAMPLES = 40
EVOLVE_D6_T_END = 4.0
QMC_NODES = 4096


def evolve_d6_system():
    """A damped chain of six oscillators driven by noise in two of them:
    rank-2 D, hypoelliptic with tau = 2, cond K ~ 80."""
    d = 6
    C = np.diag([1.0, 1.3, 0.8, 1.1, 0.9, 1.2])
    for i in range(d - 1):
        C[i, i + 1] -= 1.0
        C[i + 1, i] += 1.0
    D = np.zeros((d, d))
    D[0, 0] = D[3, 3] = 1.0
    return C, D


class EvolveD6Qmc(Evolve):
    """d = 6, rank-2 D, 3-component signed mixtures with quadratic entropy,
    scrambled-Sobol QMC with 4096 nodes.  Component covariances stay within
    [0.6 K, K], so every moment of f/f_inf the checks need is finite."""

    name = "evolve-d6-qmc"

    def __init__(self, rng, workdir):
        super().__init__(workdir, *evolve_d6_system(), "quadratic",
                         EVOLVE_D6_T_END, EVOLVE_D6_SAMPLES)
        L = np.linalg.cholesky(self.K)
        for _ in range(EVOLVE_D6_PER_SEED):
            neg = rng.uniform(0.1, 0.3)
            w1 = rng.uniform(0.3, 0.8)
            comps = [whitened_gaussian(rng, L, 0.3, 0.6, 1.0) for _ in range(3)]
            self.add_input([w1, 1.0 + neg - w1, -neg], [m for m, _ in comps],
                           [A for _, A in comps])
        self.size = {"runs": len(self.inputs), "d": 6, "rank_D": 2, "components": 3,
                     "samples_per_run": len(self.times), "quadrature_nodes": QMC_NODES}

    def exact(self, inp):
        if inp.exact is None:
            values = []
            for t in self.times:
                flowed = [checks.evolve_gaussian(m, A, self.C, self.K, t)
                          for m, A in zip(inp.means, inp.covs)]
                values.append(checks.quadratic_entropy(
                    inp.weights, [m for m, _ in flowed], [A for _, A in flowed], self.K))
            inp.exact = tuple(np.array(v) for v in zip(*values))
        return inp.exact

    def check_values(self, inp, s) -> list[Failure]:
        e_exact, se = self.exact(inp)
        return checks.check_qmc_entropy(s["e"], e_exact, se, QMC_NODES)


# ---------------------------------------------------------------------------
# kinetic-fd


KINETIC_DT = 0.004
KINETIC_STEPS = 50
KINETIC_RECORDS = 5
KINETIC_EPS = 0.3
KINETIC_RANGE = (-6.0, 6.0)
# One pass: criterion-10 runs on 256^2 ("quadratic") and cosine-potential
# runs on 128^2, interleaved.  Twice as many 256^2 runs keep the median and
# the tail inside one problem class.
KINETIC_PASS = ("quadratic", "quadratic", "cosine") * 2


@dataclass
class KineticInput:
    problem: str  # "quadratic" | "cosine"
    ks: kinetic.KineticSpec
    grid: kinetic.PhaseGrid
    f0: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    exact: np.ndarray | None = None


def _cells(n):
    lo, hi = KINETIC_RANGE
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h, h


def _cosine_potential(x):
    return 0.5 * np.asarray(x) ** 2 + KINETIC_EPS * np.cos(x)


def _cosine_force(x):
    return np.asarray(x) - KINETIC_EPS * np.sin(x)


class KineticFd:
    """``kinetic.fd_simulate`` in library calls (the CLI does not write out
    f_final, which the L2 check needs).  nu = sigma = omega0 = 1, dt 0.004,
    Gaussian initial data with seeded mean near (1, 0) and covariance near
    0.8 I."""

    name = "kinetic-fd"
    unit = "cell-steps"

    def __init__(self, rng, workdir):
        self.inputs = []
        for problem in KINETIC_PASS:
            if problem == "cosine":
                n = 128
                ks = kinetic.KineticSpec(nu=1.0, sigma=1.0, omega0=1.0,
                                         vtilde_dd_bound=KINETIC_EPS,
                                         potential=_cosine_potential,
                                         dpotential=_cosine_force)
            else:
                n = 256
                ks = kinetic.KineticSpec(nu=1.0, sigma=1.0, omega0=1.0)
            V, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            cov = (V * rng.uniform(0.7, 0.9, 2)) @ V.T
            mean = np.array([1.0, 0.0]) + 0.1 * rng.standard_normal(2)
            x, h = _cells(n)
            f0 = checks.gaussian_on_cells(mean, cov, x, x)
            grid = kinetic.PhaseGrid(x_range=KINETIC_RANGE, v_range=KINETIC_RANGE, nx=n, nv=n)
            self.inputs.append(KineticInput(problem, ks, grid, f0 / (f0.sum() * h * h), mean, cov))
        self.size = {"runs": len(self.inputs), "quadratic_grid": "256x256",
                     "cosine_grid": "128x128", "steps_per_run": KINETIC_STEPS,
                     "dt": KINETIC_DT, "cosine_epsilon": KINETIC_EPS}

    def work(self, inp) -> float:
        return float(inp.grid.nx * inp.grid.nv * KINETIC_STEPS)

    def run(self, inp):
        P = kinetic.kinetic_rate(inp.ks).P if inp.problem == "cosine" else None
        return kinetic.fd_simulate(inp.ks, inp.grid, inp.f0, KINETIC_STEPS * KINETIC_DT,
                                   KINETIC_DT, P=P, n_records=KINETIC_RECORDS)

    def exact(self, inp):
        """Exact Gaussian flow of the quadratic problem at t_end, on the cells."""
        if inp.exact is None:
            C = np.array([[0.0, -1.0], [1.0, 1.0]])
            K = checks.lyapunov_K(C, np.diag([0.0, 1.0]))
            mean, cov = checks.evolve_gaussian(inp.mean, inp.cov, C, K, KINETIC_STEPS * KINETIC_DT)
            x, _ = _cells(inp.grid.nx)
            inp.exact = checks.gaussian_on_cells(mean, cov, x, x)
        return inp.exact

    def check(self, inp, series) -> list[Failure]:
        _, h = _cells(inp.grid.nx)
        exact = self.exact(inp) if inp.problem == "quadratic" else None
        return checks.check_kinetic(series, h * h, exact)


WORKLOADS = {w.name: w for w in (CertifySweep, EvolveD3Tensor, EvolveD6Qmc, KineticFd)}
