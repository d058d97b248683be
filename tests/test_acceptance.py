"""End-to-end acceptance checks.

Each test covers one acceptance criterion and records a single PASS/FAIL
line; conftest prints them in the terminal summary so they are visible in
any pytest invocation.
"""

import functools
import time

import numpy as np
import pytest

import hypofp as hp
from hypofp import entropy as ent, flow, kinetic as kin, linalg
from conftest import (
    assert_multisets_close,
    make_defective_minimal_system,
    make_random_system,
    spd_sqrt,
)


# One pass/fail line per criterion; conftest prints these in the terminal
# summary so they survive pytest's output capture.
RESULT_LINES = []


def announce(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                RESULT_LINES.append(f"{label}: FAIL")
                raise
            RESULT_LINES.append(
                f"{label}: PASS{' — ' + detail if detail else ''}"
            )
        return wrapper
    return deco


SEC8 = dict(D=np.diag([0.25, 1.0]), C=np.array([[0.25, -4.0], [4.0, 1.0]]))
FIG1B = dict(D=np.diag([1.0, 0.0]), C=np.array([[1.0, -1.0], [1.0, 0.0]]))


@announce("criterion 1 (rotational worked example)")
def test_criterion_1_rotational_example():
    t0 = time.perf_counter()
    spec = hp.SystemSpec(**SEC8)
    ss = hp.steady_state(spec)
    assert np.linalg.norm(ss.K - np.eye(2), 2) <= 1e-10
    assert hp.compare_rates(spec, ss).lambda_K == pytest.approx(0.25, abs=1e-12)
    report = hp.check_condition_A(spec)
    assert report.mu == pytest.approx(0.625, abs=1e-12)

    tm = hp.build_P(ss)
    lam_P = hp.lambda_P(ss.K, tm.P)
    v0 = np.array([1.0, 0.0])
    S0 = np.vdot(tm.P, hp.gaussian_log_functionals(v0, ss.K, ss)[1])
    amp = S0 / (2.0 * lam_P)

    times = np.linspace(0.0, 8.0, 400)
    e_vals = np.array([
        hp.gaussian_log_functionals(hp.evolve_shift(v0, t, spec.C), ss.K, ss)[0] for t in times
    ])
    env = amp * np.exp(-1.25 * times)
    assert np.all(e_vals <= env * (1 + 1e-9)), "envelope violated"

    def ratio(t):
        return hp.gaussian_log_functionals(hp.evolve_shift(v0, t, spec.C), ss.K, ss)[0] / (
            amp * np.exp(-1.25 * t)
        )

    hits = flow.tangency_times(times, e_vals / env, fun=ratio, gap=1e-2)
    assert len(hits) >= 3, f"only {len(hits)} tangencies"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5.0
    return f"{len(hits)} tangencies, {elapsed:.2f}s"


@announce("criterion 2 (degenerate 2x2, non-convex decay)")
def test_criterion_2_degenerate_example():
    spec = hp.SystemSpec(**FIG1B)
    ss = hp.steady_state(spec)
    report = hp.check_condition_A(spec)
    assert report.tau == 1
    assert report.mu == pytest.approx(0.5, abs=1e-12)
    assert np.linalg.norm(ss.K - np.eye(2), 2) <= 1e-12

    q = hp.gauss_hermite_rule(ss.K, 64)
    gen = ent.LogEntropy()
    t_star = 1.0
    v0 = hp.zero_tangent_initial(t_star, np.array([0.0, 1.0]), ss)
    for t in np.linspace(0.0, 4.0, 9):
        vt = hp.evolve_shift(v0, t, spec.C)
        f = ent.shifted_steady(ss, vt)
        e_quad = ent.functionals(f, ss, gen, q)[0]
        assert e_quad == pytest.approx(hp.gaussian_log_functionals(vt, ss.K, ss)[0], abs=1e-8)

    # Dissipation vanishes exactly where (K^{-1} v(t))_1 = 0 while e > 0.01.
    v_star = hp.evolve_shift(v0, t_star, spec.C)
    assert abs(np.linalg.solve(ss.K, v_star)[0]) <= 1e-10
    f_star = ent.shifted_steady(ss, v_star)
    e_star, G_star = ent.functionals(f_star, ss, gen, q)
    I_star = np.vdot(spec.D, G_star)
    assert abs(I_star) <= 1e-8
    assert e_star > 0.01
    return f"|I| = {abs(I_star):.1e} at t* with e = {e_star:.3f}"


@announce("criterion 3 (4-dim rank-index pairs)")
def test_criterion_3_tau_pairs():
    D = np.diag([1.0, 1.0, 0.0, 0.0])
    C1T = np.array([[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], float)
    C2T = np.array([[1, 0, 0, 0], [0, 1, -1, 0], [0, 1, 0, -1], [0, 0, 1, 0]], float)
    tau1 = hp.hoermander_tau(hp.SystemSpec(D=D, C=C1T.T))[0]
    tau2 = hp.hoermander_tau(hp.SystemSpec(D=D, C=C2T.T))[0]
    assert tau1 == 1
    assert tau2 == 2
    return "tau = 1 and tau = 2"


@announce("criterion 4 (Lyapunov property sweep)")
def test_criterion_4_lyapunov_sweep():
    rng = np.random.default_rng(20260824 + 4)
    n_ok = 0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        spec, _ = make_random_system(rng, d)
        ss = hp.steady_state(spec)
        resid = np.linalg.norm(2 * spec.D - spec.C @ ss.K - ss.K @ spec.C.T, 2)
        scale = np.linalg.norm(spec.C, 2) * np.linalg.norm(ss.K, 2) + np.linalg.norm(spec.D, 2)
        assert resid <= 1e-10 * scale
        assert linalg.min_sym_eigenvalue(ss.K) > 0
        n_ok += 1
    # Constructed singular cases: an eigenvector of C^T inside ker D.
    n_sing = 0
    for lam in (0.5, 1.0, 2.0):
        C = np.array([[1.0, 1.0], [0.0, lam]])  # C^T e2 = lam e2 with e2 in ker D
        with pytest.raises(np.linalg.LinAlgError):
            hp.steady_state(hp.SystemSpec(D=np.diag([1.0, 0.0]), C=C))
        n_sing += 1
    return f"{n_ok} random draws, {n_sing} singular cases detected"


@announce("criterion 5 (transport-matrix inequality sweep)")
def test_criterion_5_P_sweep():
    rng = np.random.default_rng(20260824 + 5)
    margins = []
    inflated_fail = 0
    inflated_total = 0
    for _ in range(180):
        d = int(rng.integers(2, 5))
        spec, report = make_random_system(rng, d)
        ss = hp.steady_state(spec)
        tm = hp.build_P(ss)
        margin = hp.verify_P(ss, tm.P, tm.kappa)
        assert margin >= -tm.margin_tolerance
        margins.append(margin / max(np.linalg.norm(tm.P, 2), 1.0))
        # Inflated-rate negative control on simple minimal eigenvalues.
        eig = linalg.eigen_structure(ss.Q)
        mu = report.mu
        simple_minimal = all(
            ch.length == 1
            for ch in eig.chains
            if abs(ch.eigenvalue.real - mu) <= 1e-8 * max(np.linalg.norm(ss.Q, 2), 1.0)
        )
        if simple_minimal:
            inflated_total += 1
            if hp.verify_P(ss, tm.P, 1.001 * mu) < 0.0:
                inflated_fail += 1
    for _ in range(20):
        spec = make_defective_minimal_system(rng)
        ss = hp.steady_state(spec)
        tm = hp.build_P(ss, epsilon=1e-2 * spec.eig.mu)
        margin = hp.verify_P(ss, tm.P, tm.kappa)
        assert margin >= -tm.margin_tolerance
    assert inflated_fail >= 0.95 * inflated_total
    return (
        f"200 systems pass; inflated kappa rejected {inflated_fail}/{inflated_total}"
    )


@announce("criterion 6 (spectrum cross-check)")
def test_criterion_6_spectrum():
    rng = np.random.default_rng(20260824 + 6)
    checked = 0
    while checked < 50:
        d = int(rng.integers(2, 4))
        spec, report = make_random_system(rng, d)
        ss = hp.steady_state(spec)
        eig = linalg.eigen_structure(spec.C)
        m = int(rng.integers(1, 5))
        enum = hp.enumerate_spectrum(eig, m).values()
        # Distinct multi-index sums that nearly collide make the brute-force
        # matrix nearly defective (eigenvalues then lose ~half the digits);
        # resample such degenerate draws.
        dist = np.abs(enum[:, None] - enum[None, :])
        near = (dist > 0) & (dist < 1e-3)
        if np.any(near):
            continue
        checked += 1
        brute = np.linalg.eigvals(hp.poly_operator_matrix(spec, ss, m).M)
        scale = max(1.0, np.abs(enum).max())
        assert_multisets_close(enum, brute, atol=1e-6 * scale)
        gap = min(-v.real for v in enum if abs(v) > 1e-8 * scale)
        assert gap == pytest.approx(report.mu, abs=1e-10 * scale)
    # Ornstein-Uhlenbeck oracle.
    spec = hp.SystemSpec(D=np.eye(2), C=np.eye(2))
    ss = hp.steady_state(spec)
    ev = sorted(np.linalg.eigvals(hp.poly_operator_matrix(spec, ss, 2).M).real)
    assert ev == pytest.approx([-2.0, -2.0, -2.0, -1.0, -1.0, 0.0], abs=1e-12)
    return "50 random systems + OU oracle"


@announce("criterion 7 (convex Sobolev inequality, sharp constant)")
def test_criterion_7_convex_sobolev():
    rng = np.random.default_rng(20260824 + 7)
    checked = 0
    while checked < 50:
        spec, _ = make_random_system(rng, 2)
        if np.allclose(spec.C, spec.C.T, atol=1e-8):
            continue
        ss = hp.steady_state(spec)
        tm = hp.build_P(ss)
        lam_P = hp.lambda_P(ss.K, tm.P)
        q = hp.gauss_hermite_rule(ss.K, 64)
        gen = ent.LogEntropy()
        for _ in range(5):
            v = 0.7 * spd_sqrt(ss.K) @ rng.standard_normal(2)
            mix = hp.GaussianMixture((
                ent.GaussianComponent(0.5, v, ss.K),
                ent.GaussianComponent(0.5, -v, ss.K + 0.2 * np.eye(2) * float(rng.uniform(0, 1))),
            ))
            e, G = ent.functionals(mix, ss, gen, q)
            S = np.vdot(tm.P, G)
            assert e <= S / (2.0 * lam_P) * (1 + 1e-6)
            checked += 1
        # Equality state: v0 along the lambda_P-optimal direction.
        Sp = spd_sqrt(tm.P)
        w_eigs, V = np.linalg.eigh(Sp @ np.linalg.inv(ss.K) @ Sp)
        v0 = Sp @ V[:, 0]
        f_log = ent.shifted_steady(ss, v0)
        e_log, G_log = ent.functionals(f_log, ss, gen, q)
        S_log = np.vdot(tm.P, G_log)
        assert e_log == pytest.approx(S_log / (2.0 * lam_P), rel=1e-6)
        qgen = ent.QuadraticEntropy()
        f_quad = ent.affine_steady(ss, v0)
        e_quad, G_quad = ent.functionals(f_quad, ss, qgen, q)
        S_quad = np.vdot(tm.P, G_quad)
        assert e_quad == pytest.approx(S_quad / (2.0 * lam_P), rel=1e-6)
    return f"{checked} mixtures, equality states for log and quadratic"


@announce("criterion 8 (three sharp-decay scenarios)")
def test_criterion_8_sharpness():
    rng = np.random.default_rng(20260824 + 8)
    # (i) simple real minimal eigenvalue: e(t) e^{2 mu t} constant.
    C = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 1.0, 3.0]])
    spec = hp.SystemSpec(D=np.diag([1.0, 1.0, 0.0]), C=C)
    ss = hp.steady_state(spec)
    sc = hp.sharpness_scenario("real-eig", ss)
    ts = np.linspace(0.0, 5.0, 41)
    e_vals = np.array([
        hp.gaussian_log_functionals(hp.evolve_shift(sc.v0, t, spec.C), ss.K, ss)[0] for t in ts
    ])
    scaled = e_vals * np.exp(2 * sc.mu * ts)
    assert np.ptp(scaled) <= 1e-10 * scaled[0]

    # (ii) complex pair: tangency period pi/omega within 1%.
    spec2 = hp.SystemSpec(**SEC8)
    ss2 = hp.steady_state(spec2)
    sc2 = hp.sharpness_scenario("complex-pair", ss2)
    omega = sc2.omega

    def ratio(t):
        v = hp.evolve_shift(sc2.v0, t, spec2.C)
        return hp.gaussian_log_functionals(v, ss2.K, ss2)[0] * np.exp(2 * sc2.mu * t)

    times = np.linspace(0.0, 8.0, 400)
    vals = np.array([ratio(t) for t in times])
    peaks = flow.tangency_times(times, vals / vals.max(), fun=lambda t: ratio(t) / vals.max(), gap=1.0)
    gaps = np.diff(peaks)
    assert np.all(np.abs(gaps - np.pi / omega) <= 0.01 * np.pi / omega)

    # (iii) defective pair: quadratic polynomial factor, fit residual <= 1e-8.
    spec3 = make_defective_minimal_system(rng)
    ss3 = hp.steady_state(spec3)
    sc3 = hp.sharpness_scenario("defective", ss3)
    ts3 = np.linspace(0.0, 4.0, 41)
    e3 = np.array([
        hp.gaussian_log_functionals(hp.evolve_shift(sc3.v0, t, spec3.C), ss3.K, ss3)[0] for t in ts3
    ])
    scaled3 = e3 * np.exp(2 * sc3.mu * ts3)
    coeffs = np.polyfit(ts3, scaled3, 2)
    resid = np.max(np.abs(np.polyval(coeffs, ts3) - scaled3))
    assert resid <= 1e-8 * max(np.max(np.abs(scaled3)), 1.0)
    return f"period error {np.max(np.abs(gaps - np.pi / omega)) / (np.pi / omega):.2e}, quad resid {resid:.1e}"


@announce("criterion 9 (modified-dissipation decay and scaling)")
def test_criterion_9_s_decay_and_scaling():
    # S-decay along the criterion 1 and 2 trajectories.
    for params, v0 in ((SEC8, np.array([1.0, 0.0])), (FIG1B, np.array([1.3, 0.6]))):
        spec = hp.SystemSpec(**params)
        ss = hp.steady_state(spec)
        tm = hp.build_P(ss)
        times = np.linspace(0.0, 8.0, 200)
        S_vals = np.array([
            np.vdot(tm.P, hp.gaussian_log_functionals(hp.evolve_shift(v0, t, spec.C), ss.K, ss)[1])
            for t in times
        ])
        bound = S_vals[0] * np.exp(-2.0 * tm.kappa * times)
        assert np.all(S_vals <= bound * (1 + 1e-4))

    # Short-time regularisation scaling: sup_t t^{2 tau + 1} S(f(t)) / e(f0)
    # varies by less than a factor 10 across sharply concentrated data.
    spec = hp.SystemSpec(**FIG1B)
    ss = hp.steady_state(spec)
    tm = hp.build_P(ss)
    tau = hp.hoermander_tau(spec)[0]
    sups = []
    ts = np.geomspace(1e-4, 1.0, 120)
    for delta in (0.1, 0.01, 0.001):
        A0 = delta ** 2 * ss.K
        e0 = hp.gaussian_log_functionals(np.zeros(2), A0, ss)[0]
        vals = [
            t ** (2 * tau + 1)
            * np.vdot(tm.P, hp.gaussian_log_functionals(np.zeros(2), hp.evolve_cov(A0, t, ss), ss)[1])
            / e0
            for t in ts
        ]
        sups.append(max(vals))
    ratio = max(sups) / min(sups)
    assert ratio < 10.0
    return f"scaling ratio {ratio:.2f} < 10"


@announce("criterion 10 (kinetic equation)")
def test_criterion_10_kinetic():
    rng = np.random.default_rng(20260824 + 10)
    # kappa0 equals the spectral abscissa of the assembled system.
    for _ in range(20):
        nu = float(rng.uniform(0.3, 4.0))
        omega0 = float(rng.uniform(0.3, 3.0))
        if abs(nu - 2 * omega0) < 1e-3:
            omega0 += 0.1
        ks = kin.KineticSpec(nu=nu, sigma=1.0, omega0=omega0)
        report = hp.check_condition_A(hp.assemble_linear(ks))
        assert hp.kappa0(nu, omega0) == pytest.approx(report.mu, abs=1e-10 * max(1.0, report.mu))

    # Closed-form P matrices verify at kappa0 in both regimes.
    for nu, omega0 in ((1.0, 1.0), (5.0, 2.0)):
        ks = kin.KineticSpec(nu=nu, sigma=1.0, omega0=omega0)
        ss = hp.steady_state(hp.assemble_linear(ks))
        P = hp.build_P_kinetic(nu, omega0)
        margin = hp.verify_P(ss, P, hp.kappa0(nu, omega0))
        assert margin >= -1e-8 * np.linalg.norm(P, 2)

    # Perturbation bound sharp at the boundary.
    P = hp.build_P_kinetic(1.0, 1.0)
    tau_max = kin.perturbation_bound(P, 1.0)
    w = np.linalg.eigvalsh(kin.perturbed_margin_matrix(P, 1.0, tau_max))
    assert abs(w[0]) <= 1e-10

    # FD simulation of the quadratic case vs the exact Gaussian flow.
    t0 = time.perf_counter()
    ks = kin.KineticSpec(nu=1.0, sigma=1.0, omega0=1.0)
    grid = kin.PhaseGrid(x_range=(-6.0, 6.0), v_range=(-6.0, 6.0), nx=256, nv=256)
    spec = hp.assemble_linear(ks)
    ss = hp.steady_state(spec)
    mean0, cov0 = np.array([1.0, 0.0]), 0.8 * np.eye(2)
    f0 = kin.gaussian_on_grid(mean0, cov0, grid)
    f0 /= f0.sum() * grid.cell
    t_end = 5.0
    series = kin.fd_simulate(ks, grid, f0, t_end=t_end, dt=0.004, n_records=10)
    exact = kin.gaussian_on_grid(
        hp.evolve_shift(mean0, t_end, spec.C),
        hp.evolve_cov(cov0, t_end, ss),
        grid,
    )
    l2 = float(np.sqrt(np.sum((series.f_final - exact) ** 2) * grid.cell))
    assert l2 <= 5e-3
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0

    # Cosine perturbation inside the admissible range: fitted decay of the
    # modified dissipation reaches at least 90% of the certified rate.
    epsp = 0.3
    ksp = kin.KineticSpec(
        nu=1.0, sigma=1.0, omega0=1.0, vtilde_dd_bound=epsp,
        potential=lambda x: 0.5 * x ** 2 + epsp * np.cos(x),
        dpotential=lambda x: x - epsp * np.sin(x),
    )
    cert = hp.kinetic_rate(ksp)
    gridp = kin.PhaseGrid(x_range=(-6.0, 6.0), v_range=(-6.0, 6.0), nx=128, nv=128)
    fp0 = kin.gaussian_on_grid(np.array([1.0, 0.0]), 0.8 * np.eye(2), gridp)
    fp0 /= fp0.sum() * gridp.cell
    sp = kin.fd_simulate(ksp, gridp, fp0, t_end=5.0, dt=0.004, P=cert.P, n_records=40)
    fitted = kin.fit_decay_rate(sp.times, sp.modified, window=(1.0, 4.0))
    assert fitted >= 0.9 * cert.rate
    return (
        f"L2 error {l2:.1e} in {elapsed:.0f}s; fitted rate {fitted:.2f} "
        f">= 0.9 x {cert.rate:.3f}"
    )


@announce("criterion 11 (3-dim rate/constant non-simultaneity)")
def test_criterion_11_counterexample():
    C = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 1.0, 3.0]])
    spec = hp.SystemSpec(D=np.diag([1.0, 1.0, 0.0]), C=C)
    ss = hp.steady_state(spec)
    K_ref = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, -0.1], [0.0, -0.1, 1.0 / 30.0]])
    assert np.allclose(ss.K, K_ref, atol=1e-12)
    report = hp.check_condition_A(spec)
    assert report.mu == pytest.approx(1.0, abs=1e-12)
    P = np.array([[2.0, 0, 0], [0, 61.0, -11.0], [0, -11.0, 2.0]])
    margin = hp.verify_P(ss, P, 1.0)
    assert margin >= -1e-8 * np.linalg.norm(P, 2)
    # The lambda_P-optimal direction lives in the fast subspace: the shifted
    # state decays strictly faster than e^{-2 mu t}.
    Sp = spd_sqrt(P)
    _, V = np.linalg.eigh(Sp @ np.linalg.inv(ss.K) @ Sp)
    v0 = Sp @ V[:, 0]
    ts = np.linspace(0.5, 2.5, 21)
    e_vals = np.array([
        hp.gaussian_log_functionals(hp.evolve_shift(v0, t, spec.C), ss.K, ss)[0] for t in ts
    ])
    fitted = -np.polyfit(ts, np.log(e_vals), 1)[0]
    mu2 = 2.0
    assert fitted >= 2.0 * mu2 * 0.99
    return f"margin {margin:.1e}, fitted fast rate {fitted:.2f} >= 3.96"
