import math

import numpy as np
import pytest
import scipy.linalg

import hypofp as hp
from hypofp import kinetic as kin


class TestLinearAssembly:
    def test_matrices(self):
        ks = kin.KineticSpec(nu=1.0, sigma=1.0, omega0=1.0)
        spec = hp.assemble_linear(ks)
        assert np.array_equal(spec.D, [[0.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(spec.C, [[0.0, -1.0], [1.0, 1.0]])

    def test_steady_covariance(self):
        # K = (sigma/nu) diag(1/omega0^2, 1).
        ks = kin.KineticSpec(nu=2.0, sigma=3.0, omega0=0.5)
        ss = hp.steady_state(hp.assemble_linear(ks))
        assert np.allclose(ss.K, 1.5 * np.diag([4.0, 1.0]), atol=1e-12)

    def test_rejects_perturbed(self):
        ks = kin.KineticSpec(nu=1.0, sigma=1.0, omega0=1.0, vtilde_dd_bound=0.1)
        with pytest.raises(kin.KineticError):
            hp.assemble_linear(ks)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            kin.KineticSpec(nu=0.0, sigma=1.0, omega0=1.0)
        with pytest.raises(ValueError):
            kin.KineticSpec(nu=1.0, sigma=-1.0, omega0=1.0)
        with pytest.raises(ValueError):
            kin.KineticSpec(nu=1.0, sigma=1.0, omega0=0.0)


class TestKappa0:
    def test_underdamped(self):
        # nu = 1, omega0 = 1: underdamped, 2 kappa0 = nu.
        assert hp.kappa0(1.0, 1.0) == pytest.approx(0.5)

    def test_overdamped(self):
        # nu = 5/2, omega0 = 1: 2 kappa0 = 5/2 - 3/2 = 1.
        assert hp.kappa0(2.5, 1.0) == pytest.approx(0.5)

    def test_boundary_rejected(self):
        with pytest.raises(kin.KineticError):
            hp.kappa0(2.0, 1.0)

    def test_matches_spectral_gap(self, rng):
        for _ in range(20):
            nu = float(rng.uniform(0.3, 4.0))
            omega0 = float(rng.uniform(0.3, 3.0))
            if abs(nu - 2 * omega0) < 1e-3:
                continue
            ks = kin.KineticSpec(nu=nu, sigma=1.0, omega0=omega0)
            report = hp.check_condition_A(hp.assemble_linear(ks))
            assert report.satisfied
            assert hp.kappa0(nu, omega0) == pytest.approx(report.mu, rel=1e-10)


class TestTransportMatrix:
    def test_underdamped_matrix(self):
        P = hp.build_P_kinetic(1.0, 1.0)
        assert np.allclose(P, [[2.0, 1.0], [1.0, 2.0]])

    def test_overdamped_matrix(self):
        P = hp.build_P_kinetic(5.0, 2.0)
        assert np.allclose(P, [[2.0, 5.0], [5.0, 17.0]])

    def test_verifies_against_generic_pipeline(self, rng):
        for _ in range(20):
            nu = float(rng.uniform(0.3, 4.0))
            omega0 = float(rng.uniform(0.3, 3.0))
            if abs(nu - 2 * omega0) < 1e-3:
                continue
            ks = kin.KineticSpec(nu=nu, sigma=float(rng.uniform(0.5, 2.0)), omega0=omega0)
            ss = hp.steady_state(hp.assemble_linear(ks))
            P = hp.build_P_kinetic(nu, omega0)
            k0 = hp.kappa0(nu, omega0)
            margin = hp.verify_P(ss, P, k0)
            assert margin >= -1e-10 * np.linalg.norm(P, 2)

    def test_zero_margin(self):
        # The closed-form P is tight: the certificate matrix is singular.
        for nu, omega0 in ((1.0, 1.0), (5.0, 2.0)):
            ks = kin.KineticSpec(nu=nu, sigma=1.0, omega0=omega0)
            ss = hp.steady_state(hp.assemble_linear(ks))
            P = hp.build_P_kinetic(nu, omega0)
            margin = hp.verify_P(ss, P, hp.kappa0(nu, omega0))
            assert abs(margin) <= 1e-10 * np.linalg.norm(P, 2)


class TestPerturbationBound:
    def test_identity_scaled(self):
        # P = I: bound = lam.
        assert kin.perturbation_bound(np.eye(2), 1.0) == pytest.approx(1.0)

    def test_underdamped_example(self):
        # P = [[2,1],[1,2]], det = 3: bound = sqrt(3)/2 * lam.
        P = hp.build_P_kinetic(1.0, 1.0)
        assert kin.perturbation_bound(P, 1.0) == pytest.approx(np.sqrt(3.0) / 2.0)

    def test_sharp_at_boundary(self):
        P = hp.build_P_kinetic(1.0, 1.0)
        lam = 0.8
        tau = kin.perturbation_bound(P, lam)
        M = kin.perturbed_margin_matrix(P, lam, tau)
        w = np.linalg.eigvalsh(M)
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        # Inside the bound: strictly PSD; outside: indefinite.
        assert np.linalg.eigvalsh(kin.perturbed_margin_matrix(P, lam, 0.9 * tau))[0] > 0
        assert np.linalg.eigvalsh(kin.perturbed_margin_matrix(P, lam, 1.1 * tau))[0] < 0

    def test_sign_symmetry(self):
        P = hp.build_P_kinetic(1.0, 1.0)
        tau = kin.perturbation_bound(P, 1.0)
        for s in (-1.0, 1.0):
            w = np.linalg.eigvalsh(kin.perturbed_margin_matrix(P, 1.0, s * tau))
            assert w[0] >= -1e-12


class TestKineticRate:
    def test_quadratic_rate(self):
        cert = hp.kinetic_rate(kin.KineticSpec(nu=1.0, sigma=1.0, omega0=1.0))
        assert cert.rate == pytest.approx(1.0)
        assert cert.lam == 0.0
        assert cert.regime == "underdamped"

    def test_chain_example(self):
        # nu = 1, omega0 = 1, sup|Vt''| = sqrt(3)/4:
        # lam = (sqrt(3)/4)/sqrt(3/4) = 1/2, rate = 1 - 1/2 = 1/2.
        ks = kin.KineticSpec(nu=1.0, sigma=1.0, omega0=1.0, vtilde_dd_bound=np.sqrt(3.0) / 4.0)
        cert = hp.kinetic_rate(ks)
        assert cert.lam == pytest.approx(0.5)
        assert cert.rate == pytest.approx(0.5)

    def test_infeasible(self):
        ks = kin.KineticSpec(nu=1.0, sigma=1.0, omega0=1.0, vtilde_dd_bound=0.95)
        with pytest.raises(kin.InfeasibleError):
            hp.kinetic_rate(ks)


class TestSimulator:
    def _default(self, nx=128, nv=128):
        ks = kin.KineticSpec(nu=1.0, sigma=1.0, omega0=1.0)
        grid = kin.PhaseGrid(x_range=(-6.0, 6.0), v_range=(-6.0, 6.0), nx=nx, nv=nv)
        return ks, grid

    def test_steady_state_normalized(self):
        ks, grid = self._default()
        f_inf = kin.steady_state_grid(ks, grid)
        assert f_inf.sum() * grid.cell == pytest.approx(1.0, rel=1e-12)

    def test_steady_state_is_fixed_point(self):
        ks, grid = self._default()
        f_inf = kin.steady_state_grid(ks, grid)
        series = kin.fd_simulate(ks, grid, f_inf, t_end=1.0, dt=0.01, n_records=5)
        # Discrete entropy stays small along the run.
        assert np.all(series.entropy <= 2e-5)
        assert np.allclose(series.mass, 1.0, atol=1e-10)

    def test_mass_conserved(self):
        ks, grid = self._default()
        f0 = kin.gaussian_on_grid(np.array([1.0, 0.0]), 0.8 * np.eye(2), grid)
        f0 /= f0.sum() * grid.cell
        series = kin.fd_simulate(ks, grid, f0, t_end=1.0, dt=0.01, n_records=5)
        assert np.allclose(series.mass, 1.0, atol=1e-10)

    def test_entropy_decreases(self):
        ks, grid = self._default()
        f0 = kin.gaussian_on_grid(np.array([1.0, -0.5]), 0.7 * np.eye(2), grid)
        f0 /= f0.sum() * grid.cell
        series = kin.fd_simulate(ks, grid, f0, t_end=4.0, dt=0.01, n_records=20)
        assert np.all(np.diff(series.entropy) <= 1e-6)
        assert series.entropy[-1] < 0.05 * series.entropy[0]

    def test_gaussian_matches_exact_evolution(self):
        # Against the exact Gaussian flow of the assembled d = 2 system.
        ks, grid = self._default()
        spec = hp.assemble_linear(ks)
        ss = hp.steady_state(spec)
        mean0 = np.array([1.0, 0.0])
        cov0 = 0.8 * np.eye(2)
        f0 = kin.gaussian_on_grid(mean0, cov0, grid)
        f0 /= f0.sum() * grid.cell
        t_end = 2.0
        series = kin.fd_simulate(ks, grid, f0, t_end=t_end, dt=0.005, n_records=3)
        mean_t = hp.evolve_shift(mean0, t_end, spec.C)
        cov_t = hp.evolve_cov(cov0, t_end, ss)
        exact = kin.gaussian_on_grid(mean_t, cov_t, grid)
        err = np.sqrt(np.sum((series.f_final - exact) ** 2) * grid.cell)
        assert err <= 5e-3

    def test_merged_x_steps_match_half_steps(self):
        ks, grid = self._default()
        f0 = kin.gaussian_on_grid(np.array([1.0, 0.0]), 0.8 * np.eye(2), grid)
        f0 /= f0.sum() * grid.cell
        t_end, dt = 1.0, 0.01
        want = _strang_reference(ks, grid, f0, 100, dt)
        # Every step recorded: no x step is merged.
        series = kin.fd_simulate(ks, grid, f0, t_end=t_end, dt=dt, n_records=101)
        assert np.array_equal(series.f_final, want)
        # Only the end recorded: every x step between is one step of dt.
        series = kin.fd_simulate(ks, grid, f0, t_end=t_end, dt=dt, n_records=2)
        spec = hp.assemble_linear(ks)
        exact = kin.gaussian_on_grid(hp.evolve_shift(np.array([1.0, 0.0]), t_end, spec.C),
                                     hp.evolve_cov(0.8 * np.eye(2), t_end, hp.steady_state(spec)),
                                     grid)
        assert np.sqrt(np.sum((series.f_final - exact) ** 2) * grid.cell) <= 5e-3
        assert series.mass_drift <= 1e-13

    def test_cfl_violation_raises(self):
        ks, grid = self._default()
        f0 = kin.steady_state_grid(ks, grid)
        with pytest.raises(kin.KineticError):
            kin.fd_simulate(ks, grid, f0, t_end=1.0, dt=0.1)

    def test_unresolved_domain_raises(self):
        ks = kin.KineticSpec(nu=1.0, sigma=1.0, omega0=1.0)
        grid = kin.PhaseGrid(x_range=(-2.0, 2.0), v_range=(-2.0, 2.0), nx=64, nv=64)
        f0 = kin.steady_state_grid(ks, grid)
        with pytest.raises(kin.KineticError):
            kin.fd_simulate(ks, grid, f0, t_end=0.1, dt=0.005)

    def test_fit_decay_rate(self):
        t = np.linspace(0.0, 10.0, 101)
        y = 3.0 * np.exp(-0.7 * t)
        assert kin.fit_decay_rate(t, y) == pytest.approx(0.7, rel=1e-10)
        assert kin.fit_decay_rate(t, y, window=(1.0, 4.0)) == pytest.approx(0.7, rel=1e-10)


def _dense_velocity_operator(ks, grid):
    # Dense reference: the interface-flux loop the banded operator replaces.
    nv, dv, v = grid.nv, grid.dv, grid.v
    A = np.zeros((nv, nv))
    for j in range(nv - 1):
        vh = 0.5 * (v[j] + v[j + 1])
        cj = 0.5 * ks.nu * vh - ks.sigma / dv
        cj1 = 0.5 * ks.nu * vh + ks.sigma / dv
        A[j, j] += cj / dv
        A[j, j + 1] += cj1 / dv
        A[j + 1, j] -= cj / dv
        A[j + 1, j + 1] -= cj1 / dv
    return A


def _advect_reference(f, speed, h, dt, axis):
    # The two-sided limiter with ratio guards and a nan_to_num pass that the
    # one-pass sweep replaces.
    if axis == 1:
        return _advect_reference(f.T, speed, h, dt, 0).T
    df = np.diff(f, axis=0)
    s = np.broadcast_to(np.asarray(speed), f.shape[1:])
    c = s * dt / h
    F = np.where(s > 0, s * f[:-1], s * f[1:])
    eps = 1e-300
    r_pos = np.empty_like(df)
    r_neg = np.empty_like(df)
    r_pos[0] = 0.0
    r_pos[1:] = df[:-1] / (df[1:] + np.where(np.abs(df[1:]) < eps, eps, 0.0))
    r_neg[-1] = 0.0
    r_neg[:-1] = df[1:] / (df[:-1] + np.where(np.abs(df[:-1]) < eps, eps, 0.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = np.where(s > 0, (r_pos + np.abs(r_pos)) / (1.0 + np.abs(r_pos)),
                       (r_neg + np.abs(r_neg)) / (1.0 + np.abs(r_neg)))
    phi = np.nan_to_num(phi, nan=0.0, posinf=0.0, neginf=0.0)
    F = F + 0.5 * np.abs(s) * (1.0 - np.abs(c)) * phi * df
    out = f.copy()
    out[:-1] -= (dt / h) * F
    out[1:] += (dt / h) * F
    return out


def _advect(f, speed, h, dt, axis):
    # One sweep applied to a copy of f.
    out = np.array(f, dtype=float, order="C")
    kin._Sweep(speed, h, dt, axis, out.shape)(out)
    return out


def _two_term_sweep(f, speed, h, dt, axis):
    # The sweep in its two-term form: slope (a|b| + |a|b) / (|a| + |b|) and
    # flux c+ q_i + c- q_{i+step}, each step allocating its arrays.
    f = np.array(f, dtype=float, order="C")
    nv = f.shape[1]
    k, seams = (nv, slice(0)) if axis == 0 else (1, slice(nv - 1, None, nv))
    c = np.broadcast_to(np.expand_dims(speed, axis) * (dt / h), f.shape).ravel()
    c_pos, c_neg = np.maximum(c[:-k], 0.0), np.minimum(c[:-k], 0.0)
    c_pos[seams] = c_neg[seams] = 0.0
    g = f.reshape(-1)
    b = g[k:] - g[:-k]
    b[seams] = 0.0
    num = b[:-k] * np.abs(b[k:]) + np.abs(b[:-k]) * b[k:]
    den = np.abs(b[:-k]) + np.abs(b[k:])
    slope = np.zeros_like(g)
    np.divide(num, den, out=slope[k:-k], where=den > 0.0)
    q = slope * (0.5 * np.sign(c) * (1.0 - np.abs(c))) + g
    flux = q[:-k] * c_pos + q[k:] * c_neg
    g[:-k] -= flux
    g[k:] += flux
    return f


def _lu_step(ks, grid, dt, f):
    # The Crank-Nicolson step by a dense LU solve.
    A = _dense_velocity_operator(ks, grid)
    eye = np.eye(grid.nv)
    lu = scipy.linalg.lu_factor(eye - 0.5 * dt * A)
    return scipy.linalg.lu_solve(lu, (eye + 0.5 * dt * A) @ f.T).T


def _strang_reference(ks, grid, f0, n_steps, dt):
    # Every step as x and v half-steps around the Crank-Nicolson step, in the
    # mirrored order, with no x steps merged between steps.
    f = np.array(f0, dtype=float, order="C")
    x_sweep = kin._Sweep(grid.v, grid.dx, 0.5 * dt, 0, f.shape)
    v_sweep = kin._Sweep(-ks.Vp(grid.x), grid.dv, 0.5 * dt, 1, f.shape)
    velocity_step = kin._CrankNicolson(kin._velocity_operator(ks, grid), dt, f.shape)
    for _ in range(n_steps):
        x_sweep(f)
        v_sweep(f)
        f = velocity_step(f, np.empty_like(f))
        v_sweep(f)
        x_sweep(f)
    return f


class TestKernels:
    ks = kin.KineticSpec(nu=1.3, sigma=0.7, omega0=1.0)
    grid = kin.PhaseGrid(x_range=(-5.0, 4.0), v_range=(-6.0, 6.0), nx=24, nv=40)

    def _field(self, rng):
        # Random positive field with flat blocks (zero differences) along
        # both axes and a flat corner where both one-sided differences vanish.
        f = rng.uniform(0.1, 1.0, (self.grid.nx, self.grid.nv))
        f[5:9, :] = 0.4
        f[:, 20:26] = 0.7
        f[:4, :4] = 0.0
        return f

    def test_banded_operator_matches_dense(self):
        lower, diag, upper = kin._velocity_operator(self.ks, self.grid)
        A = _dense_velocity_operator(self.ks, self.grid)
        assert np.array_equal(np.diag(A), diag)
        assert np.array_equal(np.diag(A, 1), upper)
        assert np.array_equal(np.diag(A, -1), lower)
        assert np.count_nonzero(A) == 3 * self.grid.nv - 2
        col = diag.copy()
        col[:-1] += lower
        col[1:] += upper
        assert np.max(np.abs(col)) <= 1e-13 * np.max(np.abs(diag))

    def test_crank_nicolson_matches_dense_solve(self, rng):
        dt = 0.01
        f = self._field(rng)
        want = _lu_step(self.ks, self.grid, dt, f)
        step = kin._CrankNicolson(kin._velocity_operator(self.ks, self.grid), dt, f.shape)
        got = step(f, np.empty_like(f))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_small_dt_propagator_has_no_subnormal_entry(self, rng):
        # At nv = 256 and dt = 1e-4 the propagator's far entries underflow.
        dt = 1e-4
        grid = kin.PhaseGrid(x_range=(-6.0, 6.0), v_range=(-6.0, 6.0), nx=16, nv=256)
        f = rng.uniform(0.1, 1.0, (grid.nx, grid.nv))
        step = kin._CrankNicolson(kin._velocity_operator(self.ks, grid), dt, f.shape)
        for _, _, Rt in step.blocks:
            assert not np.any((Rt != 0.0) & (np.abs(Rt) < np.finfo(float).tiny))
        got = step(f, np.empty_like(f))
        want = _lu_step(self.ks, grid, dt, f)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert got.sum() == pytest.approx(f.sum(), rel=1e-14)

    def test_propagator_band_on_the_benchmark_grid(self, rng):
        # nu = sigma = 1, nv = 256, dt = 0.004: the kept entries of R form a
        # band, stored in blocks that hold fewer than nv^2 entries; each kept
        # column sums to 1, so a step keeps the mass.
        dt = 0.004
        ks = kin.KineticSpec(nu=1.0, sigma=1.0, omega0=1.0)
        grid = kin.PhaseGrid(x_range=(-6.0, 6.0), v_range=(-6.0, 6.0), nx=16, nv=256)
        f = rng.uniform(0.1, 1.0, (grid.nx, grid.nv))
        step = kin._CrankNicolson(kin._velocity_operator(ks, grid), dt, f.shape)
        assert sum(Rt.size for _, _, Rt in step.blocks) < grid.nv ** 2
        R = np.zeros((grid.nv, grid.nv))
        for inputs, outputs, Rt in step.blocks:
            R[outputs, inputs] = Rt.T
        assert max(abs(math.fsum(col) - 1.0) for col in R.T) <= 1e-15
        got = step(f, np.empty_like(f))
        want = _lu_step(ks, grid, dt, f)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_sweep_matches_two_term_flux_bit_for_bit(self, rng, axis):
        f = self._field(rng)
        n_across = f.shape[1 - axis]
        speed = 2.0 * np.sin(np.linspace(0.0, 5.0 * np.pi, n_across))  # four sign changes
        speed[n_across // 3] = 0.0
        for h, dt in ((0.3, 0.05), (0.3, 0.15)):
            assert np.array_equal(_advect(f, speed, h, dt, axis),
                                  _two_term_sweep(f, speed, h, dt, axis))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_advect_matches_two_sided_limiter(self, rng, axis):
        f = self._field(rng)
        n_across = f.shape[1 - axis]
        speed = np.linspace(-2.0, 2.0, n_across)
        speed[n_across // 3] = 0.0
        h, dt = 0.3, 0.05
        want = _advect_reference(f, speed, h, dt, axis)
        got = _advect(f, speed, h, dt, axis)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert got.sum() == pytest.approx(f.sum(), rel=1e-14)

    def test_advect_axis_one_is_transposed_axis_zero(self, rng):
        f = self._field(rng)
        speed = rng.standard_normal(f.shape[0])
        got = _advect(f, speed, 0.3, 0.05, axis=1)
        assert np.array_equal(got, _advect(f.T, speed, 0.3, 0.05, axis=0).T)

    def test_sweep_rejects_strided_field(self, rng):
        f = self._field(rng)
        sweep = kin._Sweep(rng.standard_normal(f.shape[0]), 0.3, 0.05, 0, f.T.shape)
        with pytest.raises(ValueError):
            sweep(f.T)


class TestSimulatorInputs:
    ks = kin.KineticSpec(nu=1.0, sigma=1.0, omega0=1.0)
    grid = kin.PhaseGrid(x_range=(-6.0, 6.0), v_range=(-6.0, 6.0), nx=48, nv=48)

    @pytest.mark.parametrize("kwargs", [
        {"nx": 0}, {"nx": 1}, {"nv": 1}, {"nx": 2.5},
        {"x_range": (1.0, 1.0)}, {"v_range": (2.0, -2.0)}, {"x_range": (0.0, float("inf"))},
    ])
    def test_grid_validation(self, kwargs):
        args = {"x_range": (-1.0, 1.0), "v_range": (-1.0, 1.0), "nx": 8, "nv": 8, **kwargs}
        with pytest.raises(ValueError):
            kin.PhaseGrid(**args)

    @pytest.mark.parametrize("t_end, dt", [
        (1.0, -0.01), (1.0, 0.0), (1.0, float("nan")), (0.004, 0.01), (-1.0, 0.01), (float("inf"), 0.01),
    ])
    def test_step_validation(self, t_end, dt):
        f0 = kin.steady_state_grid(self.ks, self.grid)
        with pytest.raises(ValueError) as info:
            kin.fd_simulate(self.ks, self.grid, f0, t_end=t_end, dt=dt)
        assert not isinstance(info.value, kin.KineticError)

    def test_f0_shape_validation(self):
        f0 = kin.steady_state_grid(self.ks, self.grid)
        with pytest.raises(ValueError, match="shape"):
            kin.fd_simulate(self.ks, self.grid, f0[:, :-1], t_end=0.1, dt=0.01)

    @pytest.mark.parametrize("fill", [
        pytest.param(lambda f: f * 0.0, id="zero"),
        pytest.param(lambda f: -np.ones_like(f) / 144.0, id="negative-mass"),
        pytest.param(lambda f: np.where(f == f.max(), np.nan, f), id="nan"),
        pytest.param(lambda f: np.where(f == f.max(), np.inf, f), id="inf"),
    ])
    def test_f0_value_validation(self, fill):
        f0 = fill(kin.steady_state_grid(self.ks, self.grid))
        with pytest.raises(ValueError, match="f0") as info:
            kin.fd_simulate(self.ks, self.grid, f0, t_end=0.1, dt=0.01)
        assert not isinstance(info.value, kin.KineticError)

    def test_reports_cfl_and_mass_drift(self):
        f0 = kin.gaussian_on_grid(np.array([1.0, 0.0]), 0.8 * np.eye(2), self.grid)
        f0 /= f0.sum() * self.grid.cell
        series = kin.fd_simulate(self.ks, self.grid, f0, t_end=0.5, dt=0.01, n_records=3)
        vmax = abs(self.grid.v[-1])
        amax = abs(self.grid.x[-1])  # V'(x) = x
        assert series.cfl == pytest.approx(0.01 * max(vmax / self.grid.dx, amax / self.grid.dv))
        assert series.mass_drift == abs(series.mass[-1] - series.mass[0])
        assert 0.0 <= series.mass_drift <= 1e-12
        # The caller's initial field is left untouched.
        assert f0.sum() * self.grid.cell == pytest.approx(1.0, rel=1e-14)
