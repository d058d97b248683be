import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hypofp import cli, linalg, system
from conftest import harmonic_chain

FIG1B = {"system": {"D": [[1.0, 0.0], [0.0, 0.0]], "C": [[1.0, -1.0], [1.0, 0.0]]}}
SEC8 = {"system": {"D": [[0.25, 0.0], [0.0, 1.0]], "C": [[0.25, -4.0], [4.0, 1.0]]}}
# Eigenvalues 1 and 1 + 3e-8: two clusters closer than twice the clustering
# tolerance, so the defect call is undecidable.
NEAR_DEFECTIVE = {"system": {"D": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 1.0], [0.0, 1.0 + 3e-8]]}}


def run_cli(args):
    return cli.main([str(a) for a in args])


def write_cfg(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


class TestAnalyze:
    def test_sec8_values(self, tmp_path):
        cfg = write_cfg(tmp_path, SEC8)
        rc = run_cli(["analyze", "--config", cfg, "--output", tmp_path])
        assert rc == 0
        out = json.loads((tmp_path / "analyze.json").read_text())
        assert out["condition"]["mu"] == pytest.approx(0.625, abs=1e-12)
        assert out["condition"]["tau"] == 0
        assert "kappa" not in out["condition"] and out["condition"]["gap"] == 0.0
        assert np.allclose(out["steady_state"]["K"], np.eye(2), atol=1e-12)
        assert out["certificate"]["rate"] == pytest.approx(1.25, abs=1e-10)
        assert out["certificate"]["margin"] >= -1e-8 * np.linalg.norm(out["certificate"]["P"], 2)

    def test_det_K_underflow(self, tmp_path):
        # det K = 1e-400 underflows; cK = 1 / (2 pi 1e-200) is a float.
        cfg = write_cfg(tmp_path, {"system": {"D": [[1e-200, 0.0], [0.0, 1e-200]],
                                              "C": [[1.0, 0.0], [0.0, 1.0]]}})
        assert run_cli(["analyze", "--config", cfg, "--output", tmp_path]) == 0
        out = json.loads((tmp_path / "analyze.json").read_text())
        assert out["steady_state"]["cK"] == pytest.approx(1.0 / (2e-200 * math.pi), rel=1e-12)
        assert out["certificate"]["rate"] == pytest.approx(2.0, abs=1e-12)

    def test_condition_failure_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {"system": {"D": [[1.0, 0.0], [0.0, 0.0]], "C": [[1.0, 0.0], [0.0, 1.0]]}},
        )
        assert run_cli(["analyze", "--config", cfg, "--output", tmp_path]) == cli.EXIT_CONDITION
        # The message states what the staircase measured, not a cause.
        err = capsys.readouterr().err
        assert "controllable subspace of (C, D) has dimension 1 of 2" in err
        assert "staircase gap 0.000e+00" in err
        assert "invariant" not in err

    @pytest.mark.parametrize("eps, code", [
        (1e-11, cli.EXIT_UNDECIDABLE), (1e-13, cli.EXIT_UNDECIDABLE),
        (1e-17, cli.EXIT_CONDITION), (0.0, cli.EXIT_CONDITION),
    ])
    def test_staircase_gap_above_roundoff_is_undecidable(self, tmp_path, capsys, eps, code):
        # D = diag(1, 0), C = [[1, 0], [eps, 1]] is hypoelliptic for every eps != 0.
        cfg = write_cfg(tmp_path, {"system": {"D": [[1.0, 0.0], [0.0, 0.0]],
                                              "C": [[1.0, 0.0], [eps, 1.0]]}})
        assert run_cli(["analyze", "--config", cfg, "--output", tmp_path]) == code
        err = capsys.readouterr().err
        assert f"staircase gap {eps:.3e}" in err
        if code == cli.EXIT_UNDECIDABLE:
            assert "undecidable at this conditioning" in err
            assert f"roundoff floor {2 * linalg.TOL.roundoff:.3e}" in err

    def test_harmonic_chain_d16(self, tmp_path):
        # One bath on 8 oscillators: tau = d - 1 = 15, where the Kalman sum's
        # rank test used to give a false "not hypoelliptic".
        spec, _ = harmonic_chain(8, 1)
        cfg = write_cfg(tmp_path, {"system": {"D": spec.D.tolist(), "C": spec.C.tolist()}})
        assert run_cli(["analyze", "--config", cfg, "--output", tmp_path]) == 0
        cond = json.loads((tmp_path / "analyze.json").read_text())["condition"]
        assert cond["hypoelliptic"] and cond["tau"] == 15 and cond["verdict"] == "hypoelliptic"
        assert cond["margin"] > 0

    def test_unstable_drift_exit_code(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"system": {"D": [[1.0, 0.0], [0.0, 1.0]], "C": [[-1.0, 0.0], [0.0, 1.0]]}},
        )
        assert run_cli(["analyze", "--config", cfg, "--output", tmp_path]) == cli.EXIT_CONDITION

    def test_bad_json_exit_code(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert run_cli(["analyze", "--config", p, "--output", tmp_path]) == cli.EXIT_CONFIG

    def test_missing_matrix_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, {"system": {"D": [[1.0]]}})
        assert run_cli(["analyze", "--config", cfg, "--output", tmp_path]) == cli.EXIT_CONFIG

    def test_missing_file_exit_code(self, tmp_path):
        assert run_cli(
            ["analyze", "--config", tmp_path / "nope.json", "--output", tmp_path]
        ) == cli.EXIT_IO


class TestEvolve:
    def _fig1b_evolve(self, extra=None):
        cfg = dict(FIG1B)
        cfg["initial"] = {"components": [{"weight": 1.0, "mean": [1.3, 0.6]}]}
        cfg["times"] = {"t_end": 8.0, "samples": 200}
        if extra:
            cfg.update(extra)
        return cfg

    def test_csv_envelope_dominates(self, tmp_path):
        cfg = write_cfg(tmp_path, self._fig1b_evolve())
        rc = run_cli(["evolve", "--config", cfg, "--output", tmp_path])
        assert rc == 0
        with open(tmp_path / "evolve.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        e = np.array([float(r["e_psi"]) for r in rows])
        env = np.array([float(r["envelope"]) for r in rows])
        assert np.all(e <= env * (1 + 1e-9))
        # Entropy decays but not convexly: its decrements are not monotone.
        assert e[-1] < e[0]

    def test_non_convex_decay(self, tmp_path):
        # Shift in the direction that zeroes the dissipation at t* = 1.
        import hypofp as hp

        spec = hp.SystemSpec(D=np.diag([1.0, 0.0]), C=np.array([[1.0, -1.0], [1.0, 0.0]]))
        ss = hp.steady_state(spec)
        v0 = hp.zero_tangent_initial(1.0, np.array([0.0, 1.0]), ss, spec)
        cfg = write_cfg(tmp_path, self._fig1b_evolve(
            {"initial": {"components": [{"weight": 1.0, "mean": list(v0)}]},
             "times": {"t_end": 4.0, "samples": 161}}
        ))
        rc = run_cli(["evolve", "--config", cfg, "--output", tmp_path])
        assert rc == 0
        with open(tmp_path / "evolve.csv") as fh:
            rows = list(csv.DictReader(fh))
        t = np.array([float(r["t"]) for r in rows])
        i_vals = np.array([float(r["I_psi"]) for r in rows])
        e = np.array([float(r["e_psi"]) for r in rows])
        k = int(np.argmin(np.abs(t - 1.0)))
        assert i_vals[k] <= 1e-6 * i_vals.max()
        assert e[k] > 0.1 * e[0]

    def test_json_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, self._fig1b_evolve())
        rc = run_cli(["evolve", "--config", cfg, "--output", tmp_path, "--format", "json"])
        assert rc == 0
        out = json.loads((tmp_path / "evolve.json").read_text())
        assert set(out) == {"t", "e_psi", "I_psi", "S_psi", "envelope"}
        assert len(out["t"]) == 200
        assert out["e_psi"][0] == pytest.approx(0.5 * (1.3 ** 2 + 0.6 ** 2), rel=1e-8)

    def test_svg_emitted(self, tmp_path):
        cfg = write_cfg(tmp_path, self._fig1b_evolve({"times": {"t_end": 2.0, "samples": 40}}))
        rc = run_cli(["evolve", "--config", cfg, "--output", tmp_path, "--plot", "svg"])
        assert rc == 0
        svg = (tmp_path / "evolve.svg").read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and "polyline" in svg

    def test_certificate_weights_honoured(self, tmp_path):
        # Q has the real eigenvalues 1 and 2; unequal weights change lambda_P.
        cfg = write_cfg(tmp_path, {
            "system": {"D": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 1.0], [0.0, 2.0]]},
            "certificate": {"weights": [3.0, 1.0]},
            "initial": {"components": [{"weight": 1.0, "mean": [0.7, -0.4]}]},
            "times": {"t_end": 1.0, "samples": 5},
            "quadrature": {"order": 16},
        })
        assert run_cli(["analyze", "--config", cfg, "--output", tmp_path]) == 0
        assert run_cli(["evolve", "--config", cfg, "--output", tmp_path, "--format", "json"]) == 0
        lam_p = json.loads((tmp_path / "analyze.json").read_text())["certificate"]["lambda_P"]
        out = json.loads((tmp_path / "evolve.json").read_text())
        assert out["envelope"][0] == pytest.approx(out["S_psi"][0] / (2.0 * lam_p), rel=1e-12)

    def test_deterministic_output(self, tmp_path):
        cfg = write_cfg(tmp_path, self._fig1b_evolve())
        d1 = tmp_path / "r1"
        d2 = tmp_path / "r2"
        assert run_cli(["evolve", "--config", cfg, "--output", d1]) == 0
        assert run_cli(["evolve", "--config", cfg, "--output", d2]) == 0
        assert (d1 / "evolve.csv").read_bytes() == (d2 / "evolve.csv").read_bytes()


    @pytest.mark.parametrize("order", [0, 100000, "x"])
    def test_quadratic_checks_the_order_it_does_not_read(self, tmp_path, capsys, order):
        cfg = write_cfg(tmp_path, self._fig1b_evolve(
            {"entropy": {"kind": "quadratic"}, "quadrature": {"order": order}}))
        assert run_cli(["evolve", "--config", cfg, "--output", tmp_path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "order" in err and err.count("\n") == 1

    def test_quadratic_component_wider_than_2K_exit_config(self, tmp_path, capsys):
        # FIG1B has K = I: a covariance of 2.5 K makes int (r - 1)^2 f_inf infinite.
        cfg = write_cfg(tmp_path, self._fig1b_evolve({
            "entropy": {"kind": "quadratic"},
            "initial": {"components": [{"weight": 1.2}, {"weight": -0.2, "cov": [[2.5, 0.0], [0.0, 2.5]]}]},
        }))
        assert run_cli(["evolve", "--config", cfg, "--output", tmp_path]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: mixture component 1 has a covariance not below 2K")
        assert err.count("\n") == 1

    def test_quadratic_evolve_at_d4_leaves_scipy_stats_unloaded(self, tmp_path):
        # The closed form builds no rule, so the d >= 4 Sobol branch never runs.
        cfgp = write_cfg(tmp_path, {
            "system": {"D": np.eye(4).tolist(), "C": (np.eye(4) + np.eye(4, k=1) - np.eye(4, k=-1)).tolist()},
            "entropy": {"kind": "quadratic"},
            "initial": {"components": [{"weight": 1.3, "mean": [0.5, 0.0, -0.2, 0.1]},
                                       {"weight": -0.3, "cov": (0.7 * np.eye(4)).tolist()}]},
            "times": {"t_end": 1.0, "samples": 5},
        })
        import hypofp

        code = ("import sys; from hypofp import cli; "
                f"rc = cli.run('evolve', {str(cfgp)!r}, {str(tmp_path)!r}, 'csv', 'none'); "
                "print(rc, 'scipy.stats' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hypofp.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == ["0", "False"]


class TestSpectrumCommand:
    def test_json_entries(self, tmp_path):
        cfg = dict(SEC8)
        cfg["spectrum"] = {"m_max": 1}
        cfgp = write_cfg(tmp_path, cfg)
        rc = run_cli(["spectrum", "--config", cfgp, "--output", tmp_path, "--format", "json"])
        assert rc == 0
        out = json.loads((tmp_path / "spectrum.json").read_text())
        assert len(out["entries"]) == 3
        omega = np.sqrt(1015.0) / 8.0
        ims = sorted(e["im"] for e in out["entries"])
        assert ims == pytest.approx([-omega, 0.0, omega], abs=1e-10)

    def test_csv_header(self, tmp_path):
        cfgp = write_cfg(tmp_path, SEC8)
        rc = run_cli(["spectrum", "--config", cfgp, "--output", tmp_path])
        assert rc == 0
        first = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
        assert first == "re,im,alpha,degree"


class TestKineticCommand:
    def test_certificate_json(self, tmp_path):
        cfgp = write_cfg(tmp_path, {"kinetic": {"nu": 1.0, "sigma": 1.0, "omega0": 1.0}})
        rc = run_cli(["kinetic", "--config", cfgp, "--output", tmp_path])
        assert rc == 0
        out = json.loads((tmp_path / "kinetic.json").read_text())
        assert out["kappa0"] == pytest.approx(0.5)
        assert out["rate"] == pytest.approx(1.0)
        assert out["regime"] == "underdamped"
        assert np.allclose(out["P"], [[2.0, 1.0], [1.0, 2.0]])

    def test_infeasible_exit_code(self, tmp_path):
        cfgp = write_cfg(tmp_path, {
            "kinetic": {"nu": 1.0, "sigma": 1.0, "omega0": 1.0,
                        "potential": {"kind": "cosine", "epsilon": 0.95}}
        })
        assert run_cli(["kinetic", "--config", cfgp, "--output", tmp_path]) == cli.EXIT_CERTIFICATE

    def test_grid_series(self, tmp_path):
        cfgp = write_cfg(tmp_path, {
            "kinetic": {
                "nu": 1.0, "sigma": 1.0, "omega0": 1.0,
                "grid": {"x_range": [-6, 6], "v_range": [-6, 6], "nx": 96, "nv": 96},
                "t_end": 1.0, "dt": 0.01,
                "initial": {"mean": [1.0, 0.0], "cov": [[0.8, 0.0], [0.0, 0.8]]},
            }
        })
        rc = run_cli(["kinetic", "--config", cfgp, "--output", tmp_path])
        assert rc == 0
        with open(tmp_path / "kinetic_series.csv") as fh:
            rows = list(csv.DictReader(fh))
        e = np.array([float(r["e_psi"]) for r in rows])
        mass = np.array([float(r["mass"]) for r in rows])
        assert e[-1] < e[0]
        assert np.allclose(mass, 1.0, atol=1e-9)


    def test_grid_reports_cfl_and_mass_drift(self, tmp_path):
        cfgp = write_cfg(tmp_path, {
            "kinetic": {
                "nu": 1.0, "sigma": 1.0, "omega0": 1.0,
                "grid": {"x_range": [-6, 6], "v_range": [-6, 6], "nx": 48, "nv": 48},
                "t_end": 0.1, "dt": 0.01,
            }
        })
        assert run_cli(["kinetic", "--config", cfgp, "--output", tmp_path]) == 0
        out = json.loads((tmp_path / "kinetic.json").read_text())
        # dt * max(max|v| / dx, max|x| / dv) on the cell centers.
        assert out["cfl"] == pytest.approx(0.01 * 5.875 / 0.25)
        assert 0.0 <= out["mass_drift"] <= 1e-12

    def test_certificate_only_omits_fd_fields(self, tmp_path):
        cfgp = write_cfg(tmp_path, {"kinetic": {"nu": 1.0, "sigma": 1.0, "omega0": 1.0}})
        assert run_cli(["kinetic", "--config", cfgp, "--output", tmp_path]) == 0
        out = json.loads((tmp_path / "kinetic.json").read_text())
        assert "cfl" not in out and "mass_drift" not in out

    @pytest.mark.parametrize("patch", [
        pytest.param({"dt": -0.01}, id="dt-negative"),
        pytest.param({"dt": 0}, id="dt-zero"),
        pytest.param({"t_end": 0.004}, id="t_end-under-half-step"),
        pytest.param({"grid": {"x_range": [-6, 6], "v_range": [-6, 6], "nx": 0, "nv": 48}},
                     id="nx-zero"),
        pytest.param({"grid": {"x_range": [6, -6], "v_range": [-6, 6], "nx": 48, "nv": 48}},
                     id="x_range-decreasing"),
        pytest.param({"grid": [1, 2]}, id="grid-not-object"),
        pytest.param({"nu": -1}, id="nu-negative"),
        pytest.param({"sigma": None}, id="sigma-null"),
        pytest.param({"potential": {"kind": "cosine", "epsilon": "x"}}, id="epsilon-string"),
        pytest.param({"potential": {"kind": "polynomial", "coeffs": ["a"]}}, id="coeffs-string"),
        pytest.param({"potential": "cosine"}, id="potential-not-object"),
        pytest.param({"initial": {"cov": [[1.0, 0.0], [0.0, -1.0]]}}, id="cov-indefinite"),
        pytest.param({"initial": {"cov": [[1.0, 0.5], [0.0, 1.0]]}}, id="cov-asymmetric"),
        pytest.param({"initial": {"mean": [1.0]}}, id="mean-short"),
        pytest.param({"initial": {"mean": [float("nan"), 0.0]}}, id="mean-nan"),
        pytest.param({"initial": "x"}, id="initial-not-object"),
    ])
    def test_config_error_exit_code(self, tmp_path, capsys, patch):
        sec = {"nu": 1.0, "sigma": 1.0, "omega0": 1.0,
               "grid": {"x_range": [-6, 6], "v_range": [-6, 6], "nx": 48, "nv": 48},
               "t_end": 0.1, "dt": 0.01}
        sec.update(patch)
        cfgp = write_cfg(tmp_path, {"kinetic": sec})
        assert run_cli(["kinetic", "--config", cfgp, "--output", tmp_path]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "kinetic_series.csv").exists()


# D = diag(1, 0), C = [[2, -1], [1, 0]]: Q has the defective eigenvalue 1.
DEFECTIVE = {"system": {"D": [[1.0, 0.0], [0.0, 0.0]], "C": [[2.0, -1.0], [1.0, 0.0]]}}


@pytest.mark.parametrize("subcommand", ["analyze", "evolve"])
@pytest.mark.parametrize("certificate", [
    pytest.param({"weights": "abc"}, id="weights-string"),
    pytest.param({"weights": [[1.0], [2.0]]}, id="weights-nested"),
    pytest.param({"weights": [1.0, None]}, id="weights-null-entry"),
    pytest.param({"weights": 2.0}, id="weights-scalar"),
    pytest.param({"epsilon": "x"}, id="epsilon-string"),
    pytest.param({"epsilon": [0.1]}, id="epsilon-list"),
    pytest.param({"epsilon": True}, id="epsilon-bool"),
    pytest.param("weights", id="section-not-object"),
])
def test_certificate_config_error_exit_code(tmp_path, capsys, subcommand, certificate):
    cfg = dict(DEFECTIVE, certificate=certificate)
    cfg["initial"] = {"components": [{"weight": 1.0, "mean": [0.5, 0.2]}]}
    cfg["times"] = {"t_end": 1.0, "samples": 3}
    cfg["quadrature"] = {"order": 8}
    cfgp = write_cfg(tmp_path, cfg)
    assert run_cli([subcommand, "--config", cfgp, "--output", tmp_path]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: certificate")


@pytest.mark.parametrize("weights", [[1.0], [1.0, -1.0]], ids=["wrong-length", "negative"])
def test_malformed_certificate_weights_exit_config(tmp_path, capsys, weights):
    # FIG1B's Q has two chains (a conjugate pair): these lists cannot match.
    cfgp = write_cfg(tmp_path, dict(FIG1B, certificate={"weights": weights}))
    assert run_cli(["analyze", "--config", cfgp, "--output", tmp_path]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: need one positive weight per Jordan chain (2)\n"


@pytest.mark.parametrize("subcommand, section, key, value", [
    pytest.param("evolve", "times", "t_end", "x", id="t_end-string"),
    pytest.param("evolve", "times", "t_end", -1, id="t_end-negative"),
    pytest.param("evolve", "times", "samples", "x", id="samples-string"),
    pytest.param("evolve", "quadrature", "order", "x", id="order-string"),
    pytest.param("evolve", "quadrature", "order", 0, id="order-zero"),
    pytest.param("evolve", "entropy", "alpha", "x", id="alpha-string"),
    pytest.param("evolve", "entropy", "beta", "x", id="beta-string"),
    pytest.param("spectrum", "spectrum", "m_max", "x", id="m_max-string"),
    pytest.param("spectrum", "spectrum", "m_max", -1, id="m_max-negative"),
    # key None replaces the whole section.
    pytest.param("evolve", "entropy", None, "log", id="entropy-not-object"),
    pytest.param("evolve", "initial", "components", 5, id="components-not-list"),
    pytest.param("evolve", "initial", "components", [{"weight": 1.0, "mean": [0.5, 0.2, 0.1]}],
                 id="mean-wrong-size"),
    pytest.param("evolve", "initial", "components", [{"weight": 1.0, "cov": [[1.0]]}],
                 id="cov-wrong-size"),
    pytest.param("evolve", "initial", "components", [{"weight": 1.0, "affine": [0.1]}],
                 id="affine-wrong-size"),
    pytest.param("evolve", "initial", "components", [{"weight": float("nan")}], id="weight-nan"),
    pytest.param("evolve", "initial", "components",
                 [{"weight": 1.0, "mean": [0.5, 0.2], "affine": [0.1, 0.0]}],
                 id="affine-not-steady-shaped"),
    pytest.param("evolve", "times", "samples", 2.7, id="samples-fractional"),
    pytest.param("evolve", "quadrature", "order", 100000, id="order-above-cap"),
    pytest.param("evolve", "times", "t_end", 1e300, id="t_end-overflow"),
])
def test_evolve_spectrum_config_error_exit_code(tmp_path, capsys, subcommand, section, key, value):
    cfg = dict(FIG1B, entropy={"kind": "log"}, times={"t_end": 1.0, "samples": 3},
               quadrature={"order": 8}, spectrum={"m_max": 1})
    cfg["initial"] = {"components": [{"weight": 1.0, "mean": [0.5, 0.2]}]}
    cfg[section] = value if key is None else dict(cfg[section], **{key: value})
    cfgp = write_cfg(tmp_path, cfg)
    assert run_cli([subcommand, "--config", cfgp, "--output", tmp_path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_certificate_epsilon_accepted(tmp_path):
    cfgp = write_cfg(tmp_path, dict(DEFECTIVE, certificate={"epsilon": 0.1, "weights": None}))
    assert run_cli(["analyze", "--config", cfgp, "--output", tmp_path]) == 0
    out = json.loads((tmp_path / "analyze.json").read_text())["certificate"]
    assert out["epsilon"] == pytest.approx(0.1)


def test_python_dash_m_runs_the_cli(tmp_path):
    import hypofp

    cfgp = write_cfg(tmp_path, {"kinetic": {"nu": 1.0, "sigma": 1.0, "omega0": 1.0}})
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hypofp.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "hypofp", "kinetic", "--config", str(cfgp), "--output", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(tmp_path / "kinetic.json")


class TestHugeScales:
    def test_huge_diffusion_solves(self, tmp_path):
        # max D = 1e300 is solved for at D 2^-e, where dtrsyl needs no
        # overflow scaling; K_11 = 7.5e299.
        cfg = write_cfg(tmp_path, {"system": {"D": [[1e300, 0.0], [0.0, 0.0]],
                                              "C": [[1.0, -1.0], [1.0, 1.0]]}})
        assert run_cli(["analyze", "--config", cfg, "--output", tmp_path]) == 0
        out = json.loads((tmp_path / "analyze.json").read_text())
        assert out["steady_state"]["K"][0][0] == pytest.approx(7.5e299, rel=1e-12)

    def test_singular_lyapunov_operator_message(self, tmp_path, capsys):
        # mu = 1, but the eigenvalues 1 +- 1e150 i leave the Lyapunov operator
        # singular to working precision; the message claims no instability.
        cfg = write_cfg(tmp_path, {"system": {"D": [[1.0, 0.0], [0.0, 1.0]],
                                              "C": [[1.0, -1e150], [1e150, 1.0]]}})
        assert run_cli(["analyze", "--config", cfg, "--output", tmp_path]) == cli.EXIT_CERTIFICATE
        err = capsys.readouterr().err
        assert "singular to working precision" in err and "positively stable" not in err

    def test_overflowing_entropy_exit_config(self, tmp_path, capsys):
        # C = 1e200 I: the quadratic entropy of the shifted state overflows.
        cfg = write_cfg(tmp_path, {
            "system": {"D": [[1.0, 0.0], [0.0, 1.0]], "C": [[1e200, 0.0], [0.0, 1e200]]},
            "entropy": {"kind": "quadratic"},
            "initial": {"components": [{"weight": 1.0, "mean": [0.1, 0.0]}]},
            "times": {"t_end": 1.0, "samples": 3}})
        assert run_cli(["evolve", "--config", cfg, "--output", tmp_path]) == cli.EXIT_CONFIG
        assert "not finite" in capsys.readouterr().err


class TestCompareCommand:
    def test_sec8(self, tmp_path):
        cfgp = write_cfg(tmp_path, SEC8)
        rc = run_cli(["compare", "--config", cfgp, "--output", tmp_path])
        assert rc == 0
        out = json.loads((tmp_path / "compare.json").read_text())
        assert out["lambda_K"] == pytest.approx(0.25, abs=1e-12)
        assert out["mu"] == pytest.approx(0.625, abs=1e-12)
        assert out["lambda_K"] <= out["mu"] <= out["cond_sq_bound"] + 1e-9

    def test_degenerate_exit_code(self, tmp_path):
        cfgp = write_cfg(tmp_path, FIG1B)
        assert run_cli(["compare", "--config", cfgp, "--output", tmp_path]) == cli.EXIT_CONDITION

    @pytest.mark.parametrize("C", [[[1e9, 0.0], [0.0, 1e9]], [[1e8, 3e7], [3e7, 2e8]]],
                             ids=["1e9-identity", "1e8-symmetric"])
    def test_stiff_drift_passes(self, tmp_path, C):
        # lambda_K, mu and cond(A~)^2 lambda_K agree to ulps of mu = 1e8 or 1e9.
        cfgp = write_cfg(tmp_path, {"system": {"D": [[1.0, 0.0], [0.0, 1.0]], "C": C}})
        assert run_cli(["compare", "--config", cfgp, "--output", tmp_path]) == 0
        out = json.loads((tmp_path / "compare.json").read_text())
        assert out["lambda_K"] == pytest.approx(out["mu"], rel=1e-12)
        assert out["cond_sq_bound"] == pytest.approx(out["mu"], rel=1e-12)


@pytest.mark.parametrize("subcommand", ["analyze", "spectrum", "compare"])
def test_ambiguous_clustering_exit_code(tmp_path, capsys, subcommand):
    cfg = write_cfg(tmp_path, NEAR_DEFECTIVE)
    assert run_cli([subcommand, "--config", cfg, "--output", tmp_path]) == cli.EXIT_UNDECIDABLE
    err = capsys.readouterr().err
    assert err.startswith("error: ambiguous eigenvalue clustering")
    assert "2*tol" in err


@pytest.mark.parametrize("subcommand, tau_calls, eig_calls", [
    ("analyze", 1, 1),  # the certificate reads the eigenstructure of C
    ("evolve", 1, 1),
    ("spectrum", 1, 1),
    ("compare", 1, 1),
])
def test_spectral_work_per_subcommand(tmp_path, monkeypatch, subcommand, tau_calls, eig_calls):
    calls = {"tau": 0, "eig": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(system, "hoermander_tau", counting("tau", system.hoermander_tau))
    monkeypatch.setattr(linalg, "eigen_structure", counting("eig", linalg.eigen_structure))
    cfg = dict(SEC8)
    cfg["initial"] = {"components": [{"weight": 1.0, "mean": [0.5, 0.2]}]}
    cfg["times"] = {"t_end": 1.0, "samples": 3}
    cfg["quadrature"] = {"order": 8}
    cfg["spectrum"] = {"m_max": 1}
    cfgp = write_cfg(tmp_path, cfg)
    assert run_cli([subcommand, "--config", cfgp, "--output", tmp_path]) == 0
    assert (calls["tau"], calls["eig"]) == (tau_calls, eig_calls)


# One valid config per subcommand (two for evolve and kinetic), kept small so
# that every mutation below finishes quickly.
_MUTATION_BASES = {
    "analyze": dict(DEFECTIVE, certificate={"epsilon": 0.1, "weights": [1.0]}),
    "evolve": dict(
        FIG1B, entropy={"kind": "log", "alpha": 1.0, "beta": 0.0},
        initial={"components": [{"weight": 1.0, "mean": [0.5, 0.2],
                                 "cov": [[1.0, 0.0], [0.0, 1.0]]}]},
        times={"t_end": 1.0, "samples": 3}, quadrature={"order": 8},
        certificate={"weights": [1.0, 1.0]},
    ),
    "evolve-affine": dict(
        SEC8, entropy={"kind": "quadratic", "alpha": 2.0},
        initial={"components": [{"weight": 1.0, "affine": [0.3, -0.2]}]},
        times={"t_end": 1.0, "samples": 3}, quadrature={"order": 8},
    ),
    "spectrum": dict(SEC8, spectrum={"m_max": 2}),
    "compare": SEC8,
    "kinetic": {"kinetic": {
        "nu": 1.0, "sigma": 1.0, "omega0": 1.0, "vtilde_dd_bound": 0.1,
        "potential": {"kind": "cosine", "epsilon": 0.1},
        "grid": {"x_range": [-6, 6], "v_range": [-6, 6], "nx": 16, "nv": 16},
        "t_end": 0.1, "dt": 0.01,
        "initial": {"mean": [1.0, 0.0], "cov": [[0.8, 0.0], [0.0, 0.8]]},
    }},
    "kinetic-polynomial": {"kinetic": {
        "nu": 1.0, "sigma": 1.0, "omega0": 1.0,
        "potential": {"kind": "polynomial", "coeffs": [0.0, 0.1]},
        "grid": {"x_range": [-6, 6], "v_range": [-6, 6], "nx": 16, "nv": 16},
        "t_end": 0.1, "dt": 0.01,
    }},
}


def _paths(node, prefix=()):
    """Every path to a value below ``node`` (dict values and list items)."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _replaced(node, path, value):
    node = json.loads(json.dumps(node))
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return node


@pytest.mark.parametrize("base", sorted(_MUTATION_BASES))
def test_mutated_config_never_raises(tmp_path, capsys, base):
    # Values are bounded on purpose: a huge kinetic t_end or spectrum.m_max
    # is valid and would simply run for a very long time.
    cfg = _MUTATION_BASES[base]
    subcommand = base.split("-")[0]
    allowed = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_CONDITION,
               cli.EXIT_CERTIFICATE, cli.EXIT_UNDECIDABLE}
    cfgp = tmp_path / "config.json"
    bad = []
    for path in _paths(cfg):
        for value in ("x", None, -1, [], {}, True):
            cfgp.write_text(json.dumps(_replaced(cfg, path, value)))
            try:
                rc = cli.run(subcommand, str(cfgp), str(tmp_path / "out"), "csv", "none")
            except Exception as exc:  # noqa: BLE001 - the point of the test
                bad.append((path, value, repr(exc)))
                continue
            err = capsys.readouterr().err
            if rc not in allowed or (rc != cli.EXIT_OK and err.count("\n") != 1):
                bad.append((path, value, rc, err))
    assert not bad
