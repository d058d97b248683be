"""Command-line front-end.

    hypofp <subcommand> --config <path> [--output <dir>] [--format csv|json]
           [--plot svg]

Subcommands: analyze, evolve, spectrum, kinetic, compare.  The config is a
single JSON document (matrices as nested arrays); results are written as
JSON/CSV with 17 significant digits and optional self-contained SVG line
plots.  Exit codes: 0 success, 2 config error, 3 structural-condition
failure, 4 certificate failure, 5 I/O error, 6 undecidable at this
conditioning (ambiguous eigenvalue clustering).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import certificates, entropy, flow, kinetic, linalg, spectrum, system

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONDITION = 3
EXIT_CERTIFICATE = 4
EXIT_IO = 5
EXIT_UNDECIDABLE = 6

FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    pass


class ConditionFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Serialization helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]):
    rows = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(FLOAT_FMT % col[i] for col in columns) + "\n")


def _svg_lines(path: str, t: np.ndarray, series: list[tuple[str, np.ndarray]],
               title: str, logy: bool = True):
    """Minimal self-contained SVG 1.1 line chart."""
    W, H, ml, mr, mt, mb = 640, 420, 60, 20, 30, 40
    pw, ph = W - ml - mr, H - mt - mb
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]

    ys = []
    for _, y in series:
        y = np.asarray(y, float)
        ys.append(np.where(y > 0, y, np.nan) if logy else y)
    all_y = np.concatenate([y[np.isfinite(y)] for y in ys])
    if all_y.size == 0:
        all_y = np.array([1e-12, 1.0])
    if logy:
        lo, hi = np.log10(all_y.min()), np.log10(all_y.max())
    else:
        lo, hi = all_y.min(), all_y.max()
    if hi - lo < 1e-12:
        hi = lo + 1.0
    t0, t1 = float(t[0]), float(t[-1]) if t[-1] > t[0] else float(t[0]) + 1.0

    def sx(tv):
        return ml + pw * (tv - t0) / (t1 - t0)

    def sy(yv):
        val = np.log10(yv) if logy else yv
        return mt + ph * (1.0 - (val - lo) / (hi - lo))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2}" y="18" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    for k, (label, y) in enumerate(series):
        y = ys[k]
        pts = [
            f"{sx(tv):.2f},{sy(yv):.2f}"
            for tv, yv in zip(t, y)
            if np.isfinite(yv)
        ]
        if pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{colors[k % len(colors)]}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{ml + 8}" y="{mt + 16 + 16 * k}" font-family="sans-serif" '
            f'font-size="12" fill="{colors[k % len(colors)]}">{label}</text>'
        )
    parts.append(
        f'<text x="{W / 2}" y="{H - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">t</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Config parsing


def _matrix(cfg, key) -> np.ndarray:
    try:
        M = np.array(cfg[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"missing or malformed matrix {key!r}") from exc
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"matrix {key!r} must be square")
    return M


def _system_from(cfg) -> system.SystemSpec:
    sec = cfg.get("system")
    if not isinstance(sec, dict):
        raise ConfigError("config needs a 'system' section with D and C")
    try:
        return system.SystemSpec(D=_matrix(sec, "D"), C=_matrix(sec, "C"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _setting(cfg, section: str, key: str, default, cast, minimum):
    """cfg[section][key] (or ``default``) converted by ``cast``; it must be
    finite and at least ``minimum``."""
    try:
        value = cast(cfg.get(section, {}).get(key, default))
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc
    if not (np.isfinite(value) and value >= minimum):
        raise ConfigError(f"{section}.{key} must be a finite number >= {minimum}")
    return value


def _generator_from(cfg) -> entropy.EntropyGenerator:
    sec = cfg.get("entropy", {"kind": "log"})
    kind = sec.get("kind", "log")
    try:
        alpha = float(sec.get("alpha", 1.0))
        beta = float(sec.get("beta", 0.0))
        if kind in ("log", "logarithmic"):
            return entropy.LogEntropy(alpha=alpha, beta=beta)
        if kind in ("quadratic", "quad"):
            return entropy.QuadraticEntropy(alpha=alpha)
        if kind == "power":
            return entropy.PowerEntropy(p=float(sec["p"]), alpha=alpha, beta=beta)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad entropy section: {exc}") from exc
    raise ConfigError(f"unknown entropy kind {kind!r}")


def _mixture_from(cfg, ss: system.SteadyState, gen) -> entropy.GaussianMixture:
    sec = cfg.get("initial")
    if not isinstance(sec, dict) or "components" not in sec:
        raise ConfigError("config needs an 'initial' section with components")
    comps = []
    for c in sec["components"]:
        try:
            weight = float(c["weight"])
            mean = np.array(c.get("mean", np.zeros(ss.d)), dtype=float)
            cov = np.array(c.get("cov", ss.K), dtype=float)
            affine = c.get("affine")
            affine = None if affine is None else np.array(affine, dtype=float)
            comps.append(entropy.GaussianComponent(weight, mean, cov, affine=affine))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad mixture component: {exc}") from exc
    if any(c.weight < 0 for c in comps) and not isinstance(gen, entropy.QuadraticEntropy):
        raise ConfigError("negative weights require the quadratic entropy")
    try:
        return entropy.GaussianMixture(tuple(comps))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_condition(spec) -> system.ConditionAReport:
    report = system.check_condition_A(spec)
    if not report.hypoelliptic:
        raise ConditionFailure(
            "structural condition fails: ker D contains a nontrivial "
            "C^T-invariant subspace (rank condition not satisfied)"
        )
    if not report.positively_stable:
        raise ConditionFailure(
            f"structural condition fails: C is not positively stable "
            f"(min Re eigenvalue = {report.mu:.6g})"
        )
    return report


def _certificate(cfg, ss) -> tuple[certificates.TransportMatrix, float]:
    """Transport matrix for the config's certificate section, re-verified."""
    sec = cfg.get("certificate", {})
    if not isinstance(sec, dict):
        raise ConfigError("certificate section must be an object")
    weights, epsilon = sec.get("weights"), sec.get("epsilon")
    try:
        weights = None if weights is None else np.array(weights, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"certificate.weights: {exc}") from exc
    if weights is not None and (weights.ndim != 1 or not np.all(np.isfinite(weights))):
        raise ConfigError("certificate.weights must be a list of finite numbers")
    if epsilon is not None and (type(epsilon) not in (int, float) or not np.isfinite(epsilon)):
        raise ConfigError("certificate.epsilon must be a finite number or null")
    tm = certificates.build_P(ss, epsilon=epsilon, weights=weights)
    margin = certificates.verify_P(ss, tm.P, tm.kappa)
    if margin < -tm.margin_tolerance:
        raise certificates.CertificateError(
            f"transport-matrix inequality margin {margin:.3e} below tolerance"
        )
    return tm, margin


def _report_payload(report) -> dict:
    return {
        "hypoelliptic": report.hypoelliptic,
        "tau": report.tau,
        "kappa": report.kappa,
        "positively_stable": report.positively_stable,
        "mu": report.mu,
        "minimal_eigs_defective": report.minimal_eigs_defective,
        "defective_details": [
            {"eigenvalue": lam, "block_length": ln}
            for lam, ln in report.defective_details
        ],
    }


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_analyze(cfg, outdir, fmt, plot) -> list[str]:
    spec = _system_from(cfg)
    report = _check_condition(spec)
    ss = system.steady_state(spec)
    tm, margin = _certificate(cfg, ss)
    lamP = certificates.lambda_P(ss.K, tm.P)
    payload = {
        "condition": _report_payload(report),
        "steady_state": {"K": ss.K, "cK": ss.cK, "R": ss.R, "Q": ss.Q},
        "certificate": {
            "P": tm.P,
            "kappa": tm.kappa,
            "epsilon": tm.epsilon,
            "margin": margin,
            "lambda_P": lamP,
            "rate": 2.0 * tm.kappa,
            "construction": tm.construction,
        },
    }
    path = os.path.join(outdir, "analyze.json")
    _write_json(path, payload)
    return [path]


def _cmd_evolve(cfg, outdir, fmt, plot) -> list[str]:
    spec = _system_from(cfg)
    _check_condition(spec)
    ss = system.steady_state(spec)
    gen = _generator_from(cfg)
    f0 = _mixture_from(cfg, ss, gen)
    t_end = _setting(cfg, "times", "t_end", 8.0, float, 0.0)
    samples = _setting(cfg, "times", "samples", 200, int, 2)
    order = _setting(cfg, "quadrature", "order", 64, int, 2)
    tm, _ = _certificate(cfg, ss)
    q = entropy.gauss_hermite_rule(ss.K, order=order)
    times = np.linspace(0.0, t_end, samples)
    rec = flow.run_trajectory(spec, ss, tm, f0, gen, times, q=q)
    files = []
    if fmt == "json":
        path = os.path.join(outdir, "evolve.json")
        _write_json(path, {
            "t": rec.times, "e_psi": rec.entropy, "I_psi": rec.dissipation,
            "S_psi": rec.modified, "envelope": rec.envelope,
        })
    else:
        path = os.path.join(outdir, "evolve.csv")
        _write_csv(path, ["t", "e_psi", "I_psi", "S_psi", "envelope"],
                   [rec.times, rec.entropy, rec.dissipation, rec.modified, rec.envelope])
    files.append(path)
    if plot == "svg":
        spath = os.path.join(outdir, "evolve.svg")
        _svg_lines(spath, rec.times, [
            ("entropy", rec.entropy),
            ("envelope", rec.envelope),
            ("modified dissipation", rec.modified),
        ], "entropy decay", logy=True)
        files.append(spath)
    return files


def _cmd_spectrum(cfg, outdir, fmt, plot) -> list[str]:
    spec = _system_from(cfg)
    report = _check_condition(spec)
    m_max = _setting(cfg, "spectrum", "m_max", 4, int, 0)
    sset = spectrum.enumerate_spectrum(report.eig, m_max)
    re = np.array([e.value.real for e in sset.entries])
    im = np.array([e.value.imag for e in sset.entries])
    deg = np.array([float(e.degree) for e in sset.entries])
    files = []
    if fmt == "json":
        path = os.path.join(outdir, "spectrum.json")
        _write_json(path, {"entries": [
            {"re": e.value.real, "im": e.value.imag,
             "alpha": list(e.alpha), "degree": e.degree}
            for e in sset.entries
        ]})
        files.append(path)
    else:
        path = os.path.join(outdir, "spectrum.csv")
        with open(path, "w", newline="") as fh:
            fh.write("re,im,alpha,degree\n")
            for e in sset.entries:
                fh.write(
                    f"{FLOAT_FMT % e.value.real},{FLOAT_FMT % e.value.imag},"
                    f"\"{' '.join(map(str, e.alpha))}\",{e.degree}\n"
                )
        files.append(path)
    return files


def _kinetic_spec(sec) -> kinetic.KineticSpec:
    pot = sec.get("potential", {"kind": "quadratic"})
    if not isinstance(pot, dict):
        raise ConfigError("kinetic.potential must be an object")
    kind = pot.get("kind", "quadratic")
    try:
        nu = float(sec["nu"])
        sigma = float(sec["sigma"])
        omega0 = float(sec["omega0"])
        if kind == "quadratic":
            return kinetic.KineticSpec(nu=nu, sigma=sigma, omega0=omega0)
        if kind == "cosine":
            epsp = float(pot.get("epsilon", 0.1))
            return kinetic.KineticSpec(
                nu=nu, sigma=sigma, omega0=omega0, vtilde_dd_bound=abs(epsp),
                potential=lambda x, e=epsp, w=omega0: 0.5 * w * w * x * x + e * np.cos(x),
                dpotential=lambda x, e=epsp, w=omega0: w * w * x - e * np.sin(x),
            )
        if kind == "polynomial":
            poly = np.polynomial.Polynomial([float(c) for c in pot.get("coeffs", [])])
            dpoly = poly.deriv()
            return kinetic.KineticSpec(
                nu=nu, sigma=sigma, omega0=omega0,
                vtilde_dd_bound=float(sec.get("vtilde_dd_bound", 0.0)),
                potential=lambda x, w=omega0: 0.5 * w * w * np.asarray(x) ** 2 + poly(x),
                dpotential=lambda x, w=omega0: w * w * np.asarray(x) + dpoly(x),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad kinetic section: {exc}") from exc
    raise ConfigError(f"unknown potential kind {kind!r}")


def _kinetic_run(sec, ks):
    """Grid, initial field, t_end and dt of the kinetic section's FD run."""
    gsec = sec["grid"]
    try:
        grid = kinetic.PhaseGrid(
            x_range=tuple(float(z) for z in gsec["x_range"]),
            v_range=tuple(float(z) for z in gsec["v_range"]),
            nx=int(gsec["nx"]), nv=int(gsec["nv"]),
        )
        t_end = float(sec.get("t_end", 5.0))
        dt = float(sec.get("dt", 2e-3))
        kinetic.step_count(t_end, dt)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad kinetic grid: {exc}") from exc
    init = sec.get("initial")
    if init is None:
        return grid, kinetic.steady_state_grid(ks, grid), t_end, dt
    try:
        mean = np.array(init.get("mean", [0.0, 0.0]), dtype=float).reshape(2)
        cov = np.array(init.get("cov", np.eye(2)), dtype=float).reshape(2, 2)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad kinetic initial state: {exc}") from exc
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))
            and np.array_equal(cov, cov.T) and np.linalg.eigvalsh(cov)[0] > 0):
        raise ConfigError("kinetic.initial needs a finite mean and a symmetric "
                          "positive definite cov")
    f0 = kinetic.gaussian_on_grid(mean, cov, grid)
    return grid, f0 / (f0.sum() * grid.cell), t_end, dt


def _cmd_kinetic(cfg, outdir, fmt, plot) -> list[str]:
    sec = cfg.get("kinetic")
    if not isinstance(sec, dict):
        raise ConfigError("config needs a 'kinetic' section")
    ks = _kinetic_spec(sec)
    try:
        cert = kinetic.kinetic_rate(ks)
    except kinetic.InfeasibleError as exc:
        raise certificates.CertificateError(str(exc)) from exc
    payload = {
        "kappa0": cert.kappa0, "P": cert.P, "lambda": cert.lam,
        "rate": cert.rate, "regime": cert.regime,
    }
    path = os.path.join(outdir, "kinetic.json")
    files = [path]

    if sec.get("grid") is not None:
        grid, f0, t_end, dt = _kinetic_run(sec, ks)
        series = kinetic.fd_simulate(ks, grid, f0, t_end, dt, P=cert.P)
        payload.update(cfl=series.cfl, mass_drift=series.mass_drift)
        cpath = os.path.join(outdir, "kinetic_series.csv")
        _write_csv(cpath, ["t", "e_psi", "I_psi", "S_psi", "mass"],
                   [series.times, series.entropy, series.dissipation,
                    series.modified, series.mass])
        files.append(cpath)
        if plot == "svg":
            spath = os.path.join(outdir, "kinetic.svg")
            _svg_lines(spath, series.times, [
                ("entropy", series.entropy),
                ("modified dissipation", series.modified),
            ], "kinetic entropy decay", logy=True)
            files.append(spath)
    _write_json(path, payload)
    return files


def _cmd_compare(cfg, outdir, fmt, plot) -> list[str]:
    spec = _system_from(cfg)
    report = _check_condition(spec)
    ss = system.steady_state(spec)
    try:
        cert = certificates.compare_rates(spec, ss, eig=report.eig)
    except np.linalg.LinAlgError as exc:
        raise ConditionFailure(f"comparison needs SPD diffusion: {exc}") from exc
    path = os.path.join(outdir, "compare.json")
    _write_json(path, {
        "lambda_K": cert.lambda_K,
        "mu": cert.mu,
        "cond_sq_bound": cert.cond_sq_bound,
        "tau": report.tau,
    })
    return [path]


COMMANDS = {
    "analyze": _cmd_analyze,
    "evolve": _cmd_evolve,
    "spectrum": _cmd_spectrum,
    "kinetic": _cmd_kinetic,
    "compare": _cmd_compare,
}


def run(subcommand: str, config_path: str, outdir: str, fmt: str, plot: str) -> int:
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("top-level config must be a JSON object")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        os.makedirs(outdir, exist_ok=True)
        files = COMMANDS[subcommand](cfg, outdir, fmt, plot)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConditionFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except linalg.ClusteringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except (certificates.CertificateError, kinetic.KineticError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    for f in files:
        print(f)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypofp",
        description="Hypocoercivity certificates and entropy-decay envelopes "
        "for linear Fokker-Planck equations.",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--output", default=".", help="output directory")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--plot", choices=["none", "svg"], default="none")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.output, args.format, args.plot)


if __name__ == "__main__":
    sys.exit(main())
