"""Command-line front-end.

    hypofp <subcommand> --config <path> [--output <dir>] [--format csv|json]
           [--plot svg]

Subcommands: analyze, evolve, spectrum, kinetic, compare.  The config is a
single JSON document (matrices as nested arrays); results are written as
JSON/CSV with 17 significant digits and optional self-contained SVG line
plots.  Every config value is read by ``_read``: a missing or null key takes
its default, numbers must be finite, integers are never truncated and
arrays must have the expected shape; range rules are those of the library
constructors.  Exit codes: 0 success, 2 config error (any rejected config
value), 3 structural-condition failure, 4 certificate failure, 5 I/O error,
6 undecidable at this conditioning (a staircase gap above roundoff, or
ambiguous eigenvalue clustering).
"""

from __future__ import annotations

import argparse
import json
import math
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


class Undecidable(RuntimeError):
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
               title: str):
    """Minimal self-contained SVG 1.1 line chart with a log-scale y axis."""
    W, H, ml, mr, mt, mb = 640, 420, 60, 20, 30, 40
    pw, ph = W - ml - mr, H - mt - mb
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]

    ys = []
    for _, y in series:
        y = np.asarray(y, float)
        ys.append(np.where(y > 0, y, np.nan))
    all_y = np.concatenate([y[np.isfinite(y)] for y in ys])
    if all_y.size == 0:
        all_y = np.array([1e-12, 1.0])
    lo, hi = np.log10(all_y.min()), np.log10(all_y.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0
    t0, t1 = float(t[0]), float(t[-1]) if t[-1] > t[0] else float(t[0]) + 1.0

    def sx(tv):
        return ml + pw * (tv - t0) / (t1 - t0)

    def sy(yv):
        return mt + ph * (1.0 - (np.log10(yv) - lo) / (hi - lo))

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
# Config reading: every value goes through _read and one of the casts below.
# Range rules stay with the library constructors (see run()).

_REQUIRED = object()


def _read(sec: dict, where: str, key: str, cast, default=_REQUIRED):
    """sec[key] converted by ``cast``; ``default`` when absent or null."""
    value = sec.get(key)
    name = f"{where}.{key}" if where else key
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{name}: required")
        return default
    try:
        return cast(value)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _section(cfg: dict, name: str, default=_REQUIRED) -> dict:
    """The object under the dotted path ``name``; its last part is the key."""
    where, _, key = name.rpartition(".")
    return _read(cfg, where, key, _object, default)


def _number(value) -> float:
    """A finite number; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _int(value) -> int:
    """An integral number; 2.0 reads as 2, 2.7 is an error (no truncation)."""
    if not _number(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _array(*shape):
    """Cast to a float array of ``shape`` (None: any length), all finite."""
    def cast(value) -> np.ndarray:
        a = np.array(value, dtype=float)
        if a.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, a.shape)):
            want = ", ".join("n" if n is None else str(n) for n in shape)
            raise ValueError(f"expected an array of shape ({want}), got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("array entries must be finite")
        return a
    return cast


def _system_from(cfg) -> system.SystemSpec:
    sec = _section(cfg, "system")
    return system.SystemSpec(D=_read(sec, "system", "D", _array(None, None)),
                             C=_read(sec, "system", "C", _array(None, None)))


def _generator_from(cfg) -> entropy.EntropyGenerator:
    sec = _section(cfg, "entropy", {})
    kind = _read(sec, "entropy", "kind", str, "log")
    alpha = _read(sec, "entropy", "alpha", _number, 1.0)
    beta = _read(sec, "entropy", "beta", _number, 0.0)
    if kind in ("log", "logarithmic"):
        return entropy.LogEntropy(alpha=alpha, beta=beta)
    if kind in ("quadratic", "quad"):
        return entropy.QuadraticEntropy(alpha=alpha)
    if kind == "power":
        return entropy.PowerEntropy(p=_read(sec, "entropy", "p", _number), alpha=alpha, beta=beta)
    raise ConfigError(f"entropy.kind: unknown kind {kind!r}")


def _mixture_from(cfg, ss: system.SteadyState, gen) -> entropy.GaussianMixture:
    sec = _section(cfg, "initial")
    comps = []
    for i, c in enumerate(_read(sec, "initial", "components", lambda v: [_object(c) for c in v])):
        where = f"initial.components[{i}]"
        comps.append(entropy.GaussianComponent(
            _read(c, where, "weight", _number),
            _read(c, where, "mean", _array(ss.d), np.zeros(ss.d)),
            _read(c, where, "cov", _array(ss.d, ss.d), ss.K),
            affine=_read(c, where, "affine", _array(ss.d), None),
        ))
    if any(c.weight < 0 for c in comps) and not isinstance(gen, entropy.QuadraticEntropy):
        raise ConfigError("negative weights require the quadratic entropy")
    return entropy.GaussianMixture(tuple(comps))


def _check_condition(spec) -> system.ConditionAReport:
    report = system.check_condition_A(spec)
    found = (f"the controllable subspace of (C, D) has dimension {report.controllable_dim} "
             f"of {spec.d} (staircase gap {report.gap:.3e}")
    if report.hypoelliptic is None:
        raise Undecidable(f"hypoellipticity is undecidable at this conditioning: {found}, above "
                          f"the roundoff floor {linalg.TOL.roundoff * spec.d:.3e})")
    if not report.hypoelliptic:
        raise ConditionFailure(f"structural condition fails: {found})")
    if not report.positively_stable:
        raise ConditionFailure(
            f"structural condition fails: C is not positively stable "
            f"(min Re eigenvalue = {report.mu:.6g})"
        )
    return report


def _certificate(cfg, ss) -> tuple[certificates.TransportMatrix, float]:
    """Transport matrix for the config's certificate section, re-verified."""
    sec = _section(cfg, "certificate", {})
    weights = _read(sec, "certificate", "weights", _array(None), None)
    epsilon = _read(sec, "certificate", "epsilon", _number, None)
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
        "verdict": report.verdict,
        "tau": report.tau,
        "margin": report.margin,
        "gap": report.gap,
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
    tsec = _section(cfg, "times", {})
    t_end = _read(tsec, "times", "t_end", _number, 8.0)
    samples = _read(tsec, "times", "samples", _int, 200)
    if samples < 2:
        raise ConfigError("times.samples: need at least 2 samples")
    order = _read(_section(cfg, "quadrature", {}), "quadrature", "order", _int, None)
    tm, _ = _certificate(cfg, ss)
    rec = flow.run_trajectory(ss, tm, f0, gen, np.linspace(0.0, t_end, samples), order=order)
    if fmt == "json":
        path = os.path.join(outdir, "evolve.json")
        _write_json(path, {
            "t": rec.times, "e_psi": rec.entropy, "I_psi": rec.dissipation,
            "S_psi": rec.modified, "envelope": rec.envelope,
            "quadrature_order": rec.quadrature_order, "quadrature_error": rec.quadrature_error,
        })
    else:
        path = os.path.join(outdir, "evolve.csv")
        _write_csv(path, ["t", "e_psi", "I_psi", "S_psi", "envelope"],
                   [rec.times, rec.entropy, rec.dissipation, rec.modified, rec.envelope])
    files = [path]
    if plot == "svg":
        spath = os.path.join(outdir, "evolve.svg")
        _svg_lines(spath, rec.times, [
            ("entropy", rec.entropy),
            ("envelope", rec.envelope),
            ("modified dissipation", rec.modified),
        ], "entropy decay")
        files.append(spath)
    return files


def _cmd_spectrum(cfg, outdir, fmt, plot) -> list[str]:
    spec = _system_from(cfg)
    _check_condition(spec)
    m_max = _read(_section(cfg, "spectrum", {}), "spectrum", "m_max", _int, 4)
    sset = spectrum.enumerate_spectrum(spec.eig, m_max)
    if fmt == "json":
        path = os.path.join(outdir, "spectrum.json")
        _write_json(path, {"entries": [
            {"re": e.value.real, "im": e.value.imag,
             "alpha": list(e.alpha), "degree": e.degree}
            for e in sset.entries
        ]})
        return [path]
    path = os.path.join(outdir, "spectrum.csv")
    with open(path, "w", newline="") as fh:
        fh.write("re,im,alpha,degree\n")
        for e in sset.entries:
            fh.write(
                f"{FLOAT_FMT % e.value.real},{FLOAT_FMT % e.value.imag},"
                f"\"{' '.join(map(str, e.alpha))}\",{e.degree}\n"
            )
    return [path]


def _kinetic_spec(sec) -> kinetic.KineticSpec:
    nu = _read(sec, "kinetic", "nu", _number)
    sigma = _read(sec, "kinetic", "sigma", _number)
    omega0 = _read(sec, "kinetic", "omega0", _number)
    pot = _section(sec, "kinetic.potential", {})
    kind = _read(pot, "kinetic.potential", "kind", str, "quadratic")
    if kind == "quadratic":
        return kinetic.KineticSpec(nu=nu, sigma=sigma, omega0=omega0)
    if kind == "cosine":
        epsp = _read(pot, "kinetic.potential", "epsilon", _number, 0.1)
        return kinetic.KineticSpec(
            nu=nu, sigma=sigma, omega0=omega0, vtilde_dd_bound=abs(epsp),
            potential=lambda x, e=epsp, w=omega0: 0.5 * w * w * x * x + e * np.cos(x),
            dpotential=lambda x, e=epsp, w=omega0: w * w * x - e * np.sin(x),
        )
    if kind == "polynomial":
        poly = np.polynomial.Polynomial(_read(pot, "kinetic.potential", "coeffs", _array(None)))
        dpoly = poly.deriv()
        return kinetic.KineticSpec(
            nu=nu, sigma=sigma, omega0=omega0,
            vtilde_dd_bound=_read(sec, "kinetic", "vtilde_dd_bound", _number, 0.0),
            potential=lambda x, w=omega0: 0.5 * w * w * np.asarray(x) ** 2 + poly(x),
            dpotential=lambda x, w=omega0: w * w * np.asarray(x) + dpoly(x),
        )
    raise ConfigError(f"kinetic.potential.kind: unknown kind {kind!r}")


def _kinetic_run(sec, gsec, ks):
    """Grid, initial field, t_end and dt of the kinetic section's FD run."""
    grid = kinetic.PhaseGrid(
        x_range=tuple(_read(gsec, "kinetic.grid", "x_range", _array(2)).tolist()),
        v_range=tuple(_read(gsec, "kinetic.grid", "v_range", _array(2)).tolist()),
        nx=_read(gsec, "kinetic.grid", "nx", _int), nv=_read(gsec, "kinetic.grid", "nv", _int),
    )
    t_end = _read(sec, "kinetic", "t_end", _number, 5.0)
    dt = _read(sec, "kinetic", "dt", _number, 2e-3)
    init = _section(sec, "kinetic.initial", None)
    if init is None:
        return grid, kinetic.steady_state_grid(ks, grid), t_end, dt
    mean = _read(init, "kinetic.initial", "mean", _array(2), np.zeros(2))
    cov = _read(init, "kinetic.initial", "cov", _array(2, 2), np.eye(2))
    if not (np.array_equal(cov, cov.T) and np.linalg.eigvalsh(cov)[0] > 0):
        raise ConfigError("kinetic.initial.cov: must be symmetric positive definite")
    f0 = kinetic.gaussian_on_grid(mean, cov, grid)
    mass = f0.sum() * grid.cell
    if not 0.0 < mass < math.inf:
        raise ConfigError(f"kinetic.initial: the Gaussian has mass {mass:.3g} on the grid's cells; "
                          "widen cov or move mean onto the grid")
    return grid, f0 / mass, t_end, dt


def _cmd_kinetic(cfg, outdir, fmt, plot) -> list[str]:
    sec = _section(cfg, "kinetic")
    ks = _kinetic_spec(sec)
    cert = kinetic.kinetic_rate(ks)
    payload = {
        "kappa0": cert.kappa0, "P": cert.P, "lambda": cert.lam,
        "rate": cert.rate, "regime": cert.regime,
    }
    path = os.path.join(outdir, "kinetic.json")
    files = [path]

    gsec = _section(sec, "kinetic.grid", None)
    if gsec is not None:
        grid, f0, t_end, dt = _kinetic_run(sec, gsec, ks)
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
            ], "kinetic entropy decay")
            files.append(spath)
    _write_json(path, payload)
    return files


def _cmd_compare(cfg, outdir, fmt, plot) -> list[str]:
    spec = _system_from(cfg)
    report = _check_condition(spec)
    ss = system.steady_state(spec)
    try:
        cert = certificates.compare_rates(spec, ss)
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
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if not isinstance(cfg, dict):
            raise ConfigError("top-level config must be a JSON object")
        os.makedirs(outdir, exist_ok=True)
        files = COMMANDS[subcommand](cfg, outdir, fmt, plot)
    except ConditionFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except (Undecidable, linalg.ClusteringError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except (certificates.CertificateError, kinetic.KineticError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    # ConfigError, and the range checks of the library constructors; after
    # the clauses above, whose exceptions are ValueError subclasses too.
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
