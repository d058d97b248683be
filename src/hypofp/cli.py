"""Command-line front-end.

    hypofp <subcommand> --config <path> [--output <dir>] [--format csv|json]
           [--plot svg]

Subcommands: analyze, evolve, spectrum, kinetic, compare.  The config is a
single JSON document (matrices as nested arrays); results are written as
JSON/CSV with 17 significant digits and optional self-contained SVG line
plots.  Every config object is read by one ``_Reader``: a missing or null key
takes its default, numbers must be finite, integers are never truncated and
arrays must have the expected shape; range rules are those of the library
constructors.  A key that the command does not read, or a top-level key
outside ``SECTIONS``, is refused before any file is written.  Exit codes: 0
success, 2 config error (any rejected config value), 3 structural-condition
failure, 4 certificate failure, 5 I/O error, 6 undecidable at this
conditioning (a staircase gap above roundoff, or ambiguous eigenvalue
clustering).
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


def _json_text(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2) + "\n"


def _csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    rows = (",".join(FLOAT_FMT % col[i] for col in columns) for i in range(len(columns[0])))
    return "".join(line + "\n" for line in (",".join(header), *rows))


def _svg_lines(t: np.ndarray, series: list[tuple[str, np.ndarray]], title: str) -> str:
    """Minimal self-contained SVG 1.1 line chart with a log-scale y axis."""
    W, H, ml, mr, mt, mb = 640, 420, 60, 20, 30, 40
    pw, ph = W - ml - mr, H - mt - mb
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]

    series = [(label, np.where(y > 0, y, np.nan)) for label, y in series]
    all_y = np.concatenate([y[np.isfinite(y)] for _, y in series])
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
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Config reading: every value goes through a _Reader and one of the casts
# below.  Range rules stay with the library constructors (see run()).

_REQUIRED = object()

# The top-level sections.  A command accepts those it does not read, so one
# system.json serves analyze, evolve, spectrum and compare.
SECTIONS = frozenset({"system", "certificate", "entropy", "initial", "times",
                      "quadrature", "spectrum", "kinetic"})


class _Reader:
    """One config object at the dotted ``path``: it reads keys by name and
    records them.  The readers it makes share its list ``readers``."""

    def __init__(self, data: dict, path: str = "", asked=(), readers=None):
        self.data, self.path, self.asked = data, path, set(asked)
        self.readers = [] if readers is None else readers
        self.readers.append(self)

    def name(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def read(self, key: str, cast, default=_REQUIRED):
        """data[key] converted by ``cast``; ``default`` when absent or null."""
        self.asked.add(key)
        value = self.data.get(key)
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"{self.name(key)}: required")
            return default
        try:
            return cast(value)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"{self.name(key)}: {exc}") from exc

    def object(self, key: str, default=_REQUIRED):
        """A reader of the object under ``key``; None when absent or null and ``default`` is None."""
        value = self.read(key, _object, default)
        return None if value is None else _Reader(value, self.name(key), readers=self.readers)

    def objects(self, key: str) -> list[_Reader]:
        """A reader of each object in the list under ``key``."""
        values = self.read(key, lambda v: [_object(c) for c in v])
        return [_Reader(c, f"{self.name(key)}[{i}]", readers=self.readers) for i, c in enumerate(values)]

    def unread(self) -> list[str]:
        """The dotted name of each key that no reader in ``readers`` read."""
        return [r.name(key) for r in self.readers for key in r.data if key not in r.asked]


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


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
    """Cast to a float array of ``shape`` (None: any length), all finite, not empty."""
    def cast(value) -> np.ndarray:
        a = np.array(value, dtype=float)
        if a.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, a.shape)):
            want = ", ".join("n" if n is None else str(n) for n in shape)
            raise ValueError(f"expected an array of shape ({want}), got shape {a.shape}")
        if a.size == 0:
            raise ValueError("expected at least one entry")
        if not np.all(np.isfinite(a)):
            raise ValueError("array entries must be finite")
        return a
    return cast


def _system_from(cfg: _Reader) -> system.SystemSpec:
    sec = cfg.object("system")
    return system.SystemSpec(D=sec.read("D", _array(None, None)), C=sec.read("C", _array(None, None)))


def _generator_from(cfg: _Reader) -> entropy.EntropyGenerator:
    sec = cfg.object("entropy", {})
    kind = sec.read("kind", str, "log")
    alpha = sec.read("alpha", _number, 1.0)
    if kind == "quadratic":
        return entropy.QuadraticEntropy(alpha=alpha)
    beta = sec.read("beta", _number, 0.0)
    if kind == "log":
        return entropy.LogEntropy(alpha=alpha, beta=beta)
    if kind == "power":
        return entropy.PowerEntropy(p=sec.read("p", _number), alpha=alpha, beta=beta)
    raise ConfigError(f"{sec.name('kind')}: unknown kind {kind!r}")


def _mixture_from(cfg: _Reader, ss: system.SteadyState, gen) -> entropy.GaussianMixture:
    comps = tuple(entropy.GaussianComponent(
        c.read("weight", _number),
        c.read("mean", _array(ss.d), np.zeros(ss.d)),
        c.read("cov", _array(ss.d, ss.d), ss.K),
        affine=c.read("affine", _array(ss.d), None),
    ) for c in cfg.object("initial").objects("components"))
    if any(c.weight < 0 for c in comps) and not isinstance(gen, entropy.QuadraticEntropy):
        raise ConfigError("negative weights require the quadratic entropy")
    return entropy.GaussianMixture(comps)


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


def _certificate(cfg: _Reader, ss) -> tuple[certificates.TransportMatrix, float]:
    """Transport matrix for the config's certificate section, re-verified."""
    sec = cfg.object("certificate", {})
    weights = sec.read("weights", _array(None), None)
    epsilon = sec.read("epsilon", _number, None)
    tm = certificates.build_P(ss, epsilon=epsilon, weights=weights)
    margin = certificates.verify_P(ss, tm.P, tm.kappa)
    if margin < -tm.margin_tolerance:
        raise certificates.CertificateError(
            f"transport-matrix inequality margin {margin:.3e} below tolerance"
        )
    return tm, margin


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_analyze(cfg: _Reader, fmt, plot) -> dict[str, str]:
    spec = _system_from(cfg)
    report = _check_condition(spec)
    ss = system.steady_state(spec)
    tm, margin = _certificate(cfg, ss)
    return {"analyze.json": _json_text({
        "condition": {
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
        },
        "steady_state": {"K": ss.K, "cK": ss.cK, "R": ss.R, "Q": ss.Q},
        "certificate": {
            "P": tm.P,
            "kappa": tm.kappa,
            "epsilon": tm.epsilon,
            "margin": margin,
            "lambda_P": certificates.lambda_P(ss.K, tm.P),
            "rate": 2.0 * tm.kappa,
            "construction": tm.construction,
        },
    })}


def _cmd_evolve(cfg: _Reader, fmt, plot) -> dict[str, str]:
    spec = _system_from(cfg)
    _check_condition(spec)
    ss = system.steady_state(spec)
    gen = _generator_from(cfg)
    f0 = _mixture_from(cfg, ss, gen)
    times = cfg.object("times", {})
    t_end = times.read("t_end", _number, 8.0)
    samples = times.read("samples", _int, 200)
    if samples < 2:
        raise ConfigError(f"{times.name('samples')}: need at least 2 samples")
    order = cfg.object("quadrature", {}).read("order", _int, None)
    tm, _ = _certificate(cfg, ss)
    rec = flow.run_trajectory(ss, tm, f0, gen, np.linspace(0.0, t_end, samples), order=order)
    if fmt == "json":
        out = {"evolve.json": _json_text({
            "t": rec.times, "e_psi": rec.entropy, "I_psi": rec.dissipation,
            "S_psi": rec.modified, "envelope": rec.envelope,
            "quadrature_order": rec.quadrature_order, "quadrature_error": rec.quadrature_error,
        })}
    else:
        out = {"evolve.csv": _csv_text(["t", "e_psi", "I_psi", "S_psi", "envelope"],
                                       [rec.times, rec.entropy, rec.dissipation, rec.modified,
                                        rec.envelope])}
    if plot == "svg":
        out["evolve.svg"] = _svg_lines(rec.times, [
            ("entropy", rec.entropy),
            ("envelope", rec.envelope),
            ("modified dissipation", rec.modified),
        ], "entropy decay")
    return out


def _cmd_spectrum(cfg: _Reader, fmt, plot) -> dict[str, str]:
    spec = _system_from(cfg)
    _check_condition(spec)
    sset = spectrum.enumerate_spectrum(spec.eig, cfg.object("spectrum", {}).read("m_max", _int, 4))
    if fmt == "json":
        return {"spectrum.json": _json_text({"entries": [
            {"re": e.value.real, "im": e.value.imag,
             "alpha": list(e.alpha), "degree": e.degree}
            for e in sset.entries
        ]})}
    return {"spectrum.csv": "re,im,alpha,degree\n" + "".join(
        f"{FLOAT_FMT % e.value.real},{FLOAT_FMT % e.value.imag},"
        f"\"{' '.join(map(str, e.alpha))}\",{e.degree}\n"
        for e in sset.entries
    )}


def _kinetic_spec(sec: _Reader) -> kinetic.KineticSpec:
    """The section's spec, V = omega0^2 x^2/2 + Vt, with sup|Vt''| derived from Vt's kind."""
    nu = sec.read("nu", _number)
    sigma = sec.read("sigma", _number)
    omega0 = sec.read("omega0", _number)
    pot = sec.object("potential", {})
    kind = pot.read("kind", str, "quadratic")
    if kind == "quadratic":
        return kinetic.KineticSpec(nu=nu, sigma=sigma, omega0=omega0)
    if kind == "cosine":
        eps = pot.read("epsilon", _number, 0.1)
        vt, dvt, bound = (lambda x: eps * np.cos(x)), (lambda x: -eps * np.sin(x)), abs(eps)
    elif kind == "polynomial":
        vt = np.polynomial.Polynomial(pot.read("coeffs", _array(None))).trim()
        if vt.degree() > 2:
            raise kinetic.InfeasibleError(f"{pot.name('coeffs')}: a polynomial of degree "
                                          f"{vt.degree()} has unbounded Vt''; no rate can be certified")
        dvt, bound = vt.deriv(), abs(float(vt.deriv(2).coef[0]))
    else:
        raise ConfigError(f"{pot.name('kind')}: unknown kind {kind!r}")
    return kinetic.KineticSpec(nu=nu, sigma=sigma, omega0=omega0, vtilde_dd_bound=bound,
                               potential=lambda x: 0.5 * omega0 * omega0 * np.asarray(x) ** 2 + vt(x),
                               dpotential=lambda x: omega0 * omega0 * np.asarray(x) + dvt(x))


def _kinetic_run(sec: _Reader, gsec: _Reader, ks):
    """Grid, initial field, t_end and dt of the kinetic section's FD run."""
    grid = kinetic.PhaseGrid(
        x_range=tuple(gsec.read("x_range", _array(2)).tolist()),
        v_range=tuple(gsec.read("v_range", _array(2)).tolist()),
        nx=gsec.read("nx", _int), nv=gsec.read("nv", _int),
    )
    t_end = sec.read("t_end", _number, 5.0)
    dt = sec.read("dt", _number, 2e-3)
    init = sec.object("initial", None)
    if init is None:
        return grid, kinetic.steady_state_grid(ks, grid), t_end, dt
    mean = init.read("mean", _array(2), np.zeros(2))
    cov = init.read("cov", _array(2, 2), np.eye(2))
    if not (np.array_equal(cov, cov.T) and np.linalg.eigvalsh(cov)[0] > 0):
        raise ConfigError(f"{init.name('cov')}: must be symmetric positive definite")
    f0 = kinetic.gaussian_on_grid(mean, cov, grid)
    mass = f0.sum() * grid.cell
    if not 0.0 < mass < math.inf:
        raise ConfigError(f"{init.path}: the Gaussian has mass {mass:.3g} on the grid's cells; "
                          "widen cov or move mean onto the grid")
    return grid, f0 / mass, t_end, dt


def _cmd_kinetic(cfg: _Reader, fmt, plot) -> dict[str, str]:
    sec = cfg.object("kinetic")
    ks = _kinetic_spec(sec)
    cert = kinetic.kinetic_rate(ks)
    payload = {
        "kappa0": cert.kappa0, "P": cert.P, "lambda": cert.lam,
        "rate": cert.rate, "regime": cert.regime,
    }
    out = {}
    gsec = sec.object("grid", None)
    if gsec is not None:
        grid, f0, t_end, dt = _kinetic_run(sec, gsec, ks)
        series = kinetic.fd_simulate(ks, grid, f0, t_end, dt, P=cert.P)
        payload.update(cfl=series.cfl, mass_drift=series.mass_drift)
        out["kinetic_series.csv"] = _csv_text(["t", "e_psi", "I_psi", "S_psi", "mass"],
                                              [series.times, series.entropy, series.dissipation,
                                               series.modified, series.mass])
        if plot == "svg":
            out["kinetic.svg"] = _svg_lines(series.times, [
                ("entropy", series.entropy),
                ("modified dissipation", series.modified),
            ], "kinetic entropy decay")
    return {"kinetic.json": _json_text(payload), **out}


def _cmd_compare(cfg: _Reader, fmt, plot) -> dict[str, str]:
    spec = _system_from(cfg)
    report = _check_condition(spec)
    ss = system.steady_state(spec)
    try:
        cert = certificates.compare_rates(spec, ss)
    except np.linalg.LinAlgError as exc:
        raise ConditionFailure(f"comparison needs SPD diffusion: {exc}") from exc
    return {"compare.json": _json_text({
        "lambda_K": cert.lambda_K,
        "mu": cert.mu,
        "cond_sq_bound": cert.cond_sq_bound,
        "tau": report.tau,
    })}


# Each command reads its config and returns the text of each output file by
# name; run() writes them.
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
        root = _Reader(cfg, asked=SECTIONS)
        outputs = COMMANDS[subcommand](root, fmt, plot)
        unread = root.unread()
        if unread:
            raise ConfigError(f"{', '.join(unread)}: not read by {subcommand} "
                              "(a misspelt key, or one without effect here)")
        os.makedirs(outdir, exist_ok=True)
        paths = [os.path.join(outdir, name) for name in outputs]
        for path, text in zip(paths, outputs.values()):
            with open(path, "w", newline="") as fh:
                fh.write(text)
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
    for path in paths:
        print(path)
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
