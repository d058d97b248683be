"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

They check the metric contract in BENCHMARK.json, that the seed changes
the inputs but not their sizes, that every correctness check rejects a
deliberately corrupted output, that the tracer sees calls between
hypofp modules, and that host speed scaling uses the samples nearest an op.  The file name keeps them out of the repository's own
test collection.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.prepare()

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_run(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


# ---------------------------------------------------------------------------
# Contract


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, key):
    proc = bench_run("--workload", "kinetic-fd", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(workloads.KINETIC_PASS)  # distinct inputs, not ops
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench_run("--workload", "kinetic-fd", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_tail_latency_and_fail_ratio():
    lat = list(range(30))
    assert run.tail_latency(lat) == (19, pytest.approx(100 * 20 / 30), 10)
    assert run.tail_latency(lat[:9]) == (4, 50.0, 4)
    assert run.tail_latency(lat[:20]) == (9.5, 50.0, 10)  # lat[9] would sit below the median
    ops = [run.Op(i % 4, 1.0, 1.0, [checks.Failure("x", checks.ERROR, "")] if i % 4 == 1 else [])
           for i in range(10)]
    assert run.fail_ratio(ops, 4) == pytest.approx(2 / 6)
    assert run.fail_ratio(ops[:1], 4) == pytest.approx(1 / 6)
    assert run.failed_inputs(ops) == {1}  # three failed ops, one failed input


def test_host_speed_scaling_uses_nearest_samples():
    cal = calibrate.Calibrator()
    cal.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    cal.factors = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    assert cal.factor_at(0.5) == 1.0 and cal.factor_at(6.5) == 2.0
    assert cal.scale(3.0, 6.9) == pytest.approx(1.5)  # slow host: 3 s at factor 2
    cal.times, cal.factors = cal.times[:2], cal.factors[:2]
    assert cal.factor_at(100.0) == 1.0  # fewer samples than NEAREST: all of them


def test_host_speed_factor_is_near_one_on_a_quiet_host():
    cal = calibrate.Calibrator()
    factors = [cal.sample() for _ in range(5)]
    assert set(cal.kernel_times()) == set(calibrate.REFERENCE_S)
    assert 0.2 < statistics.median(factors) < 5.0


# ---------------------------------------------------------------------------
# Seeds


def _fingerprint(wl):
    arrays = []
    for inp in wl.inputs:
        for attr in ("C", "D", "f0", "weights"):
            if hasattr(inp, attr):
                arrays.append(np.asarray(getattr(inp, attr)))
        if hasattr(inp, "means"):
            arrays += [np.asarray(m) for m in inp.means]
    return arrays


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_inputs_not_sizes(name, workdir):
    cls = workloads.WORKLOADS[name]
    a = cls(np.random.default_rng(1), os.path.join(workdir, "a"))
    a2 = cls(np.random.default_rng(1), os.path.join(workdir, "a2"))
    b = cls(np.random.default_rng(2), os.path.join(workdir, "b"))
    fa, fa2, fb = _fingerprint(a), _fingerprint(a2), _fingerprint(b)
    assert a.size == b.size and len(a.inputs) == len(b.inputs)
    assert [x.shape for x in fa] == [x.shape for x in fb]
    assert all(np.array_equal(x, y) for x, y in zip(fa, fa2))
    assert not all(np.array_equal(x, y) for x, y in zip(fa, fb))
    assert [a.work(i) for i in a.inputs] == [b.work(i) for i in b.inputs]


# ---------------------------------------------------------------------------
# Correctness checks reject corrupted outputs


@pytest.fixture(scope="module")
def certify_case(tmp_path_factory):
    wl = workloads.CertifySweep.__new__(workloads.CertifySweep)
    rng = np.random.default_rng(7)
    wl.inputs = [workloads.certify_input(*workloads.draw_system(rng, 3, 3))]
    inp = wl.inputs[0]
    out, errors = wl.run(inp)
    assert errors == {} and wl.check(inp, (out, errors)) == []
    return wl, inp, out


def test_perturbed_P_fails(certify_case):
    wl, inp, out = certify_case
    tm = out["build_P"]
    bad = dict(out, build_P=dataclasses.replace(tm, P=tm.P + 1e-3 * np.linalg.norm(tm.P) * np.diag([1.0, -1.0, 0.5])))
    fails = wl.check(inp, (bad, {}))
    assert [f.kind for f in fails] == [checks.CHECK_FAILED] and fails[0].stage == "build_P"


def test_flipped_verdict_fails(certify_case):
    wl, inp, out = certify_case
    bad = dict(out, condition=dataclasses.replace(out["condition"], hypoelliptic=False))
    fails = wl.check(inp, (bad, {}))
    assert [f.kind for f in fails] == [checks.WRONG_VERDICT]


def test_other_certify_outputs_fail_when_corrupted(certify_case):
    wl, inp, out = certify_case
    corrupt = {
        "condition": dataclasses.replace(out["condition"], mu=out["condition"].mu * 1.001),
        "verify_P": out["verify_P"] + 1e-3,
        "lambda_P": out["lambda_P"] * 1.001,
        "spectrum": out["spectrum"] + 1e-3,
        "poly": np.roll(out["poly"], 1) * 1.001,
        "compare": dataclasses.replace(out["compare"], lambda_K=out["compare"].lambda_K * 1.001),
    }
    for stage, value in corrupt.items():
        fails = wl.check(inp, (dict(out, **{stage: value}), {}))
        assert [f.stage for f in fails] == [stage], stage


def test_ill_conditioned_inputs_are_labelled(certify_case):
    wl, inp, out = certify_case
    bad = dict(out, lambda_P=out["lambda_P"] * 1.001)
    fails = wl.check(dataclasses.replace(inp, cond_K=1e9), (bad, {}))
    assert [f.kind for f in fails] == [checks.ILL_CONDITIONED]


def test_stage_exceptions_are_classified():
    from hypofp.linalg import ClusteringError

    assert checks.classify("s", ClusteringError("x")).kind == checks.CLUSTERING
    assert checks.classify("s", np.linalg.LinAlgError("x")).kind == checks.SINGULAR_K
    assert checks.classify("s", ValueError("x")).kind == checks.ERROR


def test_perturbed_f_final_fails(workdir):
    wl = workloads.KineticFd(np.random.default_rng(5), workdir)
    inp = next(i for i in wl.inputs if i.problem == "quadratic")
    series = wl.run(inp)
    assert wl.check(inp, series) == []
    bump = np.zeros_like(series.f_final)
    bump[100:110, 120:130] = 0.05
    bad = dataclasses.replace(series, f_final=series.f_final + bump)
    kinds = {f.message.split()[0] for f in wl.check(inp, bad)}
    assert kinds == {"f_final", "L2"}
    drift = dataclasses.replace(series, mass=series.mass * (1 + 1e-6 * np.arange(len(series.mass))))
    assert [f.kind for f in wl.check(inp, drift)] == [checks.CHECK_FAILED]


def test_evolve_series_checks_reject_corruption():
    e = np.array([1.0, 0.5, 0.2])
    env = np.array([2.0, 0.8, 0.3])
    assert checks.check_series(e, e, e, env) == []
    assert checks.check_series(np.array([1.0, 0.9, 0.2]), e, e, env)  # above the envelope
    assert checks.check_series(e, np.array([1.0, -0.1, 0.2]), e, env)  # negative I
    assert checks.check_series(e, e, np.array([1.0, np.nan, 0.2]), env)  # non-finite S
    assert checks.check_against_reference("e", e, e * (1 + 1e-10), checks.D3_REFERENCE_RTOL) == []
    assert checks.check_against_reference("e", e * (1 + 1e-6), e, checks.D3_REFERENCE_RTOL)
    se = np.full(3, 1.0)
    assert checks.check_qmc_entropy(e + 0.01, e, se, 4096) == []
    assert checks.check_qmc_entropy(e + 0.2, e, se, 4096)


def test_quadratic_entropy_closed_form():
    """Closed form against direct quadrature in d = 1."""
    K = np.array([[1.3]])
    w, means, covs = [1.2, -0.2], [np.array([0.3]), np.array([-0.1])], [np.array([[0.9]]), np.array([[1.1]])]
    x, h = np.linspace(-15, 15, 200001, retstep=True)

    def npdf(m, v):
        return np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2 * np.pi * v)

    f = sum(wi * npdf(m[0], A[0, 0]) for wi, m, A in zip(w, means, covs))
    finf = npdf(0.0, K[0, 0])
    r = f / finf
    e, se = checks.quadratic_entropy(w, means, covs, K)
    assert e == pytest.approx(np.sum((r - 1) ** 2 * finf) * h, rel=1e-8)
    var = np.sum((r - 1) ** 4 * finf) * h - e * e
    assert se == pytest.approx(np.sqrt(var), rel=1e-6)


def test_d3_reference_tolerance_evidence():
    with open(workloads.D3_REFERENCE) as fh:
        ref = json.load(fh)
    dev = ref["max_rel_deviation_from_order_64"]
    assert ref["rtol"] == checks.D3_REFERENCE_RTOL
    assert dev["48"] <= checks.D3_REFERENCE_RTOL < dev["24"]


# ---------------------------------------------------------------------------
# Tracer


def test_tracer_wraps_every_binding_and_nests_spans():
    import hypofp
    from hypofp import certificates, entropy, flow, system

    spec = hypofp.SystemSpec(D=np.diag([1.0, 0.0]), C=np.array([[1.0, -1.0], [1.0, 0.0]]))
    tracer = tracing.Tracer()
    tracer.install("hypofp", run.LAYERS)
    try:
        assert hypofp.check_condition_A is system.check_condition_A is certificates.check_condition_A
        assert flow.evolve_mixture.__wrapped__.__module__ == "hypofp.flow"
        with tracer.span("bench.run"):
            ss = hypofp.steady_state(spec)
            tm = hypofp.build_P(ss)
            f0 = entropy.shifted_steady(ss, np.array([0.5, 0.0]))
            q = hypofp.gauss_hermite_rule(ss.K, 8)
            flow.run_trajectory(spec, ss, tm, f0, entropy.LogEntropy(), np.array([0.0, 1.0]), q=q)
    finally:
        tracer.uninstall()
    assert not hasattr(system.check_condition_A, "__wrapped__")
    names = [s[tracing.NAME] for s in tracer.spans]
    parents = {names[i]: names[s[tracing.PARENT]] for i, s in enumerate(tracer.spans) if s[tracing.PARENT] >= 0}
    assert parents["entropy.relative_entropy"] == "flow.run_trajectory"
    assert parents["entropy.ratio_and_grad"] in run.ENTROPY_FUNCTIONALS
    assert "entropy._weighted_dissipation" not in names
    funcs, layers = tracer.summary()
    root = tracer.spans[0]
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(root[tracing.END] - root[tracing.START])
    assert funcs["entropy.relative_entropy"]["calls"] == 2


def test_tracer_counts_errors_leaving_a_layer():
    from hypofp import linalg, system

    tracer = tracing.Tracer()
    tracer.install("hypofp", run.LAYERS)
    try:
        with pytest.raises(np.linalg.LinAlgError):
            system.steady_state(system.SystemSpec(D=np.diag([1.0, 0.0]), C=np.diag([1.0, 2.0])))
        with pytest.raises(ValueError):
            linalg.eigen_structure(np.ones((2, 3)))
    finally:
        tracer.uninstall()
    _, layers = tracer.summary()
    assert layers["system"]["errors"] == 1
    assert layers["linalg"]["errors"] == 1
