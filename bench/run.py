"""hypofp benchmark: seeded workloads driven through the public API.

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): certify-sweep, evolve-d3-tensor,
evolve-d6-qmc, kinetic-fd.  Each run builds its inputs from ``--seed``,
runs ops for ``--seconds`` in one process, checks every output against the
benchmark's own references, and prints one JSON object as its last line:

  --trace 0: the end-to-end metrics, measured with nothing wrapped;
  --trace 1: per-layer metrics.  The run first times whole passes over the
             input set untraced (for about half of ``--seconds``), then the
             same number of passes with every public hypofp function
             wrapped.  Per-layer values are per pass of the input set.

End-to-end metrics: setup_s is the median wall time of SETUP_REPEATS fresh
processes that import hypofp and build the inputs; throughput is work done
over summed op latency (checks run between ops, untimed); op_p50_s and
op_tail_s come from the op latencies (tail: the highest percentile with ten
samples beyond it, never below the median); fail_ratio counts failed
distinct inputs by the rule of succession; peak_rss_mb is this process's
peak resident set.  Every time in these metrics is scaled to reference host
speed by calibrate.py, from kernels timed between ops and between set-up
processes; the raw wall times are in the report.

``attempted`` and ``failed`` count distinct inputs: outputs are
deterministic, so they depend on the seed and not on how many passes over
the inputs fit in the run.  ``correct`` is false only when a check fails on
a well-conditioned input (see checks.COND_LIMIT); every failure counts in
``failed``.

BLAS/OpenMP pools are pinned to one thread before numpy is imported.
Reports (metadata, failures by kind, baseline rows) and traced spans are
written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("cli", "system", "linalg", "certificates", "entropy", "flow", "spectrum", "kinetic")
SETUP_REPEATS = 3
ENTROPY_FUNCTIONALS = ("entropy.relative_entropy", "entropy.entropy_dissipation_I",
                       "entropy.modified_dissipation_S")


def prepare(blas_default: bool = False) -> None:
    """Pin BLAS threads (unless ``blas_default``) and put the checkout's
    src/ first on the import path.  Must run before numpy is imported."""
    if not os.path.isfile(os.path.join(SRC, "hypofp", "__init__.py")):
        raise SystemExit(f"error: no hypofp package under {SRC}; run from a checkout of the repository")
    for var in THREAD_VARS:
        if blas_default:
            os.environ.pop(var, None)
        else:
            os.environ[var] = "1"
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["certify-sweep", "evolve-d3-tensor", "evolve-d6-qmc", "kinetic-fd"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs and exit (one set-up sample)")
    p.add_argument("--lyapunov-note", action="store_true",
                   help="print solve_lyapunov time over one certify-sweep pass and exit")
    p.add_argument("--blas-default", action="store_true",
                   help="leave BLAS threads at the library default")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Ops


@dataclass
class Op:
    index: int
    latency: float
    work: float
    failures: list
    start: float = 0.0  # perf_counter when the op began


def run_ops(wl, stop, tracer=None, calibrator=None) -> list[Op]:
    """Cycle over the input set; ``stop(ops_done, elapsed)`` is asked before
    each op.  Only ``wl.run`` is inside the latency; checks and host speed
    samples (when ``calibrator`` is given) follow it."""
    import checks

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    ops, n = [], len(wl.inputs)
    if calibrator is not None:
        calibrator.sample()
    t0 = time.perf_counter()
    while not stop(len(ops), time.perf_counter() - t0):
        index = len(ops) % n
        inp = wl.inputs[index]
        with span("bench.op"):
            start = time.perf_counter()
            try:
                out, exc = wl.run(inp), None
            except Exception as e:  # an op that raises is a failed op, not a crash
                out, exc = None, e
            latency = time.perf_counter() - start
        with span("bench.check"):
            failures = [checks.classify("run", exc)] if exc is not None else wl.check(inp, out)
        ops.append(Op(index, latency, wl.work(inp), failures, start))
        if calibrator is not None:
            calibrator.maybe_sample()
    if calibrator is not None:
        calibrator.sample()
    return ops


def tail_latency(latencies):
    """Highest percentile with at least ten samples beyond it, never below
    the median: (value, percentile, samples beyond)."""
    lat = sorted(latencies)
    n = len(lat)
    median = statistics.median(lat)
    if n >= 11 and lat[n - 11] >= median:
        return lat[n - 11], 100.0 * (n - 10) / n, 10
    return median, 50.0, n // 2


def failures_by_kind(ops):
    """Ops counted by the kind of their first failure, and all failure
    events counted by kind and stage."""
    import checks

    first = dict.fromkeys(checks.KINDS, 0)
    events = {}
    for op in ops:
        if op.failures:
            first[op.failures[0].kind] += 1
        for f in op.failures:
            key = f"{f.kind}@{f.stage}"
            events[key] = events.get(key, 0) + 1
    return {"ops_by_first_kind": first, "events": dict(sorted(events.items()))}


def failed_inputs(ops) -> set:
    """Indices of the distinct inputs that failed on any pass.  Outputs are
    deterministic, so every pass repeats the first pass's failures;
    counting inputs rather than ops keeps the count independent of how many
    passes fit in the run."""
    return {op.index for op in ops if op.failures}


def fail_ratio(ops, n_inputs) -> float:
    """Failed share of the distinct inputs, by the rule of succession
    (failed + 1) / (inputs + 2): never 0, so relative bounds stay defined."""
    return (len(failed_inputs(ops)) + 1) / (n_inputs + 2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing_metrics(ops, setup, latency):
    """setup_s, throughput, op_p50_s and op_tail_s from set-up times and
    ``latency(op)``."""
    lat = [latency(op) for op in ops]
    tail, pct, beyond = tail_latency(lat)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput": (sum(op.work for op in ops) / sum(lat), "work/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
    }
    return values, {"op_tail_percentile": pct, "op_tail_samples_beyond": beyond}


def end_to_end(ops, n_inputs, setup, cal):
    """End-to-end metrics at reference host speed; the raw wall-time
    figures and the host speed factors go into the detail."""
    setup_scaled = [cal.scale(seconds, at) for seconds, at in setup]
    values, detail = timing_metrics(
        ops, setup_scaled, lambda op: cal.scale(op.latency, op.start + op.latency / 2))
    values.update({
        "fail_ratio": (fail_ratio(ops, n_inputs), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    })
    raw, _ = timing_metrics(ops, [seconds for seconds, _ in setup], lambda op: op.latency)
    factors = sorted(cal.factors)
    detail.update({
        "ops": len(ops),
        "raw_wall_time": {k: v for k, (v, _) in raw.items()},
        "host_speed_factor": {"samples": len(factors), "min": factors[0],
                              "median": statistics.median(factors), "max": factors[-1]},
    })
    return values, detail


# ---------------------------------------------------------------------------
# Tracing


def make_hooks():
    """Counters taken at the layer boundaries from call arguments/results."""

    def rule(tracer, args, result, dur):
        tracer.count("entropy.rules")
        tracer.count("entropy.rule_nodes", result.n)

    def ratio(tracer, args, result, dur):
        tracer.count("entropy.node_evals", len(args["X"]))

    def functional(tracer, args, result, dur):
        tracer.count("entropy.functional_calls")
        tracer.count("entropy.functional_incl_s", dur)

    def poly(tracer, args, result, dur):
        tracer.count("spectrum.basis_dim", len(result.basis))

    def lyapunov(tracer, args, result, dur):
        if len(args["C"]) == 10:
            tracer.count("linalg.solve_lyapunov.d10_calls")
            tracer.count("linalg.solve_lyapunov.d10_s", dur)

    def fd(tracer, args, result, dur):
        grid = args["grid"]
        steps = int(round(args["t_end"] / args["dt"]))
        tracer.count("kinetic.cell_steps", grid.nx * grid.nv * steps)
        if grid.nx == grid.nv == 256:
            tracer.count("kinetic.steps_256", steps)
            tracer.count("kinetic.s_256", dur)

    def cli_run(tracer, args, result, dur):
        tracer.count("cli.run_incl_s", dur)

    hooks = {name: functional for name in ENTROPY_FUNCTIONALS}
    hooks.update({
        "entropy.gauss_hermite_rule": rule,
        "entropy.ratio_and_grad": ratio,
        "spectrum.poly_operator_matrix": poly,
        "linalg.solve_lyapunov": lyapunov,
        "kinetic.fd_simulate": fd,
        "cli.run": cli_run,
    })
    return hooks


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, passes, ops, wall_untraced, wall_traced):
    """Per-layer metrics: totals per pass of the input set, and ratios
    per rule, call, step or op."""
    from checks import WRONG_VERDICT

    funcs, layers = tracer.summary()
    c = tracer.counters

    def fn(name, key="self_s"):
        return funcs.get(name, {}).get(key, 0)

    totals = {}  # over the traced passes
    for layer in LAYERS:
        agg = layers.get(layer, {"calls": 0, "self_s": 0.0, "errors": 0})
        totals[f"{layer}.calls"] = (agg["calls"], "count")
        totals[f"{layer}.self_s"] = (agg["self_s"], "s")
        totals[f"{layer}.errors"] = (agg["errors"], "count")
    totals.update({
        "bench.self_s": (layers["bench"]["self_s"], "s"),
        "trace.wall_s": (wall_traced, "s"),
        "trace.overhead_s": (wall_traced - wall_untraced, "s"),
        "entropy.node_evals": (c["entropy.node_evals"], "count"),
        "entropy.functionals.self_s": (sum(fn(f) for f in ENTROPY_FUNCTIONALS), "s"),
        "entropy.ratio_and_grad.self_s": (fn("entropy.ratio_and_grad"), "s"),
        "entropy.gauss_hermite_rule.self_s": (fn("entropy.gauss_hermite_rule"), "s"),
        "flow.evolve_mixture.self_s": (fn("flow.evolve_mixture"), "s"),
        "kinetic.fd_simulate.self_s": (fn("kinetic.fd_simulate"), "s"),
        "kinetic.cell_steps": (c["kinetic.cell_steps"], "count"),
        "linalg.solve_lyapunov.self_s": (fn("linalg.solve_lyapunov"), "s"),
        "certificates.build_P.self_s": (fn("certificates.build_P"), "s"),
        "system.check_condition_A.self_s": (fn("system.check_condition_A"), "s"),
        "system.wrong_verdicts": (
            sum(1 for op in ops for f in op.failures if f.kind == WRONG_VERDICT), "count"),
        "spectrum.poly_operator_matrix.self_s": (fn("spectrum.poly_operator_matrix"), "s"),
        "cli.bytes_written": (c["cli.bytes_written"], "B"),
    })
    metrics = {k: (v / passes, unit) for k, (v, unit) in totals.items()}
    metrics.update({  # ratios: per rule, call, step or op
        "entropy.rule_nodes": (_ratio(c["entropy.rule_nodes"], c["entropy.rules"]), "nodes"),
        "entropy.functional_s_per_call": (
            _ratio(c["entropy.functional_incl_s"], c["entropy.functional_calls"]), "s"),
        "kinetic.s_per_step": (_ratio(c["kinetic.s_256"], c["kinetic.steps_256"]), "s"),
        "linalg.eigen_structure.calls_per_op": (
            _ratio(fn("linalg.eigen_structure", "calls"), len(ops)), "count"),
        "linalg.solve_lyapunov.s_per_call_d10": (
            _ratio(c["linalg.solve_lyapunov.d10_s"], c["linalg.solve_lyapunov.d10_calls"]), "s"),
        "spectrum.basis_dim": (
            _ratio(c["spectrum.basis_dim"], fn("spectrum.poly_operator_matrix", "calls")), "count"),
    })
    detail = {
        "self_time_sum_s": sum(v["self_s"] for v in layers.values()),
        "functions": {k: funcs[k] for k in sorted(funcs)},
    }
    return metrics, detail


def traced_run(wl, seconds):
    """Whole passes untraced for about seconds/2, then as many traced."""
    import hypofp
    import tracing

    n = len(wl.inputs)
    t0 = time.perf_counter()
    untraced = run_ops(wl, lambda i, el: i > 0 and i % n == 0 and el >= seconds / 2)
    wall_untraced = time.perf_counter() - t0
    passes = len(untraced) // n

    tracer = tracing.Tracer(make_hooks())
    wrapped = tracer.install(hypofp.__name__, LAYERS)
    wl.tracer = tracer
    try:
        t0 = time.perf_counter()
        with tracer.span("bench.run"):
            traced = run_ops(wl, lambda i, el: i >= passes * n, tracer)
        wall_traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        wl.tracer = None
    metrics, detail = per_layer(tracer, passes, traced, wall_untraced, wall_traced)
    detail.update({
        "passes": passes,
        "functions_wrapped": wrapped,
        "spans": len(tracer.spans),
        "traced_wall_s": wall_traced,
        "untraced_wall_s": wall_untraced,
        "untraced_s_per_unit": sum(op.latency for op in untraced) / sum(op.work for op in untraced),
    })
    return untraced + traced, metrics, detail, tracer.spans


# ---------------------------------------------------------------------------
# Set-up, notes and metadata


def make_workload(name, seed, workdir):
    import numpy as np
    import workloads

    return workloads.WORKLOADS[name](np.random.default_rng(seed), workdir)


def setup_samples(args, cal):
    """Wall time of SETUP_REPEATS fresh processes that import hypofp, build
    the seeded inputs and write the config files, then exit, as (seconds,
    midpoint) pairs.  Host speed is sampled before and after each."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    cal.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        t1 = time.perf_counter()
        samples.append((t1 - t0, (t0 + t1) / 2))
        cal.sample()
    return samples


def lyapunov_pass(seed):
    """solve_lyapunov time over one certify-sweep pass, in this process."""
    import numpy as np
    from hypofp import linalg

    wl = make_workload("certify-sweep", seed, os.path.join(OUT_DIR, f"note-{os.getpid()}"))
    total, d10 = 0.0, []
    for inp in wl.inputs:
        t0 = time.perf_counter()
        try:
            linalg.solve_lyapunov(inp.C, inp.D)
        except np.linalg.LinAlgError:
            pass
        dt = time.perf_counter() - t0
        total += dt
        if inp.d == 10:
            d10.append(dt)
    return {"self_s": total, "s_per_call_d10": statistics.median(d10),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def lyapunov_threads_note(seed):
    """Ungated note: certify-sweep solve_lyapunov time at one BLAS thread
    and at the library default (nproc threads)."""
    note = {}
    for label, extra in (("1", []), ("default", ["--blas-default"])):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", "certify-sweep",
             "--seed", str(seed), "--lyapunov-note", *extra],
            check=True, capture_output=True, text=True, timeout=170)
        note[label] = json.loads(out.stdout.strip().splitlines()[-1])
    return note


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout, when it is a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, wl):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": wl.size,
        "work_unit": wl.unit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def baseline_rows(name, metrics, detail):
    """The ROADMAP "Measured baseline" rows this workload reproduces."""
    rows = []
    if name.startswith("evolve"):
        rows.append(f"evolve, {name}: {detail['untraced_s_per_unit']:.4g} s per sample (untraced)")
        nodes = metrics["entropy.rule_nodes"][0]
        rows.append(f"entropy functional at {nodes:.0f} nodes: "
                    f"{metrics['entropy.functional_s_per_call'][0]:.4g} s per call")
    if name == "kinetic-fd":
        rows.append(f"fd_simulate at 256x256: {metrics['kinetic.s_per_step'][0]:.4g} s per step")
    if name == "certify-sweep":
        rows.append(f"solve_lyapunov at d=10: "
                    f"{metrics['linalg.solve_lyapunov.s_per_call_d10'][0]:.4g} s per call")
    return rows


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare(args.blas_default)
    import calibrate
    import checks

    if args.lyapunov_note:
        print(json.dumps(lyapunov_pass(args.seed)))
        return 0
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        if args.setup_only:
            make_workload(args.workload, args.seed, workdir)
            return 0
        cal = None if args.trace else calibrate.Calibrator()
        samples = [] if args.trace else setup_samples(args, cal)
        wl = make_workload(args.workload, args.seed, workdir)
        n = len(wl.inputs)
        report = {"meta": metadata(args, wl), "setup_samples_s": [s for s, _ in samples]}
        if args.trace:
            ops, metrics, detail, spans = traced_run(wl, args.seconds)
            if args.workload == "certify-sweep":
                report["notes"] = {"solve_lyapunov_blas_threads": lyapunov_threads_note(args.seed)}
            report["baseline_rows"] = baseline_rows(args.workload, metrics, detail)
            rows = [f"baseline: {row}" for row in report["baseline_rows"]]
            rows.append(f"trace: self times of all layers and the benchmark sum to "
                        f"{detail['self_time_sum_s']:.4f} s of {detail['traced_wall_s']:.4f} s "
                        f"traced wall ({detail['passes']} passes)")
            spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
            with open(spans_path, "w") as fh:
                json.dump({"fields": ["name", "parent", "start", "end", "raised"], "spans": spans}, fh)
        else:
            ops = run_ops(wl, lambda i, el: i >= n and el >= args.seconds, calibrator=cal)
            metrics, detail = end_to_end(ops, n, samples, cal)
            raw = detail["raw_wall_time"]
            rows = [f"raw wall time: setup {raw['setup_s']:.4g} s, throughput "
                    f"{raw['throughput']:.4g} {wl.unit}/s, op p50 {raw['op_p50_s']:.4g} s, "
                    f"host speed factor median {detail['host_speed_factor']['median']:.3f}"]
        report["detail"] = detail
        report["failures"] = failures_by_kind(ops)
        report["failure_examples"] = sorted({f"{f.kind}@{f.stage}: {f.message}"[:200]
                                             for op in ops for f in op.failures})[:20]
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    failed = len(failed_inputs(ops))
    print(f"# {args.workload} seed {args.seed}: {len(ops)} ops over {n} inputs, "
          f"{sum(1 for op in ops if op.failures)} ops and {failed} inputs failed; "
          f"by first kind {report['failures']['ops_by_first_kind']}")
    for row in rows:
        print(f"# {row}")
    print(f"# report: {os.path.relpath(path, ROOT)}")
    # Exceptions, refusals (wrong verdicts, exit codes) and failed checks on
    # inputs with cond K > checks.COND_LIMIT all count in `failed`; a run is
    # incorrect when the program returned a wrong value for a well-conditioned input.
    correct = not any(f.kind == checks.CHECK_FAILED for op in ops for f in op.failures)
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
