"""Regenerate bench/reference_d3.json, the committed outputs of the
evolve-d3-tensor pool.

    python3 bench/make_reference.py

Draws POOL_SIZE initial mixtures from POOL_SEED, runs ``hypofp evolve`` on
each at the default quadrature order (64) and records e, I, S and the
envelope.  As evidence for the tolerance it also runs orders 48, 32, 24 and 16 and
stores their largest relative deviation from order 64: a converged rule
must pass D3_REFERENCE_RTOL, an unconverged one must not.  Run it only when
the workload's inputs change, on a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run

POOL_SEED = 20261017
POOL_SIZE = 16
C = [[2.0, -1.0, 0.0], [1.0, 1.0, -1.0], [0.0, 1.0, 0.5]]
D = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
T_END = 3.0
SAMPLES = 4
KEYS = ("e", "I", "S", "envelope")


def d3_pool(rng, K, n):
    """Initial 2-component mixtures with whitened means of scale 0.3 and
    whitened covariance eigenvalues in [0.7, 1.0]."""
    import numpy as np
    import workloads

    L = np.linalg.cholesky(K)
    pool = []
    for _ in range(n):
        w = rng.uniform(0.2, 0.8)
        comps = [workloads.whitened_gaussian(rng, L, 0.3, 0.7, 1.0) for _ in range(2)]
        pool.append(([w, 1.0 - w], [m for m, _ in comps], [A for _, A in comps]))
    return pool


def evolve_outputs(ev, inp, order=None):
    if order is not None:
        with open(inp.config) as fh:
            cfg = json.load(fh)
        cfg["quadrature"] = {"order": order}
        with open(inp.config, "w") as fh:
            json.dump(cfg, fh)
    rc, err = ev.run(inp)
    if rc != 0:
        raise RuntimeError(f"evolve failed with exit code {rc}: {err}")
    return ev.read_series(inp)


def main() -> int:
    run.prepare()
    import numpy as np

    import checks
    import workloads

    workdir = tempfile.mkdtemp(prefix="d3ref-", dir=run.OUT_DIR)
    try:
        ev = workloads.Evolve(workdir, C, D, "log", T_END, SAMPLES)
        ev.name = "reference"
        pool = d3_pool(np.random.default_rng(POOL_SEED), ev.K, POOL_SIZE)
        for weights, means, covs in pool:
            ev.add_input(weights, means, covs)
        items, deviation = [], {48: 0.0, 32: 0.0, 24: 0.0, 16: 0.0}
        for (weights, means, covs), inp in zip(pool, ev.inputs):
            ref = evolve_outputs(ev, inp)
            fails = checks.check_series(ref["e"], ref["I"], ref["S"], ref["envelope"])
            if fails:
                raise RuntimeError(f"reference outputs fail their checks: {fails}")
            for order in deviation:
                low = evolve_outputs(ev, inp, order)
                for key in KEYS:
                    dev = checks.reference_deviation(low[key], ref[key])
                    deviation[order] = max(deviation[order], dev)
            items.append({
                "weights": weights,
                "means": [m.tolist() for m in means],
                "covs": [A.tolist() for A in covs],
                "outputs": {key: ref[key].tolist() for key in KEYS},
            })
        payload = {
            "system": {"C": C, "D": D},
            "t_end": T_END,
            "samples": SAMPLES,
            "pool_seed": POOL_SEED,
            "quadrature_order": 64,
            "rtol": checks.D3_REFERENCE_RTOL,
            "max_rel_deviation_from_order_64": {str(k): v for k, v in deviation.items()},
            "pool": items,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for order, dev in deviation.items():
        print(f"order {order}: max relative deviation {dev:.2e}", file=sys.stderr)
    with open(workloads.D3_REFERENCE, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
