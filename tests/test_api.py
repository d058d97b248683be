"""The public API: ``hypofp.__all__`` names each export once, and each resolves;
``flow`` reads its system from one steady state."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import hypofp as hp
from hypofp import flow


def test_all_names_resolve_once():
    twice = [name for name, n in Counter(hp.__all__).items() if n > 1]
    assert not twice, f"listed more than once in __all__: {twice}"
    exec("from hypofp import *", {})  # AttributeError on a stale name


def test_flow_takes_the_system_as_one_steady_state():
    # K's factor is owned by SteadyState: no public flow function takes the
    # system's matrices beside it (evolve_shift needs C alone), and flow.py
    # neither imports scipy nor solves or inverts with K.
    public = [f for name, f in inspect.getmembers(flow, inspect.isfunction)
              if f.__module__ == flow.__name__ and not name.startswith("_")]
    assert {f.__name__ for f in public} >= {"run_trajectory", "evolve_mixture", "evolve_cov"}
    taken = {(f.__name__, p) for f in public for p in inspect.signature(f).parameters
             if p in ("spec", "C", "D", "K")}
    assert taken == {("evolve_shift", "C")}
    tree = ast.parse(Path(flow.__file__).read_text())
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert not [m for m in imported if m.split(".")[0] == "scipy"]
    calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not calls & {"np.linalg.solve", "np.linalg.inv"}
