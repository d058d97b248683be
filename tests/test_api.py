"""The public API: ``hypofp.__all__`` names each export once, and each resolves;
``flow`` reads its system from one steady state, ``flow`` and ``kinetic``
import no scipy, and ``entropy`` alone plans the quadrature."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import hypofp as hp
from hypofp import cli, flow, kinetic


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
    assert not _imports_scipy(tree)
    calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not calls & {"np.linalg.solve", "np.linalg.inv"}


def test_kinetic_imports_no_scipy():
    # The velocity step is one product with a propagator formed by numpy.
    assert not _imports_scipy(ast.parse(Path(kinetic.__file__).read_text()))


def _imports_scipy(tree):
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    return [m for m in imported if m.split(".")[0] == "scipy"]


def test_entropy_alone_plans_the_quadrature():
    # flow passes an order through and the CLI passes the config's: neither
    # builds a rule nor knows the orders of the search.
    for module in (flow, cli):
        tree = ast.parse(Path(module.__file__).read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for a in node.names}
        assert not names & {"gauss_hermite_rule", "rule_for", "ADAPTIVE_ORDERS"}, module.__name__
