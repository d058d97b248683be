"""The tolerance policy: every decision threshold is a field of
``linalg.Tolerances``, read through its one instance ``linalg.TOL``."""

import dataclasses
import inspect
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from hypofp import linalg

SRC = Path(linalg.__file__).parent
README = Path(__file__).parents[1] / "README.md"
SMALL = 1e-5  # float literals at or below this are threshold-sized

# (file, literal) -> (occurrences, reason).  Small literals that decide nothing.
EXEMPT = {
    ("linalg.py", "1e-300"): (2, "underflow floor of the Lyapunov residual bound (D = 0)"),
    ("system.py", "1e-300"): (1, "underflow floor of rank_D's reference eigenvalue (D = 0)"),
    ("entropy.py", "1e-300"): (1, "underflow floor: clamps roundoff-negative ratios off psi''s pole"),
    ("entropy.py", "1e-15"): (2, "Sobol points clipped off 0 and 1 before the normal quantile"),
    ("cli.py", "1e-12"): (2, "SVG axis guards: placeholder data and a zero-width log range"),
}


def _small_literals():
    """Counter of (file, literal) for float literals <= SMALL outside Tolerances."""
    lines, start = inspect.getsourcelines(linalg.Tolerances)
    inside = range(start, start + len(lines))
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type != tokenize.NUMBER:
                    continue
                try:
                    value = float(tok.string.replace("_", ""))
                except ValueError:  # hex, octal, imaginary
                    continue
                if not 0 < value <= SMALL:
                    continue
                if path.name == "linalg.py" and tok.start[0] in inside:
                    continue
                found[(path.name, tok.string)] += 1
    return found


def test_no_threshold_literal_outside_the_record():
    found = _small_literals()
    stray = {key: n for key, n in found.items() if key not in EXEMPT}
    assert not stray, f"threshold literals outside linalg.Tolerances: {stray}"
    for key, (n, reason) in EXEMPT.items():
        assert found[key] == n, f"{key} ({reason}): expected {n}, found {found[key]}"


def test_one_frozen_instance_read_by_name():
    assert isinstance(linalg.TOL, linalg.Tolerances)
    with pytest.raises(dataclasses.FrozenInstanceError):
        linalg.TOL.cluster = 1e-6
    # No function or config reader takes a Tolerances: outside its definition
    # the name appears only where TOL is made.
    text = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert {name: t.count("Tolerances") for name, t in text.items() if "Tolerances" in t} == {"linalg.py": 2}
    # Every field decides something.
    code = "".join(text.values())
    for f in dataclasses.fields(linalg.Tolerances):
        assert f"TOL.{f.name}" in code, f"Tolerances.{f.name} is never read"


def test_readme_table_is_the_record():
    # README's "Tolerances" table lists exactly the record's fields, in order,
    # each with its value to the digits shown (a value cell starts with it).
    table = README.read_text().split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (\d(?:\.(\d+))?e-\d+)\b", table, flags=re.M)
    assert [name for name, _, _ in rows] == [f.name for f in dataclasses.fields(linalg.Tolerances)]
    for name, shown, decimals in rows:
        digits = len(decimals)
        assert f"{getattr(linalg.TOL, name):.{digits}e}" == f"{float(shown):.{digits}e}", name
