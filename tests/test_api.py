"""The public API: ``hypofp.__all__`` names each export once, and each resolves."""

from collections import Counter

import hypofp as hp


def test_all_names_resolve_once():
    twice = [name for name, n in Counter(hp.__all__).items() if n > 1]
    assert not twice, f"listed more than once in __all__: {twice}"
    exec("from hypofp import *", {})  # AttributeError on a stale name
