"""The names the benchmark tracer patches still exist in the package.

perfbench/tracing.py wraps functions by (owner, attribute) name; a
rename under src/ would break the traced benchmark without failing any
other test.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

import tracing  # noqa: E402


def _current():
    return [vars(owner).get(attr) for owner, attr, _ in tracing.PATCHES]


def test_every_patched_name_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.PATCHES
               if attr not in vars(owner)]
    assert missing == []


def test_installed_restores_originals():
    before = _current()
    with tracing.installed(tracing.Tracer()):
        during = _current()
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(_current(), before))
