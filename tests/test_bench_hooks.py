"""The benchmark tracer's hooks resolve on the library.

``bench/spans.py`` wraps each function at the module attribute its caller
looks it up by, and some of those attributes exist only for it: ``grouper``
imports ``decode_bundle`` and ``evaluator`` imports ``rotated_iou``.  A hook
that no longer resolves fails only a traced benchmark run, so it is checked
here.  The file is run by path, without importing ``bench`` as a package.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "spans.py"))


@pytest.mark.parametrize("module, path", [(module, path) for module, path, _, _ in SPANS["WRAPPED"]])
def test_every_traced_hook_resolves_to_a_callable(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module}.{path}"
