"""The traced benchmark (perfbench/spans.py) rebinds cusplab functions by
name; a rename in cusplab must fail here rather than in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _patch_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.PATCH_POINTS]


@pytest.mark.parametrize("module, attr", _patch_points())
def test_patch_point_resolves(module, attr):
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert name in vars(owner) and callable(getattr(owner, name))
