"""The benchmark (isacbench/) wraps public isacsim functions by module and
name; a rename or an inlined function would make its traced runs raise.
This keeps every wrapped name resolvable without importing the benchmark
as a package or editing it."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "isacbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("isacbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPS = _load_tracing().WRAPS


@pytest.mark.parametrize("module, attribute", [(m, a) for m, a, _, _ in WRAPS],
                         ids=[f"{m}.{a}" for m, a, _, _ in WRAPS])
def test_wrapped_name_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))
