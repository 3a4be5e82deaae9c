"""The benchmark (isacbench/) wraps public isacsim functions by module and
name; a rename or an inlined function would make its traced runs raise.
This keeps every wrapped name resolvable, and the benchmark's counters
able to read a real run, without importing the benchmark as a package or
editing it."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from isacsim.cli import main as cli_main

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


PEAK_COUNTS = {"analysis.peaks_target", "analysis.peaks_classified"}


def test_trace_counters_read_a_real_run(tmp_path, capsys):
    """The counters read what the wrapped functions take and return
    (``r.paths``, ``r.all_rays()``, the ``paths`` argument of
    ``merge_paths``), so a traced simulate, analyze and
    sounder-roundtrip count every layer they pass through."""
    tracing = _load_tracing()
    config = Path(__file__).parents[1] / "demos" / "configs" / "bistatic_ris_factory.json"
    run = tmp_path / "run"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (["simulate", str(config), "--out", str(run)],
                     ["analyze", str(run)],
                     ["sounder-roundtrip", str(config), "--out", str(tmp_path / "roundtrip")]):
            span = tracer.begin("cli." + argv[0])
            try:
                assert cli_main(argv) == 0
            finally:
                tracer.end(span)
        counts = tracer.summary(0)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in tracing.LAYER_COUNTS:
        if name not in PEAK_COUNTS:
            assert type(counts[name]) is int and counts[name] > 0, name
    n_target = len(np.load(run / "target.npy", allow_pickle=False))
    n_background = len(np.load(run / "background.npy", allow_pickle=False))
    # simulate and sounder-roundtrip each build the channels of the run once
    assert counts["core.merge_exact.paths_out"] == 2 * n_target
    assert counts["background.paths"] == 2 * n_background
    # the ground-truth merge of sounder-roundtrip takes both channels
    assert counts["core.merge_tol.paths_in"] == n_target + n_background
