"""Frozen reference outputs: every file that simulate, analyze and
sounder-roundtrip write must hash to the digest recorded in
tests/data/reference_digests.json, for the shipped configs, for a moving
variant of bistatic_ris_factory and for every benchmark scenario
(isacbench/workloads.py) at seed 11. Every other frozen scenario holds
its target still, so the moving variant is the one that covers the
Doppler rule: each of its target paths, the NLOS ones included, shifts
by the target's velocity on both target-side directions. A refactor
that changes no behaviour leaves every digest as it is. ``analyze`` runs
the shipped configs at the README's ``--threshold-db 120``, where it finds
and classifies target paths (at the default 30 dB two configs find
none), and each benchmark scenario with its own analyze arguments.

report.json is hashed without ``timings_s``, which depends on the
machine; any other key that varies with the machine or the checkout
changes its digest. After a deliberate change of the
outputs, rewrite the digests with

    PYTHONPATH=src python tests/test_reference_outputs.py

and record the change in CHANGES.md.
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from isacsim.cli import main as cli_main

ROOT = Path(__file__).parents[1]
CONFIG_DIR = ROOT / "demos" / "configs"
SHIPPED_CONFIGS = sorted(p for p in CONFIG_DIR.glob("*.json") if "scene" not in p.name)
SCENES = {"bistatic_indoor_human.json": CONFIG_DIR / "indoor_human_scene.json"}
DIGESTS = Path(__file__).parent / "data" / "reference_digests.json"
WORKLOAD_SEED = 11
MOVING_KEY = "bistatic_ris_factory_moving"
MOVING_VELOCITY = [3.0, -2.0, 0.5]


def _load_workloads():
    """isacbench/workloads.py, loaded by path so that the benchmark stays
    out of the package and unedited. Its dataclasses look their module up
    in sys.modules, so it is registered there before it runs."""
    spec = importlib.util.spec_from_file_location(
        "isacbench_workloads", ROOT / "isacbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def _digest(path: Path) -> str:
    if path.name == "report.json":
        doc = json.loads(path.read_text())
        doc.pop("timings_s", None)
        data = json.dumps(doc, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def _shipped_analyze_args(config: Path):
    scene = SCENES.get(config.name)
    return lambda run: (["analyze", str(run), "--threshold-db", "120"]
                        + (["--scene", str(scene)] if scene else []))


def run_chain(config: Path, work: Path, analyze_args) -> dict[str, str]:
    """simulate, analyze (``analyze_args(run_dir)``) and sounder-roundtrip
    one config under ``work``; the digest of every file written, keyed by
    its path under ``work``."""
    run, sound = work / "run", work / "roundtrip"
    for argv in (["simulate", str(config), "--out", str(run)],
                 analyze_args(run),
                 ["sounder-roundtrip", str(config), "--out", str(sound)]):
        assert cli_main(argv) == 0, f"{config.name}: {argv[0]} failed"
    return {p.relative_to(work).as_posix(): _digest(p)
            for p in sorted(work.rglob("*")) if p.is_file()}


def run_moving(work: Path) -> dict[str, dict[str, str]]:
    """The chain of bistatic_ris_factory with its target moving at
    MOVING_VELOCITY, keyed by MOVING_KEY."""
    doc = json.loads((CONFIG_DIR / "bistatic_ris_factory.json").read_text())
    doc["targets"][0]["velocity_mps"] = MOVING_VELOCITY
    inputs = work / "inputs"
    inputs.mkdir()
    config = inputs / "bistatic_ris_factory.json"
    config.write_text(json.dumps(doc))
    return {MOVING_KEY: run_chain(config, work / "chain", _shipped_analyze_args(config))}


def run_workload(name: str, work: Path) -> dict[str, dict[str, str]]:
    """Every scenario chain of one benchmark workload at WORKLOAD_SEED,
    keyed by ``<workload>/<scenario>``."""
    inputs = work / "inputs"
    inputs.mkdir()
    return {f"{name}/{s.name}": run_chain(s.config_path, work / s.name, s.analyze_args)
            for s in WORKLOADS.build(name, WORKLOAD_SEED, inputs).scenarios}


def changed_entries(old: dict[str, dict[str, str]],
                    new: dict[str, dict[str, str]]) -> list[str]:
    """Every ``<chain>: <file>`` whose digest differs between ``old`` and
    ``new``, over the chains of ``new``; a file present on one side only
    counts as changed, and so does every file of a chain ``old`` lacks."""
    return [f"{key}: {name}" for key, files in new.items()
            for name in sorted(set(files) | set(old.get(key, {})))
            if files.get(name) != old.get(key, {}).get(name)]


def _assert_frozen(got: dict[str, dict[str, str]]) -> None:
    changed = changed_entries(json.loads(DIGESTS.read_text()), got)
    assert not changed, "differ from the frozen digests:\n" + "\n".join(changed)


def test_every_changed_entry_is_reported():
    old = {"a": {"x": "1", "y": "2"}, "b": {"x": "1"}, "c": {"x": "1"}}
    new = {"a": {"x": "0", "y": "0"}, "b": {"x": "1", "z": "3"}, "c": {"x": "1"}}
    assert changed_entries(old, new) == ["a: x", "a: y", "b: z"]
    assert changed_entries({}, {"d": {"x": "1"}}) == ["d: x"]


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=[p.stem for p in SHIPPED_CONFIGS])
def test_outputs_match_frozen_digests(tmp_path, capsys, config):
    got = run_chain(config, tmp_path, _shipped_analyze_args(config))
    capsys.readouterr()
    _assert_frozen({config.name: got})


def test_moving_target_outputs_match_frozen_digests(tmp_path, capsys):
    got = run_moving(tmp_path)
    capsys.readouterr()
    _assert_frozen(got)


@pytest.mark.parametrize("workload", sorted(WORKLOADS.BUILDERS))
def test_workload_outputs_match_frozen_digests(tmp_path, capsys, workload):
    got = run_workload(workload, tmp_path)
    capsys.readouterr()
    _assert_frozen(got)


if __name__ == "__main__":
    import tempfile
    digests = {}
    for cfg in SHIPPED_CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[cfg.name] = run_chain(cfg, Path(tmp), _shipped_analyze_args(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        digests.update(run_moving(Path(tmp)))
    for name in WORKLOADS.BUILDERS:
        with tempfile.TemporaryDirectory() as tmp:
            digests.update(run_workload(name, Path(tmp)))
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for entry in changed_entries(old, digests) + [f"{key}: removed" for key in old
                                                  if key not in digests]:
        print(f"changed {entry}", file=sys.stderr)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
