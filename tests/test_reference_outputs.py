"""Frozen reference outputs: every file that simulate, analyze and
sounder-roundtrip write for the shipped configs must hash to the digest
recorded in tests/data/reference_digests.json. A refactor that changes
no behaviour leaves every digest as it is. ``analyze`` runs at the
README's ``--threshold-db 120``, where it finds and classifies target
paths; at the default 30 dB two configs find none.

report.json is hashed without ``timings_s`` and ``config_dir``, which
depend on the machine and the checkout. After a deliberate change of the
outputs, rewrite the digests with

    PYTHONPATH=src python tests/test_reference_outputs.py

and record the change in CHANGES.md.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from isacsim.cli import main as cli_main

CONFIG_DIR = Path(__file__).parents[1] / "demos" / "configs"
SHIPPED_CONFIGS = sorted(p for p in CONFIG_DIR.glob("*.json") if "scene" not in p.name)
SCENES = {"bistatic_indoor_human.json": CONFIG_DIR / "indoor_human_scene.json"}
DIGESTS = Path(__file__).parent / "data" / "reference_digests.json"


def _digest(path: Path) -> str:
    if path.name == "report.json":
        doc = json.loads(path.read_text())
        for key in ("timings_s", "config_dir"):
            doc.pop(key, None)
        data = json.dumps(doc, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def run_chain(config: Path, work: Path) -> dict[str, str]:
    """simulate, analyze and sounder-roundtrip one config under ``work``;
    the digest of every file written, keyed by its path under ``work``."""
    run, sound = work / "run", work / "roundtrip"
    scene = SCENES.get(config.name)
    for argv in (["simulate", str(config), "--out", str(run)],
                 ["analyze", str(run), "--threshold-db", "120"]
                 + (["--scene", str(scene)] if scene else []),
                 ["sounder-roundtrip", str(config), "--out", str(sound)]):
        assert cli_main(argv) == 0, f"{config.name}: {argv[0]} failed"
    return {p.relative_to(work).as_posix(): _digest(p)
            for p in sorted(work.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=[p.stem for p in SHIPPED_CONFIGS])
def test_outputs_match_frozen_digests(tmp_path, capsys, config):
    want = json.loads(DIGESTS.read_text())[config.name]
    got = run_chain(config, tmp_path)
    capsys.readouterr()
    assert sorted(got) == sorted(want), f"{config.name}: the set of output files changed"
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"{config.name}: {', '.join(changed)} differ from the frozen digests"


if __name__ == "__main__":
    import tempfile
    digests = {}
    for cfg in SHIPPED_CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[cfg.name] = run_chain(cfg, Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
