"""Every demo runs to completion and prints the text frozen in
tests/data/<demo>.txt. The demos are seeded and write nothing that
outlives them, so their output is the same on every run. After a
deliberate change of a demo's output, rewrite the frozen text with

    PYTHONPATH=src python tests/test_demos.py

and record the change in CHANGES.md.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))
FROZEN = Path(__file__).parent / "data"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_frozen_text(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (FROZEN / f"{demo.stem}.txt").read_text()


if __name__ == "__main__":
    for demo in DEMOS:
        done = run_demo(demo)
        if done.returncode != 0:
            sys.exit(f"{demo.name} failed:\n{done.stderr}")
        (FROZEN / f"{demo.stem}.txt").write_text(done.stdout)
        print(f"wrote {FROZEN / demo.stem}.txt", file=sys.stderr)
