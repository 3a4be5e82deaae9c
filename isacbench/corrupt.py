"""Show that every output check rejects a deliberately corrupted output.

Run from the repository root:

    python3 isacbench/corrupt.py

Runs one bistatic_indoor_human chain of the demo_sweep workload (seed 1),
then, for each check, corrupts a fresh copy of the outputs in one way and
runs that check alone on it. Each case must end in ``CheckFailure``; the
check must also accept the outputs before corruption. The PADP check is
shown on a padp.csv written from exactly binned powers, because the
program's own padp.csv does not pass it (see README.md). Exit status 0
means every corruption was rejected.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import checks  # noqa: E402
import workloads  # noqa: E402


def edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc, indent=1))


def write_exact_padp(padp: checks.Padp, path: Path) -> None:
    """padp.csv in the program's format, from the exactly binned powers."""
    lines = ["angle_deg,delay_ns,power_db"]
    for i, ang in enumerate(padp.angles):
        for j, tau in enumerate(padp.centers):
            p = padp.grid[i, j]
            p_db = "" if p <= 0.0 else f"{10.0 * math.log10(p):.17g}"
            lines.append(f"{ang:.17g},{tau * 1e9:.17g},{p_db}")
    with open(path, "w", newline="") as f:
        f.write("\r\n".join(lines) + "\r\n")


def edit_padp(path: Path, fn) -> None:
    """Apply fn to the first nonempty power field of padp.csv."""
    with open(path, newline="") as f:
        lines = f.read().split("\r\n")
    k = next(i for i, ln in enumerate(lines[1:], 1) if ln and not ln.endswith(","))
    a, t, p = lines[k].split(",")
    lines[k] = f"{a},{t},{fn(p)}"
    with open(path, "w", newline="") as f:
        f.write("\r\n".join(lines))


def main() -> int:
    from isacsim import cli

    work = ROOT / ".isacbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="corrupt-", dir=work))
    try:
        sc = workloads.build("demo_sweep", 1, tmp).scenarios[0]
        cfg, scene, thr = sc.config, sc.scene, sc.threshold_db
        good = tmp / "good"
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["simulate", str(sc.config_path), "--out", str(good / "sim")],
                         sc.analyze_args(good / "sim"),
                         ["sounder-roundtrip", str(sc.config_path), "--out", str(good / "snd")]):
                if cli.main(argv) != 0:
                    raise SystemExit(f"isacsim {' '.join(argv)} failed")
        ref = checks.manifest(good / "sim", good / "snd")
        chip_ns = 1e9 / cfg["bandwidth_hz"]
        bin_ns = chip_ns  # the PADP bin and the chip are both 1 / bandwidth

        def bounce0(doc):
            return next(p for p in doc["paths"] if p["bounce_order"] == 0)

        def first_matched(doc):
            return next(r for r in doc["recovered"] if r["matched_truth_ns"] is not None)

        def first_classified(doc):
            return next(r for r in doc["paths"] if r["route_labels"] is not None)

        def padp_check(d):
            checks.check_padp_csv(checks.Padp(cfg, d / "sim"), d / "sim")

        def exact_padp(d):
            write_exact_padp(checks.Padp(cfg, d / "sim"), d / "sim" / "padp.csv")

        def peaks_check(d):
            checks.check_peaks(checks.Padp(cfg, d / "sim"), d / "sim", thr)

        def routes_check(d):
            checks.check_routes(scene, d / "sim", bin_ns * 1e-9)

        def same_manifest(d):
            checks.check_same_manifest(ref, checks.manifest(d / "sim", d / "snd"), "copy")

        cases = [
            ("padp: one power 0.01 dB high", padp_check, exact_padp,
             lambda d: edit_padp(d / "sim" / "padp.csv", lambda p: repr(float(p) + 0.01))),
            ("padp: one nonzero bin written empty", padp_check, exact_padp,
             lambda d: edit_padp(d / "sim" / "padp.csv", lambda p: "")),
            ("unique keys: a target path listed twice",
             lambda d: checks.check_unique_keys(d / "sim"), None,
             lambda d: edit_json(d / "sim" / "target.json",
                                 lambda doc: doc["paths"].append(doc["paths"][0]))),
            ("target LOS: bounce-0 AoA 0.001 deg off",
             lambda d: checks.check_target_los(cfg, d / "sim"), None,
             lambda d: edit_json(d / "sim" / "target.json",
                                 lambda doc: bounce0(doc).update(
                                     aoa_az_deg=bounce0(doc)["aoa_az_deg"] + 1e-3))),
            ("target LOS: bounce-0 delay 1 ps late",
             lambda d: checks.check_target_los(cfg, d / "sim"), None,
             lambda d: edit_json(d / "sim" / "target.json",
                                 lambda doc: bounce0(doc).update(
                                     delay_s=bounce0(doc)["delay_s"] + 1e-12))),
            ("peaks: a peak moved one delay bin", peaks_check, None,
             lambda d: edit_json(d / "sim" / "paths.json",
                                 lambda doc: doc["paths"][0].update(
                                     tau_ns=doc["paths"][0]["tau_ns"] + bin_ns))),
            ("peaks: a peak tagged background", peaks_check, None,
             lambda d: edit_json(d / "sim" / "paths.json",
                                 lambda doc: doc["paths"][0].update(origin="background"))),
            ("routes: a classified peak two bins late", routes_check, None,
             lambda d: edit_json(d / "sim" / "paths.json",
                                 lambda doc: first_classified(doc).update(
                                     tau_ns=first_classified(doc)["tau_ns"] + 2 * bin_ns))),
            ("routes: wrong bounce order", routes_check, None,
             lambda d: edit_json(d / "sim" / "paths.json",
                                 lambda doc: first_classified(doc).update(
                                     bounce_order=first_classified(doc)["bounce_order"] + 1))),
            ("roundtrip: a matched delay two chips off",
             lambda d: checks.check_roundtrip(cfg, d / "sim", d / "snd"), None,
             lambda d: edit_json(d / "snd" / "roundtrip.json",
                                 lambda doc: first_matched(doc).update(
                                     delay_est_ns=first_matched(doc)["delay_est_ns"]
                                     + 2 * chip_ns))),
            ("roundtrip: a matched truth that is no path delay",
             lambda d: checks.check_roundtrip(cfg, d / "sim", d / "snd"), None,
             lambda d: edit_json(d / "snd" / "roundtrip.json",
                                 lambda doc: first_matched(doc).update(
                                     matched_truth_ns=first_matched(doc)["matched_truth_ns"]
                                     + 0.1))),
            ("roundtrip: capture.bin one sample short",
             lambda d: checks.check_roundtrip(cfg, d / "sim", d / "snd"), None,
             lambda d: (d / "snd" / "capture.bin").write_bytes(
                 (d / "snd" / "capture.bin").read_bytes()[:-8])),
            ("manifest: one byte of paths.json changed", same_manifest, None,
             lambda d: (d / "sim" / "paths.json").write_bytes(
                 (d / "sim" / "paths.json").read_bytes().replace(b"1", b"2", 1))),
            ("manifest: target.json no longer matches report.json",
             lambda d: checks.manifest(d / "sim", d / "snd"), None,
             lambda d: edit_json(d / "sim" / "target.json",
                                 lambda doc: doc.update(carrier_freq_hz=1.0))),
        ]

        failures = 0
        try:
            padp_check(good)
            print("program's padp.csv: ACCEPTED")
        except checks.CheckFailure as exc:
            print(f"program's padp.csv: rejected before any corruption: {exc}")
        for name, check, prepare, corrupt in cases:
            d = tmp / "case"
            shutil.rmtree(d, ignore_errors=True)
            shutil.copytree(good, d)
            if prepare is not None:
                prepare(d)
            try:
                check(d)
            except checks.CheckFailure as exc:
                print(f"FAIL: {name}: rejected an intact output: {exc}")
                failures += 1
                continue
            corrupt(d)
            try:
                check(d)
                print(f"FAIL: {name}: accepted")
                failures += 1
            except checks.CheckFailure as exc:
                print(f"ok: {name}: rejected ({str(exc).replace(str(d), '<run>')})")
        print(f"{len(cases) - failures} of {len(cases)} corruptions rejected")
        return 1 if failures else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
