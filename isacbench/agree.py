"""Run sets of benchmark runs and report whether they agree within the bounds.

Run from the repository root:

    python3 isacbench/agree.py                      # 2 sets x 10 runs x every workload
    python3 isacbench/agree.py --sets 1 --runs 5 --workload dense_target

Runs ``isacbench/run.py`` one at a time, never two at once, each run with
another ``--seed``. For every workload and end-to-end metric of
BENCHMARK.json it prints each set's median and its spread (the distance
between the first and third quartile as a share of the median), and checks
that every spread stays within the metric's bound, that no later set's
median differs from the first set's by more than the bound either way, and
that every set fails the same share of operations. Exit status 0 means
the sets agree. All results are kept in .isacbench/agree-<time>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "isacbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(seed=seed, wall_s=wall)
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]

    results: dict[str, list[list[dict]]] = {n: [[] for _ in range(args.sets)] for n in names}
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for name in names:
                r = one_run(name, seed, bench["run_seconds"])
                seed += 1
                results[name][s].append(r)
                print(f"set {s + 1} {name:13s} seed {r['seed']:4d} wall {r['wall_s']:6.1f} s  "
                      + "  ".join(f"{k} {v['value']:.4f}" for k, v in r["metrics"].items()),
                      flush=True)
    out = ROOT / ".isacbench" / time.strftime("agree-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    ok = True
    print(f"\nspread = (Q3 - Q1) / median over {args.runs} runs; "
          f"drift = set median / first set median - 1")
    for name in names:
        sets = results[name]
        shares = {Fraction(sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
                  for rs in sets}
        correct = all(r["correct"] for rs in sets for r in rs)
        print(f"{name}: failed share {sorted(map(str, shares))}, all correct: {correct}")
        ok &= len(shares) == 1 and correct
        for m in bench["end_to_end"]:
            key, bound = m["name"], m["bound"]
            vals = [[r["metrics"][key]["value"] for r in rs] for rs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            drifts = [med / meds[0] - 1 for med in meds[1:]]
            bad = [sp > bound for sp in spreads] + [abs(d) > bound for d in drifts]
            ok &= not any(bad)
            note = ("FAIL" if any(bad) else
                    "wide" if max(spreads) >= bound / 3 else "ok")
            print(f"  {key:12s} bound {bound:.2f}  medians "
                  + " ".join(f"{x:.4f}" for x in meds)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + ("  drift " + " ".join(f"{d:+.3f}" for d in drifts) if drifts else "")
                  + f"  {note}")
    print(f"results in {out.relative_to(ROOT)}")
    print("sets agree" if ok else "sets DO NOT agree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
