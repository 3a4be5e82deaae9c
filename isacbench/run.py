"""isacsim benchmark: simulate -> analyze -> sounder-roundtrip per scenario.

Run from the repository root:

    python3 isacbench/run.py --workload ris_factory --seed 1 --seconds 15 --trace 0

Every subcommand runs in this one process through ``isacsim.cli.main``.
One untimed warm-up pass comes first; then whole timed passes over the
workload's scenarios, their number being the run length divided by the
warm-up pass's duration, rounded, at least two. Every pass's outputs are
checked by ``checks.py``, in a forked child process so that the checker's
memory stays out of ``peak_rss_mb``. The last line of standard output is a JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``); see README.md.
"""
from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is imported, here and in the children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".isacbench"   # run directories and span dumps; ignored by git

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SUBCOMMANDS = tracing.SUBCOMMANDS
E2E = {"simulate": "simulate_s", "analyze": "analyze_s", "sounder-roundtrip": "roundtrip_s"}
SETUP_SAMPLES = 7
MIN_PASSES = 2  # so that no run rests on a single timed pass
# The one check that fails on every scenario, because analysis.pdp bins
# with cumulative sums (see README.md). Its failures are counted in
# ``failed``; a failure of any other operation makes ``correct`` false.
KNOWN_FAULT = "padp_csv"

# A fresh interpreter paying what a CLI user pays before any computation.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import isacsim.cli
from isacsim.config import load_config
for path in sys.argv[2:]:
    load_config(path)
"""


def measure_setup(config_paths: list[str]) -> float:
    """Median CPU time of fresh interpreters started one at a time."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *config_paths]

    def once() -> float:
        t0 = tracing.cpu_s()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        return tracing.cpu_s() - t0

    once()  # compiles bytecode and fills the file cache
    return statistics.median(once() for _ in range(SETUP_SAMPLES))


def in_child(fn):
    """Return ``fn()``, computed in a forked child process so that the
    memory it takes does not count in this process's peak resident set.
    The result must be JSON-serialisable."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 0
        try:
            data = json.dumps(fn()).encode()
        except BaseException:
            traceback.print_exc()
            data, code = b"", 1
        with os.fdopen(w, "wb") as f:
            f.write(data)
        os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("the checking process failed")
    return json.loads(data)


def check_chain(sc, sim: Path, snd: Path, ran: dict[str, bool]) -> dict:
    """Run every check of one chain; returns {check: failure message or
    None} and the chain's manifest (None if it could not be taken)."""
    results = {}
    for name, needs, check in checks.chain_checks(sc.config, sc.scene, sc.threshold_db,
                                                  sim, snd):
        if not all(ran[sub] for sub in needs):
            results[name] = f"not checked, {' or '.join(needs)} failed"
            continue
        try:
            check()
            results[name] = None
        except Exception as exc:  # any exception means the output is not what it must be
            results[name] = str(exc) if isinstance(exc, checks.CheckFailure) else repr(exc)
    got = None
    if all(ran.values()):
        try:
            got = checks.manifest(sim, snd)
        except Exception as exc:
            results["manifest"] = str(exc) if isinstance(exc, checks.CheckFailure) else repr(exc)
    return {"results": results, "manifest": got}


class Bench:
    def __init__(self, workload: workloads.Workload, work_dir: Path):
        from isacsim import cli
        self.cli = cli
        self.wl = workload
        self.work_dir = work_dir
        self.tracer: tracing.Tracer | None = None
        # operation -> failure message -> count, over every pass the warm-up too
        self.failures: dict[str, dict[str, int]] = {}
        self.ref_manifest: dict[str, dict] = {}

    def call(self, argv: list[str]) -> tuple[bool, float]:
        """One subcommand, timed; returns (succeeded, CPU seconds)."""
        gc.collect()
        span = self.tracer.begin("cli." + argv[0]) if self.tracer else None
        t0 = tracing.cpu_s()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        dt = tracing.cpu_s() - t0
        if span is not None:
            self.tracer.end(span)
        if rc != 0:
            print(f"failed (exit {rc}): isacsim {' '.join(argv)}", file=sys.stderr)
        return rc == 0, dt

    def run_pass(self, k: int) -> tuple[dict[str, float], int, int]:
        """One pass over the scenarios; returns per-subcommand seconds and
        the numbers of operations attempted and failed. An operation is one
        subcommand call or one check of a chain's outputs. The outputs are
        checked after the pass, outside the timed calls, then deleted."""
        pass_dir = self.work_dir / f"pass{k}"
        times = dict.fromkeys(SUBCOMMANDS, 0.0)
        chains = []
        for sc in self.wl.scenarios:
            sim, snd = pass_dir / sc.name / "sim", pass_dir / sc.name / "snd"
            ran = {}
            for argv in (["simulate", str(sc.config_path), "--out", str(sim)],
                         sc.analyze_args(sim),
                         ["sounder-roundtrip", str(sc.config_path), "--out", str(snd)]):
                ok, dt = self.call(argv)
                times[argv[0]] += dt
                ran[argv[0]] = ok
            chains.append((sc, sim, snd, ran))
        checked = in_child(lambda: [check_chain(*chain) for chain in chains])
        shutil.rmtree(pass_dir, ignore_errors=True)

        outcomes = []  # (operation, failure message or None)
        for (sc, _, _, ran), chk in zip(chains, checked):
            outcomes += [(sub, None if ok else "nonzero exit or exception")
                         for sub, ok in ran.items()]
            results = chk["results"]
            if chk["manifest"] is not None:
                # same seed, same bytes: every pass must reproduce the first
                try:
                    checks.check_same_manifest(
                        self.ref_manifest.setdefault(sc.name, chk["manifest"]),
                        chk["manifest"], sc.name)
                    results["manifest"] = None
                except checks.CheckFailure as exc:
                    results["manifest"] = str(exc)
            elif "manifest" not in results:
                results["manifest"] = "not checked, a subcommand failed"
            outcomes += results.items()
        for op, msg in outcomes:
            if msg is not None:
                msgs = self.failures.setdefault(op, {})
                msg = msg.replace(str(pass_dir), "<pass>")
                msgs[msg] = msgs.get(msg, 0) + 1
        return times, len(outcomes), sum(msg is not None for _, msg in outcomes)


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def run(args) -> dict:
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        (work_dir / "inputs").mkdir()
        wl = workloads.build(args.workload, args.seed, work_dir / "inputs")
        setup_s = measure_setup(wl.config_paths()) if not args.trace else None
        bench = Bench(wl, work_dir)

        t0 = time.perf_counter()
        bench.run_pass(0)  # warm-up: untimed, but checked; its hashes are the reference
        t_warm = time.perf_counter() - t0
        n = max(MIN_PASSES, round(args.seconds / t_warm))
        attempted = failed = 0
        plain, traced = [], []
        if not args.trace:
            for k in range(1, n + 1):
                times, a, f = bench.run_pass(k)
                plain.append(times)
                attempted += a
                failed += f
        else:
            # alternate untraced and traced passes; their difference is the
            # tracing overhead
            tracer = tracing.Tracer()
            for k in range(1, round(n / 2) + 1):
                times, a, f = bench.run_pass(2 * k - 1)
                plain.append(times)
                tracer.install()
                bench.tracer, first = tracer, len(tracer.spans)
                try:
                    times, a2, f2 = bench.run_pass(2 * k)
                finally:
                    tracer.uninstall()
                    bench.tracer = None
                traced.append(tracer.summary(first))
                attempted += a + a2
                failed += f + f2
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(wl.scenarios)} scenarios, "
          f"warm-up pass {t_warm:.2f} s, {len(plain) + len(traced)} timed passes")
    if not args.trace:
        metrics = {E2E[s]: (median_of(plain, s), "s") for s in SUBCOMMANDS}
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MiB")
    else:
        metrics = {}
        for key in traced[0]:
            unit = "s" if key.endswith("_s") else "count"
            metrics[key] = (median_of(traced, key), unit)
        for s in SUBCOMMANDS:
            metrics[f"trace.overhead.{s}_s"] = (
                median_of(traced, f"cli.{s}.traced_s") - median_of(plain, s), "s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    # every failure message once, with its count; any failure but the
    # known fault makes the run incorrect
    for op, msgs in bench.failures.items():
        tag = " (known fault, see README.md)" if op == KNOWN_FAULT else ""
        for msg, count in msgs.items():
            print(f"{op} failed {count} times{tag}: {msg}")
    correct = set(bench.failures) <= {KNOWN_FAULT}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isacsim" / "__init__.py").is_file():
        print(f"error: no isacsim sources under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
