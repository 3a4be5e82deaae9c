"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public functions of ``isacsim`` modules with
wrappers at the module names through which the pipelines call them
(``runner`` imports most of them by name, so both the defining module
and the importing module are wrapped where both are used). Each call
becomes a span with its parent; spans stay in memory and are written
out once at the end. Self time is a span's duration minus the durations
of its direct children, so the self times inside one subcommand add up
to that subcommand's traced time.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import time
from collections import defaultdict


def cpu_s() -> float:
    """CPU seconds used so far by this process (all its threads) and by the
    child processes it has waited for. Every time the benchmark reports is
    a difference of this clock; unlike wall time, it leaves out the time
    the shared host gives the CPU to other guests."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_rays(c, a, k, r):
    c["gbsm.rays"] += len(r.all_rays())


def _count_pairs(c, a, k, r):
    c["target.pairs"] += len(r.paths)


def _merge_counter(prefix):
    def count(c, a, k, r):
        c[prefix + ".paths_in"] += len(_arg(a, k, 0, "paths"))
        c[prefix + ".paths_out"] += len(r)
    return count


def _count_background(c, a, k, r):
    c["background.paths"] += len(r.paths)


def _count_scan(c, a, k, r):
    c["analysis.scan.path_angles"] += (len(_arg(a, k, 0, "cir").paths)
                                       * len(_arg(a, k, 2, "angles_deg")))


def _count_peaks(c, a, k, r):
    c["analysis.peaks_target"] += len(r)


def _count_classified(c, a, k, r):
    c["analysis.peaks_classified"] += r is not None


def _count_bytes(c, a, k, r):
    c["runner.bytes_written"] += os.path.getsize(_arg(a, k, 0, "path"))


def _count_call(c, a, k, r):
    c["sounder.transmit_through.calls"] += 1


# (module, attribute, span name, counter)
WRAPS = [
    ("isacsim.cli", "load_config", "config.load_config", None),
    ("isacsim.runner", "sample_clusters", "gbsm.sample_clusters", _count_rays),
    ("isacsim.background", "sample_clusters", "gbsm.sample_clusters", _count_rays),
    ("isacsim.target", "concatenate", "target.concatenate", _count_pairs),
    ("isacsim.runner", "multi_point_target", "target.multi_point_target", None),
    ("isacsim.target", "merge_paths", "core.merge_exact", _merge_counter("core.merge_exact")),
    ("isacsim.runner", "merge_paths", "core.merge_tol", _merge_counter("core.merge_tol")),
    ("isacsim.runner", "background_bistatic", "background.synthesize", _count_background),
    ("isacsim.runner", "background_monostatic", "background.synthesize", _count_background),
    ("isacsim.runner", "turntable_scan", "analysis.turntable_scan", _count_scan),
    ("isacsim.analysis", "padp", "analysis.padp", None),
    ("isacsim.runner", "subtract_background", "analysis.subtract_background", _count_peaks),
    ("isacsim.runner", "classify_bounce", "analysis.classify_bounce", _count_classified),
    ("isacsim.runner", "write_padp_csv", "analysis.write_padp_csv", None),
    ("isacsim.runner", "simulate_channels", "runner.simulate_channels", None),
    ("isacsim.runner", "write_cir_json", "runner.write_cir_json", _count_bytes),
    ("isacsim.runner", "read_cir_json", "runner.read_cir_json", None),
    ("isacsim.sounder", "transmit_through", "sounder.transmit_through", _count_call),
    ("isacsim.runner", "transmit_through", "sounder.transmit_through", _count_call),
    ("isacsim.runner", "generate_pn", "sounder.generate_pn", None),
    ("isacsim.sounder", "slide_correlate", "sounder.slide_correlate", None),
    ("isacsim.sounder", "calibrate", "sounder.calibrate", None),
    ("isacsim.sounder", "estimate_paths", "sounder.estimate_paths", None),
    ("isacsim.runner", "save_capture", "sounder.save_capture", None),
]

SUBCOMMANDS = ("simulate", "analyze", "sounder-roundtrip")

LAYER_TIMES = sorted({name for _, _, name, _ in WRAPS})
LAYER_COUNTS = [
    "gbsm.rays", "target.pairs",
    "core.merge_exact.paths_in", "core.merge_exact.paths_out",
    "core.merge_tol.paths_in", "core.merge_tol.paths_out",
    "background.paths", "analysis.scan.path_angles",
    "analysis.peaks_target", "analysis.peaks_classified",
    "runner.bytes_written", "sounder.transmit_through.calls",
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, cpu_s(), 0.0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = cpu_s()
        self.stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPS; a name the program no longer has
        raises."""
        for mod_name, attr, name, counter in WRAPS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def summary(self, first: int) -> dict[str, float]:
        """Self time per layer, counts, and each subcommand's residual and
        traced time, over the spans from index ``first`` on; the counts
        are taken and cleared."""
        spans = self.spans
        child = defaultdict(float)
        for name, parent, start, end in spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{n}_s": 0.0 for n in LAYER_TIMES}
        out.update({n: 0 for n in LAYER_COUNTS})
        out.update({f"cli.{sub}.self_s": 0.0 for sub in SUBCOMMANDS})
        total = {sub: 0.0 for sub in SUBCOMMANDS}
        covered = {sub: 0.0 for sub in SUBCOMMANDS}
        for i in range(first, len(spans)):
            name, parent, start, end = spans[i]
            self_s = end - start - child[i]
            root = i
            while spans[root][1] >= 0:
                root = spans[root][1]
            sub = spans[root][0].removeprefix("cli.")
            if root < first or sub not in total:
                raise RuntimeError(f"span {name} ran outside a subcommand")
            covered[sub] += self_s
            if name.startswith("cli."):
                out[f"{name}.self_s"] += self_s
                total[sub] += end - start
            else:
                out[f"{name}_s"] += self_s
        out.update(self.counts)
        self.counts.clear()
        for sub in SUBCOMMANDS:
            out[f"cli.{sub}.traced_s"] = total[sub]
            # the self times inside a subcommand must add up to its traced time
            if abs(covered[sub] - total[sub]) > 1e-9 * max(total[sub], 1.0):
                raise RuntimeError(f"self times of {sub} add up to {covered[sub]}, "
                                   f"traced time is {total[sub]}")
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"columns": ["name", "parent", "start_s", "end_s"],
                       "spans": self.spans}, f)
