"""Command-line entry points: simulate, analyze, validate, sounder-roundtrip."""
from __future__ import annotations

import argparse
import functools
import sys

from .analysis import PEAK_THRESHOLD_DB
from .config import ConfigError, load_config
from .runner import run_analyze, run_simulate, run_sounder_roundtrip, run_validate


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing does not change it, and building it costs more than
    a small subcommand's own work."""
    parser = argparse.ArgumentParser(
        prog="isacsim",
        description="Sensing-channel simulator and multipath analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and write channel files")
    p_sim.add_argument("config", help="scenario JSON")
    p_sim.add_argument("--out", default=None, help="output directory override")

    p_an = sub.add_parser("analyze", help="extract and classify paths from a run")
    p_an.add_argument("run_dir", help="directory written by simulate")
    p_an.add_argument("--scene", default=None, help="reconstruction scene JSON")
    p_an.add_argument("--threshold-db", type=float, default=PEAK_THRESHOLD_DB)

    p_val = sub.add_parser("validate", help="check the model against golden tables")
    p_val.add_argument("golden_dir", nargs="?", default=None,
                       help="directory of golden CSVs (default: packaged data)")

    p_snd = sub.add_parser("sounder-roundtrip",
                           help="push a scenario through the sounder emulation")
    p_snd.add_argument("config", help="scenario JSON")
    p_snd.add_argument("--out", default=None, help="output directory override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            report = run_simulate(load_config(args.config), out_dir=args.out)
            print(f"wrote {report.out_dir}")
            for name, digest in report.manifest.items():
                print(f"  {name}  sha256:{digest[:16]}")
            return 0
        if args.command == "analyze":
            paths = run_analyze(args.run_dir, scene_path=args.scene,
                                peak_threshold_db=args.threshold_db)
            print(f"wrote {args.run_dir}/paths.json ({len(paths)} target paths)")
            for rec in paths:
                order = rec["bounce_order"]
                print(f"  theta {rec['theta_deg']:7.2f} deg  tau {rec['tau_ns']:9.2f} ns"
                      f"  {rec['power_db']:8.2f} dB  bounce {order if order is not None else '?'}")
            return 0
        if args.command == "validate":
            report = run_validate(args.golden_dir)
            report.print()
            return 0 if report.ok else 1
        if args.command == "sounder-roundtrip":
            doc = run_sounder_roundtrip(load_config(args.config), out_dir=args.out)
            print(f"recovered {doc['n_recovered']} of {doc['n_resolvable']} "
                  f"chip-resolvable paths ({doc['n_true_paths']} raw) "
                  f"at {doc['snr_db']} dB SNR (m={doc['pn']['m']})")
            return 0
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
