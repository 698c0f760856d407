"""Command-line entry point.

Subcommands: fig4, noise-sweep, overhead, coherence. Each accepts
--config <path>, --seed <int>, and --out <dir>; results land as CSV in the
output directory (flag, then OIRS_OUT_DIR, then the config's output.dir).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments as xp


def _load(args) -> xp.ExperimentConfig:
    config = xp.load_config(args.config) if args.config else xp.ExperimentConfig()
    if args.seed is not None:
        config = xp.with_overrides(config, master_seed=args.seed)
    return config


def _outdir(config, args) -> str:
    path = xp.resolve_output_dir(config, args.out)
    os.makedirs(path, exist_ok=True)
    return path


def _cmd_fig4(args) -> int:
    config = _load(args)
    rows, d_c = xp.run_fig4(config)
    path = os.path.join(_outdir(config, args), "fig4.csv")
    xp.write_fig4_csv(config, rows, d_c, path)
    print(f"wrote {path} ({len(rows)} rows), d_c = {d_c:.4f} m")
    return 0


def _cmd_noise_sweep(args) -> int:
    config = _load(args)
    rows = xp.run_noise_sweep(config)
    path = os.path.join(_outdir(config, args), "noise_sweep.csv")
    xp.write_noise_sweep_csv(config, rows, path)
    print(f"wrote {path} ({len(rows)} rows, {config.trials} trials/point)")
    return 0


def _cmd_overhead(args) -> int:
    config = _load(args)
    rows = xp.run_overhead_report(config)
    path = os.path.join(_outdir(config, args), "overhead.csv")
    xp.write_overhead_csv(config, rows, path)
    for spacing, params, flops in rows:
        print(f"spacing {spacing}: {params} CSI parameters, ~{flops} flops")
    print(f"wrote {path}")
    return 0


def _cmd_coherence(args) -> int:
    config = _load(args)
    report = xp.run_coherence(config)
    path = os.path.join(_outdir(config, args), "coherence.csv")
    xp.write_coherence_csv(config, report, path)
    d = report.argmin_direction
    print(f"d_c = {report.d_c:.6f} m at xi_c = {report.xi_c}")
    print(f"worst direction: ({d[0]:+.4f}, {d[1]:+.4f}, {d[2]:+.4f})")
    print(f"wrote {path} ({len(report.per_direction_lengths)} directions)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oirsvlc",
        description="Reflected-channel coherence analysis and spatial-sampling "
                    "channel estimation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "fig4": _cmd_fig4,
        "noise-sweep": _cmd_noise_sweep,
        "overhead": _cmd_overhead,
        "coherence": _cmd_coherence,
    }
    helps = {
        "fig4": "normalized gain versus element shift for the single-link geometry",
        "noise-sweep": "trial-averaged NMSE over noise levels and spacings",
        "overhead": "CSI parameter counts and estimation flops per spacing",
        "coherence": "coherence distance and per-direction profile",
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", help="config file path (defaults built in)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output directory (else $OIRS_OUT_DIR, "
                                     "else the config's output.dir)")
        p.set_defaults(handler=handler)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
