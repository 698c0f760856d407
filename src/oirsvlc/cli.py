"""Command-line entry point.

Subcommands: fig4, noise-sweep, overhead, coherence. Each accepts
--config <path>, --seed <int>, and --out <dir>; results land as CSV in the
output directory (flag, then OIRS_OUT_DIR, then the config's output.dir),
which is created before the run starts.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import experiments as xp


def _fig4(config, path):
    rows, d_c = xp.run_fig4(config)
    xp.write_fig4_csv(config, rows, d_c, path)
    return [f"wrote {path} ({len(rows)} rows), d_c = {d_c:.4f} m"]


def _import_numpy_random_without_openssl():
    """Import numpy.random with OpenSSL's _hashlib blocked, unless it is loaded.

    numpy.random imports secrets, whose hmac imports _hashlib: 3.4 MB of RSS
    that no sweep uses. Blocked, hmac and hashlib take CPython's builtin
    digests, as a CPython built without OpenSSL does. Only the CLI blocks it:
    a library caller may need OpenSSL-only hashlib functions such as scrypt.
    The sweep's children inherit the import.
    """
    if "_hashlib" in sys.modules:
        return
    sys.modules["_hashlib"] = None
    try:
        import numpy.random  # noqa: F401
    finally:
        del sys.modules["_hashlib"]


def _noise_sweep(config, path):
    _import_numpy_random_without_openssl()
    rows = xp.run_noise_sweep(config)
    xp.write_noise_sweep_csv(config, rows, path)
    return [f"wrote {path} ({len(rows)} rows, {config.trials} trials/point)"]


def _overhead(config, path):
    rows = xp.run_overhead_report(config)
    xp.write_overhead_csv(config, rows, path)
    return [f"spacing {spacing}: {params} CSI parameters, ~{flops} flops"
            for spacing, params, flops in rows] + [f"wrote {path}"]


def _coherence(config, path):
    report = xp.run_coherence(config)
    xp.write_coherence_csv(config, report, path)
    d = report.argmin_direction
    return [f"d_c = {report.d_c:.6f} m at xi_c = {report.xi_c}",
            f"worst direction: ({d[0]:+.4f}, {d[1]:+.4f}, {d[2]:+.4f})",
            f"wrote {path} ({len(report.per_direction_lengths)} directions)"]


# subcommand -> (help, CSV file name, run-and-write step returning summary lines)
COMMANDS = {
    "fig4": ("normalized gain versus element shift for the single-link geometry",
             "fig4.csv", _fig4),
    "noise-sweep": ("trial-averaged NMSE over noise levels and spacings",
                    "noise_sweep.csv", _noise_sweep),
    "overhead": ("CSI parameter counts and estimation flops per spacing",
                 "overhead.csv", _overhead),
    "coherence": ("coherence distance and per-direction profile",
                  "coherence.csv", _coherence),
}


def main(argv=None) -> int:
    """A process entry point: it leaves the collector frozen, so no later
    collection, exit's included, walks the import graph. A program that calls
    it and keeps running may call `gc.unfreeze()`."""
    gc.freeze()
    parser = argparse.ArgumentParser(
        prog="oirsvlc",
        description="Reflected-channel coherence analysis and spatial-sampling "
                    "channel estimation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file path (defaults built in)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output directory (else $OIRS_OUT_DIR, "
                                     "else the config's output.dir)")
    args = parser.parse_args(argv)
    _, filename, step = COMMANDS[args.command]
    changes = {} if args.seed is None else {"master_seed": args.seed}
    config = (xp.load_config(args.config, **changes) if args.config
              else xp.ExperimentConfig(**changes))
    outdir = xp.resolve_output_dir(config, args.out)
    os.makedirs(outdir, exist_ok=True)
    for line in step(config, os.path.join(outdir, filename)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
