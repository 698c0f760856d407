"""Rewrite bench/reference/ from the source tree at the recorded seed.

Usage: python3 bench/record_reference.py

Run it only for a change meant to alter the CLI's outputs, and record in
CHANGES.md why the outputs changed and by how much.
"""

import subprocess
import sys

sys.dont_write_bytecode = True
import check  # noqa: E402
import run  # noqa: E402

ALL = ("coherence", "fig4", "noise-sweep", "overhead")
REFERENCES = {"default": (None, ALL), "big_grid": ("big_grid.cfg", ("noise-sweep",)),
              "smoke": ("smoke.cfg", ALL)}


def main() -> int:
    for name, (config, commands) in REFERENCES.items():
        outdir = run.BENCH / "reference" / name
        for command in commands:
            argv = [sys.executable, "-m", "oirsvlc.cli", command,
                    "--seed", str(check.RECORDED_SEED), "--out", str(outdir)]
            if config:
                argv += ["--config", str(run.BENCH / "configs" / config)]
            subprocess.run(argv, env=run.child_env(), check=True, timeout=600)
    return 0


if __name__ == "__main__":
    sys.exit(main())
