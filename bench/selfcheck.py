"""Self-check of the benchmark itself.

Usage: python3 bench/selfcheck.py      (about 30 s; exit code 1 on a failure)

1. The reference checker accepts the references and rejects a CSV with one
   perturbed cell, a NaN cell, or an NMSE cell moved past the tolerance.
2. Smoke mode: every workload path (untraced and traced) runs once on the
   tiny config of acceptance criterion 9, checked against its own references.
3. In a directory holding only BENCHMARK.json and bench/, the benchmark exits
   non-zero without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.dont_write_bytecode = True
import check  # noqa: E402
import run  # noqa: E402

OTHER_SEED = 7


def set_cell(text, line, column, value, seed=check.RECORDED_SEED):
    """`text` with cell (line, column) replaced, its footer relabelled to `seed`."""
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[column] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines).replace(f"seed={check.RECORDED_SEED}", f"seed={seed}") + "\n"


def checker_cases():
    reference = run.BENCH / "reference" / "default"
    sweep = (reference / "noise_sweep.csv").read_text()
    fig4 = (reference / "fig4.csv").read_text()
    nmse = float(sweep.splitlines()[6].split(",")[2])      # a non-floor cell
    gain = float(fig4.splitlines()[50].split(",")[2])
    # (case, csv, reference, seed, should pass)
    return [
        ("references pass at the recorded seed", sweep, sweep, check.RECORDED_SEED, True),
        ("one cell perturbed by 1e-6 relative", set_cell(sweep, 6, 2, repr(nmse * (1 + 1e-6))),
         sweep, check.RECORDED_SEED, False),
        ("one NaN cell", set_cell(sweep, 6, 2, "nan"), sweep, check.RECORDED_SEED, False),
        ("one inf cell", set_cell(fig4, 50, 2, "inf"), fig4, check.RECORDED_SEED, False),
        ("a row missing", "\n".join(sweep.splitlines()[:5] + sweep.splitlines()[6:]) + "\n",
         sweep, check.RECORDED_SEED, False),
        ("NMSE 0.2 dB off at another seed", set_cell(sweep, 6, 2, repr(nmse + 0.2), OTHER_SEED),
         sweep, OTHER_SEED, True),
        ("NMSE 1 dB off at another seed", set_cell(sweep, 6, 2, repr(nmse + 1.0), OTHER_SEED),
         sweep, OTHER_SEED, False),
        ("NMSE floor cell moved at another seed", set_cell(sweep, 1, 2, "-299.9", OTHER_SEED),
         sweep, OTHER_SEED, False),
        ("NaN cell at another seed", set_cell(sweep, 6, 2, "nan", OTHER_SEED),
         sweep, OTHER_SEED, False),
        ("fig4 cell perturbed at another seed",
         set_cell(fig4, 50, 2, repr(gain * (1 + 1e-6)), OTHER_SEED), fig4, OTHER_SEED, False),
        ("footer seed not the run's seed", sweep, sweep, OTHER_SEED, False),
    ]


def smoke_cases():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name, workload in run.WORKLOADS.items():
        small = replace(workload, config="smoke.cfg", reference="smoke")
        for trace in (False, True):
            measured = run.measure(small, check.RECORDED_SEED, 0, trace)
            if measured is None:
                yield f"smoke {name} trace={int(trace)}: no process completed", False
                continue
            values, attempted, failed, _ = measured
            metrics = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in metrics
                       if not math.isfinite(values.get(m["name"], math.nan))]
            yield (f"smoke {name} trace={int(trace)}: {attempted} processes, {failed} failed, "
                   f"missing metrics {missing}"), failed == 0 and not missing


def bare_directory_case():
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench")
        result = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep_default",
                                 "--seconds", "1"], cwd=bare, capture_output=True, text=True,
                                timeout=180)
    finally:
        shutil.rmtree(bare)
    return (f"without src/ the benchmark exits {result.returncode} and prints "
            f"{len(result.stdout.splitlines())} lines"), result.returncode != 0 and not result.stdout


def main() -> int:
    results = [(f"checker: {case}", (not check.compare(text, reference, seed)) == should_pass)
               for case, text, reference, seed, should_pass in checker_cases()]
    results += list(smoke_cases())
    results.append(bare_directory_case())
    for case, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {case}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
