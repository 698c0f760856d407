"""Benchmark of the oirsvlc CLI.

Usage: python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Each workload runs repeatedly for --seconds (at least once) as fresh
`oirsvlc` CLI processes built from ../src, one child at a time, with BLAS and
OpenMP pinned to one thread. Every CSV a child writes is checked against
bench/reference/. The seed goes to the CLI as --seed. The last line of
standard output is one JSON object {correct, attempted, failed, metrics}:
with --trace 0 it holds the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics, taken from traced children alternated with
untraced ones. The lines before it give provenance and a readable report.
bench/README.md explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
import check  # noqa: E402
import child  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# With OpenBLAS's default threads the default noise-sweep spread 13 % between
# runs on 2 cores; pinned to one thread, 5 %.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CSV_NAME = {"coherence": "coherence.csv", "fig4": "fig4.csv",
            "noise-sweep": "noise_sweep.csv", "overhead": "overhead.csv"}
IMPORTTIME_RUNS = 3

PROVENANCE = """
import json, platform, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except Exception:
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


@dataclass(frozen=True)
class Workload:
    commands: tuple        # CLI subcommands of one rep, each in a fresh process
    config: str | None     # file under bench/configs; None for the built-in defaults
    reference: str         # directory under bench/reference with the expected CSVs


WORKLOADS = {
    "sweep_default": Workload(("noise-sweep",), None, "default"),
    "sweep_big_grid": Workload(("noise-sweep",), "big_grid.cfg", "big_grid"),
    "light_cli": Workload(("coherence", "fig4", "overhead"), None, "default"),
}


@dataclass
class Proc:
    """One CLI process. Instants are CLOCK_MONOTONIC seconds; the child
    reports its own, so they are None when it failed before writing them."""

    command: str
    problems: list
    spawned: float
    reaped: float
    rss_mb: float
    import_done: float | None = None
    main_s: float | None = None
    passes: int = 0
    csv_bytes: int = 0
    spans: list | None = None


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PIN)
    env.pop("OIRS_OUT_DIR", None)
    return env


def spawn(argv, log):
    """Run argv to completion, output to `log`: (exit code, spawn instant,
    reap instant, max RSS in MB)."""
    env = child_env()
    actions = [(os.POSIX_SPAWN_DUP2, log.fileno(), 1), (os.POSIX_SPAWN_DUP2, log.fileno(), 2)]
    log.flush()
    spawned = child.now()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), spawned, child.now(), usage.ru_maxrss / 1024.0


def run_cli(command, workload, seed, outdir: Path, trace: bool, log) -> Proc:
    outdir.mkdir(parents=True)
    timing_path, trace_path = outdir / "timing.json", outdir / "trace.json"
    argv = [sys.executable, str(BENCH / "child.py"), str(timing_path),
            str(trace_path) if trace else "-", command, "--seed", str(seed), "--out", str(outdir)]
    if workload.config:
        argv += ["--config", str(BENCH / "configs" / workload.config)]
    code, spawned, reaped, rss_mb = spawn(argv, log)
    proc = Proc(command, [] if code == 0 else [f"exit code {code}"], spawned, reaped, rss_mb)
    csv_path = outdir / CSV_NAME[command]
    try:
        timing = json.loads(timing_path.read_text())
        text = csv_path.read_text()
        reference = (BENCH / "reference" / workload.reference / CSV_NAME[command]).read_text()
        spans = json.loads(trace_path.read_text()) if trace else None
    except (OSError, ValueError) as exc:
        proc.problems.append(f"missing output: {exc}")
        return proc
    if not Path(timing["module"]).resolve().is_relative_to(SRC):
        proc.problems.append(f"imported {timing['module']}, not the source under {SRC}")
    proc.problems += check.compare(text, reference, seed)
    proc.import_done = timing["import_done"]
    proc.main_s = timing["main_end"] - timing["main_start"]
    proc.csv_bytes = csv_path.stat().st_size
    proc.spans = spans
    if command == "noise-sweep" and not proc.problems:
        header, rows, _ = check.parse_csv(text)
        trials = header.split(",").index("trials")
        proc.passes = int(sum(row[trials] for row in rows))
    return proc


def import_times() -> dict:
    """import.* seconds from `python -X importtime -c "import oirsvlc.cli"`:
    the whole CLI import, and the self time of every numpy and scipy module."""
    result = subprocess.run([sys.executable, "-X", "importtime", "-c", "import oirsvlc.cli"],
                            env=child_env(), capture_output=True, text=True, timeout=120,
                            check=True)
    micros = {"oirsvlc": 0, "scipy": 0, "numpy": 0}
    for line in result.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2]
        package = name.strip().split(".")[0]
        if package in ("scipy", "numpy"):
            micros[package] += self_us
        elif package == "oirsvlc" and len(name) - len(name.lstrip(" ")) == 1:
            micros["oirsvlc"] += cumulative_us       # a top-level import
    return {f"import.{k}_s": v / 1e6 for k, v in micros.items()}


def layer_totals(spans) -> dict:
    """Span name -> [busy s, self s, calls, errors, value] over one process.

    Busy time skips spans nested in a span of the same name; self time is a
    span's duration minus the durations of its direct children, which nest
    without overlap because the program is single-threaded.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, failed, value) in enumerate(spans):
        total = totals.setdefault(name, [0.0, 0.0, 0, 0, 0])
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[0] += end - start
        total[1] += end - start - covered[i]
        total[2] += 1
        total[3] += failed
        total[4] += value
    return totals


def layer_metrics(rep) -> dict:
    """Per-layer metrics of one traced rep (its processes summed)."""
    totals = {}
    for proc in rep:
        for name, values in layer_totals(proc.spans or []).items():
            total = totals.setdefault(name, [0.0, 0.0, 0, 0, 0])
            for k, v in enumerate(values):
                total[k] += v
    metrics = {}
    for module, functions in child.TRACED.items():
        for function in functions:
            name = f"{module}.{function}"
            busy, self_s, calls, errors, _ = totals.get(name, (0.0, 0.0, 0, 0, 0))
            metrics.update({f"{name}.s": busy, f"{name}.self_s": self_s,
                            f"{name}.calls": calls, f"{name}.errors": errors})
    writers = [f for f in child.TRACED["experiments"] if f.startswith("write_")]
    metrics["experiments.write_csv_s"] = sum(metrics[f"experiments.{f}.s"] for f in writers)
    metrics["experiments.csv_bytes"] = sum(proc.csv_bytes for proc in rep)
    metrics["estimator.ridge_flops"] = totals.get("estimator.run_algorithm1", [0] * 5)[4]
    metrics["trace.errors"] = sum(total[3] for total in totals.values())
    return metrics


def medians(dicts) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def measure(workload: Workload, seed: int, seconds: float, trace: bool):
    """Run the workload for `seconds` and return (values, attempted, failed,
    report lines), or None when no CLI process produced timings."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        with open(work / "children.log", "wb") as log:
            imports = [import_times() for _ in range(IMPORTTIME_RUNS)] if trace else []
            plain, traced = [], []

            def rep(traced_rep):
                rep_dir = work / f"rep{len(plain) + len(traced)}"
                return [run_cli(command, workload, seed, rep_dir / command, traced_rep, log)
                        for command in workload.commands]

            deadline = child.now() + seconds
            while not plain or child.now() < deadline:
                plain.append(rep(False))
                if trace:
                    traced.append(rep(True))
        procs = [proc for rep in plain + traced for proc in rep]
        failed = [proc for proc in procs if proc.problems]
        for proc in failed:
            print(f"FAILED {proc.command}: {'; '.join(proc.problems[:5])}", file=sys.stderr)
        if failed:
            print((work / "children.log").read_text(errors="replace")[-4000:], file=sys.stderr)
    finally:
        shutil.rmtree(work)
    plain = [rep for rep in plain if all(proc.import_done is not None for proc in rep)]
    traced = [rep for rep in traced if all(proc.import_done is not None for proc in rep)]
    if not plain or (trace and not traced):
        return None

    walls = [sum(p.reaped - p.spawned for p in rep) for rep in plain]
    computes = [sum(p.reaped - p.import_done for p in rep) for rep in plain]
    setups = [p.import_done - p.spawned for rep in plain for p in rep]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "compute_s": statistics.median(computes),
        "peak_rss_mb": max(p.rss_mb for rep in plain for p in rep),
    }
    passes = statistics.median(sum(p.passes for p in rep) for rep in plain)
    lines = [f"{len(plain)} untraced reps of {len(plain[0])} process(es), "
             f"{len(traced)} traced; {len(procs)} CLI processes, {len(failed)} failed",
             f"  fail_frac          {len(failed) / len(procs):.4f} ({len(failed)} of {len(procs)})",
             f"  wall_s             {values['wall_s']:.4f} s   (median of {len(walls)} reps; "
             f"min {min(walls):.4f}, max {max(walls):.4f})",
             f"  setup_s            {values['setup_s']:.4f} s   (median of {len(setups)} processes)",
             f"  compute_s          {values['compute_s']:.4f} s   (wall_s minus each process's set-up)",
             f"  peak_rss_mb        {values['peak_rss_mb']:.1f} MB  (largest child max-RSS)"]
    if passes:
        lines.append(f"  estimations_per_s  {passes / values['compute_s']:.2f} 1/s "
                     f"({passes:g} passes per rep / compute_s)")
    if trace:
        values.update(medians([layer_metrics(rep) for rep in traced]))
        values.update(medians(imports))
        traced_main = statistics.median(sum(p.main_s for p in rep) for rep in traced)
        plain_main = statistics.median(sum(p.main_s for p in rep) for rep in plain)
        values["trace.overhead_pct"] = 100.0 * (traced_main / plain_main - 1.0)
        lines.append(f"  tracing overhead   {values['trace.overhead_pct']:+.2f} % "
                     f"(traced {traced_main:.4f} s against untraced {plain_main:.4f} s of main())")
        lines.append(f"  {'span':40s} {'s':>9s} {'self_s':>9s} {'calls':>8s} {'errors':>6s}")
        for module, functions in child.TRACED.items():
            for function in functions:
                name = f"{module}.{function}"
                lines.append(f"  {name:40s} {values[name + '.s']:9.4f} "
                             f"{values[name + '.self_s']:9.4f} {values[name + '.calls']:8g} "
                             f"{values[name + '.errors']:6g}")
    return values, len(procs), len(failed), lines


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return result.stdout.strip() or None


def provenance(seed, seconds) -> dict:
    versions = subprocess.run([sys.executable, "-c", PROVENANCE], env=child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), **json.loads(versions.stdout.splitlines()[-1]),
            "thread_pin": THREAD_PIN, "git_sha": git_sha(), "seed": seed, "seconds": seconds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=check.RECORDED_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the handlers that kill and reap a running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "oirsvlc" / "cli.py").is_file():
        print(f"error: no oirsvlc source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    metric_spec = spec["per_layer" if args.trace else "end_to_end"]
    print("provenance", json.dumps(provenance(args.seed, seconds)))
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        measured = measure(WORKLOADS[name], args.seed, seconds, bool(args.trace))
        if measured is None:
            print(f"error: {name}: no CLI process completed", file=sys.stderr)
            return 1
        values, attempted, failed, lines = measured
        print(f"{name} (seed {args.seed}, trace {args.trace}): " + "\n".join(lines))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                      for m in metric_spec}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
