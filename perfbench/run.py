"""pdsvqs benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout holding ``src/pdsvqs``).  The
workload's inputs are generated from ``--seed``; its command then runs
in-process through ``pdsvqs.cli.main`` in a closed loop (one caller, each
command after the previous one returns) for ``--seconds``, after one warm-up
command at the workload's tiny size.  Every command's output is checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``setup_s`` (median over fresh processes of importing pdsvqs and building the
inputs), ``solve_s`` (median time of one command) and ``peak_rss_mb`` (peak
resident memory of this process, read before the output checks run).  The
command times are rescaled to the reference host speed with a calibration
kernel timed while each command runs (see calibration.py); the raw times are
in the ``detail`` line.
With ``--trace 1`` the commands alternate untraced and traced, with every
layer span installed (see spans.py); the last line reports per-layer self
time and calls per traced command, the counters and the tracing overhead.

Run metadata and the full result go to ``perfbench/out/``; the spans of a
traced run are written there when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibration import CAL_REF_S, Sampler
from spans import SPANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7


@dataclass
class Rep:
    rep_dir: Path
    rc: int
    stdout: str
    wall_s: float  # both without the calibration samples
    cpu_s: float
    cal_s: float = math.nan  # mean calibration kernel time during the command
    traced: bool = False

    def rescaled_s(self) -> float:
        """Command time at the reference host speed (see calibration.py)."""
        return self.wall_s * CAL_REF_S / self.cal_s


def load_cli():
    """Import ``pdsvqs.cli`` from this checkout's sources, or None if absent."""
    if not (SRC / "pdsvqs" / "__init__.py").is_file():
        print(f"perfbench: no pdsvqs sources under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import pdsvqs.cli

    return pdsvqs.cli


def run_command(cli, argv: list[str], rep_dir: Path, calibrated: bool = False) -> Rep:
    """One timed command; an uncaught exception counts as exit code 1.

    With ``calibrated`` the calibration kernel samples the host speed while
    the command runs; its time is taken out of the command's.
    """
    rep_dir.mkdir(parents=True)
    gc.collect()
    buf = io.StringIO()
    sampler = Sampler()
    with contextlib.redirect_stdout(buf), sampler if calibrated else contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the benchmark keeps going and counts a failure
            traceback.print_exc()
            rc = 1
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    rep = Rep(rep_dir, rc, buf.getvalue(), wall - sampler.spent_s, cpu - sampler.spent_s)
    if calibrated:
        rep.cal_s = sampler.mean_s()
    return rep


def closed_loop(cli, workload, workdir: Path, budget_s: float, tracer=None) -> list[Rep]:
    """Run commands back to back while the next is expected to fit the budget.

    Without a tracer every command is calibrated.  With a tracer, commands
    alternate untraced and traced, so both kinds meet the same host
    conditions; at least one of each runs, and none is calibrated, so that
    no sample lands in a span.
    """
    reps: list[Rep] = []
    start = time.perf_counter()
    steps: list[float] = []
    while len(reps) < (2 if tracer else 1) or (
            time.perf_counter() - start + statistics.median(steps) <= budget_s):
        step_start = time.perf_counter()
        rep_dir = workdir / f"rep{len(reps):03d}"
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.install()
        try:
            reps.append(run_command(cli, workload.argv(rep_dir), rep_dir, tracer is None))
        finally:
            if traced:
                tracer.uninstall()
        reps[-1].traced = traced
        steps.append(time.perf_counter() - step_start)
    return reps


def setup_seconds(workload) -> list[tuple[float, float]]:
    """(wall, CPU) of import-and-build, each in a fresh interpreter."""
    pairs = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), str(SRC), *workload.probe_args()],
            capture_output=True, text=True, timeout=60, check=True,
        )
        pairs.append(tuple(float(v) for v in done.stdout.split()[-2:]))
    return pairs


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def metadata(args) -> dict:
    try:
        # The ceiling keeps git from reading repositories above the checkout.
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
    }


def check_reps(workload, reps: list[Rep]):
    outcomes = [workload.check(r.rep_dir, r.rc, r.stdout) for r in reps]
    return outcomes, sum(o.attempted for o in outcomes), sum(o.failed for o in outcomes)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, plain: list[Rep], traced: list[Rep]) -> dict:
    """Per-layer metrics per traced command."""
    n = len(traced)
    metrics = {}
    totals = tracer.totals()
    for name, _, _ in SPANS:
        metrics[f"{name}.self_s"] = metric(totals[name]["self_s"] / n, "s")
        metrics[f"{name}.calls"] = metric(totals[name]["calls"] / n, "count")
    for name, value in tracer.counters.items():
        metrics[name] = metric(value / n, "count")
    solves = totals["pds.pds_solve"]["calls"]
    share = tracer.counters["pds.regularized"] / solves if solves else 0.0
    metrics["pds.regularized_share"] = metric(share, "ratio")
    traced_solve = statistics.fmean(r.wall_s for r in traced)
    metrics["traced_solve_s"] = metric(traced_solve, "s")
    metrics["trace_overhead_s"] = metric(
        traced_solve - statistics.median(r.wall_s for r in plain), "s")
    return metrics


def measure(cli, workload, warmup, workdir: Path, seconds: float, trace: int,
            spans_path: Path | None = None) -> tuple[dict, dict]:
    """Set up, warm up, time and check one workload; return (result, detail)."""
    (workdir / "warmup-inputs").mkdir(parents=True)
    workload.prepare(workdir)
    warmup.prepare(workdir / "warmup-inputs")
    setup = setup_seconds(workload) if trace == 0 else []
    warm = run_command(cli, warmup.argv(workdir / "warmup"), workdir / "warmup")
    tracer = Tracer() if trace else None
    reps = closed_loop(cli, workload, workdir, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and spans_path is not None:
        tracer.save(spans_path)
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    checked, attempted, failed = check_reps(workload, reps)
    warm_checked, warm_attempted, warm_failed = check_reps(warmup, [warm])
    wall_median = statistics.median(r.wall_s for r in plain)
    first = checked[0]  # an untraced command
    if trace == 0:
        metrics = {
            "setup_s": metric(statistics.median(t for t, _ in setup), "s"),
            "solve_s": metric(statistics.median(r.rescaled_s() for r in plain), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, plain, traced)
        metrics["cli.iters"] = metric(first.iters, "count")
        metrics["cli.iters_per_s"] = metric(first.iters / wall_median, "1/s")
        metrics["cli.starts_solved"] = metric(first.solved, "count")
    detail = {
        "setup_wall_s": [t for t, _ in setup],
        "setup_cpu_s": [c for _, c in setup],
        "solve_wall_s": [r.wall_s for r in plain],
        "solve_cpu_s": [r.cpu_s for r in plain],
        "solve_cal_s": [r.cal_s for r in plain],
        "traced_solve_s": [r.wall_s for r in traced],
        "iters": first.iters,
        "starts_solved": first.solved,
        "info": first.info,
        "problems": [p for o in checked + warm_checked for p in o.problems][:20],
    }
    result = {"correct": failed + warm_failed == 0, "attempted": attempted + warm_attempted,
              "failed": failed + warm_failed, "metrics": metrics}
    return result, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_cli()
    if cli is None:
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    cls = WORKLOADS[args.workload]
    try:
        result, detail = measure(cli, cls(args.seed), cls(args.seed, tiny=True), workdir,
                                 args.seconds, args.trace,
                                 OUT / f"{args.workload}.spans.tsv.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["meta"] = metadata(args)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**detail, **result}, indent=1) + "\n")
    for problem in detail["problems"]:
        print(f"check failed: {problem}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
