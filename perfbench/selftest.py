"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its tiny size through run.py's own measuring code,
untraced and traced.  Their checks must pass, their metric names must be
those of BENCHMARK.json, the calibrated ``solve_s`` must be positive, and the
traced self times must add up to the traced command time.  A traced run with
a private target missing must still pass, with that span at zero calls.  Each workload's output, once corrupted, must
fail its check.  In a copy holding only BENCHMARK.json and perfbench/, the
benchmark must fail without a result.  Exits 0 when every case behaves, 1
otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import OUT, ROOT, load_cli, measure, run_command


def _replace_field(path: Path, row_index: int, column: str, transform) -> None:
    """Rewrite one field of a schema-comment CSV in place."""
    lines = path.read_text().splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[header_at].split(",")
    rows = lines[header_at + 1:]
    fields = rows[row_index].split(",")
    col = header.index(column)
    fields[col] = transform(fields[col])
    rows[row_index] = ",".join(fields)
    path.write_text("\n".join(lines[: header_at + 1] + rows) + "\n")


def _corrupt_scan(rep, _stdout):
    _replace_field(rep / "toy_starts.csv", 0, "final_energy", lambda v: "-0.5")
    return _stdout


def _corrupt_chain(rep, stdout):
    _replace_field(rep / "traj.csv", -1, "energy",
                   lambda v: format(float(v) * (1 + 1e-6), ".17g"))
    return stdout


def _corrupt_shots(rep, stdout):
    for row in range(-5, 0):
        _replace_field(rep / "traj.csv", row, "energy", lambda v: "nan")
    return stdout


def _corrupt_reduce(_rep, stdout):
    return stdout.replace("\n2,846,", "\n2,845,")


CORRUPTIONS = {
    "scan_toy": _corrupt_scan,
    "chain_exact": _corrupt_chain,
    "shots_heis": _corrupt_shots,
    "reduce_chain": _corrupt_reduce,
}


def main() -> int:
    cli = load_cli()
    if cli is None:
        return 1
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    errors = []
    if [(w["name"], w["why"]) for w in spec["workloads"]] != [
            (cls.name, cls.why) for cls in WORKLOADS.values()]:
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    workdir = OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for name, cls in WORKLOADS.items():
            for trace in (0, 1):
                result, _ = measure(cli, cls(0, tiny=True), cls(0, tiny=True),
                                    workdir / f"{name}-{trace}", 0.0, trace)
                metrics = result["metrics"]
                if not result["correct"] or result["failed"]:
                    errors.append(f"{name} trace {trace}: tiny run failed its checks")
                if set(metrics) != expected[trace]:
                    errors.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                                  f"{sorted(set(metrics) ^ expected[trace])}")
                if not trace and not metrics["solve_s"]["value"] > 0:
                    errors.append(f"{name}: calibrated solve_s {metrics['solve_s']}")
                if trace:
                    self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
                    traced = metrics["traced_solve_s"]["value"]
                    if abs(self_sum - traced) > 1e-3 * traced + 1e-4:
                        errors.append(f"{name}: self times {self_sum} != traced solve {traced}")
                    if metrics["cli.main.calls"]["value"] != 1:
                        errors.append(f"{name}: cli.main traced {metrics['cli.main.calls']}")
            if hasattr(cli.main, "__wrapped__"):
                errors.append("trace wrappers left installed")

            workload = cls(seed=0, tiny=True)
            workload.prepare(workdir / f"{name}-0")
            rep = run_command(cli, workload.argv(workdir / name), workdir / name)
            if workload.check(rep.rep_dir, rep.rc, rep.stdout).failed:
                errors.append(f"{name}: clean output failed its check")
            stdout = CORRUPTIONS[name](rep.rep_dir, rep.stdout)
            corrupted = workload.check(rep.rep_dir, rep.rc, stdout)
            if corrupted.failed < 1:
                errors.append(f"{name}: corrupted output passed its check")
            print(f"{name}: tiny runs checked, corrupted output -> {corrupted.failed} failed")

        # A renamed private target leaves its span at zero calls.
        import pdsvqs.moments as moments

        analytic_rows = moments._analytic_rows
        del moments._analytic_rows
        try:
            result, _ = measure(cli, WORKLOADS["chain_exact"](0, tiny=True),
                                WORKLOADS["chain_exact"](0, tiny=True),
                                workdir / "renamed", 0.0, 1)
        finally:
            moments._analytic_rows = analytic_rows
        if not result["correct"] or result["metrics"]["moments.grad_rows.calls"]["value"]:
            errors.append("a missing private target broke the traced run")
        print("missing private target: grad_rows calls "
              f"{result['metrics']['moments.grad_rows.calls']['value']}")

        # Without the program's sources the benchmark must fail, printing no result.
        bare = workdir / "bare"
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan_toy", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        if done.returncode == 0 or done.stdout.strip():
            errors.append("run.py without sources did not fail cleanly")
        print(f"without sources: exit {done.returncode}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
