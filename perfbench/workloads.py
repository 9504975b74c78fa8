"""The four benchmark workloads: inputs from a seed, commands, output checks.

Every workload drives the documented command line, ``pdsvqs.cli.main(argv)``,
with documented flags only.  The program sees only the generated input files
and flags; the seed stays in the benchmark.  Each workload has a full size for
timing and a tiny size, run through the same code path, for warm-up and the
self-test.

An operation is a scan start (``scan_toy``), a ``run`` command (``chain_exact``,
``shots_heis``) or a ``reduce`` command (``reduce_chain``).  It fails on an
``error`` status, an exit code other than the documented 0 or 2, or a failed
output check.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# toy_a is diag(1, 2, 3, 0) (README, "Built-in models"): the ground energy is 0.
TOY_A_GROUND = 0.0
# heisenberg has exact ground energy -3.6 (README, "Built-in models").
HEISENBERG_GROUND = -3.6
# The finite-shot check takes the median energy of the last SHOTS_TAIL
# iterates, which must lie within SHOTS_BAND of -3.6: a quarter of the gap to
# the first excited level, -2.4.  A single iterate's estimate at 1000 shots
# has heavy tails (final values of -12.7 and -62.6 on 2 of 40 seeds) and the
# tail median drifts by up to 0.1, so the single final value is reported, not
# checked.
SHOTS_TAIL = 20
SHOTS_BAND = 0.3
# Per-order string counts of H^1..H^4 for the 12-site chain below.  They are
# fixed by the Pauli algebra.
CHAIN12_COUNTS = (45, 846, 8060, 45092)
# Starts within this distance of the ground energy count as solved.
SOLVED_TOL = 1e-6


@dataclass
class Outcome:
    """Checked result of one command."""

    attempted: int
    failed: int
    iters: int = 0
    solved: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def chain_terms(n: int) -> list[tuple[float, str]]:
    """Open Heisenberg chain sum_i (XX + YY + ZZ)_{i,i+1} + 0.5 sum_i Z_i."""
    terms = []
    for i in range(n - 1):
        for letter in "XYZ":
            label = ["I"] * n
            label[i] = label[i + 1] = letter
            terms.append((1.0, "".join(label)))
    for i in range(n):
        label = ["I"] * n
        label[i] = "Z"
        terms.append((0.5, "".join(label)))
    return terms


def write_chain(n: int, path: Path) -> None:
    from pdsvqs.models import serialize_hamiltonian
    from pdsvqs.pauli import PauliSum

    serialize_hamiltonian(PauliSum.from_terms(chain_terms(n)), path)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV written after a schema comment line."""
    with path.open() as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _finite(values) -> bool:
    try:
        return all(math.isfinite(float(v)) for v in values)
    except ValueError:
        return False


def _status(stdout: str) -> str:
    for token in stdout.split():
        if token.startswith("status="):
            return token[len("status="):]
    return "missing"


def _run_outcome(rc: int, stdout: str, csv_path: Path) -> tuple[Outcome, list[list[str]], list[str]]:
    """Shared checks of a ``run`` command: exit code, status, finite rows."""
    out = Outcome(attempted=1, failed=0)
    status = _status(stdout)
    if rc not in (0, 2):
        out.problems.append(f"exit code {rc}")
    if status not in ("converged", "max_iters"):
        out.problems.append(f"status {status}")
    try:
        header, rows = _read_rows(csv_path)
    except (OSError, IndexError) as exc:
        out.problems.append(f"cannot read {csv_path.name}: {exc}")
        return out, [], []
    # root_2..root_K are NaN where the polynomial's other roots are complex.
    checked = [i for i, name in enumerate(header)
               if not (name.startswith("root_") and name != "root_1")]
    if not rows:
        out.problems.append("empty trajectory")
    elif not all(_finite(row[i] for i in checked) for row in rows):
        out.problems.append("non-finite value in trajectory")
    out.iters = len(rows)
    return out, rows, header


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def prepare(self, workdir: Path) -> None:
        """Write input files into ``workdir``."""

    def probe_args(self) -> list[str]:
        """Arguments of probe_setup.py that build this workload's inputs."""
        raise NotImplementedError

    def argv(self, rep_dir: Path) -> list[str]:
        raise NotImplementedError

    def check(self, rep_dir: Path, rc: int, stdout: str) -> Outcome:
        raise NotImplementedError

    @staticmethod
    def _finish(out: Outcome) -> Outcome:
        if out.problems:
            out.failed = max(out.failed, 1)
        return out


class ScanToy(Workload):
    name = "scan_toy"
    why = ("64-start ngd scan of the 2-qubit toy_a model: per-call overhead in "
           "statesim, pds and optim dominates; no Pauli expansion")
    grid = 8

    def probe_args(self) -> list[str]:
        return ["--model", "toy_a"]

    def argv(self, rep_dir: Path) -> list[str]:
        return ["scan", "--model", "toy_a", "--order", "2", "--grid", str(self.grid),
                "--metric", "ngd", "--max-iters", "5" if self.tiny else "200",
                "--out", str(rep_dir / "toy")]

    def check(self, rep_dir: Path, rc: int, stdout: str) -> Outcome:
        starts = self.grid * self.grid
        out = Outcome(attempted=starts, failed=0)
        try:
            _, start_rows = _read_rows(rep_dir / "toy_starts.csv")
            _, surface_rows = _read_rows(rep_dir / "toy_surface.csv")
        except (OSError, IndexError) as exc:
            out.problems.append(f"cannot read scan output: {exc}")
            out.failed = starts
            return out
        if rc != 0:
            out.problems.append(f"exit code {rc}")
        if len(start_rows) != starts or len(surface_rows) != starts:
            out.problems.append(
                f"expected {starts} rows, got {len(start_rows)} and {len(surface_rows)}")
        if not all(_finite(row[:4]) and row[4] == "ok" for row in surface_rows):
            out.problems.append("surface row not finite")
        if out.problems:
            out.failed = starts
            return out
        for row in start_rows:
            theta_i, theta_j, status, iterations, energy, fid = row
            bad = (status == "error" or not _finite([theta_i, theta_j, iterations, energy, fid])
                   or float(energy) < TOY_A_GROUND - 1e-9)
            if bad:
                out.failed += 1
                out.problems.append(f"start ({theta_i}, {theta_j}): {status} {energy}")
                continue
            out.iters += int(iterations) + 1
            out.solved += abs(float(energy) - TOY_A_GROUND) <= SOLVED_TOL
        return out


class ChainExact(Workload):
    name = "chain_exact"
    why = ("one exact order-3 gd step on an 8-site Heisenberg chain from seeded "
           "angles: applying expanded H powers to the state dominates")
    layers = 2
    order = 3

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.n = 4 if tiny else 8
        rng = np.random.default_rng([seed, self.n])
        self.theta0 = rng.uniform(-math.pi, math.pi, self.layers * self.n)
        self.path: Path | None = None
        self._dense: np.ndarray | None = None

    def prepare(self, workdir: Path) -> None:
        self.path = workdir / f"chain{self.n}.txt"
        write_chain(self.n, self.path)

    def probe_args(self) -> list[str]:
        return ["--file", str(self.path), "--layers", str(self.layers)]

    def argv(self, rep_dir: Path) -> list[str]:
        return ["run", "--file", str(self.path), "--layers", str(self.layers),
                "--order", str(self.order), "--metric", "gd", "--eta", "0.02",
                "--theta0=" + ",".join(_fmt(t) for t in self.theta0),
                "--max-iters", "1", "--out", str(rep_dir / "traj.csv")]

    def dense_hamiltonian(self) -> np.ndarray:
        """H from numpy Kronecker products, qubit 0 leftmost."""
        if self._dense is None:
            paulis = {
                "I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
                "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1]),
            }
            dim = 1 << self.n
            dense = np.zeros((dim, dim), dtype=complex)
            for coefficient, label in chain_terms(self.n):
                factor = np.ones((1, 1))
                for letter in label:
                    factor = np.kron(factor, paulis[letter])
                dense += coefficient * factor
            self._dense = dense
        return self._dense

    def check(self, rep_dir: Path, rc: int, stdout: str) -> Outcome:
        from pdsvqs.models import hardware_efficient_ansatz
        from pdsvqs.statesim import apply_circuit

        out, rows, header = _run_outcome(rc, stdout, rep_dir / "traj.csv")
        if not rows or out.problems:
            return self._finish(out)
        final = dict(zip(header, rows[-1]))
        theta = np.array([float(final[f"theta_{i + 1}"]) for i in range(self.layers * self.n)])
        circuit = hardware_efficient_ansatz(self.n, self.layers)
        psi = apply_circuit(circuit, theta).amplitudes
        h = self.dense_hamiltonian()
        # Moments <H^m> for m = 0 .. 2K-1 from Krylov vectors v_j = H^j psi.
        k = self.order
        moments = np.empty(2 * k)
        v = psi
        for j in range(k):
            hv = h @ v
            moments[2 * j] = np.vdot(v, v).real
            moments[2 * j + 1] = np.vdot(v, hv).real
            v = hv
        idx = np.arange(1, k + 1)
        hankel = moments[2 * k - idx[:, None] - idx[None, :]]
        coeffs = np.linalg.solve(hankel, -moments[2 * k - idx])
        roots = np.roots(np.concatenate(([1.0], coeffs)))
        real = roots.real[np.abs(roots.imag) <= 1e-8 * np.maximum(1.0, np.abs(roots.real))]
        energy = float(final["energy"])
        expval = float(final["expval_H"])
        ground = float(np.linalg.eigvalsh(h)[0])
        if real.size == 0:
            out.problems.append("independent solve found no real root")
        elif abs(real.min() - energy) > 1e-8 * max(1.0, abs(energy)):
            out.problems.append(f"energy {energy!r} != recomputed {real.min()!r}")
        if abs(moments[1] - expval) > 1e-8 * max(1.0, abs(expval)):
            out.problems.append(f"expval_H {expval!r} != recomputed {moments[1]!r}")
        scale = 1e-9 * max(1.0, abs(ground))
        if not ground - scale <= energy <= expval + scale:
            out.problems.append(f"energy {energy!r} outside [{ground!r}, {expval!r}]")
        out.info = {"energy": energy, "ground": ground, "cond_hankel": float(np.linalg.cond(hankel))}
        return self._finish(out)


class ShotsHeis(Workload):
    name = "shots_heis"
    why = ("finite-shot order-3 run of the 4-site spin model: sampling moments "
           "and grouping the power union dominate")
    shots = 1000

    def probe_args(self) -> list[str]:
        return ["--model", "heisenberg"]

    def argv(self, rep_dir: Path) -> list[str]:
        return ["run", "--model", "heisenberg", "--order", "3",
                "--shots", str(self.shots), "--seed", str(self.seed),
                "--max-iters", "10" if self.tiny else "200",
                "--out", str(rep_dir / "traj.csv")]

    def check(self, rep_dir: Path, rc: int, stdout: str) -> Outcome:
        out, rows, header = _run_outcome(rc, stdout, rep_dir / "traj.csv")
        if rows and not out.problems:
            column = header.index("energy")
            energies = [float(row[column]) for row in rows]
            tail = float(np.median(energies[-SHOTS_TAIL:]))
            if abs(tail - HEISENBERG_GROUND) > SHOTS_BAND:
                out.problems.append(f"median of the last {SHOTS_TAIL} energies {tail!r} "
                                    f"outside {HEISENBERG_GROUND} +- {SHOTS_BAND}")
            outside = sum(abs(e - HEISENBERG_GROUND) > SHOTS_BAND for e in energies)
            out.info = {"final_energy": energies[-1], "tail_median": tail,
                        "iterates_outside_band": outside}
        return self._finish(out)


class ReduceChain(Workload):
    name = "reduce_chain"
    why = ("string counts and shot budgets of a 12-site chain to order 4: Pauli "
           "expansion, QWC grouping and the measure layer")
    n = 12

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.max_order = 2 if tiny else 4
        self.path: Path | None = None

    def prepare(self, workdir: Path) -> None:
        self.path = workdir / f"chain{self.n}.txt"
        write_chain(self.n, self.path)

    def probe_args(self) -> list[str]:
        return ["--file", str(self.path)]

    def argv(self, rep_dir: Path) -> list[str]:
        return ["reduce", "--file", str(self.path), "--max-order", str(self.max_order),
                "--epsilon", "1e-3"]

    def check(self, rep_dir: Path, rc: int, stdout: str) -> Outcome:
        out = Outcome(attempted=1, failed=0)
        if rc != 0:
            out.problems.append(f"exit code {rc}")
        lines = stdout.strip().splitlines()
        try:
            start = lines.index("order,strings,cumulative,measurements") + 1
            table = [line.split(",") for line in lines[start:start + self.max_order]]
            counts = tuple(int(row[1]) for row in table)
            groups = int(lines[start + self.max_order].split()[0].split("=")[1])
        except (ValueError, IndexError) as exc:
            out.problems.append(f"cannot parse reduce output: {exc}")
            return self._finish(out)
        if counts != CHAIN12_COUNTS[: self.max_order]:
            out.problems.append(f"string counts {counts} != {CHAIN12_COUNTS[: self.max_order]}")
        if not all(_finite(row[1:]) and float(row[3]) > 0 for row in table):
            out.problems.append("non-finite or non-positive measurement estimate")
        out.info = {"groups": groups}
        return self._finish(out)


WORKLOADS = {w.name: w for w in (ScanToy, ChainExact, ShotsHeis, ReduceChain)}
