"""Command-line front end.

Subcommands: ``run`` (optimize and write a trajectory CSV), ``scan`` (grid of
starts plus the functional surface, read from each start's iterate 0),
``reduce`` (string counts per moment order), ``estimate`` (measurement
budget), ``eig`` (exact spectrum).  Flags can be preloaded from a JSON config
file; explicit flags win.  Exit codes: 0 on success (for ``run``, a
converged trajectory), 1 on usage or config errors, 2 on numerical failure
or a run that did not converge.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import re
import sys
import time
from pathlib import Path

import numpy as np

from .measure import _check_epsilon, estimate_measurements, reduction_stats
from .models import MODEL_NAMES, ModelBundle, build_model, hardware_efficient_ansatz
from .models import load_hamiltonian
from .moments import hamiltonian_powers
from .optim import run_batch
from .optim import run as run_loop
from .pauli import _qwc_rows
from .pds import RegPolicy
from .statesim import exact_eigensystem

__all__ = ["main"]

SCHEMA_LINE = "# pdsvqs trajectory schema v1"
# Widest file Hamiltonian whose exact reference ``run`` and ``scan`` compute.
REFERENCE_MAX_QUBITS = 12


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:  # subparsers too: no prefix matching
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {
    ast.Add: operator.add, ast.Sub: operator.sub,
    ast.Mult: operator.mul, ast.Div: operator.truediv,
}


def parse_angle(text: str) -> float:
    """Evaluate an angle expression such as ``7pi/32`` or ``-pi/2``.

    Supports numbers, ``pi``, the four arithmetic operators, unary signs and
    parentheses; an implicit product is inserted between a number and ``pi``.
    Division by zero and a non-finite result raise ``ValueError``.
    """
    cleaned = text.strip().replace("−", "-").lower()
    normalized = re.sub(r"(?<=[\d.])p", "*p", cleaned)
    try:
        tree = ast.parse(normalized, mode="eval")
    except SyntaxError:
        raise ValueError(f"cannot parse angle {text!r}") from None

    def evaluate(node) -> float:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            return _UNARY[type(node.op)](evaluate(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](evaluate(node.left), evaluate(node.right))
        raise ValueError(f"unsupported construct in angle {text!r}")

    try:
        value = evaluate(tree.body)
    except ZeroDivisionError:
        raise ValueError(f"division by zero in angle {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"angle {text!r} is not finite")
    return value


def parse_angles(text: str, n_params: int) -> np.ndarray:
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"empty angle in {text!r}")
    values = [parse_angle(part) for part in parts]
    if len(values) == 1 and n_params > 1:
        values = values * n_params
    if len(values) != n_params:
        raise ValueError(
            f"expected {n_params} angles, got {len(values)} from {text!r}"
        )
    return np.array(values)


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _given(**values) -> dict:
    """The keywords whose flag was given, so the callee keeps its defaults."""
    return {k: v for k, v in values.items() if v is not None}


def _load_problem(args, ansatz: bool = True):
    """The --model or --file problem, or with ``ansatz=False`` its Hamiltonian
    alone and no ansatz built.  Nothing is diagonalized here.

    --j/--b go to ``build_model``, which rejects them for every model but
    heisenberg; --layers sets a file's ansatz depth and is rejected with a
    model or without an ansatz.  A file pairs with the hardware-efficient
    ansatz, theta0 = 1e-3, eta = 0.05 and a constant schedule.
    """
    options = _given(j=args.j, b=args.b)
    if args.layers is not None and (args.model is not None or not ansatz):
        raise ValueError("--layers sets the ansatz of --file Hamiltonians only, in run and scan")
    if args.model is not None:
        problem = build_model(args.model, **options)
        return problem if ansatz else problem.hamiltonian
    if options:
        raise ValueError("--j and --b set the heisenberg model only")
    hamiltonian = load_hamiltonian(args.file)
    if not ansatz:
        return hamiltonian
    layers = 1 if args.layers is None else args.layers
    circuit = hardware_efficient_ansatz(hamiltonian.n_qubits, layers)
    theta0 = np.full(circuit.n_params, 1e-3)
    return ModelBundle(args.file, hamiltonian, circuit, theta0, 0.05, "constant")


def _run_options(args, problem: ModelBundle) -> tuple[dict, float, str | None]:
    """The ``run_batch`` keywords that ``run`` and ``scan`` share, the
    reference energy and the announcement.

    --theta0/--eta/--schedule are set on the problem in place, and they and
    the policy are checked, before its reference is first read: up to
    ``REFERENCE_MAX_QUBITS`` qubits, and skipped (NaN, no ground basis) above.
    For a file the announcement is the line that says which, with the width
    and the reference's wall time; it is None for a built-in model.
    """
    if args.theta0 is not None:
        problem.theta0 = parse_angles(args.theta0, problem.circuit.n_params)
    if args.eta is not None:
        problem.eta = args.eta
    if args.schedule is not None:
        problem.schedule = args.schedule.replace("-", "_")
    pds_flags = {"--order": args.order, "--pds-reg": args.pds_reg, "--reg-eps": args.reg_eps}
    if args.functional == "vqe" and (given := [f for f, v in pds_flags.items() if v is not None]):
        raise ValueError(f"{given[0]} sets the pds functional, not --functional vqe")
    if args.metric_eps is not None and args.metric == "gd":
        raise ValueError("--metric-eps regularizes the metric of --metric ngd and ite, not gd")
    pds_reg = args.pds_reg or "auto"
    if args.reg_eps is not None and pds_reg == "none":
        raise ValueError("--reg-eps is the shift of --pds-reg shift and auto, not none")
    options = dict(  # vqe is the order-1 functional
        order=1 if args.functional == "vqe" else 2 if args.order is None else args.order,
        metric_kind=args.metric,
        eta=problem.eta,
        schedule=problem.schedule,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        pds_policy=RegPolicy(pds_reg, **_given(shift_eps=args.reg_eps)),
        **_given(metric_eps=args.metric_eps),
    )
    width = f"qubits={problem.hamiltonian.n_qubits}"
    if problem.hamiltonian.n_qubits > REFERENCE_MAX_QUBITS:
        return options, math.nan, f"reference=skipped {width} limit={REFERENCE_MAX_QUBITS}"
    start = time.perf_counter()
    options["ground_basis"] = problem.ground_basis
    seconds = format(time.perf_counter() - start, ".3g")
    announcement = f"reference=exact {width} seconds={seconds}" if args.file else None
    return options, problem.reference_energy, announcement


def _write_csv(path, header, rows) -> None:
    """The schema line, the header and the rows; values that are not strings
    are printed with 17 significant digits.  A path that cannot be written
    raises ``ValueError``."""
    lines = [SCHEMA_LINE, ",".join(header)]
    lines += [",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _cmd_run(args) -> int:
    if args.seed is not None and args.shots is None:
        raise ValueError("--seed seeds --shots runs only")
    problem = _load_problem(args)
    options, reference, announcement = _run_options(args, problem)
    trajectory = run_loop(
        problem.hamiltonian, problem.circuit, problem.theta0,
        **_given(shots=args.shots, seed=args.seed), **options,
    )
    if args.out is not None:
        roots = [f"root_{i + 1}" for i in range(options["order"])]
        thetas = [f"theta_{i + 1}" for i in range(problem.circuit.n_params)]
        header = ["iter", "energy", *roots, "expval_H", "deviation", "fidelity",
                  "grad_norm", "metric_cond", *thetas]
        _write_csv(args.out, header, (
            [rec.iteration, rec.energy, *rec.roots, rec.expval_h, rec.energy - reference,
             rec.fidelity, rec.grad_norm, rec.metric_cond, *rec.theta]
            for rec in trajectory.records
        ))
    final = trajectory.records[-1] if trajectory.records else None
    summary = [f"status={trajectory.status}"]
    if final is not None:
        summary.append(f"iterations={final.iteration}")
        summary.append(f"energy={_fmt(final.energy)}")
        if math.isfinite(reference):
            summary.append(f"deviation={_fmt(final.energy - reference)}")
        if math.isfinite(final.fidelity):
            summary.append(f"fidelity={_fmt(final.fidelity)}")
    if trajectory.message:
        summary.append(f"message={trajectory.message!r}")
    print(" ".join(summary))
    if announcement is not None:
        print(announcement)
    return 0 if trajectory.status == "converged" else 2


def _cmd_scan(args) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    problem = _load_problem(args)
    n_params = problem.circuit.n_params
    try:
        pi, pj = (int(p) for p in args.params.split(","))
    except ValueError:
        raise ValueError(f"--params expects 'i,j', got {args.params!r}") from None
    if n_params < 2:
        raise ValueError(f"{problem.name} has {n_params} variational parameter; scan needs 2")
    if not (0 <= pi < n_params and 0 <= pj < n_params and pi != pj):
        raise ValueError("--params indices out of range or equal")
    options, _, announcement = _run_options(args, problem)
    grid = [-math.pi + (k + 0.5) * 2.0 * math.pi / args.grid for k in range(args.grid)]
    pairs = [(ti, tj) for ti in grid for tj in grid]
    thetas = np.repeat(problem.theta0[None], len(pairs), axis=0)
    thetas[:, [pi, pj]] = pairs
    trajectories = run_batch(problem.hamiltonian, problem.circuit, thetas, **options)
    starts, surface = [], []
    for (ti, tj), trajectory in zip(pairs, trajectories):
        records = trajectory.records
        f = records[-1] if records else None
        end = (f.iteration, f.energy, f.fidelity) if f else (-1, math.nan, math.nan)
        starts.append([ti, tj, trajectory.status, *end])
        # The surface is iterate 0; a failed solve reads NaN and names its error.
        first = records[0] if records else trajectory.failed
        flag = "ok" if math.isfinite(first.energy) else type(trajectory.error).__name__
        surface.append([ti, tj, first.energy, first.expval_h, flag])
    _write_csv(f"{args.out}_starts.csv", ["theta_i0", "theta_j0", "status", "iterations",
                                          "final_energy", "final_fidelity"], starts)
    _write_csv(f"{args.out}_surface.csv",
               ["theta_i", "theta_j", "energy", "expval_H", "flag"], surface)
    print(
        f"scan complete: {args.grid * args.grid} starts, "
        f"outputs {args.out}_starts.csv {args.out}_surface.csv"
    )
    if announcement is not None:
        print(announcement)
    return 0


def _cmd_reduce(args) -> int:
    report = reduction_stats(_load_problem(args, ansatz=False), args.max_order, args.epsilon)
    print("order,strings,cumulative,measurements")
    for n in range(args.max_order):
        print(
            f"{n + 1},{report.per_order_counts[n]},{report.cumulative_counts[n]},"
            f"{_fmt(report.per_order_measurements[n])}"
        )
    print(f"groups={report.group_count} total_measurements={_fmt(report.total_measurements)}")
    return 0


def _cmd_estimate(args) -> int:
    if args.power < 1:
        raise ValueError(f"--power must be at least 1, got {args.power}")
    _check_epsilon(args.epsilon)
    target = hamiltonian_powers(_load_problem(args, ansatz=False), args.power)[args.power]
    groups = _qwc_rows(target)  # grouped once, for the count and the estimate
    shots = estimate_measurements(target, args.epsilon, groups=groups, covariance=args.covariance)
    print(
        f"power={args.power} groups={len(groups)} epsilon={_fmt(args.epsilon)} "
        f"measurements={_fmt(shots)}"
    )
    return 0


def _cmd_eig(args) -> int:
    eigenvalues, ground = exact_eigensystem(_load_problem(args, ansatz=False))
    print(" ".join(format(v, "g") for v in eigenvalues))
    print(f"ground={_fmt(eigenvalues[0])} degeneracy={ground.shape[1]}")
    return 0


def _add_problem_flags(parser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", choices=MODEL_NAMES, help="built-in model")
    source.add_argument("--file", help="Hamiltonian text file")
    parser.add_argument("--layers", type=int, default=None,
                        help="ansatz layers for file Hamiltonians (default 1)")
    parser.add_argument("--j", type=float, default=None, help="heisenberg coupling")
    parser.add_argument("--b", type=float, default=None, help="heisenberg field")


def _add_run_flags(parser) -> None:
    parser.add_argument("--functional", choices=("pds", "vqe"), default="pds")
    parser.add_argument("--order", type=int, default=None, help="pds order K (default 2)")
    parser.add_argument("--metric", choices=("gd", "ngd", "ite"), default="gd",
                        help="preconditioner; finite-shot runs take gd")
    parser.add_argument("--eta", type=float, default=None, help="step size")
    parser.add_argument("--schedule", choices=("constant", "inv-iter"), default=None)
    parser.add_argument("--theta0", default=None,
                        help="comma-separated start angles; accepts pi arithmetic")
    parser.add_argument("--max-iters", type=int, default=100)
    parser.add_argument("--grad-tol", type=float, default=1e-8)
    parser.add_argument("--pds-reg", choices=("none", "shift", "auto"), default=None,
                        help="eigenvalue shift: never, always or past cond 1e6 (default auto)")
    parser.add_argument("--reg-eps", type=float, default=None,
                        help="eigenvalue shift of --pds-reg shift and auto (default 1e-6)")
    parser.add_argument("--metric-eps", type=float, default=None,
                        help="metric regularization of --metric ngd and ite (default 1e-6)")


def build_parser() -> _Parser:
    parser = _Parser(prog="pdsvqs", description=__doc__)
    parser.add_argument("--config", default=None,
                        help="JSON file of defaults for the subcommand flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="optimize and write a trajectory CSV")
    _add_problem_flags(p_run)
    _add_run_flags(p_run)
    p_run.add_argument("--shots", type=int, default=None,
                       help="emulate finite measurement shots")
    p_run.add_argument("--seed", type=int, default=None,
                       help="seed of the --shots draws (default 0)")
    p_run.add_argument("--out", default=None, help="trajectory CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_scan = sub.add_parser("scan", help="grid of starts plus surface values")
    _add_problem_flags(p_scan)
    _add_run_flags(p_scan)
    p_scan.add_argument("--grid", type=int, default=8)
    p_scan.add_argument("--params", default="0,1", help="two parameter indices to scan")
    p_scan.add_argument("--out", required=True, help="output file prefix")
    p_scan.set_defaults(func=_cmd_scan)

    p_reduce = sub.add_parser("reduce", help="string counts per moment order")
    _add_problem_flags(p_reduce)
    p_reduce.add_argument("--max-order", type=int, default=4)
    p_reduce.add_argument("--epsilon", type=float, default=1e-3)
    p_reduce.set_defaults(func=_cmd_reduce)

    p_est = sub.add_parser("estimate", help="measurement budget for one power")
    _add_problem_flags(p_est)
    p_est.add_argument("--epsilon", type=float, default=1e-3)
    p_est.add_argument("--power", type=int, default=1)
    p_est.add_argument("--covariance", choices=("diagonal", "bound"),
                       default="diagonal")
    p_est.set_defaults(func=_cmd_estimate)

    p_eig = sub.add_parser("eig", help="exact spectrum of the Hamiltonian")
    _add_problem_flags(p_eig)
    p_eig.set_defaults(func=_cmd_eig)
    return parser


def _apply_config(parser: _Parser, argv: list[str]) -> list[str]:
    """Splice the JSON values of ``--config PATH`` (or ``--config=PATH``) in
    as ``--flag=value`` tokens right after the subcommand, so argparse checks
    them; later explicit flags win.  Keys of other subcommands and nulls are
    skipped, keys of none are rejected, and so is a second ``--config``."""
    given = [i for i, a in enumerate(argv) if a.partition("=")[0] == "--config"]
    if not given:
        return argv
    if len(given) > 1:
        parser.error("--config may be given once")
    at = given[0]
    _, joined, path = argv[at].partition("=")  # --config=PATH or --config PATH
    if not joined:
        path = argv[at + 1] if at + 1 < len(argv) else ""
    if not path:
        parser.error("--config needs a path")
    argv = argv[:at] + argv[at + (1 if joined else 2) :]
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot load config {path}: {exc}")
    if not isinstance(raw, dict):
        parser.error(f"config {path} must hold a JSON object")
    config = {str(k).replace("-", "_"): v for k, v in raw.items()}
    if "model" in config and "file" in config:
        parser.error(f"config {path} sets both model and file")
    # An explicit problem source on the command line eclipses the config's.
    if any(a == "--model" or a.startswith("--model=") for a in argv):
        config.pop("file", None)
    if any(a == "--file" or a.startswith("--file=") for a in argv):
        config.pop("model", None)
    flags = {  # per subcommand, the flag of every destination it knows
        name: {a.dest: a.option_strings[0] for a in sub._actions if a.dest != "help"}
        for action in parser._actions if isinstance(action, argparse._SubParsersAction)
        for name, sub in action.choices.items()
    }
    unknown = set(config).difference(*flags.values())
    if unknown:
        parser.error(f"config {path} has unknown keys: {', '.join(sorted(unknown))}")
    at = next((i for i, a in enumerate(argv) if a in flags), None)
    if at is None:
        return argv
    known = flags[argv[at]]
    tokens = [f"{known[k]}={v}" for k, v in config.items() if k in known and v is not None]
    return argv[: at + 1] + tokens + argv[at + 1 :]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    argv = _apply_config(parser, argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"pdsvqs: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
