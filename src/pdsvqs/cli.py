"""Command-line front end.

Subcommands: ``run`` (optimize and write a trajectory CSV), ``scan`` (grid of
starts plus the functional surface), ``reduce`` (string counts per moment
order), ``estimate`` (measurement budget), ``eig`` (exact spectrum).  Flags
can be preloaded from a JSON config file; explicit flags win.  Exit codes:
0 on success (for ``run``, a converged trajectory), 1 on usage or config
errors, 2 on numerical failure or a run that did not converge.
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
from .models import MODEL_NAMES, build_model, hardware_efficient_ansatz, load_hamiltonian
from .moments import hamiltonian_powers
from .optim import evaluate, run_batch
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


def _build_model(args):
    """The --model bundle, with --j/--b passed on for heisenberg only."""
    options = {}
    if args.model == "heisenberg":
        if args.j is not None:
            options["j"] = args.j
        if args.b is not None:
            options["b"] = args.b
    return build_model(args.model, **options)


def _hamiltonian_only(args):
    if args.model is not None:
        return _build_model(args).hamiltonian
    return load_hamiltonian(args.file)


def _load_problem(args):
    """Resolve --model/--file and the --theta0/--eta/--schedule overrides into
    (hamiltonian, circuit, theta0, eta, schedule, reference, ground basis,
    announcement).

    A file Hamiltonian's exact reference is computed up to
    ``REFERENCE_MAX_QUBITS`` and skipped above; the announcement is the line
    that says which, with the width and the reference's wall time.  It is
    None for a built-in model, whose reference comes with the model.
    """
    announcement = None
    if args.model is not None:
        bundle = _build_model(args)
        hamiltonian, circuit = bundle.hamiltonian, bundle.circuit
        theta0, eta, schedule = bundle.theta0, bundle.eta, bundle.schedule
        reference, ground = bundle.reference_energy, bundle.ground_basis
    else:
        hamiltonian = load_hamiltonian(args.file)
        circuit = hardware_efficient_ansatz(hamiltonian.n_qubits, args.layers)
        theta0, eta, schedule = np.full(circuit.n_params, 1e-3), 0.05, "constant"
        width = f"qubits={hamiltonian.n_qubits}"
        if hamiltonian.n_qubits <= REFERENCE_MAX_QUBITS:
            start = time.perf_counter()
            eigenvalues, ground = exact_eigensystem(hamiltonian)
            reference = float(eigenvalues[0])
            seconds = format(time.perf_counter() - start, ".3g")
            announcement = f"reference=exact {width} seconds={seconds}"
        else:
            reference, ground = math.nan, None
            announcement = f"reference=skipped {width} limit={REFERENCE_MAX_QUBITS}"
    if args.theta0 is not None:
        theta0 = parse_angles(args.theta0, circuit.n_params)
    if args.eta is not None:
        eta = args.eta
    if args.schedule is not None:
        schedule = args.schedule.replace("-", "_")
    return hamiltonian, circuit, theta0, eta, schedule, reference, ground, announcement


def _policy_from_args(args) -> RegPolicy:
    if args.pds_reg == "shift":
        return RegPolicy.shift(args.reg_eps)
    if args.pds_reg == "truncate":
        return RegPolicy.truncate()
    if args.pds_reg == "none":
        return RegPolicy.none()
    return RegPolicy.auto()


def _run_options(args, eta, schedule, ground) -> dict:
    """The ``run_batch`` keywords that ``run`` and ``scan`` share."""
    return dict(
        functional=args.functional,
        order=1 if args.functional == "vqe" else args.order,
        metric_kind=args.metric,
        eta=eta,
        schedule=schedule,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        pds_policy=_policy_from_args(args),
        metric_eps=args.metric_eps,
        ground_basis=ground,
    )


def _write_trajectory(path, trajectory, order, n_params, reference) -> None:
    lines = [SCHEMA_LINE]
    roots = [f"root_{i + 1}" for i in range(order)]
    thetas = [f"theta_{i + 1}" for i in range(n_params)]
    lines.append(
        ",".join(
            ["iter", "energy", *roots, "expval_H", "deviation", "fidelity",
             "grad_norm", "metric_cond", *thetas]
        )
    )
    for rec in trajectory.records:
        deviation = rec.energy - reference if math.isfinite(reference) else math.nan
        row = [
            str(rec.iteration),
            _fmt(rec.energy),
            *(_fmt(r) for r in rec.roots),
            _fmt(rec.expval_h),
            _fmt(deviation),
            _fmt(rec.fidelity),
            _fmt(rec.grad_norm),
            _fmt(rec.metric_cond),
            *(_fmt(t) for t in rec.theta),
        ]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def _cmd_run(args) -> int:
    problem = _load_problem(args)
    hamiltonian, circuit, theta0, eta, schedule, reference, ground, announcement = problem
    options = _run_options(args, eta, schedule, ground)
    trajectory = run_loop(
        hamiltonian, circuit, theta0, shots=args.shots, seed=args.seed, **options
    )
    if args.out is not None:
        _write_trajectory(
            args.out, trajectory, options["order"], circuit.n_params, reference
        )
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
    hamiltonian, circuit, theta0, eta, schedule, reference, ground, announcement = problem
    try:
        pi, pj = (int(p) for p in args.params.split(","))
    except ValueError:
        raise ValueError(f"--params expects 'i,j', got {args.params!r}") from None
    if not (0 <= pi < circuit.n_params and 0 <= pj < circuit.n_params and pi != pj):
        raise ValueError("--params indices out of range or equal")
    grid = [-math.pi + (k + 0.5) * 2.0 * math.pi / args.grid for k in range(args.grid)]
    pairs = [(ti, tj) for ti in grid for tj in grid]
    thetas = np.repeat(theta0[None], len(pairs), axis=0)
    thetas[:, [pi, pj]] = pairs
    options = _run_options(args, eta, schedule, ground)
    trajectories = run_batch(hamiltonian, circuit, thetas, **options)
    energies, expvals, errors = evaluate(
        hamiltonian, circuit, thetas, functional=args.functional,
        order=options["order"], pds_policy=options["pds_policy"],
    )

    start_lines = [SCHEMA_LINE, "theta_i0,theta_j0,status,iterations,final_energy,final_fidelity"]
    surface_lines = [SCHEMA_LINE, "theta_i,theta_j,energy,expval_H,flag"]
    for (ti, tj), trajectory, energy, expval, error in zip(
        pairs, trajectories, energies, expvals, errors
    ):
        final = trajectory.records[-1] if trajectory.records else None
        start_lines.append(
            ",".join(
                [
                    _fmt(ti), _fmt(tj), trajectory.status,
                    str(final.iteration if final else -1),
                    _fmt(final.energy if final else math.nan),
                    _fmt(final.fidelity if final else math.nan),
                ]
            )
        )
        flag = "ok" if error is None else type(error).__name__
        surface_lines.append(
            ",".join([_fmt(ti), _fmt(tj), _fmt(energy), _fmt(expval), flag])
        )
    Path(f"{args.out}_starts.csv").write_text("\n".join(start_lines) + "\n")
    Path(f"{args.out}_surface.csv").write_text("\n".join(surface_lines) + "\n")
    print(
        f"scan complete: {args.grid * args.grid} starts, "
        f"outputs {args.out}_starts.csv {args.out}_surface.csv"
    )
    if announcement is not None:
        print(announcement)
    return 0


def _cmd_reduce(args) -> int:
    hamiltonian = _hamiltonian_only(args)
    report = reduction_stats(hamiltonian, args.max_order, args.epsilon)
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
    hamiltonian = _hamiltonian_only(args)
    target = hamiltonian_powers(hamiltonian, args.power)[args.power]
    groups = _qwc_rows(target)  # grouped once, for the count and the estimate
    shots = estimate_measurements(target, args.epsilon, groups=groups, covariance=args.covariance)
    print(
        f"power={args.power} groups={len(groups)} epsilon={_fmt(args.epsilon)} "
        f"measurements={_fmt(shots)}"
    )
    return 0


def _cmd_eig(args) -> int:
    hamiltonian = _hamiltonian_only(args)
    eigenvalues, ground = exact_eigensystem(hamiltonian)
    print(" ".join(format(v, "g") for v in eigenvalues))
    print(f"ground={_fmt(eigenvalues[0])} degeneracy={ground.shape[1]}")
    return 0


def _add_problem_flags(parser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", choices=MODEL_NAMES, help="built-in model")
    source.add_argument("--file", help="Hamiltonian text file")
    parser.add_argument("--layers", type=int, default=1,
                        help="ansatz layers for file Hamiltonians")
    parser.add_argument("--j", type=float, default=None, help="heisenberg coupling")
    parser.add_argument("--b", type=float, default=None, help="heisenberg field")


def _add_run_flags(parser) -> None:
    parser.add_argument("--functional", choices=("pds", "vqe"), default="pds")
    parser.add_argument("--order", type=int, default=2, help="functional order K")
    parser.add_argument("--metric", choices=("gd", "ngd", "ite"), default="gd",
                        help="preconditioner; finite-shot runs take gd")
    parser.add_argument("--eta", type=float, default=None, help="step size")
    parser.add_argument("--schedule", choices=("constant", "inv-iter"), default=None)
    parser.add_argument("--theta0", default=None,
                        help="comma-separated start angles; accepts pi arithmetic")
    parser.add_argument("--max-iters", type=int, default=100)
    parser.add_argument("--grad-tol", type=float, default=1e-8)
    parser.add_argument("--pds-reg", choices=("none", "shift", "truncate", "auto"),
                        default="auto")
    parser.add_argument("--reg-eps", type=float, default=1e-6,
                        help="eigenvalue shift for --pds-reg shift")
    parser.add_argument("--metric-eps", type=float, default=1e-6)


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
    p_run.add_argument("--seed", type=int, default=0)
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
    skipped, keys of none are rejected."""
    at = next((i for i, a in enumerate(argv) if a.partition("=")[0] == "--config"), None)
    if at is None:
        return argv
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
