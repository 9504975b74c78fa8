"""The trajectory corpus: stored outputs of the program that tier 1 recomputes.

``test_corpus.py`` recomputes every entry and compares it with
``corpus.json``.  A change that means to move outputs rewrites the file with

    PYTHONPATH=src python tests/corpus.py

and lists every moved entry, which the script prints, in CHANGES.md.

Entries, each keyed by what it runs:
- ``exact <model> <metric> <policy> K=<k>``: the 144-run grid, 150 iterates
  of every built-in model from its start, step size and schedule, for
  gd/ngd/ite, the none/shift/auto policies and K = 1 .. 4;
- ``shots <model> K=<k> shots=<n> seed=<s> iters=<m>``: finite-shot gd runs,
  heisenberg's and the two toy models', toy_b's with a CRY and a shared
  parameter;
- ``scan toy_a``: the rows of the ngd scan of toy_a on an 8 x 8 grid at
  K = 2, its surface (iterate 0 of every start) and each start's outcome;
- ``reduce <model>`` and ``estimate <model> power=<p>``: the lines those
  commands print, split into tokens.
A run keeps its status, error type and record count, the largest ``cond_m``
over its records and, at iterates 0, 1, 10, 50 and the last, the iteration,
energy and theta.  ``cond_m`` is the condition number of the exact order-K
moment matrix at a record's theta, computed here.  Floats are stored as
17-digit text.

A float matches to ``REL_TOL`` relative (NaN matches NaN); every other
value, integers, statuses, error types and group counts among them, must be
equal.  A mismatch names each entry's first deviating row and, for a run,
``cond_m`` at the theta of its deviating iterate, stored and recomputed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np

from pdsvqs.cli import main
from pdsvqs.models import MODEL_NAMES, build_model
from pdsvqs.moments import _krylov, _values_from_state
from pdsvqs.optim import run
from pdsvqs.pds import RegPolicy
from pdsvqs.statesim import _compiled, _simulate

PATH = Path(__file__).with_name("corpus.json")
REL_TOL = 1e-10
ITERS = 150
STORED = (0, 1, 10, 50)
_FIELDS = ("status", "error", "records", "max_cond_m")
SHOT_RUNS = (  # model, K, shots, seed, iterates
    ("heisenberg", 3, 1000, 3, 60),
    ("heisenberg", 3, 1000, 7, 60),
    ("toy_a", 2, 500, 1, 100),
    ("toy_b", 2, 500, 2, 100),
    ("toy_b", 3, 500, 2, 100),
)
_INT = re.compile(r"[+-]?\d+")


def _text(x) -> str:
    return format(float(x), ".17g")


def cond_m(model, order: int, thetas) -> np.ndarray:
    """Condition numbers (B,) of the exact order-K moment matrices
    ``M[i, j] = <H^(2K-i-j)>`` at the rows of ``thetas``; inf where M is
    exactly singular."""
    thetas = np.asarray(thetas, dtype=float).reshape(-1, model.circuit.n_params)
    amps = _simulate(model.circuit, thetas)
    values = _values_from_state(_krylov(_compiled(model.hamiltonian), amps, order), 2 * order - 1)
    i = np.arange(1, order + 1)
    s = np.linalg.svd(values[:, 2 * order - i[:, None] - i[None, :]], compute_uv=False)
    return np.divide(s[:, 0], s[:, -1], out=np.full(len(s), np.inf), where=s[:, -1] != 0.0)


def _run_entry(model, order: int, trajectory) -> dict:
    records = trajectory.records
    last = len(records) - 1
    conds = cond_m(model, order, [r.theta for r in records]) if records else []
    return {
        "status": trajectory.status,
        "error": type(trajectory.error).__name__ if trajectory.error else None,
        "records": len(records),
        "max_cond_m": _text(max(conds, default=math.nan)),
        "iterates": [[i, _text(records[i].energy), *map(_text, records[i].theta)]
                     for i in sorted({i for i in (*STORED, last) if 0 <= i <= last})],
    }


def _command(argv: list[str], outputs: tuple[str, ...] = ()) -> list[list[str]]:
    """Tokens of every line the command prints, then of every line of its
    output files (the ``--out`` prefix plus each suffix), comments dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        prefix = str(Path(tmp) / "out")
        argv = argv + (["--out", prefix] if outputs else [])
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(argv)
        lines = [f"exit={code}", *text.getvalue().replace(prefix, "out").splitlines()]
        for suffix in outputs:
            lines += Path(prefix + suffix).read_text().splitlines()
    return [re.split(r"[ ,=]", line) for line in lines if not line.startswith("#")]


def compute() -> dict:
    """Every corpus entry, by key."""
    out = {}
    for name in MODEL_NAMES:
        m = build_model(name)
        for kind in ("gd", "ngd", "ite"):
            for policy in ("none", "shift", "auto"):
                for k in (1, 2, 3, 4):
                    t = run(m.hamiltonian, m.circuit, m.theta0, order=k, metric_kind=kind,
                            eta=m.eta, schedule=m.schedule, max_iters=ITERS,
                            pds_policy=RegPolicy(policy))
                    out[f"exact {name} {kind} {policy} K={k}"] = _run_entry(m, k, t)
    for name, k, shots, seed, iters in SHOT_RUNS:
        m = build_model(name)
        t = run(m.hamiltonian, m.circuit, m.theta0, order=k, eta=m.eta, schedule=m.schedule,
                max_iters=iters, shots=shots, seed=seed)
        out[f"shots {name} K={k} shots={shots} seed={seed} iters={iters}"] = _run_entry(m, k, t)
    out["scan toy_a"] = _command(
        ["scan", "--model", "toy_a", "--order", "2", "--grid", "8", "--metric", "ngd",
         "--max-iters", "200"], ("_surface.csv", "_starts.csv"))
    for name in MODEL_NAMES:
        out[f"reduce {name}"] = _command(["reduce", "--model", name, "--max-order", "5"])
        for p in (1, 2, 4):
            out[f"estimate {name} power={p}"] = _command(
                ["estimate", "--model", name, "--power", str(p)])
    return out


def _same(a, b) -> bool:
    """Equal, or number texts, not both integers, within ``REL_TOL`` (NaN
    equal to NaN): a count prints as an integer, a float may print as one."""
    if a == b:
        return True
    if not (isinstance(a, str) and isinstance(b, str)):
        return False
    if _INT.fullmatch(a) and _INT.fullmatch(b):
        return False
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0) or (math.isnan(x) and math.isnan(y))


def _first_row(stored: list, got: list) -> int | None:
    """Index of the first row that differs (or that one list lacks), None if none does."""
    for i, (want, have) in enumerate(itertools.zip_longest(stored, got)):
        if want is None or have is None or len(want) != len(have):
            return i
        if not all(map(_same, want, have)):
            return i
    return None


def _row(rows: list, i: int):
    return rows[i] if i < len(rows) else None


def _run_report(key: str, stored: dict, got: dict) -> str | None:
    """The fields that differ and the first deviating iterate, with cond_m at
    its stored and its recomputed theta; None when the runs match."""
    lines = [f"{f}: stored {stored[f]!r} got {got[f]!r}" for f in _FIELDS
             if not _same(stored[f], got[f])]
    i = _first_row(stored["iterates"], got["iterates"])
    if i is not None:
        model, order = build_model(key.split()[1]), int(key.split("K=")[1].split()[0])
        for label, rows in (("stored", stored["iterates"]), ("got", got["iterates"])):
            row = _row(rows, i)
            if row is None:
                lines.append(f"{label}: no row {i}")
                continue
            c = cond_m(model, order, [[float(x) for x in row[2:]]])[0]
            lines.append(f"{label} iterate {row[0]}: energy {row[1]} theta {row[2:]} "
                         f"cond_m {c:.6g}")
    return "; ".join(lines) or None


def differences(stored: dict, got: dict) -> list[str]:
    """One line per entry that differs, naming its first deviating row."""
    out = []
    for key in sorted(set(stored) | set(got)):
        want, have = stored.get(key), got.get(key)
        if want is None or have is None:
            out.append(f"{key}: {'not stored' if want is None else 'not computed'}")
        elif isinstance(want, dict):
            if (report := _run_report(key, want, have)) is not None:
                out.append(f"{key}: {report}")
        elif (i := _first_row(want, have)) is not None:
            out.append(f"{key}: row {i}: stored {_row(want, i)} got {_row(have, i)}")
    return out


def load() -> dict:
    return json.loads(PATH.read_text())


def write(entries: dict) -> None:
    """One entry per line, in key order, so a rewrite diffs entry by entry."""
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    entries = compute()
    moved = differences(load(), entries) if PATH.exists() else []
    write(entries)
    print(f"wrote {len(entries)} entries to {PATH}; {len(moved)} moved")
    for line in moved:
        print(line)
