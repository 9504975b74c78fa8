"""Outside-in span tracing of the pdsvqs layers.

Each span wraps one function where the calling modules bind it (for example
``pdsvqs.optim.apply_circuit`` and ``pdsvqs.moments.apply_circuit`` both point
at the wrapper of ``statesim.apply_circuit``), so the program itself is not
edited.  A span records its name, start, end, parent span and self time (its
duration minus the time covered by its child spans).  Spans stay in memory
until the run ends.  Counters are computed in the same wrappers, from the
arguments and return values of the wrapped calls.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

# (span name, defining module, function names it covers).  A missing private
# name leaves its span at zero calls instead of failing the run.
SPANS = (
    ("statesim.apply_circuit", "statesim", ("apply_circuit",)),
    ("statesim.state_derivative", "statesim", ("state_derivative",)),
    ("statesim.apply_pauli_sum", "statesim", ("apply_pauli_sum",)),
    ("statesim.fidelity", "statesim", ("fidelity",)),
    ("statesim.exact_eigensystem", "statesim", ("exact_eigensystem",)),
    ("moments.values", "moments", ("_values_from_state",)),
    ("moments.grad_rows", "moments", ("_analytic_rows", "_shift_rows")),
    ("moments.hamiltonian_powers", "moments", ("hamiltonian_powers",)),
    ("moments.sampled_moments", "moments", ("sampled_moments",)),
    ("moments.union_of_powers", "moments", ("union_of_powers",)),
    ("pauli.qwc_groups", "pauli", ("qwc_groups",)),
    ("pds.pds_solve", "pds", ("pds_solve",)),
    ("pds.pds_gradient", "pds", ("pds_gradient",)),
    ("optim.run", "optim", ("run",)),
    ("optim.metric", "optim", ("metric",)),
    ("optim.step", "optim", ("step",)),
    ("optim.sampled_table", "optim", ("_sampled_table",)),
    ("measure.reduction_stats", "measure", ("reduction_stats",)),
    ("measure.estimate_measurements", "measure", ("estimate_measurements",)),
    ("models.build_model", "models", ("build_model",)),
    ("models.load_hamiltonian", "models", ("load_hamiltonian",)),
    ("cli.main", "cli", ("main",)),
)

COUNTERS = (
    "statesim.terms_applied",
    "statesim.circuit_passes",
    "pauli.strings_expanded",
    "pauli.groups",
    "moments.shots_drawn",
    "pds.regularized",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_terms(tracer, args, kwargs, result):
    tracer.counters["statesim.terms_applied"] += len(_arg(args, kwargs, 1, "s"))


def _count_circuit(tracer, args, kwargs, result):
    tracer.counters["statesim.circuit_passes"] += 1


def _count_derivative(tracer, args, kwargs, result):
    # state_derivative re-simulates the circuit once per parameter occurrence.
    circuit = _arg(args, kwargs, 0, "circuit")
    param = _arg(args, kwargs, 2, "param")
    tracer.counters["statesim.circuit_passes"] += len(circuit.occurrences(param))


def _count_powers(tracer, args, kwargs, result):
    tracer.counters["pauli.strings_expanded"] += sum(len(p) for p in result[1:])


def _count_groups(tracer, args, kwargs, result):
    tracer.counters["pauli.groups"] += len(result)
    tracer.last_group_count = len(result)


def _count_shots(tracer, args, kwargs, result):
    # One multinomial draw of `shots` per group of the most recent grouping.
    shots = _arg(args, kwargs, 2, "shots")
    tracer.counters["moments.shots_drawn"] += shots * tracer.last_group_count


def _count_regularized(tracer, args, kwargs, result):
    tracer.counters["pds.regularized"] += bool(result.regularization_applied)


HOOKS = {
    "statesim.apply_pauli_sum": _count_terms,
    "statesim.apply_circuit": _count_circuit,
    "statesim.state_derivative": _count_derivative,
    "moments.hamiltonian_powers": _count_powers,
    "pauli.qwc_groups": _count_groups,
    "moments.sampled_moments": _count_shots,
    "pds.pds_solve": _count_regularized,
}


class Tracer:
    """Wraps the pdsvqs functions in SPANS and records one span per call."""

    def __init__(self) -> None:
        self.names = [name for name, _, _ in SPANS]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.last_group_count = 0
        # Column store of finished spans: span id, name index, parent span id
        # (-1 for a root), start, end, self time.
        self.span_id = array("q")
        self.name_idx = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._next_id = 0
        # Open spans: [span id, start, time covered by children].
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, hook):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self._record(span_id, index, parent, frame[1], end, duration - frame[2])
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _record(self, span_id, index, parent, start, end, self_time) -> None:
        # Children finish before their parents, so rows are in end order and
        # the span id is stored with each row.
        self.span_id.append(span_id)
        self.name_idx.append(index)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.self_time.append(self_time)

    def install(self) -> None:
        """Patch every pdsvqs module attribute bound to a traced function."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "pdsvqs" or name.startswith("pdsvqs."))
        ]
        for index, (span, home, attrs) in enumerate(SPANS):
            owner = sys.modules.get(f"pdsvqs.{home}")
            for attr in attrs:
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(index, fn, HOOKS.get(span))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patched.append((module, key, fn))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Calls and summed self time per span name."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for index, self_time in zip(self.name_idx, self.self_time):
            entry = out[self.names[index]]
            entry["calls"] += 1
            entry["self_s"] += self_time
        return out

    def save(self, path: Path) -> None:
        """Write every span as one gzipped tab-separated row, parents by id."""
        lines = ["span_id\tparent_id\tname\tstart_s\tend_s\tself_s"]
        for row in range(len(self.name_idx)):
            lines.append(
                f"{self.span_id[row]}\t{self.parent[row]}\t{self.names[self.name_idx[row]]}"
                f"\t{self.start[row]:.9f}\t{self.end[row]:.9f}\t{self.self_time[row]:.9f}"
            )
        with gzip.open(path, "wt") as out:
            out.write("\n".join(lines) + "\n")
