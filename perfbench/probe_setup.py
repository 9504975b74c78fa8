"""Time importing pdsvqs and building one workload's inputs in a fresh process.

    python3 perfbench/probe_setup.py SRC_DIR --model NAME
    python3 perfbench/probe_setup.py SRC_DIR --file PATH [--layers L]

Prints the wall and CPU seconds from before the import to after the inputs
are built.  Nothing but ``sys`` and ``time`` is imported before the clock starts,
so the numpy import that pdsvqs pulls in is part of the figure.
"""

import sys
import time

start, start_cpu = time.perf_counter(), time.process_time()
sys.path.insert(0, sys.argv[1])

import pdsvqs.cli  # noqa: E402  (the entry point every workload drives)
from pdsvqs.models import build_model, hardware_efficient_ansatz, load_hamiltonian  # noqa: E402

args = sys.argv[2:]
if args[0] == "--model":
    build_model(args[1])
else:
    hamiltonian = load_hamiltonian(args[1])
    if "--layers" in args:
        hardware_efficient_ansatz(hamiltonian.n_qubits, int(args[args.index("--layers") + 1]))
elapsed, elapsed_cpu = time.perf_counter() - start, time.process_time() - start_cpu
print(repr(elapsed), repr(elapsed_cpu))
