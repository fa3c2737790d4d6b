"""The library's process footprint, each checked in a fresh interpreter:
importing netl1 loads numpy's modules only, and a long run does not make
the C heap give memory back and fault it in again at every step."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import netl1

SRC = str(Path(netl1.__file__).resolve().parent.parent)


def fresh_python(code: str) -> str:
    """Standard output of code run by a new interpreter that imports netl1
    from the tested sources."""
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    loaded = json.loads(fresh_python(
        "import json, sys, netl1\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"))
    assert loaded == []


#: Minor page faults allowed per communication step after warm-up. A
#: healthy criterion-3 run takes 0-33 faults in its 355 steps; a process
#: whose heap trims and re-faults at every step takes 33,000 or more.
FAULTS_PER_STEP = 5

CRITERION_3_RUNS = """
import json, resource
import netl1 as nl

prob = nl.gen_instance(nl.InstanceSpec(m=64, n=256, P=64, k=8, seed=0))
prob.x_ref = nl.solve_bp_centralized(prob.A, prob.b, tol=1e-10)
graph = nl.generate_network("lattice", 64)
coloring = nl.greedy_coloring(graph)
config, rule = nl.SolverConfig(kind="dadmm_row", rho=1.0), nl.StopRule(targets=(1e-2, 1e-5))
runs = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trace = nl.run(config, prob, graph, coloring, rule)
    runs.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, trace.comm_steps))
print(json.dumps(runs))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts glibc's heap behaviour through ru_minflt")
def test_long_run_does_not_refault_its_heap_every_step():
    warm_up, *runs = json.loads(fresh_python(CRITERION_3_RUNS))
    for faults, steps in runs:
        assert steps == 355
        assert faults <= FAULTS_PER_STEP * steps, f"{faults} minor faults in {steps} steps"


#: A tiny run, then four rounds of three 4 MB arrays freed together: the
#: minor faults of each round.
HELD_HEAP_ROUNDS = """
import json, resource
import numpy as np
import netl1 as nl

prob = nl.gen_instance(nl.InstanceSpec(m=8, n=24, P=2, k=1, seed=0))
prob.x_ref = nl.solve_bp_centralized(prob.A, prob.b, tol=1e-10)
nl.run(nl.SolverConfig(kind="dadmm_row", rho=1.0), prob, nl.generate_network("lattice", 2))
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 19) for _ in range(3)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="reads glibc's heap trimming")
def test_run_holds_the_heap_whatever_its_layout():
    # glibc's dynamic rule trims the heap top once more than twice the
    # largest freed mmap chunk lies free there: 12 MB freed above 4 MB
    # chunks is given back and faulted in again every round (1000-2000
    # faults a round). After a run, the top stays until 64 MB lie free.
    first, *rounds = json.loads(fresh_python(HELD_HEAP_ROUNDS))
    assert max(rounds) <= 50, f"{rounds} minor faults in rounds after the first"
