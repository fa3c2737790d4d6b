"""Print one sha256 over the repr of every RunTrace of a fixed set of runs.

    python3 tests/trace_digest.py
    python3 tests/trace_digest.py --expect DIGEST [NAME=DIGEST ...]

Run from anywhere; the library is imported from ./src. The runs are the
solve phases of the benchmark's three workloads (perfbench/workloads.py)
at seeds 0 and 5, every run of a sweep included, and the seven runs of
test_solvers.KIND_COUNTS. A change that must leave every trace bitwise as
it was prints the digest its parent commit prints. The workloads' exact
counts are printed first, one line per workload and seed, with a sha256
over each workload's traces and one over the KIND_COUNTS runs (so a change
meant to move one workload shows that the others held), then the OpenBLAS
kernel set the products ran on: the digests are exact for one kernel set
only. pytest does not collect this file; BLAS runs on one thread, as in
the benchmark.

--expect checks the digests against a parent's: the overall digest, then
NAME=DIGEST for any of the per-part digests (a workload's name, or
KIND_COUNTS), each a full digest or a prefix of at least 8 hex digits.
The exit code is 1 if any of them differs, and each one that moved is
named.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import netl1 as nl  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from test_solvers import KIND_COUNTS, desk_problem  # noqa: E402

SEEDS = (0, 5)


def workload_traces(name):
    workload = workloads.WORKLOADS[name]
    for seed in SEEDS:
        outcomes = workloads.solve(workload, workloads.setup(workload, seed))
        counts = workloads.counts(outcomes)
        print(f"{name} seed {seed}: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
        yield from (trace for outcome in outcomes for trace in outcome.traces)


def kind_count_traces():
    """The runs of test_solvers.test_kind_counts_pinned."""
    g = nl.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    for kind, (rho, _, reached, _) in sorted(KIND_COUNTS.items()):
        prob = desk_problem(kind="column" if kind == "dadmm_col" else "row")
        yield nl.run(nl.SolverConfig(kind=kind, rho=rho), prob, g, nl.greedy_coloring(g),
                     nl.StopRule(targets=tuple(reached), max_comm_steps=3000))


def blas_kernels() -> str:
    """The kernel set numpy's bundled OpenBLAS picked (OPENBLAS_CORETYPE
    forces another), or unknown where that library or its query is missing."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = (), ctypes.c_char_p
    return corename().decode()


def run_on_kernels(kernels, code):
    """Run code in a new interpreter whose OpenBLAS takes the kernel set
    kernels (OPENBLAS_CORETYPE, in that interpreter only), with the library
    and the tests importable, and return the JSON list its last line of
    output prints, less its first item: blas_kernels() there, which must
    read kernels. Skips the calling test where numpy's BLAS does not report
    an OpenBLAS kernel set."""
    import pytest

    if blas_kernels() == "unknown":
        pytest.skip("numpy's BLAS does not report an OpenBLAS kernel set")
    tests = ROOT / "tests"
    env = {**os.environ, "OPENBLAS_CORETYPE": kernels,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(tests)])}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tests,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    found, *results = json.loads(done.stdout.splitlines()[-1])
    assert found == kernels
    return results


def expectations(parser, values, names):
    """--expect's values as {part name or "overall": digest prefix}."""
    expected = {}
    for value in values:
        name, _, prefix = value.rpartition("=")
        name = name or "overall"
        if name != "overall" and name not in names:
            parser.error(f"--expect: no part named {name!r}; the parts are {', '.join(names)}")
        if len(prefix) < 8 or any(ch not in "0123456789abcdef" for ch in prefix):
            parser.error(f"--expect: {value!r} needs at least 8 lowercase hex digits")
        expected[name] = prefix
    return expected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", nargs="+", default=[], metavar="DIGEST",
                        help="the overall digest, then NAME=DIGEST for per-part digests")
    args = parser.parse_args(argv)
    parts = {name: workload_traces(name) for name in workloads.WORKLOADS}
    parts["KIND_COUNTS"] = kind_count_traces()
    expected = expectations(parser, args.expect, list(parts))

    digest, digests = hashlib.sha256(), {}
    for name, traces in parts.items():
        part = hashlib.sha256()
        for trace in traces:
            digest.update(repr(trace).encode())
            part.update(repr(trace).encode())
        digests[name] = part.hexdigest()
        print(f"{name} digest {digests[name]}")
    print(f"OpenBLAS kernels: {blas_kernels()}")
    digests["overall"] = digest.hexdigest()
    print(digests["overall"])

    moved = [name for name, prefix in expected.items() if not digests[name].startswith(prefix)]
    for name in moved:
        print(f"MOVED: {name} digest {digests[name]}, expected {expected[name]}")
    if expected and not moved:
        print(f"as expected: {', '.join(expected)}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
