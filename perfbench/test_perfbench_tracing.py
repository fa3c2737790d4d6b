"""Traced-run integrity: tracing measures the library without changing it."""

import numpy as np

import netl1 as nl
import run
import workloads as wl
from tracer import Tracer

#: A small instance through every code path the tracer wraps: a rho sweep,
#: a double-looped kind with outer updates, projections and the column kernel.
TINY = wl.Workload(
    spec=nl.InstanceSpec(m=8, n=32, P=4, k=1, seed=2),
    networks={"ring": ("watts_strogatz", 4, 0, {"n": 2, "p": 0.0}), "lattice": ("lattice", 4, 0, {})},
    jobs=(
        wl.Job("dadmm_row", None, (1e-2, 1e-4), "row", "ring", max_steps=2000),
        wl.Job("mm_ngs", 10.0, (1e-2, 1e-3), "row", "ring", max_steps=2000),
        wl.Job("subgradient", 1.0, (1e-1,), "row", "ring", max_steps=2000),
        wl.Job("dadmm_col", 1.0, (1e-2, 1e-4), "column", "lattice", max_steps=2000),
    ),
)


def bindings():
    return [getattr(module, name) for module, name, _ in Tracer().targets()]


def test_untraced_run_uses_originals_and_traced_counts_match():
    originals = bindings()
    inputs = wl.setup(TINY, seed=0)
    tracer = Tracer()
    with tracer:
        assert all(now is not before for now, before in zip(bindings(), originals))
        traced = wl.solve(TINY, inputs)
    assert all(now is before for now, before in zip(bindings(), originals))

    recorded = (len(tracer.spans), dict(tracer.count))
    untraced = wl.solve(TINY, inputs)
    assert (len(tracer.spans), dict(tracer.count)) == recorded

    expected = wl.counts(untraced)
    assert wl.counts(traced) == expected
    assert sum(1 for span in tracer.spans if span[0] == "step") == expected["comm_steps"]
    assert tracer.count["bb_evals"] == expected["bb_evals"]
    assert tracer.count["outer_updates"] > 0 and tracer.count["projections"] > 0
    assert tracer.count["sweep_candidates"] == len(nl.RHO_GRID)
    for outcome in untraced:
        assert wl.outcome_failure(outcome) is None
        assert wl.replay_failure(inputs, outcome) is None


def test_seeded_inputs_are_symmetric_images():
    base = nl.gen_instance(TINY.spec)
    A, b = wl.symmetric_image(base.A, base.b, 0)
    assert A is base.A and b is base.b
    A1, b1 = wl.symmetric_image(base.A, base.b, 1)
    assert not np.array_equal(A1, base.A)
    x0 = nl.solve_bp_centralized(base.A, base.b, tol=1e-10)
    x1 = nl.solve_bp_centralized(A1, b1, tol=1e-10)
    assert abs(np.abs(x1).sum() - np.abs(x0).sum()) <= 1e-8


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, percentile = run.tail([float(v) for v in range(20)])
    assert (value, percentile) == (9.0, 50.0)
