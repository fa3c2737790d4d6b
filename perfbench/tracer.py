"""Out-of-library tracing for the per-layer metrics.

`from .x import f` binds f in the importing module, so a function is
wrapped in the namespace where each caller looks it up: `netl1.solvers`
for the node kernels the rounds call, `netl1.bench` for the runs a sweep
starts, the `netl1` package for what the workloads call. Spans cover runs,
sweep candidates, steps and node solves; per-evaluation work (dual
evaluations, projections, outer updates, factorizations) is kept as
counters. Leaving the `with` block restores every original binding.
"""

from __future__ import annotations

import inspect
from collections import Counter
from time import perf_counter

import netl1
import netl1.bench
import netl1.engine
import netl1.nodeprob
import netl1.solvers

COLOR_SCHEDULED = ("dadmm_row", "dadmm_col")
SEQUENTIAL = ("mm_ngs",)


def flops_per_eval(rows: int, cols: int) -> int:
    """Computed from the block shape: the products A'y and Ax (4 flops per
    entry of A) plus ~13 elementwise flops per entry of x (threshold, value
    and inner products)."""
    return 4 * rows * cols + 13 * cols


def bytes_per_eval(rows: int, cols: int) -> int:
    """Computed from the block shape: A read twice, and ~8 length-cols and
    ~4 length-rows float64 vector passes."""
    return 8 * (2 * rows * cols + 8 * cols + 4 * rows)


class Tracer:
    """Context manager that wraps the library's functions while active."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, solver kind)
        self.count = Counter()  # event counts and accumulated seconds
        self.n_colors = 0
        self._open = []
        self._kinds = []
        self._sweeps = 0
        self._per_step = None  # set by make_stepper, consumed by the run around it
        self._saved = []

    # -- installation -----------------------------------------------------

    def targets(self):
        """(module, name, wrapper) for every binding the tracer replaces."""
        return [
            (netl1, "run", self._run),
            (netl1.bench, "run", self._run),
            (netl1, "rho_sweep", self._sweep),
            (netl1.engine, "make_stepper", self._make_stepper),
            (netl1.solvers, "solve_row_node", self._node_solve),
            (netl1.solvers, "solve_col_node", self._node_solve),
            (netl1.nodeprob, "bb_minimize", self._bb_minimize),
            (netl1.solvers, "affine_projection", self._timed("projection")),
            (netl1.solvers, "mm_outer_update", self._timed("outer_update")),
            (netl1.solvers, "nesterov_outer_update", self._timed("outer_update")),
            (netl1.nodeprob, "gram_factorization", self._timed("factor")),
            (netl1.bench, "gram_factorization", self._timed("factor")),
            (netl1, "solve_bp_centralized", self._timed("oracle")),
            (netl1, "connected_network", self._timed("network")),
            (netl1, "greedy_coloring", self._coloring),
        ]

    def __enter__(self):
        for module, name, make in self.targets():
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, make(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        return False

    # -- recording --------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            kind = self._kinds[-1] if self._kinds else None
            self.spans[index] = (name, start, perf_counter(), parent, kind)
            self._open.pop()

    def _timed(self, key):
        def make(original):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.count[key + "_s"] += perf_counter() - start
                    self.count[key + "s"] += 1

            return wrapper

        return make

    def _run(self, original):
        signature = inspect.signature(original)

        def run(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            self._kinds.append(bound.arguments["config"].kind)
            try:
                trace = self._span("run", original, args, kwargs)
            finally:
                self._kinds.pop()
            self.count["comm_steps"] += trace.comm_steps
            if self._sweeps:
                self.count["sweep_candidates"] += 1
            else:
                self.count["useful_steps"] += trace.comm_steps
            if self._per_step is not None:
                msgs, length, items, phases = self._per_step
                self._per_step = None
                self.count["msgs"] += msgs * trace.comm_steps
                self.count["msg_bytes"] += msgs * length * 8 * trace.comm_steps
                self.count["batch_items"] += items * trace.comm_steps
                self.count["batches"] += phases * trace.comm_steps
            return trace

        return run

    def _sweep(self, original):
        def rho_sweep(*args, **kwargs):
            self._sweeps += 1
            try:
                result = self._span("sweep", original, args, kwargs)
            finally:
                self._sweeps -= 1
            self.count["useful_steps"] += result.best_trace.comm_steps
            return result

        return rho_sweep

    def _make_stepper(self, original):
        signature = inspect.signature(original)

        def make_stepper(*args, **kwargs):
            stepper = original(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            graph, kind = bound.arguments["graph"], bound.arguments["config"].kind
            problem, coloring = bound.arguments["problem"], bound.arguments.get("coloring")
            length = problem.n if problem.partition.kind == "row" else problem.m
            if kind in COLOR_SCHEDULED:
                phases = coloring.n_colors
            elif kind in SEQUENTIAL:
                phases = graph.n_nodes
            else:
                phases = 1
            # every node sends its iterate along each incident edge per step
            self._per_step = (2 * graph.n_edges, length, graph.n_nodes, phases)
            step = stepper.step
            stepper.step = lambda k: self._span("step", step, (k,), {})
            return stepper

        return make_stepper

    def _node_solve(self, original):
        def solve(sp, *args, **kwargs):
            evals = self.count["evals"]
            solution = self._span("node_solve", original, (sp, *args), kwargs)
            rows, cols = sp.A.shape
            done = self.count["evals"] - evals
            self.count["solves"] += 1
            self.count["bb_evals"] += solution.iterations
            self.count["warm_hits"] += solution.iterations == 0
            self.count["flagged"] += not solution.converged
            self.count["flops"] += done * flops_per_eval(rows, cols)
            self.count["eval_bytes"] += done * bytes_per_eval(rows, cols)
            return solution

        return solve

    def _bb_minimize(self, original):
        def bb_minimize(value_grad_fn, x0, tol, cfg, on_safeguard=None):
            def evaluate(x):
                start = perf_counter()
                out = value_grad_fn(x)
                self.count["eval_s"] += perf_counter() - start
                self.count["evals"] += 1
                return out

            def restarted(x):
                self.count["safeguard_restarts"] += 1
                if on_safeguard is not None:
                    on_safeguard(x)

            return original(evaluate, x0, tol, cfg, on_safeguard=restarted)

        return bb_minimize

    def _coloring(self, original):
        def greedy_coloring(graph):
            start = perf_counter()
            coloring = original(graph)
            self.count["coloring_s"] += perf_counter() - start
            self.n_colors = max(self.n_colors, coloring.n_colors)
            return coloring

        return greedy_coloring

    # -- metrics ----------------------------------------------------------

    def span_seconds(self) -> tuple[dict, dict]:
        """Total seconds per span name, and seconds covered by child spans
        per span name of the parent."""
        total, covered = Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                covered[self.spans[parent][0]] += end - start
        return total, covered

    def report_only(self, reps: int) -> list[str]:
        """Lines for the report alone: the times of work some workloads never
        do (a time that is 0 on every run is not a measurement), and the node
        solve time per solver kind."""
        by_kind = Counter()
        for name, start, end, _, kind in self.spans:
            if name == "node_solve":
                by_kind[kind] += end - start
        lines = [
            f"linalg.projection_s {self.count['projection_s'] / reps:.6f} s",
            f"solvers.outer_update_s {self.count['outer_update_s'] / reps:.6f} s",
        ]
        lines += [f"nodeprob.solve_s.{kind} {value / reps:.6f} s" for kind, value in sorted(by_kind.items())]
        return lines

    def solve_metrics(self, reps: int) -> dict:
        """Per-layer metrics of the solve phase, per solve repetition."""
        c = self.count
        total, covered = self.span_seconds()
        steps = sum(1 for span in self.spans if span[0] == "step")
        evals, solves = c["evals"], c["solves"]
        step_self = total["step"] - covered["step"] - c["projection_s"]
        per = 1.0 / reps
        return {
            "nodeprob.solves": (solves * per, "count"),
            "nodeprob.solve_s": (total["node_solve"] * per, "s"),
            "nodeprob.bb_evals": (c["bb_evals"] * per, "count"),
            "nodeprob.evals_per_solve": (c["bb_evals"] / max(solves, 1), "count"),
            "nodeprob.eval_us": (1e6 * c["eval_s"] / max(evals, 1), "us"),
            "nodeprob.warm_hit_ratio": (c["warm_hits"] / max(solves, 1), "ratio"),
            "nodeprob.flagged": (c["flagged"] * per, "count"),
            "nodeprob.safeguard_restarts": (c["safeguard_restarts"] * per, "count"),
            "nodeprob.gflops_computed": (1e-9 * c["flops"] / max(c["eval_s"], 1e-12), "GFLOP/s"),
            "nodeprob.flops_per_eval_computed": (c["flops"] / max(evals, 1), "flop"),
            "nodeprob.bytes_per_eval_computed": (c["eval_bytes"] / max(evals, 1), "B"),
            "linalg.projections": (c["projections"] * per, "count"),
            "solvers.step_s": (total["step"] * per, "s"),
            "solvers.round_self_s": (step_self * per, "s"),
            "solvers.outer_updates": (c["outer_updates"] * per, "count"),
            "solvers.nodes_per_batch": (c["batch_items"] / max(c["batches"], 1), "count"),
            "solvers.msgs_per_step_computed": (c["msgs"] / max(steps, 1), "count"),
            "solvers.bytes_per_step_computed": (c["msg_bytes"] / max(steps, 1), "B"),
            "engine.run_s": (total["run"] * per, "s"),
            "engine.self_s": ((total["run"] - covered["run"]) * per, "s"),
            "engine.self_us_per_step": (1e6 * (total["run"] - covered["run"]) / max(steps, 1), "us"),
            "bench.sweep_candidates": (c["sweep_candidates"] * per, "count"),
            "bench.useful_step_ratio": (c["useful_steps"] / max(c["comm_steps"], 1), "ratio"),
            "linalg.factor_s": (c["factor_s"] * per, "s"),
        }

    def setup_metrics(self) -> dict:
        """Per-layer metrics of one traced set-up."""
        return {
            "bench.oracle_s": (self.count["oracle_s"], "s"),
            "graphs.network_s": (self.count["network_s"], "s"),
            "graphs.coloring_s": (self.count["coloring_s"], "s"),
            "graphs.n_colors": (self.n_colors, "count"),
            "linalg.factor_s": (self.count["factor_s"], "s"),
        }
