"""Network models, connectivity, proper colorings and graph matrices.

Graphs are simple and undirected: self-loops and duplicate edges produced
by the random models are dropped at construction. All randomness comes
from numpy's PCG64 generator seeded as default_rng([seed, model_id, stage])
so that a fixed (model, P, seed) triple yields the same edge list on every
platform. Stage 0 draws the primary structure (pair coins, placements,
attachments) and stage 1 draws rewiring decisions where the model has any.
The pair coins are one vector over the pairs i < j in row-major order, and
models other than preferential attachment, which is sequential, build
their edges from index arrays: Watts-Strogatz rewires one boolean
adjacency matrix in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import InputError


def _rng(seed: int, model: str, stage: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _MODELS[model][0], stage])


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n_nodes-1 with sorted edges (i < j)."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, n_nodes: int, edges) -> "Graph":
        """The graph of an edge list; the node count and the endpoints must
        be integers (numpy integers too)."""
        if not _is_integer(n_nodes) or n_nodes < 1:
            raise InputError("graph needs an integer count of at least one node")
        cleaned = set()
        for i, j in edges:
            if not (_is_integer(i) and _is_integer(j)):
                raise InputError(f"edge ({i},{j}) needs integer endpoints")
            i, j = int(i), int(j)
            if i == j:
                continue  # drop self-loops
            if not (0 <= i < n_nodes and 0 <= j < n_nodes):
                raise InputError(f"edge ({i},{j}) out of range for {n_nodes} nodes")
            cleaned.add((min(i, j), max(i, j)))
        return cls(n_nodes=int(n_nodes), edges=tuple(sorted(cleaned)))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.count_nonzero(self.adjacency_matrix, axis=1)

    @cached_property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge list as index arrays (i, j), i < j, so that X[i] - X[j]
        holds the edge differences x_i - x_j."""
        i, j = np.array(self.edges, dtype=int).reshape(-1, 2).T
        return i, j

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """P x P 0/1 adjacency as a dense float array; row p marks the
        neighbors of node p, and Adj @ X sums each node's neighbor rows.
        The networks here have tens of nodes, where a dense product costs
        about what a sparse one does."""
        i, j = self.endpoints
        M = np.zeros((self.n_nodes, self.n_nodes))
        M[i, j] = M[j, i] = 1.0
        return M


@dataclass(frozen=True)
class Coloring:
    """Node coloring given by each node's color, an integer (numpy integers
    too). The color classes list the nodes of each distinct color in index
    order, by ascending color, so they always partition the nodes and agree
    with colors."""

    colors: tuple[int, ...]

    def __post_init__(self):
        if not all(_is_integer(c) for c in self.colors):
            raise InputError("colors must be integers")
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(p for p, c in enumerate(self.colors) if c == color)
            for color in sorted(set(self.colors))
        )

    @property
    def n_colors(self) -> int:
        return len(self.classes)


def erdos_renyi(P: int, p: float, seed: int) -> Graph:
    """Each node pair is connected independently with probability p."""
    _check_nodes(P)
    if not 0.0 <= p <= 1.0:
        raise InputError("edge probability must lie in [0, 1]")
    i, j = np.triu_indices(P, 1)
    drawn = _rng(seed, "erdos_renyi", 0).random(i.size) < p
    return _from_pairs(P, i[drawn], j[drawn])


def watts_strogatz(P: int, n: int, p: float, seed: int) -> Graph:
    """Ring lattice with n neighbors per node, then per-edge random rewiring.

    The base lattice is the circulant graph with distances 1..n/2; for odd n
    the diameter chord i <-> i+P/2 is added (so P must be even), giving every
    node exactly n neighbors. Each original edge is rewired with probability
    p: one endpoint is kept (chosen with equal probability) and joined to a
    node picked uniformly among its current non-neighbors; rewires with no
    valid partner are skipped.
    """
    _check_nodes(P)
    if not _is_integer(n) or not 1 <= n < P:
        raise InputError("neighbor count must be an integer n with 1 <= n < P")
    if not 0.0 <= p <= 1.0:
        raise InputError("rewiring probability must lie in [0, 1]")
    if n % 2 == 1 and P % 2 == 1:
        raise InputError("odd neighbor counts need an even number of nodes")

    offset = np.abs(np.subtract.outer(np.arange(P), np.arange(P)))
    ring = np.minimum(offset, P - offset)  # distance around the ring
    # the diagonal is set too, so that no node is its own new partner
    linked = (ring <= n // 2) | ((n % 2 == 1) & (ring == P // 2))
    rng = _rng(seed, "watts_strogatz", 1)
    for i, j in np.argwhere(np.triu(linked, 1)).tolist():
        if rng.random() >= p:
            continue
        keep = i if rng.random() < 0.5 else j
        candidates = np.flatnonzero(~linked[keep])
        if candidates.size:
            new = candidates[rng.integers(candidates.size)]
            linked[i, j] = linked[j, i] = False
            linked[keep, new] = linked[new, keep] = True
    return _from_pairs(P, *np.nonzero(np.triu(linked, 1)))


def barabasi_albert(P: int, seed: int) -> Graph:
    """Preferential attachment, one edge per arriving node (yields a tree).

    Attachment probability is proportional to current degree + 1 so that the
    second node can attach to the degree-zero first node.
    """
    _check_nodes(P)
    rng = _rng(seed, "barabasi_albert", 0)
    degrees = np.zeros(P, dtype=float)
    edges = []
    for t in range(1, P):
        weights = degrees[:t] + 1.0
        target = int(rng.choice(t, p=weights / weights.sum()))
        edges.append((target, t))
        degrees[target] += 1
        degrees[t] += 1
    return Graph.from_edges(P, edges)


def geometric(P: int, d: float, seed: int) -> Graph:
    """Nodes uniform on the unit square, connected iff distance < d."""
    _check_nodes(P)
    if d <= 0:
        raise InputError("connection radius must be positive")
    pos = _rng(seed, "geometric", 0).random((P, 2))
    i, j = np.triu_indices(P, 1)
    near = np.hypot(*(pos[i] - pos[j]).T) < d
    return _from_pairs(P, i[near], j[near])


def lattice(P: int) -> Graph:
    """Rectangular grid on P nodes with shape as square as possible.

    Rows is the largest divisor of P not exceeding sqrt(P), so P=50 gives a
    5x10 grid and P=64 an 8x8 one. Nodes are numbered row-major; the grid is
    bipartite by construction.
    """
    _check_nodes(P)
    rows = max(r for r in range(1, int(np.sqrt(P)) + 1) if P % r == 0)
    grid = np.arange(P).reshape(rows, P // rows)
    return _from_pairs(P, np.r_[grid[:, :-1].ravel(), grid[:-1].ravel()],
                       np.r_[grid[:, 1:].ravel(), grid[1:].ravel()])


def _from_pairs(P: int, i: np.ndarray, j: np.ndarray) -> Graph:
    """The graph of the pairs (i[k], j[k]), passed on as Python ints, which
    the integer checks of Graph.from_edges pass in half the time numpy
    integers take."""
    return Graph.from_edges(P, zip(i.tolist(), j.tolist()))


#: Each network model by name: its id in the generator seed, its parameters
#: by name with their types (n counts neighbors), and its generator, called
#: with P, the parameters in this order, and the seed.
_MODELS = {
    "erdos_renyi": (1, {"p": float}, erdos_renyi),
    "watts_strogatz": (2, {"n": int, "p": float}, watts_strogatz),
    "barabasi_albert": (3, {}, barabasi_albert),
    "geometric": (4, {"d": float}, geometric),
    "lattice": (5, {}, lambda P, seed: lattice(P)),
}


def generate_network(model: str, P: int, seed: int = 0, **params) -> Graph:
    """Build a network from a named model.

    model is one of "erdos_renyi" (param p), "watts_strogatz" (params n, p),
    "barabasi_albert", "geometric" (param d) or "lattice", and params must
    name exactly the model's parameters. seed is a non-negative integer
    (the lattice ignores it). The result may be disconnected; callers that
    need connectivity should check and retry with a different seed.
    """
    if not _is_integer(seed) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    if model not in _MODELS:
        raise InputError(f"unknown network model {model!r}")
    _, names, generator = _MODELS[model]
    if set(params) != set(names):
        raise InputError(f"{model} takes the parameters ({', '.join(names)}), "
                         f"got ({', '.join(sorted(params))})")
    return generator(P, *(params[name] for name in names), seed)


def is_connected(g: Graph) -> bool:
    """Whether every node is reachable from node 0: the reached set grows by
    its neighbors, one product with the adjacency matrix at a time, until it
    stops growing."""
    reached = np.zeros(g.n_nodes, dtype=bool)
    reached[0] = True
    while True:
        grown = reached | (g.adjacency_matrix @ reached > 0)
        if (grown == reached).all():
            return bool(reached.all())
        reached = grown


def greedy_coloring(g: Graph) -> Coloring:
    """Proper coloring by the descending-degree greedy heuristic.

    Nodes are processed by decreasing degree (ties by index) and each gets
    the smallest color absent among its already-colored neighbors, so the
    result uses at most max degree + 1 colors.
    """
    order = sorted(range(g.n_nodes), key=lambda p: (-g.degrees[p], p))
    colors = [-1] * g.n_nodes
    for p in order:
        used = {colors[j] for j in np.flatnonzero(g.adjacency_matrix[p]) if colors[j] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[p] = c
    return Coloring(colors)


def is_proper(g: Graph, coloring: Coloring) -> bool:
    i, j = g.endpoints
    colors = np.array(coloring.colors)
    return bool((colors[i] != colors[j]).all())


def save_network(path, g: Graph, coloring: Coloring | None = None) -> None:
    """Write the text format: 'P E' header, one 'i j' line per edge, and an
    optional trailing 'colors c_0 ... c_{P-1}' line."""
    lines = [f"{g.n_nodes} {g.n_edges}"]
    lines += [f"{i} {j}" for i, j in g.edges]
    if coloring is not None:
        lines.append("colors " + " ".join(str(c) for c in coloring.colors))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _integers(line: list[str], count: int, form: str, skip: int = 0) -> list[int]:
    """The tokens of one line of a network file, after the first skip, as
    count integers, or an InputError that names the line and the form it
    must have."""
    try:
        values = [int(token) for token in line[skip:]]
    except ValueError:
        values = []
    if len(values) != count:
        raise InputError(f"line {' '.join(line)!r} must be {form}")
    return values


def load_network(path) -> tuple[Graph, Coloring | None]:
    """Read the text format of save_network."""
    with open(path) as fh:
        tokens = [line.split() for line in fh if line.strip()]
    if not tokens:
        raise InputError("network file must start with a 'P E' line")
    P, E = _integers(tokens[0], 2, "a 'P E' header of two integers")
    if len(tokens) < 1 + E:
        raise InputError(f"network file declares {E} edges but has fewer lines")
    edges = [_integers(line, 2, "an edge 'i j' of two integers") for line in tokens[1 : 1 + E]]
    g = Graph.from_edges(P, edges)
    coloring = None
    if len(tokens) > 1 + E:
        tail = tokens[1 + E]
        if tail[0] != "colors" or len(tokens) > 2 + E:
            raise InputError("the one line after the edges must be 'colors c_0 ... c_{P-1}'")
        coloring = Coloring(_integers(tail, P, f"'colors' and {P} integer colors", skip=1))
        if not is_proper(g, coloring):
            raise InputError("network file carries an improper coloring")
    return g, coloring


def _check_nodes(P: int) -> None:
    if not _is_integer(P) or P < 2:
        raise InputError("network models need an integer count of at least 2 nodes")
