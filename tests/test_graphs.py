import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netl1.bench import NETWORK_MODELS, connected_network
from netl1.graphs import (
    Coloring,
    Graph,
    generate_network,
    greedy_coloring,
    is_connected,
    is_proper,
    load_network,
    save_network,
    watts_strogatz,
)
from netl1.linalg import InputError

from oracles import connected_graphs, floyd_warshall_reachable, incidence_oracle, laplacian_oracle


EVERY_MODEL = [
    ("erdos_renyi", {"p": 0.5}),
    ("watts_strogatz", {"n": 2, "p": 0.5}),
    ("barabasi_albert", {}),
    ("geometric", {"d": 0.5}),
    ("lattice", {}),
]


#: One sha256 per model over the edge lists of generate_network at P in
#: GOLDEN_SIZES and seeds 0-4: the network bank, then Watts-Strogatz with odd
#: neighbor counts. Neighbor counts are clamped to P - 1, as in
#: connected_network.
GOLDEN_SIZES = (4, 10, 50)
GOLDEN_NETWORKS = [
    ("erdos_renyi", {"p": 0.25},
     "98306c851c80d6795b5e235fb8053784db0f3eb597dfc22696ff29f8f18cb397"),
    ("erdos_renyi", {"p": 0.75},
     "e21fd3b90a8f63349b4151c992728a82d5e7e62e8cdcab31a3971eb584a9a658"),
    ("watts_strogatz", {"n": 4, "p": 0.6},
     "6d02a467fdecb36711568c8f2201ee1ad9a2dd3a74869c1705ac2101237d6a83"),
    ("watts_strogatz", {"n": 2, "p": 0.8},
     "f43804129951af811a529dce2a174390e70c8707ef85c0767da28df5f8a944c8"),
    ("barabasi_albert", {},
     "bccdec35e8d1a4e542e7799a08d0af2c9dbfdd163c02d60e237a0d03268fbca9"),
    ("geometric", {"d": 0.75},
     "39a1bed250e31e23038169aa8e44a891cc36efe61e5a426ec537fdd635c492eb"),
    ("lattice", {},
     "ee3cb82122ac804f6d59ed260c4549ca4d593a07977fddb7b01ed71852db90d5"),
    ("watts_strogatz", {"n": 3, "p": 0.5},
     "fe5c16638b6583602558b4d6474887e92b2eeb771d5d0387855b8020f5c8e346"),
    ("watts_strogatz", {"n": 1, "p": 0.7},
     "a77965ebae7de6265beed9edc7059868b8f392f5ba5056d6daa7edead34b0289"),
]


def random_graphs(count, P=12):
    models = [
        ("erdos_renyi", {"p": 0.3}),
        ("erdos_renyi", {"p": 0.7}),
        ("watts_strogatz", {"n": 4, "p": 0.5}),
        ("barabasi_albert", {}),
        ("geometric", {"d": 0.5}),
    ]
    for seed in range(count):
        model, params = models[seed % len(models)]
        yield generate_network(model, P, seed, **params)


class TestGenerators:
    def test_complete_graph(self):
        g = generate_network("erdos_renyi", 4, 0, p=1.0)
        assert g.n_edges == 6

    def test_empty_graph(self):
        g = generate_network("erdos_renyi", 4, 0, p=0.0)
        assert g.n_edges == 0 and not is_connected(g)

    def test_lattice_50(self):
        g = generate_network("lattice", 50)
        assert g.n_edges == 5 * 9 + 4 * 10
        coloring = greedy_coloring(g)
        assert coloring.n_colors == 2  # grids are bipartite

    def test_lattice_64(self):
        g = generate_network("lattice", 64)
        assert g.n_edges == 2 * 8 * 7
        assert is_connected(g)

    def test_barabasi_albert_tree(self):
        g = generate_network("barabasi_albert", 10, seed=7)
        assert g.n_edges == 9
        assert is_connected(g)  # one attachment per arrival gives a tree

    def test_determinism(self):
        for model, params in [
            ("erdos_renyi", {"p": 0.4}),
            ("watts_strogatz", {"n": 4, "p": 0.6}),
            ("barabasi_albert", {}),
            ("geometric", {"d": 0.6}),
        ]:
            a = generate_network(model, 15, 42, **params)
            b = generate_network(model, 15, 42, **params)
            assert a.edges == b.edges

    def test_golden_models_cover_the_network_bank(self):
        bank = [(model, params) for _, model, params in NETWORK_MODELS]
        assert [(model, params) for model, params, _ in GOLDEN_NETWORKS[: len(bank)]] == bank

    @pytest.mark.parametrize("model, params, digest", GOLDEN_NETWORKS)
    def test_golden_edge_lists(self, model, params, digest):
        # every edge each model draws, beyond the one seed per model the
        # benchmark and the acceptance runs build
        h = hashlib.sha256()
        for P in GOLDEN_SIZES:
            for seed in range(5):
                clamped = {k: min(v, P - 1) if k == "n" else v for k, v in params.items()}
                g = generate_network(model, P, seed, **clamped)
                h.update(repr((P, seed, g.edges)).encode())
        assert h.hexdigest() == digest

    def test_watts_strogatz_ring_degrees(self):
        g = watts_strogatz(14, 4, 0.0, seed=0)
        assert (g.degrees == 4).all()
        g3 = watts_strogatz(14, 3, 0.0, seed=0)
        assert (g3.degrees == 3).all()

    def test_watts_strogatz_rewired_stays_simple(self):
        for seed in range(10):
            g = watts_strogatz(16, 4, 0.8, seed=seed)
            assert len(set(g.edges)) == g.n_edges
            assert all(i != j for i, j in g.edges)

    def test_invalid_params_rejected(self):
        with pytest.raises(InputError):
            generate_network("erdos_renyi", 5, 0, p=1.5)
        with pytest.raises(InputError):
            watts_strogatz(5, 6, 0.1, seed=0)  # n >= P
        with pytest.raises(InputError):
            watts_strogatz(5, 3, 0.1, seed=0)  # odd n, odd P
        with pytest.raises(InputError):
            generate_network("geometric", 5, 0, d=0.0)
        with pytest.raises(InputError):
            generate_network("unknown", 5, 0)

    @pytest.mark.parametrize("model, params", EVERY_MODEL)
    def test_non_integer_node_count_rejected(self, model, params):
        # used to raise a TypeError from range
        with pytest.raises(InputError, match="integer count"):
            generate_network(model, 8.0, 0, **params)

    @pytest.mark.parametrize("model, params", EVERY_MODEL)
    @pytest.mark.parametrize("entry", [generate_network, connected_network])
    def test_negative_seed_rejected(self, entry, model, params):
        # numpy's generator raised its own ValueError ("expected non-negative
        # integer") for these, and the lattice took any seed
        with pytest.raises(InputError, match="seed must be a non-negative integer, got -1"):
            entry(model, 8, -1, **params)

    def test_non_integer_neighbor_count_rejected(self):
        # used to raise a TypeError from range, also through the clamp of
        # connected_network
        with pytest.raises(InputError, match="integer n"):
            generate_network("watts_strogatz", 8, n=4.0, p=0.5)
        with pytest.raises(InputError, match="integer n"):
            connected_network("watts_strogatz", 8, n=3.0, p=0.5)

    @pytest.mark.parametrize("model, params, named", [
        ("erdos_renyi", {}, "(p)"),
        ("geometric", {"p": 0.5}, "(d)"),
        ("watts_strogatz", {"n": 2}, "(n, p)"),
        ("lattice", {"p": 0.5}, "()"),
        ("barabasi_albert", {"d": 0.5}, "()"),
        ("erdos_renyi", {"p": 0.5, "d": 0.5}, "(p)"),
    ])
    def test_parameters_must_match_the_model(self, model, params, named):
        with pytest.raises(InputError, match=re.escape(f"{model} takes the parameters {named}")):
            generate_network(model, 8, 0, **params)

    @pytest.mark.parametrize("n_nodes, edges", [
        (3, [(0.5, 1.9), (1, 2)]),  # used to give the edges ((0, 1), (1, 2))
        (2.5, [(0, 1)]),  # used to give n_nodes=2.5
        (3, [("0", 1)]),
    ])
    def test_non_integer_nodes_rejected(self, n_nodes, edges):
        with pytest.raises(InputError):
            Graph.from_edges(n_nodes, edges)

    def test_numpy_integers_accepted(self):
        g = Graph.from_edges(np.int64(3), [(np.int32(0), np.int64(1)), (1, 2)])
        assert g.n_nodes == 3 and type(g.n_nodes) is int
        assert g.edges == ((0, 1), (1, 2))

    def test_self_loops_and_duplicates_dropped(self):
        g = Graph.from_edges(4, [(0, 1), (1, 0), (2, 2), (1, 3)])
        assert g.edges == ((0, 1), (1, 3))


class TestConnectivity:
    def test_two_isolated_nodes(self):
        assert not is_connected(Graph.from_edges(2, []))

    def test_lattice_connected(self):
        assert is_connected(generate_network("lattice", 64))

    def test_matches_transitive_closure_oracle(self):
        for seed in range(12):
            g = generate_network("erdos_renyi", 50, seed, p=0.25 if seed % 2 else 0.05)
            assert is_connected(g) == floyd_warshall_reachable(g.n_nodes, g.edges)


class TestColoring:
    def test_complete_graph_needs_all_colors(self):
        g = generate_network("erdos_renyi", 5, 0, p=1.0)
        assert greedy_coloring(g).n_colors == 5

    def test_star_graph(self):
        g = Graph.from_edges(6, [(0, j) for j in range(1, 6)])
        assert greedy_coloring(g).n_colors == 2

    def test_proper_on_100_random_graphs(self):
        for g in random_graphs(100):
            coloring = greedy_coloring(g)
            assert is_proper(g, coloring)
            assert coloring.n_colors <= g.degrees.max(initial=0) + 1
            assert sorted(p for cls in coloring.classes for p in cls) == list(range(g.n_nodes))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(g=connected_graphs(max_nodes=16))
    def test_greedy_coloring_property(self, g):
        # on any connected graph: no edge joins two nodes of one color, and
        # at most max degree + 1 colors are used
        coloring = greedy_coloring(g)
        assert len(coloring.colors) == g.n_nodes
        assert all(coloring.colors[i] != coloring.colors[j] for i, j in g.edges)
        max_degree = max(sum(p in edge for edge in g.edges) for p in range(g.n_nodes))
        assert coloring.n_colors <= max_degree + 1

    def test_color_class_incidence_blocks_are_diagonal(self):
        # rows of B for one color class: B_c B_c' is diagonal with the degrees
        for g in random_graphs(20):
            coloring = greedy_coloring(g)
            B = incidence_oracle(g.n_nodes, g.edges)
            for cls in coloring.classes:
                rows = B[list(cls), :]
                gram = rows @ rows.T
                np.testing.assert_allclose(gram, np.diag(g.degrees[list(cls)]), atol=1e-12)

    def test_classes_must_partition(self):
        # the classes are derived from the colors, so they partition the
        # nodes and hold each color's nodes only
        coloring = Coloring(colors=(1, 0, 1, 0, 2))
        assert coloring.classes == ((1, 3), (0, 2), (4,))
        assert coloring.n_colors == 3
        with pytest.raises(TypeError):
            Coloring(colors=(0, 1, 0, 1), classes=((0, 1), (2, 3)))

    def test_gaps_in_colors_leave_no_empty_class(self):
        coloring = Coloring(colors=(np.int64(0), 2))
        assert coloring.colors == (0, 2) and type(coloring.colors[0]) is int
        assert coloring.classes == ((0,), (1,)) and coloring.n_colors == 2

    @pytest.mark.parametrize("colors", [(0.5, 1.7, 0.2), (0, 1.0, 0), ("0", "1", "0")])
    def test_non_integer_colors_rejected(self, colors):
        # these used to be truncated or parsed silently: (0.5, 1.7, 0.2) -> (0, 1, 0)
        with pytest.raises(InputError):
            Coloring(colors)


def laplacian(g):
    """dn's Laplacian D - Adj from the graph's adjacency operator."""
    return np.diag(g.degrees.astype(float)) - g.adjacency_matrix


class TestMatrices:
    def test_incidence_example_graph(self):
        # connected 7-node, 7-edge graph; first column is edge (0, 1), and
        # the edge endpoints give the same differences as B'
        edges = [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (4, 5), (4, 6)]
        g = Graph.from_edges(7, edges)
        B = incidence_oracle(7, g.edges)
        assert B.shape == (7, 7)
        np.testing.assert_array_equal(B[:, 0], [1, -1, 0, 0, 0, 0, 0])
        assert (B.sum(axis=0) == 0).all()
        X = np.random.default_rng(3).normal(size=(7, 2))
        i, j = g.endpoints
        np.testing.assert_array_equal(X[i] - X[j], B.T @ X)
        adjacency = np.zeros((7, 7))
        adjacency[i, j] = adjacency[j, i] = 1.0
        np.testing.assert_array_equal(g.adjacency_matrix, adjacency)  # dense, symmetric, 0/1

    def test_incidence_times_transpose_is_laplacian(self):
        # B B' equals D - Adj entry for entry
        for g in random_graphs(10):
            B = incidence_oracle(g.n_nodes, g.edges)
            np.testing.assert_array_equal(laplacian(g), B @ B.T)
            np.testing.assert_array_equal(laplacian(g), laplacian_oracle(g.n_nodes, g.edges))

    def test_laplacian_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        np.testing.assert_array_equal(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_laplacian_rows_sum_to_zero(self):
        for g in random_graphs(5):
            assert np.abs(laplacian(g).sum(axis=1)).max() == 0.0


class TestNetworkFile:
    def test_roundtrip(self, tmp_path):
        g = generate_network("watts_strogatz", 10, 3, n=4, p=0.4)
        coloring = greedy_coloring(g)
        path = tmp_path / "net.txt"
        save_network(path, g, coloring)
        g2, coloring2 = load_network(path)
        assert g2.edges == g.edges and g2.n_nodes == g.n_nodes
        assert coloring2.colors == coloring.colors

    def test_roundtrip_without_colors(self, tmp_path):
        g = generate_network("lattice", 6)
        path = tmp_path / "net.txt"
        save_network(path, g)
        g2, coloring2 = load_network(path)
        assert g2.edges == g.edges and coloring2 is None

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), P=st.integers(1, 12), colored=st.booleans())
    def test_roundtrip_property(self, tmp_path_factory, data, P, colored):
        # any graph, and any proper coloring of it, reads back as written
        nodes = st.integers(0, P - 1)
        edges = data.draw(st.lists(st.tuples(nodes, nodes), max_size=3 * P))
        coloring = None
        if colored:
            coloring = Coloring(data.draw(st.lists(st.integers(-5, 50), min_size=P, max_size=P)))
            edges = [(i, j) for i, j in edges if coloring.colors[i] != coloring.colors[j]]
        g = Graph.from_edges(P, edges)
        path = tmp_path_factory.mktemp("net") / "net.txt"
        save_network(path, g, coloring)
        g2, coloring2 = load_network(path)
        assert (g2.n_nodes, g2.edges) == (g.n_nodes, g.edges)
        assert coloring2 == coloring

    def test_improper_coloring_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("2 1\n0 1\ncolors 0 0\n")
        with pytest.raises(InputError):
            load_network(path)

    def test_colors_with_gaps(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("2 1\n0 1\ncolors 0 2\n")
        _, coloring = load_network(path)
        assert coloring.classes == ((0,), (1,))

    def test_line_after_colors_rejected(self, tmp_path):
        # an edge line after the colors line used to be dropped silently
        path = tmp_path / "net.txt"
        path.write_text("3 2\n0 1\n1 2\ncolors 0 1 0\n0 2\n")
        with pytest.raises(InputError):
            load_network(path)

    @pytest.mark.parametrize("line", ["0", "0 1 2", "0 x"])
    def test_malformed_edge_line_rejected(self, tmp_path, line):
        path = tmp_path / "net.txt"
        path.write_text(f"2 1\n{line}\n")
        with pytest.raises(InputError):
            load_network(path)

    @pytest.mark.parametrize("text, bad", [
        ("3 x\n0 1\n1 2\n", "3 x"),
        ("3 2\n0 1\n1 2\ncolors 0 x 0\n", "colors 0 x 0"),
        ("3 2\n0 1\n1 2\ncolors 0 1.5 0\n", "colors 0 1.5 0"),
    ])
    def test_malformed_header_and_colors_named(self, tmp_path, text, bad):
        # these raised a bare "invalid literal for int()" ValueError
        path = tmp_path / "net.txt"
        path.write_text(text)
        with pytest.raises(InputError, match=f"line '{bad}'"):
            load_network(path)
