"""Shared corpora: the n<=7 isomorphism-class atlas (via networkx), a
graph6 file for it encoded independently of the library codec, and a fixed
Erdos-Renyi battery."""

import pytest

from crossings import Graph, erdos_renyi


def refuse_q_pairs(monkeypatch):
    """Make any enumeration of Q fail the test."""

    def refuse(self):
        raise AssertionError("enumerated Q")

    monkeypatch.setattr(Graph, "q_pairs", refuse)


def nx_module():
    return pytest.importorskip("networkx")


def to_nx(g):
    nx = nx_module()
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from((u - 1, v - 1) for u, v in g.edges)
    return G


def nx_graph6_line(g) -> str:
    """Independent re-encoder: networkx's graph6 writer."""
    nx = nx_module()
    return nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()


@pytest.fixture(scope="session")
def atlas_graphs():
    """All 1252 isomorphism representatives with 1 <= n <= 7."""
    nx = nx_module()
    out = []
    for G in nx.graph_atlas_g()[1:]:
        mapping = {v: i + 1 for i, v in enumerate(sorted(G.nodes()))}
        out.append(
            Graph(
                G.number_of_nodes(),
                [(mapping[u], mapping[v]) for u, v in G.edges()],
            )
        )
    return out


@pytest.fixture(scope="session")
def atlas_graph6_path(tmp_path_factory, atlas_graphs):
    path = tmp_path_factory.mktemp("corpus") / "atlas_n7.g6"
    path.write_text("\n".join(nx_graph6_line(g) for g in atlas_graphs) + "\n")
    return path


# the ER battery of the acceptance suite: >= 50 graphs, n <= 20,
# p in {0.1, 0.2, 0.5} (denser p paired with smaller n to keep |Q|^2 sane)
ER_BATTERY = [
    (n, p, rep)
    for p, sizes in [(0.1, range(8, 21, 2)),
                     (0.2, range(8, 21, 2)),
                     (0.5, range(8, 15))]
    for n in sizes
    for rep in range(3)
]


@pytest.fixture(scope="session")
def er_corpus():
    return [
        ((n, p, rep), erdos_renyi(n, p, seed=1009 * rep + n))
        for n, p, rep in ER_BATTERY
    ]
