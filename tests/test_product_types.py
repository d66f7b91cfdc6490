from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings import (
    FreqVector,
    Graph,
    classify,
    count_graphette,
    freq_brute,
    freq_fast,
    from_pruefer,
    gen_family,
    size_q,
)
from crossings import product_types
from crossings.graphs import BudgetError
from crossings.product_types import (
    GRAPHETTE_MULTIPLIERS,
    GRAPHETTE_SHAPES,
    PRODUCT_TYPES,
    TYPE_VERTEX_COUNT,
)

from conftest import refuse_q_pairs

# representative configurations, one per type (distinct letters = vertices)
REPRESENTATIVES = {
    "00": (((1, 2), (3, 4)), ((5, 6), (7, 8))),
    "24": (((1, 2), (3, 4)), ((1, 2), (3, 4))),
    "13": (((1, 2), (3, 4)), ((1, 2), (3, 5))),
    "12": (((1, 2), (3, 4)), ((1, 2), (5, 6))),
    "04": (((1, 2), (3, 4)), ((1, 3), (2, 4))),
    "03": (((1, 2), (3, 4)), ((1, 3), (4, 5))),
    "021": (((1, 2), (3, 4)), ((1, 3), (5, 6))),
    "022": (((1, 2), (3, 4)), ((1, 5), (3, 6))),
    "01": (((1, 2), (3, 4)), ((1, 5), (6, 7))),
}


class TestClassify:
    @pytest.mark.parametrize("code", PRODUCT_TYPES)
    def test_representatives(self, code):
        q1, q2 = REPRESENTATIVES[code]
        assert classify(q1, q2) == code

    @pytest.mark.parametrize("code", PRODUCT_TYPES)
    def test_symmetry(self, code):
        q1, q2 = REPRESENTATIVES[code]
        assert classify(q2, q1) == code

    def test_mirrored_021(self):
        # one edge of the FIRST pair meets both edges of the second
        assert classify(((1, 2), (3, 4)), ((1, 5), (2, 6))) == "021"

    def test_non_independent_rejected(self):
        with pytest.raises(ValueError):
            classify(((1, 2), (2, 3)), ((4, 5), (6, 7)))

    def test_type_tables(self):
        # one row per type yields all four tables, in serialization order
        assert PRODUCT_TYPES == ("00", "24", "13", "12", "04", "03", "021", "022", "01")
        assert list(TYPE_VERTEX_COUNT.values()) == [8, 4, 5, 6, 4, 5, 6, 6, 7]
        assert list(GRAPHETTE_SHAPES.values()) == [
            "L2+L2+L2+L2", "L2+L2", "L3+L2", "L2+L2+L2", "C4", "L5", "L4+L2",
            "L3+L3", "L3+L2+L2"]
        assert list(GRAPHETTE_MULTIPLIERS.values()) == [6, 1, 2, 6, 2, 2, 2, 4, 4]
        for table in (TYPE_VERTEX_COUNT, GRAPHETTE_SHAPES, GRAPHETTE_MULTIPLIERS):
            assert tuple(table) == PRODUCT_TYPES

    def test_vertex_counts_match_table(self):
        for code, (q1, q2) in REPRESENTATIVES.items():
            verts = {v for e in (*q1, *q2) for v in e}
            assert len(verts) == TYPE_VERTEX_COUNT[code]

    def test_exhaustive_on_atlas(self, atlas_graphs):
        # the nine codes cover all of Q x Q on every n <= 7 representative
        for g in atlas_graphs:
            q = [((s, t), (u, v)) for s, t, u, v in g.q_pairs()]
            for q1 in q:
                for q2 in q:
                    assert classify(q1, q2) in PRODUCT_TYPES


class TestFreqVector:
    def test_serialization_order(self):
        fv = FreqVector(f00=1, f24=2, f13=3, f12=4, f04=5, f03=6,
                        f021=7, f022=8, f01=9)
        assert tuple(fv) == (1, 2, 3, 4, 5, 6, 7, 8, 9)
        assert list(fv.as_dict()) == list(PRODUCT_TYPES)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError):
            FreqVector.from_dict({"99": 1})

    def test_getitem(self):
        assert FreqVector(f021=5)["021"] == 5

    def test_record(self):
        fv = FreqVector(1, 2, 3, 4, 5, 6, 7, 8, 9)
        assert fv == FreqVector(f00=1, f24=2, f13=3, f12=4, f04=5, f03=6,
                                f021=7, f022=8, f01=9)
        assert FreqVector() == FreqVector.from_dict({}) == (0,) * 9
        assert fv != FreqVector(f00=1)
        assert fv[0] == 1 and len(fv) == 9 and sum(fv) == 45
        assert repr(FreqVector(f24=3)) == (
            "FreqVector(f00=0, f24=3, f13=0, f12=0, f04=0, f03=0, f021=0, f022=0, f01=0)")
        with pytest.raises(AttributeError):
            fv.f00 = 0
        with pytest.raises(AttributeError):
            fv.extra = 0


APPENDIX_FIXTURES = [
    ("linear_tree", 5, {"24": 3, "13": 4, "03": 2}),
    ("linear_tree", 6, {"24": 6, "12": 6, "13": 12, "03": 4, "021": 4, "022": 4}),
    ("linear_tree", 7, {"24": 10, "13": 24, "12": 24, "03": 6,
                        "021": 12, "022": 12, "01": 12}),
    ("quasi_star", 5, {"24": 2, "13": 2}),
    ("complete", 4, {"24": 3, "04": 6}),
    ("complete", 5, {"24": 15, "13": 60, "04": 30, "03": 120}),
]


class TestFreqBrute:
    @pytest.mark.parametrize("family,n,expected", APPENDIX_FIXTURES)
    def test_golden_fixtures(self, family, n, expected):
        g = gen_family(family, n)
        assert freq_brute(g) == FreqVector.from_dict(expected)

    def test_budget_guard_names_q_squared(self, monkeypatch):
        g = gen_family("complete", 10)  # |Q| = 630
        monkeypatch.setattr(product_types, "BRUTE_Q_LIMIT", 100)
        with pytest.raises(BudgetError, match=r"396900"):
            freq_brute(g)

    def test_budget_checked_before_q_is_built(self, monkeypatch):
        g = gen_family("complete", 30)  # |Q| = 82,215
        refuse_q_pairs(monkeypatch)
        with pytest.raises(BudgetError, match="82215 exceeds the limit of 50000"):
            freq_brute(g)

    def test_diagonal_counted_once(self):
        g = gen_family("linear_tree", 4)
        fv = freq_brute(g)
        assert fv["24"] == 1 and sum(fv) == 1


class TestFreqFast:
    @pytest.mark.parametrize("family,n,expected", APPENDIX_FIXTURES)
    def test_golden_fixtures(self, family, n, expected):
        assert freq_fast(gen_family(family, n)) == FreqVector.from_dict(expected)

    def test_equals_brute_on_er(self, er_corpus):
        for key, g in er_corpus:
            assert freq_fast(g) == freq_brute(g), key

    def test_equals_brute_on_atlas(self, atlas_graphs):
        for g in atlas_graphs:
            assert freq_fast(g) == freq_brute(g)

    def test_sum_parity_invariants(self, er_corpus):
        for _, g in er_corpus:
            fv = freq_fast(g)
            q = size_q(g)
            assert sum(fv) == q * q
            assert fv["24"] == q
            assert all(fv[c] % 2 == 0 for c in PRODUCT_TYPES if c != "24")

    def test_equals_brute_on_hub_with_triangles(self):
        # K_{1,30} plus leaf-to-leaf edges: a hub of degree 30 on triangles,
        # a 4-cycle through the hub and a path among the leaves
        star = [(1, v) for v in range(2, 32)]
        g = Graph(31, star + [(2, 3), (4, 5), (5, 6), (10, 20), (20, 30)])
        fv = freq_fast(g)
        assert fv == freq_brute(g)
        assert fv["04"] > 0

    def test_trees_have_no_04(self):
        for code in product(range(1, 7), repeat=4):
            fv = freq_fast(from_pruefer(code))
            assert fv["04"] == 0


class TestCountGraphette:
    def test_paths_in_complete(self):
        # half of n!/(n-5)! five-vertex walks
        assert count_graphette(gen_family("complete", 5), "L5") == 60

    def test_paths_in_cycle(self):
        assert count_graphette(gen_family("cycle", 7), "L5") == 7

    def test_c4_in_bipartite(self):
        g = gen_family("complete_bipartite", 3, n2=3)
        assert count_graphette(g, "C4") == 9

    def test_l2l2_is_q(self, atlas_graphs):
        for g in atlas_graphs[::25]:
            assert count_graphette(g, "L2+L2") == size_q(g)

    def test_census_refuses_before_enumerating(self, monkeypatch):
        # K30: |Q| = 82,215, and about 6e8 4-matchings for L2+L2+L2+L2
        monkeypatch.setattr(product_types, "_count_matchings", None)
        with pytest.raises(BudgetError, match="82215 exceeds the limit of 20000"):
            count_graphette(gen_family("complete", 30), "L2+L2+L2+L2")

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            count_graphette(gen_family("cycle", 5), "L9")

    def test_table3_identities_on_families(self):
        for fam, n in [("cycle", 8), ("linear_tree", 8), ("complete", 7),
                       ("one_regular", 8), ("quasi_star", 7)]:
            g = gen_family(fam, n)
            fv = freq_fast(g)
            for code in PRODUCT_TYPES:
                assert fv[code] == GRAPHETTE_MULTIPLIERS[code] * count_graphette(
                    g, GRAPHETTE_SHAPES[code]
                ), (fam, n, code)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = list(combinations(range(1, n + 1), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, picks) if keep])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_graphs())
def test_freq_fast_is_brute_and_graphette_census(g):
    fv = freq_fast(g)
    assert fv == freq_brute(g)
    for code in PRODUCT_TYPES:
        assert fv[code] == GRAPHETTE_MULTIPLIERS[code] * count_graphette(
            g, GRAPHETTE_SHAPES[code]
        ), code


# graphs whose 2-core (what is left after peeling vertices of degree < 2)
# is neither empty nor the whole graph, each with its core vertices
PARTIAL_CORES = {
    "cycle_with_pendant_trees": (
        Graph(12, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
                   (1, 6), (6, 7), (6, 8), (3, 9), (9, 10), (10, 11), (4, 12)]),
        {1, 2, 3, 4, 5},
    ),
    "two_cycles_joined_by_a_bridge_path": (
        Graph(11, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6), (6, 7),
                   (7, 8), (8, 9), (9, 7), (2, 10), (10, 11)]),
        {1, 2, 3, 4, 5, 6, 7, 8, 9},
    ),
    "triangle_with_pendant_edges": (
        Graph(6, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5), (3, 6)]),
        {1, 2, 3},
    ),
    "forest_plus_k4": (
        Graph(11, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                   (5, 6), (6, 7), (6, 8), (9, 10)]),
        {1, 2, 3, 4},
    ),
    "k4_minus_edge_on_a_path_with_isolated_vertices": (
        Graph(12, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4),
                   (4, 5), (5, 6), (6, 7)]),
        {1, 2, 3, 4},
    ),
}


def two_core(g):
    """product_types._two_core on the neighbour XORs that freq_fast builds."""
    nbr_xor = [0] * (g.n + 1)
    for u, v in g.edges:
        nbr_xor[u] ^= v
        nbr_xor[v] ^= u
    return product_types._two_core(g.degrees, nbr_xor)


class TestTwoCore:
    @pytest.mark.parametrize("name", PARTIAL_CORES)
    def test_freq_fast_equals_brute(self, name):
        g, _ = PARTIAL_CORES[name]
        assert freq_fast(g) == freq_brute(g)

    @pytest.mark.parametrize("name", PARTIAL_CORES)
    def test_core_vertices(self, name):
        g, core = PARTIAL_CORES[name]
        core_deg = two_core(g)
        assert {v for v, k in enumerate(core_deg) if k} == core
        for v in core:  # degree among the core vertices
            assert core_deg[v] == len(g.adj[v] & core) >= 2

    def test_core_matches_networkx(self, atlas_graphs):
        from conftest import nx_module, to_nx

        nx = nx_module()
        for g in atlas_graphs:
            core_deg = two_core(g)
            expected = {v + 1 for v in nx.k_core(to_nx(g), 2)}
            assert {v for v, k in enumerate(core_deg) if k} == expected

    def test_four_cycles_ranked_only_in_the_core(self, monkeypatch):
        # ranking every vertex, isolated ones included, took seconds at
        # n = 10^6: only core vertices may be ranked
        ranked = []
        original = product_types._count_c4_ranked

        def spy(adj, core_deg, core):
            ranked.append(len(core))
            return original(adj, core_deg, core)

        monkeypatch.setattr(product_types, "_count_c4_ranked", spy)
        for g in (Graph(10**6, []), gen_family("star", 500),
                  from_pruefer((3, 3, 7, 1, 9, 9, 2, 5))):
            ranked.clear()
            assert freq_fast(g)["04"] == 0
            assert sum(ranked) == 0
        g, core = PARTIAL_CORES["cycle_with_pendant_trees"]
        ranked.clear()
        freq_fast(g)
        assert ranked == [len(core)]


FORESTS = {
    "path": gen_family("linear_tree", 40),
    "star": gen_family("star", 30),
    "random_tree": from_pruefer((3, 3, 7, 1, 9, 9, 2, 5, 12, 12, 4, 11)),
    "k2_components_and_isolated_vertices": Graph(
        15, [(1, 2), (4, 5), (5, 6), (5, 7), (9, 10), (12, 14)]
    ),
}


class TestForestContract:
    # a forest's moments come from its edge list and degree table alone:
    # freq_fast must not read neighbour sets when the 2-core is empty
    @pytest.mark.parametrize("name", FORESTS)
    def test_freq_fast_without_adj(self, name):
        g = FORESTS[name]
        bare = SimpleNamespace(n=g.n, m=g.m, edges=g.edges, degrees=g.degrees)
        assert freq_fast(bare) == freq_fast(g) == freq_brute(g)
        assert not any(two_core(g))


@st.composite
def partial_core_graphs(draw):
    """A small core graph with trees hung on it, plus isolated vertices."""
    k = draw(st.integers(min_value=0, max_value=6))
    pairs = list(combinations(range(1, k + 1), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, picks) if keep]
    n = k
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        if n:  # hang a new vertex on any existing one
            edges.append((draw(st.integers(min_value=1, max_value=n)), n + 1))
        n += 1
    n += draw(st.integers(min_value=0, max_value=2))
    return Graph(n, edges)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(partial_core_graphs())
def test_freq_fast_is_brute_with_pendant_trees(g):
    assert freq_fast(g) == freq_brute(g)
