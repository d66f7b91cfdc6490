import math
import random
from itertools import combinations, product
from operator import add
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings import (
    FreqVector,
    Graph,
    classify,
    count_graphette,
    erdos_renyi,
    freq_brute,
    freq_fast,
    from_pruefer,
    gen_family,
    size_q,
)
from crossings import census, product_types
from crossings.census import BRUTE_Q_LIMIT, GRAPHETTE_MULTIPLIERS, GRAPHETTE_SHAPES
from crossings.graphs import BudgetError
from crossings.product_types import (
    PRODUCT_TYPES,
    TYPE_VERTEX_COUNT,
    _freq_from_sums,
    _graph_sums,
)

from conftest import refuse_q_pairs
from freq_loops import (CORRUPTED_DEGREES, corrupted, freq_loops, outcome,
                        required_outcome)

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
        monkeypatch.setattr(census, "BRUTE_Q_LIMIT", 100)
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

    def test_c4_work_is_bounded_by_the_wedges(self, monkeypatch):
        # one 4-cycle among 20,000 vertices: visiting every vertex pair made
        # about 2e8 set intersections; the wedges are 8 steps
        n = 20_000
        steps = 0

        class Counted(set):
            def step(self):
                nonlocal steps
                steps += 1
                if steps > 2 * n:
                    raise AssertionError(f"over {2 * n} neighbour-set reads")

            def __iter__(self):
                self.step()
                return super().__iter__()

            def __and__(self, other):
                self.step()
                return super().__and__(other)

        original = census._neighbours
        monkeypatch.setattr(census, "_neighbours",
                            lambda g: [Counted(s) for s in original(g)])
        g = Graph(n, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert count_graphette(g, "C4") == 1
        assert steps <= n + 2 * g.m

    def test_census_refuses_before_enumerating(self, monkeypatch):
        # K30: |Q| = 82,215, and about 6e8 4-matchings for L2+L2+L2+L2
        monkeypatch.setattr(census, "_count_matchings", None)
        with pytest.raises(BudgetError, match="82215 exceeds the limit of 20000"):
            count_graphette(gen_family("complete", 30), "L2+L2+L2+L2")

    @pytest.mark.parametrize("shape", ["L3+L2", "L3+L3", "L3+L2+L2"])
    def test_census_refuses_many_3_vertex_paths(self, monkeypatch, shape):
        # star(300): |Q| = 0 passes CENSUS_Q_LIMIT, but its C(299, 2) = 44,551
        # 3-vertex paths would take L3+L3 about 10^9 steps
        monkeypatch.setattr(census, "_neighbours", None)
        with pytest.raises(BudgetError, match="^3-vertex paths for the graphette "
                                              "census: 44551 exceeds the limit of 10000$"):
            count_graphette(gen_family("star", 300), shape)

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
    """product_types._two_core on the neighbour XORs that _graph_sums builds."""
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
            nbrs = {w for e in g.edges if v in e for w in e if w != v}
            assert core_deg[v] == len(nbrs & core) >= 2

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
        original = product_types._rank_core

        def spy(edges, core_deg):
            order, nbr_ranks = original(edges, core_deg)
            ranked.append(order)
            assert len(nbr_ranks) == len(order)
            return order, nbr_ranks

        monkeypatch.setattr(product_types, "_rank_core", spy)
        for g in (Graph(10**6, []), gen_family("star", 500),
                  from_pruefer((3, 3, 7, 1, 9, 9, 2, 5))):
            ranked.clear()
            assert freq_fast(g)["04"] == 0
            assert sum(map(len, ranked)) == 0
        g, core = PARTIAL_CORES["cycle_with_pendant_trees"]
        ranked.clear()
        freq_fast(g)
        assert [sorted(order) for order in ranked] == [sorted(core)]

    def test_rank_lists(self):
        # ranked by (core degree, label); each core edge listed from both
        # ends, every list sorted
        g = hub_heavy()
        core_deg = two_core(g)
        order, nbr_ranks = product_types._rank_core(g.edges, core_deg)
        assert order == sorted((v for v, k in enumerate(core_deg) if k),
                               key=lambda v: (core_deg[v], v))
        rank = {v: r for r, v in enumerate(order)}
        core_edges = {frozenset(e) for e in g.edges if set(e) <= rank.keys()}
        assert [len(nbrs) for nbrs in nbr_ranks] == [core_deg[v] for v in order]
        assert {frozenset((order[r], order[w]))
                for r, nbrs in enumerate(nbr_ranks) for w in nbrs} == core_edges
        assert all(nbrs == sorted(nbrs) for nbrs in nbr_ranks)


FORESTS = {
    "path": gen_family("linear_tree", 40),
    "star": gen_family("star", 30),
    "random_tree": from_pruefer((3, 3, 7, 1, 9, 9, 2, 5, 12, 12, 4, 11)),
    "k2_components_and_isolated_vertices": Graph(
        15, [(1, 2), (4, 5), (5, 6), (5, 7), (9, 10), (12, 14)]
    ),
}


# graphs with a non-empty 2-core
CORED = {
    **{name: g for name, (g, _) in PARTIAL_CORES.items()},
    "k4": gen_family("complete", 4),
    "erdos_renyi_14": erdos_renyi(14, 0.4, 5),
}


class TestForestContract:
    # the moments come from the edge list and degree table alone: freq_fast
    # builds any neighbour sets it needs itself, and none for a forest,
    # whose 2-core is empty
    @pytest.mark.parametrize("name", [*FORESTS, *CORED])
    def test_freq_fast_without_adj(self, name):
        g = {**FORESTS, **CORED}[name]
        bare = SimpleNamespace(n=g.n, m=g.m, edges=g.edges, degrees=g.degrees)
        assert freq_fast(bare) == freq_fast(g) == freq_brute(g)
        assert any(two_core(g)) == (name in CORED)


def relabel(g, seed):
    """g with its vertices renamed by a seeded random permutation."""
    perm = list(range(1, g.n + 1))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def gnm(n, m, seed):
    """A uniform random graph with n vertices and m edges."""
    pairs = list(combinations(range(1, n + 1), 2))
    return Graph(n, random.Random(seed).sample(pairs, m))


def hub_heavy():
    """Five hubs joined to every other of 200 vertices, over a sparse random graph:
    many vertices tie in core degree, so the label breaks the ties."""
    hubs = [(h, v) for h in range(1, 6) for v in range(h + 1, 201)]
    return Graph(200, hubs + list(gnm(200, 300, 11).edges))


class TestRelabellingInvariance:
    # far above BRUTE_Q_LIMIT, where no oracle reaches: the counts must not
    # depend on the labels, which break the (core degree, label) ties of
    # the 4-cycle ranking
    @pytest.mark.parametrize("make", [
        lambda: gnm(300, 3000, 7),
        hub_heavy,
        lambda: gen_family("complete_bipartite", 30, n2=31),
    ], ids=["gnm_300_3000", "hub_heavy", "k_30_31"])
    def test_freq_fast_invariant(self, make):
        g = make()
        assert size_q(g) > 5 * BRUTE_Q_LIMIT
        fv = freq_fast(g)
        assert fv["04"] > 0
        for seed in range(3):
            assert freq_fast(relabel(g, seed)) == fv

    def test_four_cycles_of_k_30_31(self):
        # a 4-cycle of K_{a,b} is two vertices from each part
        g = relabel(gen_family("complete_bipartite", 30, n2=31), 1)
        assert freq_fast(g)["04"] == 2 * math.comb(30, 2) * math.comb(31, 2)


def random_tree(n, seed):
    """A random tree on n vertices, each vertex after the first hung on an
    earlier one."""
    rng = random.Random(seed)
    return Graph(n, [(rng.randint(1, v - 1), v) for v in range(2, n + 1)])


def cycle_with_long_pendant_trees():
    """A 100-cycle with a 20-vertex random tree hung on every fifth vertex,
    and ten isolated vertices."""
    edges = [(v, v % 100 + 1) for v in range(1, 101)]
    n = 100
    for root in range(1, 101, 5):
        tree = random_tree(20, root).edges  # vertex 1 of the tree is the root
        edges += [(root if u == 1 else n + u - 1, n + v - 1) for u, v in tree]
        n += 19
    return Graph(n + 10, edges)


class TestLoopReference:
    # the vertex and edge terms as Python loops, far above BRUTE_Q_LIMIT
    @pytest.mark.parametrize("make", [
        lambda: random_tree(10_001, 3),
        lambda: gnm(300, 3000, 7),
        hub_heavy,
        cycle_with_long_pendant_trees,
    ], ids=["tree_10k_edges", "gnm_300_3000", "hub_heavy",
            "cycle_with_long_pendant_trees"])
    def test_freq_fast_equals_loops(self, make):
        g = make()
        assert size_q(g) > BRUTE_Q_LIMIT
        assert freq_fast(g) == freq_loops(g)

    @pytest.mark.parametrize("family,v,delta", CORRUPTED_DEGREES)
    def test_self_check_raises_where_the_loops_raise(self, family, v, delta):
        assert (outcome(freq_fast, corrupted(family, v, delta))
                == required_outcome(family, v, delta))


def cycle_sums_from_matrix(g):
    """(T3, W2, C4) from the adjacency matrix A and the one product A^2,
    with no ranking and no neighbour lists. A^2 is taken in float64, exact
    while its entries, at most n, stay below 2^53; the rest in int64.

        T3 = tr(A^3)/2 = sum(A^2 o A)/2
        W2 = sum_v k_v (A^3)_vv, the row sums of A^2 o A weighted by degree
        C4 = (sum(A^2 o A^2) - 2 K2 + 2m)/8
    """
    np = pytest.importorskip("numpy")
    a = np.zeros((g.n, g.n))
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2) - 1
    a[ends[:, 0], ends[:, 1]] = a[ends[:, 1], ends[:, 0]] = 1
    a2 = (a @ a).astype(np.int64)
    adj = a.astype(np.int64)
    k = adj.sum(axis=1)
    closed = (a2 * adj).sum(axis=1)  # (A^3)_vv, twice the triangles at v
    k2 = int(k @ k)
    tri, rem = divmod(int(closed.sum()), 2)
    c4, rem4 = divmod(int((a2 * a2).sum()) - 2 * k2 + 2 * g.m, 8)
    assert rem == rem4 == 0
    return tri, int(k @ closed), c4


class TestCycleSumsMatrixOracle:
    # T3, W2 and C4 up to m = 20,000, far above BRUTE_Q_LIMIT, from matrix
    # products that share no code with the ranked pass
    @pytest.mark.parametrize("make", [
        lambda: erdos_renyi(500, 0.16, 23),
        hub_heavy,
        lambda: gen_family("complete", 40),
        lambda: gen_family("complete_bipartite", 18, n2=18),
    ], ids=["er_500_0.16", "hub_heavy", "k_40", "k_18_18"])
    def test_graph_sums_equal_matrix_products(self, make):
        g = make()
        expected = cycle_sums_from_matrix(g)
        assert expected[2] > 0
        assert _graph_sums(g)[7:] == expected

    def test_known_counts(self):
        # K_40: C(40,3) triangles, T3 three per triangle, each edge of degree
        # 39 in 38 triangles; 3 C(40,4) 4-cycles. K_{18,18}: no triangle,
        # C(18,2)^2 4-cycles
        assert cycle_sums_from_matrix(gen_family("complete", 40)) == (
            3 * math.comb(40, 3), 780 * 38 * 78, 3 * math.comb(40, 4))
        assert cycle_sums_from_matrix(gen_family("complete_bipartite", 18, n2=18)) == (
            0, 0, math.comb(18, 2) ** 2)


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


def disjoint_union(g, h):
    """g beside h, h's vertices renumbered after g's."""
    return Graph(g.n + h.n, [*g.edges, *((u + g.n, v + g.n) for u, v in h.edges)])


def sums_of_parts(g, h):
    return tuple(map(add, _graph_sums(g), _graph_sums(h)))


class TestSumsAddOverDisjointUnions:
    # every sum of _graph_sums adds over a disjoint union, so a sums pass
    # run per part or per chunk may add its results: no term that depends
    # on the whole graph, such as one in m^2, may sit in the sums pass
    @pytest.mark.parametrize("make", [
        lambda: (erdos_renyi(2000, 0.01, 1), erdos_renyi(1500, 0.02, 2)),
        lambda: (random_tree(10_001, 3), gnm(300, 3000, 7)),
        lambda: (Graph(5000, []), cycle_with_long_pendant_trees()),
    ], ids=["er_2000_er_1500", "tree_10k_edges_gnm_300_3000",
            "isolated_vertices_cycle_with_long_pendant_trees"])
    def test_far_above_brute_q_limit(self, make):
        g, h = make()
        union = disjoint_union(g, h)
        assert size_q(union) > BRUTE_Q_LIMIT
        assert _freq_from_sums(sums_of_parts(g, h)) == freq_fast(union)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(partial_core_graphs(), partial_core_graphs())
    def test_small_unions_equal_brute(self, g, h):
        union = disjoint_union(g, h)
        assert _freq_from_sums(sums_of_parts(g, h)) == freq_fast(union) == freq_brute(union)
