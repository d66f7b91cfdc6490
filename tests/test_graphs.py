import math
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crossings import (
    Graph,
    degree_stats,
    erdos_renyi,
    format_edge_list,
    from_graph6,
    from_pruefer,
    gen_family,
    is_q_zero,
    parse_arrangement,
    parse_edge_list,
    q_edge,
    size_q,
)
from crossings.graphs import BudgetError, GraphFormatError, read_input_file

from conftest import nx_graph6_line


def brute_size_q(g):
    # oracle: O(m^2) double loop over edge pairs
    return sum(
        1
        for (a, b), (c, d) in combinations(g.edges, 2)
        if len({a, b, c, d}) == 4
    )


class TestFromEdgeList:
    """The Graph constructor's checks and deduplication of vertex pairs."""

    def test_basic(self):
        g = Graph(4, [(1, 2), (3, 4)])
        assert g.n == 4 and g.m == 2

    def test_dedup_unordered(self):
        g = Graph(4, [(1, 2), (2, 1)])
        assert g.m == 1

    def test_out_of_range_names_offending_pair(self):
        with pytest.raises(ValueError, match="pair #0"):
            Graph(3, [(1, 4)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="pair #1"):
            Graph(3, [(1, 2), (2, 2)])

    @pytest.mark.parametrize("pair", [(1, 9), (9, 1), (0, 2), (2, 0)])
    def test_out_of_range_message(self, pair):
        # the index counts every pair given before, duplicates included
        u, v = pair
        with pytest.raises(ValueError) as err:
            Graph(3, [(1, 2), (2, 1), pair])
        assert str(err.value) == f"pair #2 ({u},{v}) out of range 1..3"

    @pytest.mark.parametrize("before", [[(1, 2), (2, 3)], [(2, 1), (3, 2)]])
    def test_self_loop_message(self, before):
        with pytest.raises(ValueError) as err:
            Graph(3, before + [(3, 3)])
        assert str(err.value) == "pair #2 is a self-loop (3,3)"

    def test_self_loop_tested_before_range(self):
        with pytest.raises(ValueError) as err:
            Graph(3, [(1, 2), (9, 9)])
        assert str(err.value) == "pair #1 is a self-loop (9,9)"

    def test_duplicates_in_both_orientations_collapse(self):
        g = Graph(4, [(3, 4), (2, 1), (4, 3), (1, 2), (3, 4), (1, 3)])
        assert g.edges == ((1, 2), (1, 3), (3, 4))
        assert g.degrees == (0, 2, 1, 2, 1)

    def test_generator_input(self):
        g = Graph(4, ((v, v + 1) for v in (3, 1, 2, 1)))
        assert g.edges == ((1, 2), (2, 3), (3, 4))
        assert g == Graph(4, [(1, 2), (2, 3), (3, 4)])

    def test_degree_sum_is_2m(self):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (5, 6)])
        assert sum(g.degrees) == 2 * g.m

    def test_degree_table_counts_isolated_vertices(self):
        g = Graph(5, [(1, 2), (2, 3)])
        assert g.degrees == (0, 1, 2, 1, 0, 0)

    def test_holds_only_its_edges_and_degrees(self):
        # neighbour sets are built by the code that reads them, over the
        # vertices it reads; a Graph keeps none and writes nothing later
        g = Graph(5, [(1, 2), (2, 3)])
        assert Graph.__slots__ == ("n", "edges", "degrees")
        assert not hasattr(g, "adj")
        with pytest.raises(AttributeError, match="immutable"):
            g.edges = ()

    def test_memory_of_isolated_vertices(self):
        # one set per vertex took 436 MB at n = 10^6; a Graph keeps only
        # the degree table of n + 1 references beside its edges
        import tracemalloc

        tracemalloc.start()
        try:
            g = Graph(10**6, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 10**6 and g.m == 0 and g.degrees[-1] == 0
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestVertexLimit:
    def test_graph_at_and_above_limit(self, monkeypatch):
        from crossings import graphs

        monkeypatch.setattr(graphs, "MAX_VERTICES", 5)
        assert Graph(5, [(1, 5)]).n == 5
        with pytest.raises(BudgetError, match="vertices: 6 exceeds the limit of 5"):
            Graph(6, [])

    def test_generators_check_before_building(self, monkeypatch):
        from crossings import graphs

        monkeypatch.setattr(graphs, "MAX_VERTICES", 5)
        assert gen_family("complete", 5).m == 10
        for args, kwargs in [(("complete", 6), {}), (("cycle", 6), {}),
                             (("complete_bipartite", 3), {"n2": 3})]:
            with pytest.raises(BudgetError):
                gen_family(*args, **kwargs)

    def test_erdos_renyi_refuses_before_drawing(self, monkeypatch):
        import numpy as np

        def no_draws(*args, **kwargs):
            raise AssertionError("drew random numbers")

        monkeypatch.setattr(np.random, "Generator", no_draws)
        with pytest.raises(BudgetError):
            erdos_renyi(10**9, 0.0, 0)


class TestEdgeLimit:
    def test_generators_at_and_above_limit(self, monkeypatch):
        from crossings import graphs

        monkeypatch.setattr(graphs, "MAX_EDGES", 9)
        assert gen_family("complete_bipartite", 3, n2=3).m == 9
        # the other families have no more edges than vertices
        assert gen_family("cycle", 40).m == 40
        monkeypatch.setattr(graphs, "Graph", None)  # refused before building
        for args, kwargs, need in [(("complete", 5), {}, 10),
                                   (("complete_bipartite", 2), {"n2": 5}, 10)]:
            with pytest.raises(BudgetError, match=f"edges: {need} exceeds the limit of 9"):
                gen_family(*args, **kwargs)

    def test_erdos_renyi_at_and_above_limit(self, monkeypatch):
        from crossings import graphs

        g = erdos_renyi(30, 0.5, seed=3)
        monkeypatch.setattr(graphs, "MAX_EDGES", g.m)
        assert erdos_renyi(30, 0.5, seed=3) == g
        monkeypatch.setattr(graphs, "MAX_EDGES", g.m - 1)
        with pytest.raises(BudgetError, match=f"edges drawn: {g.m} exceeds the limit of "
                                              f"{g.m - 1}"):
            erdos_renyi(30, 0.5, seed=3)

    def test_erdos_renyi_refuses_at_the_first_row_over(self, monkeypatch):
        # the edges kept never pass the limit: the row that would pass it
        # is refused before its edges are added, and no graph is built
        from crossings import graphs

        monkeypatch.setattr(graphs, "MAX_EDGES", 1000)
        monkeypatch.setattr(graphs, "Graph", None)
        with pytest.raises(BudgetError) as exc:
            erdos_renyi(400, 0.5, seed=1)
        need = int(str(exc.value).split(": ")[1].split()[0])
        assert 1000 < need <= 1000 + 399


class TestDegreeStats:
    def test_second_moment(self):
        g = gen_family("linear_tree", 7)
        assert degree_stats(g) == Fraction(22, 7)

    def test_cauchy_schwarz(self, atlas_graphs):
        for g in atlas_graphs:
            assert degree_stats(g) >= Fraction(2 * g.m, g.n) ** 2


class TestFamilies:
    def test_complete(self):
        assert gen_family("complete", 4).m == 6

    def test_one_regular(self):
        g = gen_family("one_regular", 8)
        assert g.m == 4 and set(g.degrees[1:]) == {1}

    def test_one_regular_odd_rejected(self):
        with pytest.raises(ValueError):
            gen_family("one_regular", 7)

    def test_quasi_star_degrees(self):
        g = gen_family("quasi_star", 5)
        assert sorted(g.degrees[1:]) == [1, 1, 1, 2, 3]

    def test_cycle_requires_3(self):
        with pytest.raises(ValueError):
            gen_family("cycle", 2)

    def test_linear_tree_path_labeling(self):
        g = gen_family("linear_tree", 5)
        assert g.edges == ((1, 2), (2, 3), (3, 4), (4, 5))

    def test_cycle_consecutive_labeling(self):
        g = gen_family("cycle", 5)
        assert (1, 5) in g.edges and (1, 2) in g.edges

    def test_star_plus_isolated(self):
        g = gen_family("star_plus_isolated", 7, lam=4)
        assert g.m == 3 and g.degrees[1] == 3 and g.degrees[7] == 0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gen_family("petersen", 10)

    @pytest.mark.parametrize("args,kwargs,message", [
        (("cycle", None), {}, "cycle requires n"),
        (("complete_bipartite", None), {"n2": 3}, "complete_bipartite requires n"),
        (("complete_bipartite", 3), {}, "requires a second part n2"),
        (("star_plus_isolated", 7), {}, "requires a star size lam"),
        (("cycle", 5), {"n2": 3, "lam": 2}, "cycle takes no second part n2"),
        (("star", 5), {"lam": 2}, "star takes no star size lam"),
        (("complete_bipartite", 3), {"n2": 4, "lam": 2}, "takes no star size lam"),
        (("star_plus_isolated", 7), {"n2": 1, "lam": 2}, "takes no second part n2"),
        (("complete_bipartite", 3), {"n2": 0}, "requires n, n2 >= 1"),
        (("one_regular", 0), {}, "one_regular requires n >= 2"),
        (("one_regular", 5), {}, "one_regular requires even n"),
        (("star_plus_isolated", 3), {"lam": 4}, "star size 4 must be within 0..3"),
    ])
    def test_sizes_refused_with_value_error(self, args, kwargs, message):
        # each family takes n and at most one more size, from one table
        with pytest.raises(ValueError, match=message):
            gen_family(*args, **kwargs)


class TestDisjointUnion:
    def test_star_plus_isolated_decomposition(self):
        # a star on 1..4 plus the isolated vertices 5..7
        g = Graph(7, gen_family("star", 4).edges)
        assert g == gen_family("star_plus_isolated", 7, lam=4)


class TestErdosRenyi:
    def test_p_zero_empty(self):
        assert erdos_renyi(12, 0.0, seed=3).m == 0

    def test_p_one_complete(self):
        assert erdos_renyi(7, 1.0, seed=3) == gen_family("complete", 7)

    def test_deterministic(self):
        assert erdos_renyi(15, 0.4, seed=9) == erdos_renyi(15, 0.4, seed=9)

    def test_edge_count_within_4_sigma(self):
        # binomial(binom(30,2), 1/2): mean 217.5, sigma ~10.4
        n, p = 30, 0.5
        npairs = n * (n - 1) // 2
        mean = p * npairs
        sigma = math.sqrt(npairs * p * (1 - p))
        m = erdos_renyi(n, p, seed=2024).m
        assert abs(m - mean) < 4 * sigma

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, seed=0)

    @pytest.mark.parametrize("n,p,seed", [
        (0, 0.5, 1), (1, 0.5, 1), (2, 0.5, 7), (9, 0.0, 3), (9, 1.0, 3),
        (17, 0.3, 0), (40, 0.1, 2024), (123, 0.05, 99),
    ])
    def test_same_graph_as_one_shot_draw(self, n, p, seed):
        # oracle: all n(n-1)/2 uniforms drawn in one call, read off in
        # lexicographic pair order
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        draws = iter(rng.random(n * (n - 1) // 2))
        expected = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                    if next(draws) < p]
        assert erdos_renyi(n, p, seed).edges == tuple(expected)

    def test_memory_linear_in_n(self):
        # a one-shot draw of the 8 million pair uniforms at n = 4,000 takes
        # 64 MB; one row at a time stays within a few MB
        import tracemalloc

        tracemalloc.start()
        try:
            g = erdos_renyi(4000, 0.001, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 4000 and g.m > 0
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestSizeQ:
    def test_linear_tree_5(self):
        assert size_q(gen_family("linear_tree", 5)) == 3

    def test_complete_formula(self):
        for n in range(1, 31):
            assert size_q(gen_family("complete", n)) == 3 * math.comb(n, 4)

    def test_cycle_formula(self):
        assert size_q(gen_family("cycle", 6)) == 9
        for n in range(3, 30):
            assert size_q(gen_family("cycle", n)) == n * (n - 3) // 2

    def test_star_zero(self):
        assert size_q(gen_family("star", 9)) == 0

    def test_k_regular_formula(self):
        # (1/8)kn(k(n-4)+2) for the generated 1- and 2-regular instances
        for n in range(2, 30, 2):
            assert size_q(gen_family("one_regular", n)) == n * (n - 2) // 8
        for n in range(3, 30):
            k = 2
            assert size_q(gen_family("cycle", n)) == k * n * (k * (n - 4) + 2) // 8

    def test_bipartite_formula(self):
        for n1 in range(1, 8):
            for n2 in range(1, 8):
                g = gen_family("complete_bipartite", n1, n2=n2)
                assert size_q(g) == 2 * math.comb(n1, 2) * math.comb(n2, 2)

    def test_matches_brute_force_on_atlas(self, atlas_graphs):
        for g in atlas_graphs:
            assert size_q(g) == brute_size_q(g)

    def test_matches_brute_force_on_er(self, er_corpus):
        for _, g in er_corpus:
            assert size_q(g) == brute_size_q(g)


class TestQEdge:
    def test_k4(self):
        g = gen_family("complete", 4)
        assert q_edge(g, 1, 2) == 1

    def test_star_edges_zero(self):
        g = gen_family("star", 8)
        assert all(q_edge(g, u, v) == 0 for u, v in g.edges)

    def test_linear_tree_4(self):
        g = gen_family("linear_tree", 4)
        assert q_edge(g, 2, 3) == 0
        assert q_edge(g, 1, 2) == 1

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            q_edge(gen_family("linear_tree", 4), 1, 3)

    def test_sum_is_twice_q(self, atlas_graphs):
        for g in atlas_graphs:
            assert sum(q_edge(g, u, v) for u, v in g.edges) == 2 * size_q(g)

    def test_either_orientation(self):
        g = gen_family("linear_tree", 5)
        assert q_edge(g, 3, 2) == q_edge(g, 2, 3) == 1

    def test_builds_no_neighbour_sets(self):
        # the edge is found by bisection in the sorted edges, and q(s,t)
        # read off the degree table
        g = from_pruefer([3, 3, 4, 6])
        bare = SimpleNamespace(m=g.m, edges=g.edges, degrees=g.degrees)
        assert [q_edge(bare, u, v) for u, v in g.edges] == [2, 2, 1, 2, 3]
        with pytest.raises(ValueError):
            q_edge(bare, 1, 2)


class TestIsQZero:
    def test_triangle_with_isolated(self):
        g = Graph(8, gen_family("complete", 3).edges)
        assert is_q_zero(g) == "triangle_with_isolated"

    def test_paw_not_zero(self):
        paw = Graph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
        assert is_q_zero(paw) is None
        assert size_q(paw) == 1

    def test_cycle4(self):
        g = gen_family("cycle", 4)
        assert is_q_zero(g) is None
        assert size_q(g) == 2

    def test_star_cases(self):
        for lam in range(0, 6):
            g = gen_family("star_plus_isolated", 6, lam=lam)
            assert is_q_zero(g) == "star_with_isolated"

    def test_agrees_with_size_q_on_atlas(self, atlas_graphs):
        for g in atlas_graphs:
            assert bool(is_q_zero(g)) == (size_q(g) == 0)

    def test_agrees_with_size_q_on_trees(self):
        for n in range(2, 7):
            for code in product(range(1, n + 1), repeat=n - 2):
                g = from_pruefer(code)
                assert bool(is_q_zero(g)) == (size_q(g) == 0)


class TestPruefer:
    def test_star_code(self):
        g = from_pruefer((1, 1))
        assert g == gen_family("star", 4)

    def test_n2_forced_edge(self):
        assert from_pruefer(()).edges == ((1, 2),)

    def test_decode_by_hand(self):
        # code (3, 3, 4) on n=5: leaves 1,2 attach to 3, then 3 to 4, rest (4,5)
        g = from_pruefer((3, 3, 4))
        assert set(g.edges) == {(1, 3), (2, 3), (3, 4), (4, 5)}

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            from_pruefer((1, 5))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cayley_distinct_trees(self, n):
        seen = {
            from_pruefer(code).edges
            for code in product(range(1, n + 1), repeat=n - 2)
        }
        assert len(seen) == n ** (n - 2)

    def test_all_decodes_are_trees(self):
        for code in product(range(1, 6), repeat=3):
            g = from_pruefer(code)
            assert g.m == g.n - 1
            assert size_q(g) == brute_size_q(g)


class TestGraph6:
    def test_k4_by_hand(self):
        # 'C' encodes n=4; all six upper-triangle bits set -> 111111 -> '~'
        assert from_graph6("C~") == gen_family("complete", 4)

    def test_single_vertex(self):
        g = from_graph6("@")
        assert g.n == 1 and g.m == 0

    def _family_instances(self, n_max=20):
        starts = {"complete": 1, "cycle": 3, "one_regular": 2,
                  "quasi_star": 4, "linear_tree": 1, "star": 1}
        for fam, start in starts.items():
            for n in range(start, n_max + 1):
                if fam == "one_regular" and n % 2:
                    continue
                yield gen_family(fam, n)

    def test_matches_independent_encoder(self):
        # oracle: networkx's graph6 writer encodes, the library decodes
        for g in self._family_instances():
            assert from_graph6(nx_graph6_line(g)) == g

    def test_header_accepted(self):
        assert from_graph6(">>graph6<<C~") == gen_family("complete", 4)

    def test_truncated(self):
        with pytest.raises(GraphFormatError, match="truncated"):
            from_graph6("F?")

    def test_bad_character(self):
        with pytest.raises(GraphFormatError):
            from_graph6("C\x07")

    def test_big_n_refused(self):
        with pytest.raises(GraphFormatError, match="n > 62"):
            from_graph6("~??")

    def test_non_ascii_bytes(self):
        with pytest.raises(GraphFormatError, match="not ASCII"):
            from_graph6(b"\xff")

    @pytest.mark.parametrize("header", [False, True], ids=["bare", "header"])
    @pytest.mark.parametrize("n", [63, 64, 100, 300])
    def test_long_form_matches_independent_encoder(self, n, header):
        # oracle: networkx writes the '~' size form for n >= 63
        nx = pytest.importorskip("networkx")
        G = nx.gnp_random_graph(n, 0.1, seed=n)
        line = nx.to_graph6_bytes(G, header=header).strip()
        assert line.startswith(b">>graph6<<~" if header else b"~")
        want = Graph(n, [(u + 1, v + 1) for u, v in G.edges()])
        assert from_graph6(line) == want

    def test_long_form_truncated_size(self):
        with pytest.raises(GraphFormatError, match="truncated graph6 size"):
            from_graph6("~?@")

    def test_long_form_small_n_refused(self):
        # n = 5 belongs in the one-character size form
        with pytest.raises(GraphFormatError, match="n = 5"):
            from_graph6("~??D?{")

    def test_double_tilde_names_range(self):
        with pytest.raises(GraphFormatError, match="0 <= n <= 258047"):
            from_graph6("~~??????")

    def test_edges_counted_before_decoding(self, monkeypatch):
        from crossings import graphs

        line = nx_graph6_line(gen_family("complete", 100))  # 4,950 edges
        monkeypatch.setattr(graphs, "MAX_EDGES", 4_949)

        def no_graph(*args):
            raise AssertionError("built a graph")

        monkeypatch.setattr(graphs, "Graph", no_graph)
        with pytest.raises(BudgetError, match="edges: 4950 exceeds the limit of 4949"):
            from_graph6(line)

    def test_five_vertex_decode(self):
        g = from_graph6("D?{")
        assert g.n == 5
        assert size_q(g) == brute_size_q(g)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = gen_family("quasi_star", 6)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_ignored(self):
        text = "# paw graph\n4 4\n1 2\n2 3\n# middle comment\n1 3\n3 4\n"
        g = parse_edge_list(text)
        assert size_q(g) == 1

    def test_header_mismatch(self):
        with pytest.raises(GraphFormatError, match="declares 3"):
            parse_edge_list("4 3\n1 2\n2 3\n")

    def test_error_carries_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_edge_list("3 2\n1 2\nnope\n")

    def test_out_of_range_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("3 1\n1 9\n")

    def test_negative_vertex_count(self):
        with pytest.raises(GraphFormatError, match="line 2: negative vertex count"):
            parse_edge_list("# comment\n-1 0\n")

    @pytest.mark.parametrize("text,message", [
        # a header error comes before the edge count and the edge lines
        ("x\n1 2\nnope\n", "line 1: expected header 'n m'"),
        ("a b\n1 2\n", "line 1: expected integers in header"),
        # a wrong count comes before a bad line, wherever that line is
        ("3 3\n1 2\nnope\n", "header declares 3 edges but 2 edge lines found"),
        ("3 1\n1 9\n2 2\n", "header declares 1 edges but 2 edge lines found"),
        # with the count right, the first bad line is named
        ("3 3\n1 2\n2 2\n1 9\n", "line 3: self-loop (2,2)"),
        ("3 2\n1 9\n2 2\n", "line 2: vertex out of range 1..3"),
        ("3 2\n1 x\n1 3\n", "line 2: expected integers"),
        ("3 2\n1 2 3\n1 3\n", "line 2: expected 'u v'"),
    ])
    def test_error_precedence(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            parse_edge_list(text)
        assert str(info.value) == message


class TestReadInputFile:
    """Files are read as bytes and decoded: line endings are left to the
    parsers, which split on any of them."""

    def test_crlf_edge_list_and_arrangement(self, tmp_path):
        text = "# paw\n4 4\n1 2\n2 3\n\n1 3\n3 4\n"
        for name, ending in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            path = tmp_path / name
            path.write_bytes(text.replace("\n", ending).encode())
            assert parse_edge_list(read_input_file(str(path), "utf-8")) == \
                parse_edge_list(text)
        path = tmp_path / "arr"
        path.write_bytes(b"2 4 1 3\r\n")
        assert parse_arrangement(read_input_file(str(path), "utf-8")).pos == (0, 2, 4, 1, 3)

    def test_crlf_error_keeps_its_line_number(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"3 2\r\n1 2\r\n2 x\r\n")
        with pytest.raises(GraphFormatError, match="line 3: expected integers"):
            parse_edge_list(read_input_file(str(path), "utf-8"))

    @pytest.mark.parametrize("data,encoding", [
        (b"\xff", "utf-8"),
        (b"3 2\n1 2\n2 \xe2\x28\n", "utf-8"),  # a truncated 3-byte sequence
        (b"3 2\n\xc3\xa9\n", "ascii"),
    ])
    def test_undecodable(self, tmp_path, data, encoding):
        path = tmp_path / "bad"
        path.write_bytes(data)
        with pytest.raises(GraphFormatError, match=f"not {encoding} text"):
            read_input_file(str(path), encoding)

    def test_unreadable_paths(self, tmp_path):
        for path in (tmp_path / "missing", tmp_path):
            with pytest.raises(GraphFormatError, match=str(path)):
                read_input_file(str(path), "utf-8")


def _small_ints(text) -> bool:
    # keep every integer token, and so every header vertex count, at most
    # 100: Graph(n) allocates n + 1 sets before it looks at the edges
    for token in text.split():
        try:
            if abs(int(token)) > 100:
                return False
        except ValueError:
            pass
    return True


_TOKENS = st.one_of(
    st.integers(min_value=-3, max_value=12).map(str),
    st.sampled_from(["#", "x", "1.5", "-", "0x1", ""]),
    st.text(max_size=3),
)
_EDGE_LIST_TEXT = st.builds(
    lambda header, lines: "\n".join([header, *lines]),
    st.lists(_TOKENS, min_size=2, max_size=2).map(" ".join),
    st.lists(st.lists(_TOKENS, max_size=3).map(" ".join), max_size=5),
)
_GRAPH6_TEXT = st.one_of(
    st.text(max_size=12),
    st.text(alphabet=st.characters(min_codepoint=60, max_codepoint=127), max_size=12),
)


class TestParserFuzz:
    """On any input the parsers return a result or raise GraphFormatError."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(_EDGE_LIST_TEXT, st.text(max_size=40)))
    def test_parse_edge_list(self, text):
        assume(_small_ints(text))
        try:
            parse_edge_list(text)
        except GraphFormatError:
            pass

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(_GRAPH6_TEXT, st.binary(max_size=12),
                     _GRAPH6_TEXT.map(lambda t: t.encode("utf-8"))))
    def test_from_graph6(self, data):
        try:
            from_graph6(data)
        except GraphFormatError:
            pass

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(_EDGE_LIST_TEXT, st.text(max_size=40)))
    def test_parse_arrangement(self, text):
        try:
            parse_arrangement(text)
        except GraphFormatError:
            pass
