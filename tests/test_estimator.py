import math
import random
import threading
from collections import Counter
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings import (
    Graph,
    LinearArrangement,
    closed_variance,
    crossings,
    exhaustive_moments,
    expectation_rla,
    gen_family,
    monte_carlo_moments,
    scan_family,
    size_q,
    variance_rla,
)
from crossings import estimator
from crossings.estimator import crossing_counts
from crossings.graphs import BudgetError, check_budget, erdos_renyi


class TestCrossingCountsBulk:
    def test_matches_scalar_counter(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for seed in range(8):
            g = erdos_renyi(9, 0.4, seed)
            rows = []
            expected = []
            for _ in range(20):
                perm = list(rng.permutation(np.arange(1, 10)))
                rows.append(perm)
                expected.append(crossings(g, LinearArrangement(perm)))
            got = crossing_counts(g, np.array(rows, dtype=np.int16))
            assert got.tolist() == expected

    @pytest.mark.parametrize("n", [255, 256, 257, 65_535, 65_536, 65_537])
    def test_exact_at_dtype_bounds(self, n):
        # the counter's unsigned table is uint8 up to 255, uint16 up to
        # 65,535, uint32 above; spans reach positions 1 and n in the
        # identity, its reversal and its rotations. A table one bit too
        # narrow is still exact at n = 256 and 65,536, where positions
        # modulo 2^b only rotate the arrangement, but not one vertex later
        rng = np.random.Generator(np.random.PCG64(n))
        edges = [(1, n), (2, n - 1), (3, n // 2), (n - 2, n), (1, n - 3),
                 (4, 5), (4, 6), (4, 7), (4, n - 4)]
        edges += [tuple(int(v) for v in rng.choice(np.arange(1, n + 1), 2, replace=False))
                  for _ in range(20)]
        g = Graph(n, edges)
        assert max(g.degrees) >= 3
        ident = np.arange(1, n + 1)
        rows = [ident, n + 1 - ident, ident % n + 1, (ident + n - 2) % n + 1]
        rows += [rng.permutation(ident) for _ in range(4)]
        pos = np.array(rows, dtype=np.int32)
        expected = [crossings(g, LinearArrangement(r.tolist())) for r in rows]
        assert max(expected) > 0
        assert crossing_counts(g, pos).tolist() == expected
        assert estimator._merge_counts(g, pos).tolist() == expected

    def test_exact_past_one_edge_batch(self):
        # under the identity, (1, 300) crosses each of the 298 later edges
        # (k, 300 + k), and those all cross each other: more crossings per
        # edge than one uint8 batch count holds
        g = Graph(600, [(1, 300)] + [(k, 300 + k) for k in range(2, 300)])
        rng = np.random.Generator(np.random.PCG64(11))
        rows = [np.arange(1, 601)] + [rng.permutation(np.arange(1, 601)) for _ in range(3)]
        expected = [crossings(g, LinearArrangement(r.tolist())) for r in rows]
        assert expected[0] == 298 + math.comb(298, 2)
        assert crossing_counts(g, np.array(rows, dtype=np.int16)).tolist() == expected

    @pytest.mark.parametrize("edges", [[], [(1, 3)], [(1, 3), (2, 4)], [(1, 2), (2, 4)]],
                             ids=["m0", "m1", "m2-independent", "m2-adjacent"])
    def test_exact_with_few_edges(self, edges):
        g = Graph(4, edges)
        rows = list(permutations(range(1, 5)))
        expected = [crossings(g, LinearArrangement(r)) for r in rows]
        for count in (crossing_counts, estimator._merge_counts):
            got = count(g, np.array(rows, dtype=np.int16))
            assert got.dtype == np.int64 and got.tolist() == expected
            assert count(g, np.empty((0, 4), dtype=np.int16)).tolist() == []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_exact_on_random_graphs(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [e for e, k in zip(pairs, keep) if k])
        rows = data.draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=6))
        dtype = data.draw(st.sampled_from([np.int16, np.int32, np.int64]))
        expected = [crossings(g, LinearArrangement(r)) for r in rows]
        assert crossing_counts(g, np.array(rows, dtype=dtype)).tolist() == expected
        assert estimator._merge_counts(g, np.array(rows, dtype=dtype)).tolist() == expected


def _random_tree(n, seed):
    heads = np.random.default_rng(seed).integers(1, np.arange(2, n + 1))
    return Graph(n, zip(range(2, n + 1), heads.tolist()))


def _gnm(n, m, seed):
    # G(n, m): m distinct pairs drawn uniformly
    rng = np.random.default_rng(seed)
    codes = rng.choice(n * (n - 1) // 2, size=m, replace=False)
    u = np.triu_indices(n, 1)
    return Graph(n, zip((u[0][codes] + 1).tolist(), (u[1][codes] + 1).tolist()))


def _rows(n, count, seed):
    rng = np.random.default_rng(seed)
    return np.array([rng.permutation(n) + 1 for _ in range(count)], dtype=np.intp)


class TestMergeCount:
    # the merge count against the per-edge counter and the scalar counter;
    # crossing_counts picks one of them by m
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("kind", ["tree", "gnm"])
    def test_counters_equal_around_cut_over(self, offset, kind):
        m = estimator._MERGE_FROM_M + offset
        g = _random_tree(m + 1, m) if kind == "tree" else _gnm(m // 4, m, m)
        assert g.m == m
        pos = _rows(g.n, 40, m)
        merged = estimator._merge_counts(g, pos)
        assert merged.tolist() == estimator._per_edge_counts(g, pos).tolist()
        assert merged.tolist() == crossing_counts(g, pos).tolist()
        assert merged[:3].tolist() == [crossings(g, LinearArrangement(r.tolist()))
                                       for r in pos[:3]]

    @pytest.mark.parametrize("n", [1_000, 3_001])
    def test_matches_scalar_counter_on_large_trees(self, n):
        g = _random_tree(n, n)
        pos = _rows(n, 3, n)
        assert crossing_counts(g, pos).tolist() == [
            crossings(g, LinearArrangement(r.tolist())) for r in pos]

    @pytest.mark.parametrize("n", [255, 256, 65_537])
    def test_exact_on_extreme_spans(self, n):
        # spans from position 1 to n, shared ends at both sides of a span,
        # and an edge count one past a power of two
        edges = [(1, n), (2, n - 1), (1, 2), (2, 3), (n - 1, n), (3, n)]
        edges += [(k, k + d) for d in (2, 5) for k in range(4, n - d + 1)][: 257 - len(edges)]
        g = Graph(n, edges)
        assert g.m == 257
        ident = np.arange(1, n + 1)
        rows = [ident, n + 1 - ident, ident % n + 1]
        rows += list(_rows(n, 3, n))
        pos = np.array(rows, dtype=np.int32)
        expected = [crossings(g, LinearArrangement(r.tolist())) for r in rows]
        assert estimator._merge_counts(g, pos).tolist() == expected


class TestLayouts:
    # crossing_counts reads each layout it is handed in place or through one
    # conversion: row-major intp rows, the transpose of a narrow
    # vertex-major table or of a column slice of one (as Monte Carlo and
    # exhaustive enumeration hand them), and the row-major int16 chunks a
    # raised exhaustive limit streams; on both sides of the counters'
    # cut-over
    @pytest.mark.parametrize("m", [299, 300], ids=["per-edge", "merge"])
    @pytest.mark.parametrize("n", [255, 256], ids=["uint8", "uint16"])
    def test_row_and_vertex_major(self, n, m):
        g = _gnm(n, m, n + m)
        assert (g.m < estimator._MERGE_FROM_M) == (m == 299)
        rows = _rows(n, 30, m)
        expected = [crossings(g, LinearArrangement(r.tolist())) for r in rows]
        table = np.ascontiguousarray(rows.T, dtype=np.min_scalar_type(n))
        assert table.dtype == (np.uint8 if n == 255 else np.uint16)
        assert crossing_counts(g, rows).tolist() == expected
        assert crossing_counts(g, table.T).tolist() == expected
        assert crossing_counts(g, table[:, 7:19].T).tolist() == expected[7:19]

    @pytest.mark.parametrize("m", [299, 300], ids=["per-edge", "merge"])
    def test_class_representatives_chunk(self, m):
        g = _gnm(26, m, m)
        chunk = next(estimator._class_representatives(26))
        assert chunk.dtype == np.int16 and chunk.flags.c_contiguous
        rows = chunk[::1_009]  # every row would take seconds per edge
        expected = [crossings(g, LinearArrangement(r.tolist())) for r in rows]
        assert crossing_counts(g, rows).tolist() == expected


class TestDrawSlices:
    # Monte Carlo draws each block's rows in slices from the block's stream,
    # each shuffled in pieces of intp positions and held in a narrow
    # vertex-major table. That these equal the rows of one int32 table per
    # block rests on numpy (checked with numpy 2.4.6): Generator.permuted
    # shuffles the rows one after another and draws the same numbers for
    # every integer type.
    @staticmethod
    def whole_blocks(n, samples, seed):
        blocks = []
        for idx, start in enumerate(range(0, samples, estimator.MC_BLOCK)):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, idx])))
            rows = min(estimator.MC_BLOCK, samples - start)
            pos = np.tile(np.arange(1, n + 1, dtype=np.int32), (rows, 1))
            blocks.append(rng.permuted(pos, axis=1, out=pos))
        return np.concatenate(blocks)

    @pytest.mark.parametrize("n,m,samples,slices", [
        (3, 1, 2, [1, 1]),
        (3, 1, 12_345, [5_000, 5_000, 782, 782, 781]),  # a short last block
        (60, 1, 999, [333, 333, 333]),  # fewer rows than one full slice
        # half a block: 8 MiB would hold 13,640 rows of 2 * 60 + 8 * 60 + 3 +
        # 2 * 2 + 8 bytes
        (60, 1, 10_001, [5_000, 5_000, 1]),
        (300, 1, 2, [1, 1]),
        (300, 1, 1_201, [401, 400, 400]),
        (70_000, 1, 5, [2, 2, 1]),  # a short last slice
        # merge-counted: 8 MiB holds 110 rows of 2 * 1,001 * 2 + 8 * 1,001 +
        # 64 * 1,000 bytes, so 2,000 rows take 19 slices
        (1_001, 1_000, 2_000, [106] * 5 + [105] * 14),
    ])
    def test_sliced_rows_equal_whole_blocks(self, monkeypatch, n, m, samples, slices):
        # the path on vertices 1 to m + 1, the other vertices isolated
        seen = []

        def spy(graph, pos):
            # the transpose of a vertex-major table of the narrowest type
            assert pos.dtype == np.min_scalar_type(n) and pos.T.flags.c_contiguous
            seen.append(pos.copy())
            return crossing_counts(graph, pos)

        monkeypatch.setattr(estimator, "crossing_counts", spy)
        g = Graph(n, [(v, v + 1) for v in range(1, m + 1)])
        monte_carlo_moments(g, samples=samples, seed=17)
        assert [len(pos) for pos in seen] == slices
        assert np.array_equal(np.concatenate(seen), self.whole_blocks(n, samples, 17))

    @pytest.mark.parametrize("piece_bytes", [1, 4_000, 1 << 30],
                             ids=["one-row", "odd", "whole-slice"])
    def test_pieces_never_change_the_rows(self, monkeypatch, piece_bytes):
        # one row a piece, 8 rows of the 60 vertices, or the whole slice
        seen = []

        def spy(graph, pos):
            seen.append(pos.copy())
            return crossing_counts(graph, pos)

        monkeypatch.setattr(estimator, "_PIECE_BYTES", piece_bytes)
        monkeypatch.setattr(estimator, "crossing_counts", spy)
        monte_carlo_moments(gen_family("cycle", 60), samples=12_345, seed=17)
        assert np.array_equal(np.concatenate(seen), self.whole_blocks(60, 12_345, 17))


class TestSliceBytes:
    # the slice size follows _SLICE_BYTES, and never changes a result
    @pytest.mark.parametrize("kind,largest_slices", [
        ("cycle50", [1, 113, 617]), ("tree400", [1, 3, 247]),
    ])
    def test_slice_bytes_never_change_a_result(self, monkeypatch, kind, largest_slices):
        # the per-edge counter on the cycle (858 bytes a row), the merge
        # count on the tree (30,336); one row a slice, an odd byte count,
        # then the default, all under half the block of 1,234 rows
        g = gen_family("cycle", 50) if kind == "cycle50" else _random_tree(400, 4)
        assert (g.m < estimator._MERGE_FROM_M) == (kind == "cycle50")
        results, largest = [], []
        for slice_bytes in (1, 99_999, estimator._SLICE_BYTES):
            seen, charged = [], []

            def spy(graph, pos):
                seen.append(len(pos))
                return crossing_counts(graph, pos)

            def budget(value, limit, what):
                if what.startswith("bytes of a Monte Carlo slice"):
                    charged.append(value)
                return check_budget(value, limit, what)

            with monkeypatch.context() as patch:
                patch.setattr(estimator, "_SLICE_BYTES", slice_bytes)
                patch.setattr(estimator, "crossing_counts", spy)
                patch.setattr(estimator, "check_budget", budget)
                rep = monte_carlo_moments(g, samples=1_234, seed=5)
            assert charged == [max(seen) * estimator._row_bytes(g)]
            results.append((rep.mean, rep.variance))
            largest.append(max(seen))
        assert results[1:] == results[:-1]
        assert largest == largest_slices


# monte_carlo_moments (mean, variance) recorded from whole-block int32 draws
# counted per edge; sliced draws give the same rows (see TestDrawSlices) and
# both counters are exact, so the same values
PINNED = [
    ("cycle", 50, 12_345, 7, 391.38282705548806, 2789.7704762909725),
    ("linear_tree", 60, 50_000, 3, 550.69738, 4626.081962774855),
    ("complete", 12, 999, 1, 495.0, 0.0),
    ("one_regular", 40, 999, 6, 63.75675675675676, 180.98586361913016),
    ("er", 40, 10_000, 4, 4123.6001, 77498.599439934),
    ("tree", 300, 2_501, 2, 14672.227908836465, 622226.4928367853),
    ("tree", 3_000, 30, 5, 1498721.6, 490629991.1448276),
]


@pytest.mark.parametrize("kind,n,samples,seed,mean,variance", PINNED,
                         ids=[f"{p[0]}{p[1]}" for p in PINNED])
def test_monte_carlo_moments_pinned(kind, n, samples, seed, mean, variance):
    if kind == "er":
        g = erdos_renyi(n, 0.2, 5)
    elif kind == "tree":
        g = _random_tree(n, {300: 8, 3_000: 9}[n])
    else:
        g = gen_family(kind, n)
    rep = monte_carlo_moments(g, samples=samples, seed=seed)
    assert (rep.mean, rep.variance) == (mean, variance)


@pytest.mark.parametrize("kind", ["tree", "gnm"])
def test_monte_carlo_agrees_with_theory_at_10k_edges(monkeypatch, kind):
    # a statistical check of the merge count and of freq_fast at a size no
    # exact oracle reaches; graphs and seeds were fixed before the first run
    g = _random_tree(10_001, 2026) if kind == "tree" else _gnm(2_000, 10_000, 2026)
    counts = []

    def spy(graph, pos):
        c = crossing_counts(graph, pos)
        counts.append(c)
        return c

    monkeypatch.setattr(estimator, "crossing_counts", spy)
    t = 1_000
    rep = monte_carlo_moments(g, samples=t, seed=1)
    c = np.concatenate(counts).astype(float)
    assert len(c) == t
    mean_se = math.sqrt(float(variance_rla(g)) / t)
    assert abs(rep.mean - size_q(g) / 3) <= 6 * mean_se
    mu4 = float(np.mean((c - c.mean()) ** 4))
    var_se = math.sqrt((mu4 - rep.variance ** 2) / t)
    assert abs(rep.variance - float(variance_rla(g))) <= 6 * var_se


class TestExhaustive:
    def test_linear_tree_5(self):
        rep = exhaustive_moments(gen_family("linear_tree", 5))
        assert rep.mean == 1 and rep.variance == Fraction(5, 6)
        assert rep.exact and rep.mode == "exhaustive"
        assert rep.samples == 120

    def test_complete_5(self):
        rep = exhaustive_moments(gen_family("complete", 5))
        assert rep.mean == 5 and rep.variance == 0

    def test_report_record(self):
        rep = estimator.EstimateReport(Fraction(1), Fraction(5, 6), "exhaustive", 120,
                                       None, True)
        assert rep == exhaustive_moments(gen_family("linear_tree", 5))
        assert rep == estimator.EstimateReport(mean=Fraction(1), variance=Fraction(5, 6),
                                               mode="exhaustive", samples=120,
                                               seed=None, exact=True)
        assert rep != rep._replace(samples=1)
        assert repr(rep) == (
            "EstimateReport(mean=Fraction(1, 1), variance=Fraction(5, 6), "
            "mode='exhaustive', samples=120, seed=None, exact=True)")
        with pytest.raises(AttributeError):
            rep.mean = 0
        with pytest.raises(TypeError):
            estimator.EstimateReport(1, 2, "exhaustive")  # no defaults

    def test_quasi_star_5(self):
        assert exhaustive_moments(gen_family("quasi_star", 5)).variance == Fraction(5, 9)

    def test_matches_theory(self):
        for fam, n in [("cycle", 7), ("one_regular", 6), ("linear_tree", 6),
                       ("star", 7), ("quasi_star", 6)]:
            g = gen_family(fam, n)
            rep = exhaustive_moments(g)
            assert rep.mean == expectation_rla(g)
            assert rep.variance == variance_rla(g)

    def test_matches_theory_on_all_representatives_n6(self, atlas_graphs):
        for g in atlas_graphs:
            if g.n > 6:
                continue
            rep = exhaustive_moments(g)
            assert rep.mean == expectation_rla(g)
            assert rep.variance == variance_rla(g)

    def test_refusal_names_factorial(self):
        with pytest.raises(BudgetError, match="39916800"):
            exhaustive_moments(gen_family("cycle", 11))

    def test_reversal_half_enumeration(self):
        # mirror pairing: summing over the lexicographically smaller half of
        # each (arrangement, reversal) pair and doubling changes nothing
        g = gen_family("linear_tree", 6)
        half_c = half_c2 = 0
        for perm in permutations(range(1, 7)):
            rev = tuple(7 - p for p in perm)
            if perm < rev:
                c = crossings(g, LinearArrangement(perm))
                half_c += c
                half_c2 += c * c
        total = math.factorial(6)
        mean = Fraction(2 * half_c, total)
        var = Fraction(2 * half_c2, total) - mean * mean
        rep = exhaustive_moments(g)
        assert (mean, var) == (rep.mean, rep.variance)


class TestClassTable:
    """The per-size tables of class representatives that exhaustive_moments
    keeps for the process, up to DEFAULT_EXHAUSTIVE_LIMIT vertices."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # an empty cache, and the sizes whose rows are generated from then on
        estimator._class_table.cache_clear()
        built = []
        source = estimator._class_representatives

        def spy(n):
            built.append(n)
            return source(n)

        monkeypatch.setattr(estimator, "_class_representatives", spy)
        yield built
        estimator._class_table.cache_clear()

    def test_read_only(self):
        table = estimator._class_table(6)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            table.T[0] = 1

    def test_built_once_per_size(self, builds):
        g = gen_family("cycle", 8)
        first = exhaustive_moments(g)
        assert builds == [8]
        assert exhaustive_moments(g) == first
        assert exhaustive_moments(gen_family("star", 8)).mean == 0
        assert builds == [8]
        assert first == estimator.EstimateReport(
            expectation_rla(g), variance_rla(g), "exhaustive", 40320, None, True)

    def test_keeps_one_table_per_size(self, builds):
        for n in (7, 5, 7, 9, 5):
            exhaustive_moments(gen_family("linear_tree", n))
        assert builds == [7, 5, 9]
        assert estimator._class_table.cache_info().currsize == 3

    def test_raised_limit_streams_and_keeps_nothing(self, builds):
        rep = exhaustive_moments(Graph(11, [(1, 2)]), limit=11)
        assert (rep.mean, rep.variance, rep.samples) == (0, 0, math.factorial(11))
        assert builds == [11]
        assert estimator._class_table.cache_info().currsize == 0

    def test_counted_in_slices_of_views(self, monkeypatch):
        table = estimator._class_table(10)
        shapes = []

        def spy(g, pos):
            assert np.shares_memory(pos, table) and pos[:, 0].flags.c_contiguous
            shapes.append(pos.shape)
            return crossing_counts(g, pos)

        monkeypatch.setattr(estimator, "crossing_counts", spy)
        g = Graph(10, [(1, 2), (3, 4)])
        assert exhaustive_moments(g).mean == expectation_rla(g)
        assert shapes == [(estimator._PERM_CHUNK, 10),
                          (math.factorial(9) // 2 - estimator._PERM_CHUNK, 10)]


class TestMonteCarlo:
    def test_deterministic(self):
        g = gen_family("cycle", 20)
        a = monte_carlo_moments(g, samples=5000, seed=7)
        b = monte_carlo_moments(g, samples=5000, seed=7)
        assert a == b

    @staticmethod
    def drawn_rows(monkeypatch, g, samples, seed):
        # the position rows monte_carlo_moments hands to the counter
        blocks = []

        def spy(graph, pos):
            blocks.append(pos.copy())
            return crossing_counts(graph, pos)

        monkeypatch.setattr(estimator, "crossing_counts", spy)
        monte_carlo_moments(g, samples=samples, seed=seed)
        return np.concatenate(blocks)

    def test_rows_reproducible(self, monkeypatch):
        # two blocks of rows, each from its own stream of the seed
        g = gen_family("linear_tree", 3)
        a = self.drawn_rows(monkeypatch, g, 12_000, 33)
        assert a.shape == (12_000, 3)
        assert np.array_equal(a, self.drawn_rows(monkeypatch, g, 12_000, 33))
        assert not np.array_equal(a, self.drawn_rows(monkeypatch, g, 12_000, 34))

    def test_rows_uniform(self, monkeypatch):
        rows = self.drawn_rows(monkeypatch, gen_family("linear_tree", 3), 12_000, 0)
        counts = Counter(map(tuple, rows.tolist()))
        assert len(counts) == 6  # all 3! arrangements appear
        assert min(counts.values()) > 1600  # ~2000 each under uniformity

    def test_star_degenerate(self):
        rep = monte_carlo_moments(gen_family("star", 20), samples=500, seed=1)
        assert rep.mean == 0 and rep.variance == 0

    def test_unbiased_divisor(self):
        # tiny T: reproduce the T-1 divisor by hand from the sampled values
        g = gen_family("cycle", 12)
        rep = monte_carlo_moments(g, samples=2, seed=5)
        assert rep.samples == 2 and not rep.exact

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            monte_carlo_moments(gen_family("cycle", 12), samples=1, seed=0)

    def test_rows_are_arrangements_above_int16(self, monkeypatch):
        # int16 positions wrap above 32,767 and repeat above 65,535
        n = 70_000
        g = Graph(n, [(1, n), (2, 3), (40_000, 69_999), (5, 65_537)])
        seen = []

        def checked(graph, pos):
            assert (np.sort(pos, axis=1) == np.arange(1, n + 1)).all()
            seen.append(len(pos))
            return crossing_counts(graph, pos)

        monkeypatch.setattr(estimator, "crossing_counts", checked)
        rep = monte_carlo_moments(g, samples=3, seed=0)
        # one row a slice: a slice takes at most half its block's rows
        assert seen == [1, 1, 1] and rep.samples == 3

    def test_block_budget(self, monkeypatch):
        # a block of 10^4 rows in two slices of 5,000, one drawn while the
        # other is counted: per row, 30 uint8 positions in each slice's
        # table and 30 intp positions in the piece the drawn one is shuffled
        # through, and for the slice counted 3 * 30 uint8 endpoints and
        # widths, a batch of 2 * 30 with its tests, and an int64 count
        g = gen_family("cycle", 30)
        need = 5_000 * (2 * 30 + 8 * 30 + 3 * 30 + 2 * 30 * 2 + 8)
        before = monte_carlo_moments(g, samples=20_000, seed=3)

        def refuse(*args, **kwargs):
            raise AssertionError("drew arrangements over budget")

        monkeypatch.setattr(estimator, "MC_BLOCK_BYTES", need - 1)
        monkeypatch.setattr(estimator, "crossing_counts", refuse)
        with pytest.raises(BudgetError) as exc:
            monte_carlo_moments(g, samples=20_000, seed=3)
        assert str(exc.value) == (
            f"bytes of a Monte Carlo slice of 5000 rows on n = 30, m = 30: {need} "
            f"exceeds the limit of {need - 1}"
        )
        monkeypatch.undo()
        monkeypatch.setattr(estimator, "MC_BLOCK_BYTES", need)
        assert monte_carlo_moments(g, samples=20_000, seed=3) == before

    @pytest.mark.parametrize("kind,samples", [("cycle50", 10_000), ("tree1001", 1_000)])
    def test_peak_within_the_charge(self, kind, samples):
        # what MC_BLOCK_BYTES charges bounds what one estimate allocates,
        # the per-edge set-up and the merge count's tables included
        import tracemalloc

        g = gen_family("cycle", 50) if kind == "cycle50" else _random_tree(1_001, 1)
        assert (g.m < estimator._MERGE_FROM_M) == (kind == "cycle50")
        charge = estimator._slices(min(estimator.MC_BLOCK, samples), g)[0] * (
            estimator._row_bytes(g))
        estimator._edge_array.cache_clear()
        estimator._independent_later.cache_clear()
        tracemalloc.start()
        try:
            monte_carlo_moments(g, samples=samples, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak <= charge

    def test_block_budget_counts_rows_drawn(self, monkeypatch):
        # fewer samples than a block: its two slices hold only those rows,
        # and the positions and endpoints take 2 bytes each above 255
        # vertices, in a batch of 255 edges
        g = gen_family("linear_tree", 300)
        need = 25 * (2 * 300 * 2 + 8 * 300 + 3 * 299 * 2 + 2 * 255 * 3 + 8)
        monkeypatch.setattr(estimator, "MC_BLOCK_BYTES", need - 1)
        with pytest.raises(BudgetError, match=f"25 rows on n = 300, m = 299: {need} exceeds"):
            monte_carlo_moments(g, samples=50, seed=0)
        monkeypatch.setattr(estimator, "MC_BLOCK_BYTES", need)
        assert monte_carlo_moments(g, samples=50, seed=0).samples == 50

    def test_default_budget_refuses_a_large_sparse_graph(self, monkeypatch):
        # 2 * 10^7 edges on 2 * 10^6 vertices: one row's merge tables take
        # 1.28 GB, the uint32 positions of it and of the row drawn beside it
        # 16 MB, and the intp piece that row is shuffled through 16 MB,
        # refused before numpy allocates them; only n and m are read
        def refuse(*args, **kwargs):
            raise AssertionError("allocated a slice over budget")

        monkeypatch.setattr(np, "tile", refuse)
        monkeypatch.setattr(estimator, "crossing_counts", refuse)
        g = SimpleNamespace(n=2 * 10**6, m=2 * 10**7)
        with pytest.raises(BudgetError, match=(
                "slice of 1 rows on n = 2000000, m = 20000000: 1312000000 exceeds")):
            monte_carlo_moments(g, samples=100_000, seed=0)

    def test_default_budget_admits_a_tree_of_100000_edges(self, monkeypatch):
        # a block is drawn and counted one row at a time here (8 MB a row);
        # charged as whole blocks of 1,000 rows, it was refused from T = 895
        def refuse(*args, **kwargs):
            raise AssertionError("sampled while checking the budget")

        monkeypatch.setattr(np, "tile", refuse)
        monkeypatch.setattr(estimator, "crossing_counts", refuse)
        rng = random.Random(5)
        g = Graph(100_001, [(rng.randint(1, v - 1), v) for v in range(2, 100_002)])
        assert estimator._slices(1000, g) == [1] * 1000
        assert estimator._check_monte_carlo(g, 1000) == (
            size_q(g), 1000 * 100_001 * 12 + 1000 * 16 * 100_000 * 17)

    def test_cycle50_within_2pct(self):
        g = gen_family("cycle", 50)
        theory = float(closed_variance("cycle", 50))
        rep = monte_carlo_moments(g, samples=100_000, seed=7)
        assert abs(rep.variance - theory) / theory < 0.02

    def test_mean_within_5_standard_errors(self):
        for fam, seed in [("cycle", 1), ("linear_tree", 2)]:
            g = gen_family(fam, 50)
            rep = monte_carlo_moments(g, samples=100_000, seed=seed)
            expected = float(expectation_rla(g))
            se = math.sqrt(float(variance_rla(g)) / rep.samples)
            assert abs(rep.mean - expected) <= 5 * se


class TestSums:
    # C and C^2 are summed exactly, whatever their size
    @pytest.mark.parametrize("counts", [
        [[4 * 10**9] * 3],
        [[3_037_000_499]], [[3_037_000_500]], [[3_037_000_499] * 2],  # 2^63 ~ 3.04e9^2
        [[2 * 10**9, 0], [5, 4 * 10**9], []],
    ], ids=["4e9x3", "below-2^63", "above-2^63", "two-rows-above-2^63", "mixed"])
    def test_accumulate_equals_python_sums(self, counts):
        got = estimator._accumulate((np.array(c, dtype=np.int64) for c in counts), 10**10)
        flat = [x for c in counts for x in c]
        assert got == (len(flat), sum(flat), sum(x * x for x in flat))

    def test_monte_carlo_exact_past_int64_squares(self, monkeypatch):
        # three counts of 4 * 10^9: int64 squares summed to -7.3 * 10^18
        g = _random_tree(100_001, 3)
        assert size_q(g) >= 4 * 10**9
        monkeypatch.setattr(estimator, "crossing_counts",
                            lambda graph, pos: np.full(len(pos), 4 * 10**9, dtype=np.int64))
        rep = monte_carlo_moments(g, samples=3, seed=0)
        assert (rep.mean, rep.variance) == (4e9, 0.0)


class TestCountedAside:
    """Monte Carlo counts each drawn slice in one worker thread while the
    calling thread draws the next; the results are those of counting the
    same rows inline."""

    @staticmethod
    def inline(g, samples, seed):
        # the rows of whole blocks (see TestDrawSlices), counted in one call
        # and summed in Python ints
        c = crossing_counts(g, TestDrawSlices.whole_blocks(g.n, samples, seed)).tolist()
        mean = Fraction(sum(c), samples)
        var = (Fraction(sum(x * x for x in c)) - Fraction(sum(c) ** 2, samples)) / (samples - 1)
        return float(mean), float(var)

    @pytest.mark.parametrize("kind,samples", [
        ("cycle50", 2), ("cycle50", 10_000), ("cycle50", 23_457),
        ("tree400", 2), ("tree400", 4_000), ("tree400", 10_600),
    ], ids=["cycle50-T2", "cycle50-one-block", "cycle50-three-blocks",
            "tree400-T2", "tree400-one-block", "tree400-two-blocks"])
    def test_equals_inline_counts(self, kind, samples):
        # the per-edge counter on the cycle, the merge count on the tree
        g = gen_family("cycle", 50) if kind == "cycle50" else _random_tree(400, 4)
        assert (g.m < estimator._MERGE_FROM_M) == (kind == "cycle50")
        threads = threading.active_count()
        rep = monte_carlo_moments(g, samples=samples, seed=29)
        assert threading.active_count() == threads
        assert (rep.mean, rep.variance) == self.inline(g, samples, 29)

    def test_counts_in_order_in_one_worker(self, monkeypatch):
        # six slices, each counted in the same thread, not the caller's, in
        # the order drawn: 8 MiB holds 8,160 rows of 2 * 60 + 8 * 60 +
        # 3 * 60 + 2 * 60 * 2 + 8 bytes, so each full block takes two slices
        # of half its rows, and so does the last block of 5,000 rows
        calls = []

        def spy(graph, pos):
            calls.append((threading.get_ident(), len(pos), pos[0].tolist()))
            return crossing_counts(graph, pos)

        monkeypatch.setattr(estimator, "crossing_counts", spy)
        monte_carlo_moments(gen_family("cycle", 60), samples=25_000, seed=3)
        assert len({ident for ident, _, _ in calls}) == 1
        assert calls[0][0] != threading.get_ident()
        lengths = [5_000, 5_000] * 2 + [2_500, 2_500]
        assert [rows for _, rows, _ in calls] == lengths
        rows = TestDrawSlices.whole_blocks(60, 25_000, 3)
        starts = np.cumsum([0] + lengths[:-1])
        assert [first for _, _, first in calls] == rows[starts].tolist()

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        raised = ValueError("third slice")
        calls = []

        def fail_third(graph, pos):
            calls.append(len(pos))
            if len(calls) == 3:
                raise raised
            return crossing_counts(graph, pos)

        monkeypatch.setattr(estimator, "crossing_counts", fail_third)
        threads = threading.active_count()
        with pytest.raises(ValueError) as exc:
            monte_carlo_moments(gen_family("cycle", 50), samples=20_000, seed=1)
        assert exc.value is raised
        assert threading.active_count() == threads
        assert len(calls) == 3  # no slice was counted after the failure

    def test_draw_exception_stops_the_worker(self, monkeypatch):
        tile, tiles = np.tile, []

        def fail_third(*args):
            tiles.append(1)
            if len(tiles) == 3:
                raise MemoryError("third draw")
            return tile(*args)

        monkeypatch.setattr(np, "tile", fail_third)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="third draw"):
            monte_carlo_moments(gen_family("cycle", 50), samples=20_000, seed=1)
        assert threading.active_count() == threads


class TestScanFamily:
    def test_linear_tree_rows(self):
        rows = scan_family("linear_tree", 4, 20, mode="theory")
        assert len(rows) == 17
        var_by_n = {r.n: r.var_theory for r in rows}
        assert var_by_n[7] == Fraction(347, 90)
        for r in rows:
            assert r.var_theory == closed_variance("linear_tree", r.n)

    def test_one_regular_odd_skipped(self):
        rows = scan_family("one_regular", 4, 9, mode="theory")
        modes = {r.n: r.mode for r in rows}
        assert modes[5] == modes[7] == modes[9] == "skipped"
        assert modes[4] == modes[6] == modes[8] == "theory"

    def test_row_record(self):
        row = scan_family("cycle", 4, 4, mode="theory")[0]
        assert row == estimator.ScanRow("cycle", 4, 2, Fraction(2, 3), Fraction(2, 9),
                                        None, None, "theory", None, None)
        assert row == estimator.ScanRow(
            family="cycle", n=4, q=2, e_theory=Fraction(2, 3), var_theory=Fraction(2, 9),
            e_est=None, var_est=None, mode="theory", samples=None, seed=None)
        assert repr(row) == (
            "ScanRow(family='cycle', n=4, q=2, e_theory=Fraction(2, 3), "
            "var_theory=Fraction(2, 9), e_est=None, var_est=None, mode='theory', "
            "samples=None, seed=None)")
        with pytest.raises(AttributeError):
            row.mode = "skipped"
        with pytest.raises(TypeError):
            estimator.ScanRow("cycle", 4)  # no defaults

    def test_cycle4_row(self):
        rows = scan_family("cycle", 4, 4, mode="theory")
        assert rows[0].var_theory == Fraction(2, 9)

    def test_auto_mode_thresholds(self):
        rows = scan_family("cycle", 7, 12, mode="auto",
                           exhaustive_limit=9, samples=2000, seed=11)
        by_n = {r.n: r for r in rows}
        assert by_n[8].mode == "exhaustive"
        assert by_n[12].mode == "monte_carlo"
        assert by_n[8].e_est == by_n[8].e_theory  # exact agreement
        assert by_n[8].var_est == by_n[8].var_theory

    def test_q_column(self):
        rows = scan_family("quasi_star", 4, 10, mode="theory")
        for r in rows:
            assert r.q == size_q(gen_family("quasi_star", r.n))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            scan_family("cycle", 4, 6, mode="warp")

    @pytest.mark.parametrize("family,message", [
        ("nosuch", "unknown family 'nosuch'"),
        ("complete_bipartite", "complete_bipartite also takes n2"),
        ("star_plus_isolated", "star_plus_isolated also takes lam"),
    ])
    def test_family_not_of_one_size_refused(self, family, message):
        # refused up front, not turned into a column of skipped rows
        with pytest.raises(ValueError, match=message):
            scan_family(family, 4, 5, mode="theory")
