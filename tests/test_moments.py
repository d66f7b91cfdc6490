import math
from fractions import Fraction
from itertools import permutations

import pytest

from crossings import (
    ALPHA_RLA,
    DELTA_RLA,
    GAMMA_RLA,
    RLA,
    LayoutConstants,
    chebyshev_pbound,
    exhaustive_moments,
    expectation_rla,
    format_rational,
    gen_family,
    size_q,
    variance_from_freq,
    variance_layout,
    variance_rla,
    z_score,
)
from crossings.product_types import PRODUCT_TYPES, freq_fast


class TestConstants:
    def test_gamma_is_alpha_minus_delta_squared(self):
        for code in PRODUCT_TYPES:
            assert GAMMA_RLA[code] == ALPHA_RLA[code] - DELTA_RLA**2

    def test_rla_delta(self):
        assert DELTA_RLA == Fraction(1, 3)

    def test_zero_contributors(self):
        assert GAMMA_RLA["00"] == GAMMA_RLA["01"] == 0

    def test_gamma24_identity(self):
        assert GAMMA_RLA["24"] == DELTA_RLA * (1 - DELTA_RLA)

    def test_table_values(self):
        assert GAMMA_RLA["022"] == Fraction(1, 180)
        assert ALPHA_RLA["022"] == Fraction(7, 60)
        assert ALPHA_RLA["04"] == 0

    def test_gamma_table_of_the_paper(self):
        # gamma_w as tabulated in the paper; the library derives it from alpha
        paper = {
            "00": 0, "24": Fraction(2, 9), "13": Fraction(1, 18),
            "12": Fraction(1, 45), "04": Fraction(-1, 9), "03": Fraction(-1, 36),
            "021": Fraction(-1, 90), "022": Fraction(1, 180), "01": 0,
        }
        assert dict(GAMMA_RLA) == paper
        assert RLA.gamma == paper

    def test_alpha_rederived_for_022(self):
        # oracle: enumerate all 6! permutations of the representative set
        q1 = ((1, 2), (3, 4))
        q2 = ((1, 5), (3, 6))
        hits = 0
        for perm in permutations(range(1, 7)):
            pos = dict(zip(range(1, 7), perm))

            def cross(e, f):
                lo1, hi1 = sorted((pos[e[0]], pos[e[1]]))
                lo2, hi2 = sorted((pos[f[0]], pos[f[1]]))
                return lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1

            hits += cross(*q1) and cross(*q2)
        assert Fraction(hits, math.factorial(6)) == ALPHA_RLA["022"] == Fraction(7, 60)


class TestLayoutConstants:
    def test_rla_instance_valid(self):
        assert RLA.delta == Fraction(1, 3)
        assert ALPHA_RLA["24"] == Fraction(1, 3)

    def test_rejects_nonzero_00(self):
        gamma = dict(GAMMA_RLA)
        gamma["00"] = Fraction(1, 10)
        with pytest.raises(ValueError):
            LayoutConstants(delta=Fraction(1, 3), gamma=gamma)

    def test_rejects_wrong_24(self):
        gamma = dict(GAMMA_RLA)
        gamma["24"] = Fraction(1, 5)
        with pytest.raises(ValueError):
            LayoutConstants(delta=Fraction(1, 3), gamma=gamma)

    def test_missing_type_rejected(self):
        gamma = dict(GAMMA_RLA)
        del gamma["03"]
        with pytest.raises(ValueError):
            LayoutConstants(delta=Fraction(1, 3), gamma=gamma)


class TestExpectation:
    def test_quasi_star(self):
        assert expectation_rla(gen_family("quasi_star", 6)) == 1
        for n in range(4, 20):
            assert expectation_rla(gen_family("quasi_star", n)) == Fraction(n, 3) - 1

    def test_complete(self):
        assert expectation_rla(gen_family("complete", 6)) == 15
        for n in range(4, 15):
            assert expectation_rla(gen_family("complete", n)) == math.comb(n, 4)

    def test_star(self):
        assert expectation_rla(gen_family("star", 11)) == 0

    def test_tree_form(self):
        # (n/6)(n - 1 - <k^2>) for trees
        from crossings import degree_stats, from_pruefer

        for code in [(1, 1, 1), (2, 3, 4), (5, 5, 1)]:
            g = from_pruefer(code)
            k2 = degree_stats(g)
            assert expectation_rla(g) == Fraction(g.n, 6) * (g.n - 1 - k2)


class TestVarianceRla:
    def test_appendix_values(self):
        assert variance_rla(gen_family("linear_tree", 5)) == Fraction(5, 6)
        assert variance_rla(gen_family("quasi_star", 5)) == Fraction(5, 9)
        assert variance_rla(gen_family("linear_tree", 6)) == 2
        assert variance_rla(gen_family("linear_tree", 7)) == Fraction(347, 90)
        assert variance_rla(gen_family("linear_tree", 4)) == Fraction(2, 9)

    def test_builds_no_q(self, monkeypatch):
        from crossings.graphs import Graph

        def refuse(self):
            raise AssertionError("variance_rla enumerated Q")

        monkeypatch.setattr(Graph, "q_pairs", refuse)
        assert variance_rla(gen_family("linear_tree", 7)) == Fraction(347, 90)
        assert variance_rla(gen_family("complete_bipartite", 4, n2=5)) >= 0

    def test_complete_zero(self):
        for n in range(4, 10):
            assert variance_rla(gen_family("complete", n)) == 0

    def test_matches_bracket_formula(self, er_corpus):
        # Var = (1/9)[2|Q| + f022/20 + f12/5 + f13/2 - (f021/10 + f04 + f03/4)]
        for _, g in er_corpus[::7]:
            fv = freq_fast(g)
            bracket = Fraction(1, 9) * (
                2 * size_q(g)
                + Fraction(fv["022"], 20)
                + Fraction(fv["12"], 5)
                + Fraction(fv["13"], 2)
                - (Fraction(fv["021"], 10) + fv["04"] + Fraction(fv["03"], 4))
            )
            assert variance_rla(g) == bracket

    def test_nonnegative_on_atlas(self, atlas_graphs):
        for g in atlas_graphs:
            assert variance_rla(g) >= 0

    def test_zero_iff_constant(self, atlas_graphs):
        # exhaustively verified: Var = 0 exactly when C never varies
        for g in atlas_graphs:
            if g.n > 6:
                continue
            rep = exhaustive_moments(g)
            assert (variance_rla(g) == 0) == (rep.variance == 0)


class TestVarianceLayout:
    def test_rla_constants_reproduce_variance_rla(self, atlas_graphs):
        for g in atlas_graphs[::50]:
            assert variance_layout(g, RLA) == variance_rla(g)

    def test_one_regular_reduction(self):
        # any admissible constants: Var(1-regular) collapses to
        # (1/8) n (n-2) ((n-4) gamma_12 + gamma_24)
        delta = Fraction(2, 5)
        gamma = {
            "00": Fraction(0),
            "24": delta * (1 - delta),
            "13": Fraction(3, 71),
            "12": Fraction(1, 7),
            "04": Fraction(-1, 13),
            "03": Fraction(-1, 17),
            "021": Fraction(-1, 19),
            "022": Fraction(1, 23),
            "01": Fraction(0),
        }
        consts = LayoutConstants(delta=delta, gamma=gamma)
        for n in (4, 6, 8, 10, 12):
            g = gen_family("one_regular", n)
            expected = (
                Fraction(n * (n - 2), 8)
                * ((n - 4) * gamma["12"] + gamma["24"])
            )
            assert variance_layout(g, consts) == expected

    def test_star_zero_for_any_constants(self):
        delta = Fraction(1, 2)
        gamma = {c: Fraction(0) for c in PRODUCT_TYPES}
        gamma["24"] = delta * (1 - delta)
        consts = LayoutConstants(delta=delta, gamma=gamma)
        assert variance_layout(gen_family("star", 9), consts) == 0

    def test_variance_from_freq_matches(self):
        g = gen_family("cycle", 8)
        assert variance_from_freq(freq_fast(g)) == variance_rla(g)


def _moments(g):
    return expectation_rla(g), variance_rla(g)


class TestSignificance:
    def test_fig3_zscore(self):
        g = gen_family("one_regular", 8)
        assert variance_rla(g) == Fraction(28, 15)
        z = z_score(*_moments(g), 6)
        assert z == pytest.approx((6 - 2) / math.sqrt(28 / 15))

    def test_observed_at_mean(self):
        g = gen_family("cycle", 6)  # E = 3 integral
        assert z_score(*_moments(g), 3) == 0
        assert chebyshev_pbound(*_moments(g), 3) == 1

    def test_zero_variance_raises(self):
        with pytest.raises(ValueError, match="zero|constant|Var"):
            z_score(*_moments(gen_family("complete", 5)), 5)

    def test_chebyshev_clamped(self):
        g = gen_family("one_regular", 8)
        mean, var = _moments(g)
        assert chebyshev_pbound(mean, var, 2) == 1  # observed = mean
        assert chebyshev_pbound(mean, var, 6) == Fraction(28, 15) / 16
        near = chebyshev_pbound(mean, var, 3)
        assert near == 1  # Var/(1)^2 = 28/15 clamps to 1

    def test_chebyshev_exact_rational(self):
        g = gen_family("quasi_star", 7)  # E = 4/3
        bound = chebyshev_pbound(*_moments(g), 3)
        assert bound == variance_rla(g) / (3 - Fraction(4, 3)) ** 2


class TestFormatting:
    def test_lowest_terms_and_decimal(self):
        assert format_rational(Fraction(347, 90)) == "347/90 (3.85555555556)"

    def test_integer_rendering(self):
        assert format_rational(Fraction(4, 2)) == "2 (2)"
