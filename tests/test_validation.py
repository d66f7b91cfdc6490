import json
from fractions import Fraction
from itertools import product

import pytest

from crossings import (
    FAMILIES,
    exhaustive_moments,
    freq_brute,
    from_pruefer,
    gen_family,
    validate_er,
    validate_families,
    validate_graph6_corpus,
    validate_trees,
    variance_rla,
)

from crossings import census, product_types, validation
from crossings.graphs import BudgetError

from conftest import nx_graph6_line, refuse_q_pairs


def _skipped_checks(report):
    return [s["check"] for s in report.skipped]


class TestCheckGraphBudgets:
    def test_above_brute_limit_skips_both_q_checks(self, monkeypatch):
        g = gen_family("cycle", 6)  # |Q| = 9
        monkeypatch.setattr(census, "BRUTE_Q_LIMIT", 8)
        refuse_q_pairs(monkeypatch)
        report = validation.ValidationReport(corpus="c6")
        validation.check_graph(g, "c6", report)
        assert report.success, report.failures
        assert _skipped_checks(report) == [
            "size_q_formula_vs_enumeration", "freq_fast_vs_brute"]
        assert all(s["detail"] == "|Q| for freq_brute's |Q|^2 = 81 classifications: "
                   "9 exceeds the limit of 8" for s in report.skipped)

    def test_at_brute_limit_runs_both_q_checks(self, monkeypatch):
        monkeypatch.setattr(census, "BRUTE_Q_LIMIT", 9)
        report = validation.ValidationReport(corpus="c6")
        validation.check_graph(gen_family("cycle", 6), "c6", report)
        assert report.success and report.skipped == []

    def test_enumeration_mismatch_is_a_failure(self, monkeypatch):
        # the size check compares the formula with an enumeration of Q
        g = gen_family("cycle", 6)
        original = type(g).q_pairs
        monkeypatch.setattr(type(g), "q_pairs", lambda self: original(self)[1:])
        report = validation.ValidationReport(corpus="c6")
        validation.check_graph(g, "c6", report)
        assert "size_q_formula_vs_enumeration" in [f["check"] for f in report.failures]

    def test_above_exhaustive_limit_records_skips(self):
        report = validation.ValidationReport(corpus="c6")
        validation.check_graph(gen_family("cycle", 6), "c6", report,
                               exhaustive_limit=5)
        assert _skipped_checks(report) == [
            "exhaustive_mean_vs_theory", "exhaustive_variance_vs_theory"]
        assert all(s["detail"] == "vertices for exhaustive enumeration of 6! = 720 "
                   "arrangements: 6 exceeds the limit of 5" for s in report.skipped)

    def test_skips_carry_each_refusal(self):
        # K30: |Q| = 82,215 is over the brute-force limit and n over the
        # exhaustive limit; each skip records the oracle's own error
        g = gen_family("complete", 30)
        report = validation.ValidationReport(corpus="k30")
        validation.check_graph(g, "k30", report)
        with pytest.raises(BudgetError) as brute:
            freq_brute(g)
        with pytest.raises(BudgetError) as exhaustive:
            exhaustive_moments(g)
        assert [(s["check"], s["detail"]) for s in report.skipped] == [
            ("size_q_formula_vs_enumeration", str(brute.value)),
            ("freq_fast_vs_brute", str(brute.value)),
            ("exhaustive_mean_vs_theory", str(exhaustive.value)),
            ("exhaustive_variance_vs_theory", str(exhaustive.value)),
        ]

    def test_q_enumerated_once(self, monkeypatch):
        # the size check reads the length of freq_brute's own enumeration
        g = gen_family("cycle", 6)
        calls = []
        original = type(g).q_pairs
        monkeypatch.setattr(type(g), "q_pairs",
                            lambda self: calls.append(1) or original(self))
        report = validation.ValidationReport(corpus="c6")
        assert validation.check_graph(g, "c6", report) == (9, product_types.freq_fast(g))
        assert report.success and len(calls) == 1


class TestValidateTrees:
    def test_n5_counts_and_success(self):
        rep = validate_trees(5)
        assert rep.graphs_checked == 125 + 16 + 3 + 1
        assert rep.success and not rep.failures

    def test_n4_variance_value_set(self):
        values = {
            variance_rla(from_pruefer(code))
            for code in product(range(1, 5), repeat=2)
        }
        assert values == {Fraction(0), Fraction(2, 9)}

    def test_n5_variance_value_set(self):
        values = {
            variance_rla(from_pruefer(code))
            for code in product(range(1, 6), repeat=3)
        }
        assert values == {Fraction(0), Fraction(5, 9), Fraction(5, 6)}

    def test_n7_full_battery(self):
        # every labeled tree up to n=7 passes the whole cross-check battery,
        # including exhaustive-variance equality (biased estimator)
        rep = validate_trees(7)
        assert rep.graphs_checked == sum(n ** (n - 2) for n in range(2, 8))
        assert rep.success, rep.failures[:3]

    def test_acyclic_form_checks_gamma_table(self, monkeypatch):
        # a wrong gamma_03 leaves the general sum self-consistent, but the
        # paper's tree formula no longer matches it
        from crossings import moments, validation

        gamma = dict(moments.RLA.gamma)
        gamma["03"] += Fraction(1, 1000)
        wrong = moments.LayoutConstants(moments.DELTA_RLA, gamma)
        original = moments.variance_from_freq
        monkeypatch.setattr(moments, "variance_from_freq",
                            lambda fv, constants=wrong: original(fv, constants))
        report = validation.ValidationReport(corpus="path")
        validation.check_graph(from_pruefer((2, 3, 4)), "path5", report,
                               exhaustive_limit=0)
        assert [f["check"] for f in report.failures] == ["acyclic_variance_form"]

    def test_nmax_guard(self):
        with pytest.raises(ValueError):
            validate_trees(12)

    def test_report_json_round_trip(self):
        rep = validate_trees(4)
        data = json.loads(rep.to_json())
        assert data["success"] is True
        assert data["graphs_checked"] == 20
        assert data["failures"] == []


class TestReportChecks:
    def test_each_report_owns_its_checks(self, tmp_path):
        # appending to one report's checks changes no later report's
        path = tmp_path / "k3.g6"
        path.write_text("Bw\n")
        runs = [lambda: validate_trees(3),
                lambda: validate_graph6_corpus(str(path)),
                lambda: validate_er(5, 0.5, trials=1, seed=0)]
        for run in runs:
            first = run()
            expected = list(first.checks)
            first.checks.append("bogus")
            assert run().checks == expected
        assert "bogus" not in validation.CORE_CHECKS


class TestValidateGraph6Corpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("")
        rep = validate_graph6_corpus(str(path))
        assert rep.success and rep.graphs_checked == 0

    def test_all_11_graphs_on_4_vertices(self, tmp_path, atlas_graphs):
        fours = [g for g in atlas_graphs if g.n == 4]
        assert len(fours) == 11
        path = tmp_path / "n4.g6"
        path.write_text("\n".join(nx_graph6_line(g) for g in fours) + "\n")
        rep = validate_graph6_corpus(str(path))
        assert rep.graphs_checked == 11
        assert rep.success, rep.failures

    def test_k4_three_paths_agree(self, tmp_path):
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        rep = validate_graph6_corpus(str(path))
        # the battery itself compares fast, brute and exhaustive variance
        assert rep.success

    def test_limit(self, tmp_path, atlas_graphs):
        path = tmp_path / "corpus.g6"
        path.write_text("\n".join(nx_graph6_line(g) for g in atlas_graphs[:40]) + "\n")
        rep = validate_graph6_corpus(str(path), limit=10)
        assert rep.graphs_checked == 10

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, tmp_path, limit):
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        with pytest.raises(ValueError, match="limit must be at least 1"):
            validate_graph6_corpus(str(path), limit=limit)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("C~\nF?\n")  # second line truncated
        from crossings.graphs import GraphFormatError

        with pytest.raises(GraphFormatError):
            validate_graph6_corpus(str(path))

    def test_line_over_edge_budget_named(self, tmp_path, monkeypatch):
        from crossings import generators

        monkeypatch.setattr(generators, "MAX_EDGES", 7)
        path = tmp_path / "c.g6"
        path.write_text("C~\nD~{\n")  # K4, then K5 with 10 edges
        with pytest.raises(BudgetError,
                           match=f"^{path}: line 2: edges: 10 exceeds the limit of 7$"):
            validate_graph6_corpus(str(path))


class TestValidateFamilies:
    def test_small_range_passes(self):
        rep = validate_families(n_max=15, seed=3)
        assert rep.success, rep.failures
        assert rep.graphs_checked > 60

    def test_checks_listed(self):
        rep = validate_families(n_max=8, seed=1)
        assert "closed_freq_vs_fast" in rep.checks
        assert rep.success

    def test_every_family_reaches_both_sides(self, monkeypatch):
        # each instance's arguments go to gen_family and to the closed forms
        calls = {name: [] for name in ("gen_family", "closed_freq", "closed_variance")}
        for name, log in calls.items():
            def spy(*args, _real=getattr(validation, name), _log=log, **kwargs):
                _log.append((args, kwargs))
                return _real(*args, **kwargs)
            monkeypatch.setattr(validation, name, spy)
        rep = validation.validate_families(n_max=6)
        assert rep.success
        for name, log in calls.items():
            assert {args[0] for args, _ in log} == set(FAMILIES), name
        star_sizes = {(args[1], kwargs["lam"]) for args, kwargs in calls["closed_freq"]
                      if args[0] == "star_plus_isolated"}
        assert star_sizes == {(n, lam) for n in range(7) for lam in range(n + 1)}


class TestValidateEr:
    def test_battery_passes(self):
        rep = validate_er(12, 0.2, trials=8, seed=5)
        assert rep.graphs_checked == 8
        assert rep.success, rep.failures

    def test_p_one_is_complete_fixture(self):
        rep = validate_er(7, 1.0, trials=1, seed=0)
        assert rep.success

    def test_p_range(self):
        with pytest.raises(ValueError):
            validate_er(10, 0.0, trials=1, seed=0)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_trials_at_least_one(self, trials):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            validate_er(10, 0.2, trials=trials, seed=0)

    def test_census_budget_skip(self, monkeypatch):
        monkeypatch.setattr(census, "CENSUS_Q_LIMIT", 1)
        rep = validate_er(12, 0.5, trials=1, seed=2)
        assert rep.success
        skipped = [s["detail"] for s in rep.skipped if s["check"] == "graphette_identities"]
        assert len(skipped) == 1
        assert skipped[0].startswith("|Q| for the graphette census: ")
        assert skipped[0].endswith(" exceeds the limit of 1")

    def test_census_over_p3_budget_skipped(self, monkeypatch):
        monkeypatch.setattr(census, "CENSUS_P3_LIMIT", 1)
        rep = validate_er(12, 0.5, trials=1, seed=2)
        assert rep.success
        skipped = [s["detail"] for s in rep.skipped if s["check"] == "graphette_identities"]
        assert len(skipped) == 1
        assert skipped[0].startswith("3-vertex paths for the graphette census: ")
        assert skipped[0].endswith(" exceeds the limit of 1")

    def test_large_graph_builds_no_q(self, monkeypatch):
        # |Q| is far above the brute-force limit, so Q is never enumerated
        refuse_q_pairs(monkeypatch)
        rep = validate_er(80, 0.5, trials=1, seed=1)
        assert rep.success, rep.failures
        assert {"size_q_formula_vs_enumeration", "freq_fast_vs_brute",
                "graphette_identities"} <= set(_skipped_checks(rep))

    def test_frequencies_computed_once_per_graph(self, monkeypatch):
        # the graphette census reuses what check_graph computed
        calls = {"freq_fast": 0, "size_q": 0}
        for name in calls:
            original = getattr(validation, name)

            def counted(g, _original=original, _name=name):
                calls[_name] += 1
                return _original(g)

            monkeypatch.setattr(validation, name, counted)
        rep = validate_er(9, 0.4, trials=3, seed=4)
        assert rep.success, rep.failures
        assert calls == {"freq_fast": 3, "size_q": 3}

    def test_failures_sorted_by_witness(self):
        rep = validate_er(10, 0.3, trials=3, seed=9)
        keys = [(f["witness"], f["check"]) for f in rep.failures]
        assert keys == sorted(keys)
