import json
from fractions import Fraction
from itertools import product

import pytest

from crossings import (
    from_pruefer,
    validate_er,
    validate_families,
    validate_graph6_corpus,
    validate_trees,
    variance_rla,
)

from conftest import nx_graph6_line


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

        gamma = dict(moments.GAMMA_RLA)
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

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("C~\nF?\n")  # second line truncated
        from crossings.graphs import GraphFormatError

        with pytest.raises(GraphFormatError):
            validate_graph6_corpus(str(path))


class TestValidateFamilies:
    def test_small_range_passes(self):
        rep = validate_families(n_max=15, bipartite_max=5,
                                mc_samples=5000, seed=3)
        assert rep.success, rep.failures
        assert rep.graphs_checked > 60

    def test_checks_listed(self):
        rep = validate_families(n_max=8, bipartite_max=3,
                                mc_samples=2000, seed=1)
        assert "closed_freq_vs_fast" in rep.checks
        assert rep.success


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

    def test_census_budget_skip(self):
        rep = validate_er(12, 0.5, trials=1, seed=2, census_q_limit=1)
        assert rep.success
        assert any(s["check"] == "graphette_identities" for s in rep.skipped)

    def test_failures_sorted_by_witness(self):
        rep = validate_er(10, 0.3, trials=3, seed=9)
        keys = [(f["witness"], f["check"]) for f in rep.failures]
        assert keys == sorted(keys)
