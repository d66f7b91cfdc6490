import contextlib
import csv
import io
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossings import BudgetError, __version__, cli, estimator, gen_family
from crossings.cli import main

from conftest import nx_graph6_line, refuse_q_pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, *functions):
    """Count the calls of each function, under every name a crossings module
    holds it by; returns the counts by function name."""
    import sys

    calls = dict.fromkeys((f.__name__ for f in functions), 0)
    for original in functions:
        def counted(*args, _original=original):
            calls[_original.__name__] += 1
            return _original(*args)

        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "crossings" and getattr(
                    module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counted)
    return calls


class TestAnalyze:
    def test_linear_tree_7(self, capsys):
        code, out, err = run(capsys, "analyze", "--family", "linear_tree", "--n", "7")
        assert code == 0
        assert "347/90" in out
        assert err.startswith("# crossings v")

    def test_cycle_4(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "cycle", "--n", "4",
                           "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert data["Var"] == "2/9"
        assert data["f04"] == "2"

    def test_paw_edge_list(self, capsys, tmp_path):
        path = tmp_path / "paw.txt"
        path.write_text("4 4\n1 2\n2 3\n1 3\n3 4\n")
        code, out, _ = run(capsys, "analyze", "--input", str(path), "--out", "json")
        assert code == 0
        assert json.loads(out)["Q"] == "1"

    def test_graph6_input(self, capsys, tmp_path):
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        code, out, _ = run(capsys, "analyze", "--graph6", str(path), "--out", "json")
        assert code == 0
        assert json.loads(out)["m"] == "6"

    def test_graph6_long_form_input(self, capsys, tmp_path):
        # the 63-vertex path: 62 edges under the '~' size form
        path = tmp_path / "p63.g6"
        path.write_text(nx_graph6_line(gen_family("linear_tree", 63)) + "\n")
        code, out, _ = run(capsys, "analyze", "--graph6", str(path), "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["n"], data["m"]) == ("63", "62")

    def test_graph6_above_edge_limit_exit_1(self, capsys, monkeypatch, tmp_path):
        from crossings import generators

        monkeypatch.setattr(generators, "MAX_EDGES", 5)
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        code, out, err = run(capsys, "analyze", "--graph6", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines()[1:] == ["crossings: error: edges: 6 exceeds the limit of 5"]

    def test_graph6_file_with_two_graphs_rejected(self, capsys, tmp_path):
        # C5 then K6: analyzing only the first would hide the second
        path = tmp_path / "two.g6"
        path.write_text("Dhc\nE~~w\n")
        code, out, err = run(capsys, "analyze", "--graph6", str(path))
        assert code == 2
        assert out == ""
        assert "2 graphs" in err
        assert "crossings validate graph6 --path" in err

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
    def test_graph6_file_without_a_graph_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "empty.g6"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", "--graph6", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines()[1:] == [
            f"crossings: parse error: {path}: no graph6 line found"]

    @pytest.mark.parametrize("sizes", [(), ("--n", "5"), ("--p", "0.3")])
    def test_erdos_renyi_requires_n_and_p(self, capsys, sizes):
        code, out, err = run(capsys, "analyze", "--family", "erdos_renyi", *sizes)
        assert code == 1
        assert out == ""
        assert err.splitlines()[1:] == [
            "crossings: error: erdos_renyi requires --n and --p"]

    def test_builds_no_q(self, capsys, monkeypatch):
        # exact moments come from vertex and edge sums, never from Q
        refuse_q_pairs(monkeypatch)
        code, out, _ = run(capsys, "analyze", "--family", "erdos_renyi",
                           "--n", "40", "--p", "0.3", "--seed", "2")
        assert code == 0
        assert "Var" in out

    def test_q_zero_witness_shown(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "star", "--n", "7",
                           "--out", "json")
        assert code == 0
        assert json.loads(out)["q_zero_family"] == "star_with_isolated"

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n1 oops\n")
        code, _, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2
        assert "line 2" in err

    def test_vertex_count_above_limit_exit_1(self, capsys, tmp_path):
        import time

        path = tmp_path / "huge.txt"
        path.write_text("1000000000 0\n")
        started = time.perf_counter()
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert out == ""
        assert "vertices: 1000000000 exceeds the limit of 2000000" in err

    def test_complete_family_above_edge_limit_exit_1(self, capsys):
        # K_4000 has 7,998,000 edges, far under the vertex limit
        import time

        started = time.perf_counter()
        code, out, err = run(capsys, "analyze", "--family", "complete", "--n", "4000")
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert out == ""
        assert err.splitlines()[1:] == [
            "crossings: error: edges: 7998000 exceeds the limit of 2000000"]

    @pytest.mark.parametrize("argv", [
        ("analyze", "--family", "cycle", "--n", "9"),
        ("ztest", "--family", "cycle", "--n", "9", "--observed", "3"),
    ])
    def test_one_frequency_pass_and_no_size_q(self, capsys, monkeypatch, argv):
        # |Q| and E[C] = |Q|/3 come from freq_fast's f24
        from crossings import graphs, product_types

        calls = count_calls(monkeypatch, product_types.freq_fast, graphs.size_q)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert calls == {"freq_fast": 1, "size_q": 0}

    def test_million_isolated_vertices(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("1000000 0\n")
        code, out, _ = run(capsys, "analyze", "--input", str(path), "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["n"], data["m"], data["Var"]) == ("1000000", "0", "0")

    def test_negative_vertex_count_exit_2(self, capsys, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("-1 0\n")
        code, _, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2
        assert "line 1: negative vertex count" in err

    @pytest.mark.parametrize("flag", ["--input", "--graph6"])
    def test_undecodable_file_exit_2(self, capsys, tmp_path, flag):
        path = tmp_path / "bad"
        path.write_bytes(b"\xff")
        code, _, err = run(capsys, "analyze", flag, str(path))
        assert code == 2
        assert f"parse error: {path}: not" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "--input", "/nonexistent/g.txt")
        assert code == 2

    def test_usage_error_exit_1(self, capsys):
        code, _, _ = run(capsys, "analyze", "--family", "linear_tree")
        assert code == 1

    def test_conflicting_inputs_exit_1(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n1 2\n")
        code, _, _ = run(capsys, "analyze", "--input", str(path),
                         "--family", "cycle", "--n", "4")
        assert code == 1


class TestGenerate:
    def test_round_trip_through_analyze(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "--family", "quasi_star", "--n", "6")
        assert code == 0
        path = tmp_path / "g.txt"
        path.write_text(out)
        code, out2, _ = run(capsys, "analyze", "--input", str(path), "--out", "json")
        assert code == 0
        assert json.loads(out2)["n"] == "6"

    def test_out_rejected(self, capsys):
        # edge-list text is generate's only output; --out used to be
        # accepted and ignored
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--family", "cycle", "--n", "4", "--out", "json"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--out" in captured.err

    def test_erdos_renyi_above_edge_limit_exit_1(self, capsys, monkeypatch):
        from crossings import generators

        monkeypatch.setattr(generators, "MAX_EDGES", 10_000)
        code, out, err = run(capsys, "generate", "--family", "erdos_renyi",
                             "--n", "2000", "--p", "0.5")
        assert code == 1
        assert out == ""
        assert "exceeds the limit of 10000" in err

    def test_erdos_renyi_seeded(self, capsys):
        _, out1, _ = run(capsys, "generate", "--family", "erdos_renyi",
                         "--n", "12", "--p", "0.3", "--seed", "5")
        _, out2, _ = run(capsys, "generate", "--family", "erdos_renyi",
                         "--n", "12", "--p", "0.3", "--seed", "5")
        assert out1 == out2

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CROSSINGS_SEED", "5")
        _, out1, _ = run(capsys, "generate", "--family", "erdos_renyi",
                         "--n", "12", "--p", "0.3")
        _, out2, _ = run(capsys, "generate", "--family", "erdos_renyi",
                         "--n", "12", "--p", "0.3", "--seed", "5")
        assert out1 == out2

    def test_bad_env_seed_exit_1(self, capsys, monkeypatch):
        monkeypatch.setenv("CROSSINGS_SEED", "abc")
        code, out, err = run(capsys, "analyze", "--family", "cycle", "--n", "5")
        assert code == 1
        assert out == ""
        assert err == "crossings: error: CROSSINGS_SEED must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("argv", [
        ("estimate", "--family", "cycle", "--n", "12", "--samples", "100"),
        ("scan", "--family", "cycle", "--nmin", "11", "--nmax", "12", "--samples", "100"),
        ("generate", "--family", "erdos_renyi", "--n", "12", "--p", "0.3"),
        ("validate", "er", "--n", "8", "--p", "0.3", "--trials", "1"),
        ("analyze", "--family", "cycle", "--n", "5"),
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exit_1(self, capsys, monkeypatch, argv):
        # refused by its source's name before any work, not by numpy
        monkeypatch.setattr(estimator, "crossing_counts", None)
        code, out, err = run(capsys, *argv, "--seed", "-5")
        assert (code, out) == (1, "")
        assert err == "crossings: error: --seed must be non-negative, got -5\n"
        monkeypatch.setenv("CROSSINGS_SEED", "-5")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "crossings: error: CROSSINGS_SEED must be non-negative, got '-5'\n"
        monkeypatch.undo()
        assert run(capsys, *argv, "--seed", "0")[0] == 0


class TestInputPaths:
    @pytest.mark.parametrize("argv", [
        ("analyze", "--input"),
        ("analyze", "--graph6"),
        ("ztest", "--family", "cycle", "--n", "6", "--arrangement"),
        ("validate", "graph6", "--path"),
    ])
    def test_directory_exit_2(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, str(tmp_path))
        assert code == 2
        assert err.splitlines()[-1].startswith(f"crossings: parse error: {tmp_path}: ")


    @pytest.mark.parametrize("argv", [
        ("analyze",),
        ("ztest", "--observed", "1"),
        ("ztest", "--arrangement", "ARR"),
    ])
    def test_crlf_output_equals_lf(self, capsys, tmp_path, argv):
        text = "5 5\n1 2\n2 3\n3 1\n3 4\n4 5\n"
        outputs = []
        for ending in ("\n", "\r\n"):
            graph, arr = tmp_path / "g.txt", tmp_path / "arr.txt"
            graph.write_bytes(text.replace("\n", ending).encode())
            arr.write_bytes(f"3 1 4 5 2{ending}".encode())
            args = [str(arr) if a == "ARR" else a for a in argv]
            code, out, _ = run(capsys, *args, "--input", str(graph), "--out", "json")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestEstimate:
    def test_exhaustive_small(self, capsys):
        code, out, _ = run(capsys, "estimate", "--family", "linear_tree",
                           "--n", "5", "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "exhaustive"
        assert Fraction(data["variance"]) == Fraction(5, 6)

    def test_monte_carlo_reproducible(self, capsys):
        args = ("estimate", "--family", "cycle", "--n", "15",
                "--samples", "4000", "--seed", "7", "--out", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert json.loads(out1)["mode"] == "monte_carlo"

    @pytest.mark.parametrize("graph", [
        ("--family", "linear_tree", "--n", "7"),
        ("--family", "cycle", "--n", "15", "--samples", "4000", "--seed", "7"),
    ])
    def test_jobs_accepted_and_ignored(self, capsys, graph):
        results = [run(capsys, "estimate", *graph, "--out", "json", *jobs)
                   for jobs in ((), ("--jobs", "1"), ("--jobs", "4"))]
        assert {(code, out) for code, out, _ in results} == {(0, results[0][1])}
        assert all("jobs=" not in err for _, _, err in results)

    def test_monte_carlo_on_no_vertices(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        code, out, _ = run(capsys, "estimate", "--input", str(path),
                           "--exhaustive-limit", "-1", "--samples", "4", "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["mode"], data["mean"], data["variance"]) == ("monte_carlo", "0.0", "0.0")

    def test_monte_carlo_block_over_budget_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(estimator, "MC_BLOCK_BYTES", 10**4)
        code, out, err = run(capsys, "estimate", "--family", "cycle", "--n", "15",
                             "--samples", "4000", "--seed", "7")
        assert code == 1
        assert out == ""
        assert "n = 15, m = 15" in err and "limit of 10000" in err

    def test_monte_carlo_over_work_budget_exit_1(self, capsys, monkeypatch, tmp_path):
        # 10^5 edges on 448 vertices: 2,000 rows pass the memory budget, but
        # merge-counting them would take about a minute
        monkeypatch.setattr(estimator, "crossing_counts", None)
        n = 448
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        path = tmp_path / "dense.txt"
        path.write_text(f"{n} 100000\n" + "".join(f"{u} {v}\n" for u, v in pairs[:100_000]))
        started = time.perf_counter()
        code, out, err = run(capsys, "estimate", "--input", str(path), "--samples", "2000")
        assert time.perf_counter() - started < 1
        assert code == 1
        assert out == ""
        message = err.splitlines()[1]
        assert message.startswith("crossings: error: pair tests of a Monte Carlo "
                                  "estimate of T = 2000 on m = 100000: ")
        assert message.endswith(f" exceeds the limit of {estimator.MC_WORK_LIMIT}")

    def test_monte_carlo_variance_exact_where_c_squared_passes_int64(
            self, capsys, monkeypatch, tmp_path):
        # a random tree of 2 * 10^5 edges has C near 6.7 * 10^9, so C^2 is
        # past 2^63: summed in int64 it wrapped, and the variance came out
        # near -7.4 * 10^19
        n = 200_001
        heads = np.random.default_rng(14).integers(1, np.arange(2, n + 1))
        path = tmp_path / "tree.txt"
        path.write_text(f"{n} {n - 1}\n"
                        + "".join(f"{v} {u}\n" for v, u in zip(range(2, n + 1), heads.tolist())))
        counts = []

        def spy(graph, pos):
            c = original(graph, pos)
            counts.extend(c.tolist())
            return c

        original = estimator.crossing_counts
        monkeypatch.setattr(estimator, "crossing_counts", spy)
        code, out, _ = run(capsys, "estimate", "--input", str(path), "--samples", "2",
                           "--out", "json")
        assert code == 0
        assert min(counts) ** 2 >= 2**63
        variance = float(json.loads(out)["variance"])
        assert variance >= 0
        assert variance == float(Fraction((counts[0] - counts[1]) ** 2, 2))

    @pytest.mark.parametrize("graph,samples,m", [
        (("--family", "star", "--n", "11"), "10000000000", 10),
        (("--family", "star_plus_isolated", "--n", "11", "--n1", "2"),
         "1000000000000000", 1),
    ], ids=["star", "one-edge"])
    def test_monte_carlo_draws_count_in_work_budget(self, capsys, monkeypatch,
                                                     graph, samples, m):
        # |Q| = 0, so only the drawn positions weigh: about 50 minutes of
        # draws for the star, and years for the single edge
        monkeypatch.setattr(estimator, "crossing_counts", None)
        started = time.perf_counter()
        code, out, err = run(capsys, "estimate", *graph, "--samples", samples)
        assert time.perf_counter() - started < 1
        assert (code, out) == (1, "")
        assert err.splitlines()[1].startswith(
            f"crossings: error: pair tests of a Monte Carlo estimate of T = {samples} "
            f"on m = {m}: ")


class TestNoQ:
    # crossings are counted from the edges, never from Q
    @pytest.mark.parametrize("argv", [
        ("estimate", "--family", "one_regular", "--n", "8"),
        ("estimate", "--family", "cycle", "--n", "15", "--samples", "4000"),
    ])
    def test_estimate(self, capsys, monkeypatch, argv):
        expected = run(capsys, *argv, "--out", "json")
        refuse_q_pairs(monkeypatch)
        assert run(capsys, *argv, "--out", "json") == expected

    def test_ztest_arrangement(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "arr.txt"
        path.write_text("1 5 2 6 3 7 4 8\n")
        refuse_q_pairs(monkeypatch)
        code, out, _ = run(capsys, "ztest", "--family", "one_regular", "--n", "8",
                           "--arrangement", str(path), "--out", "json")
        assert code == 0
        assert json.loads(out)["C"] == "6"

    def test_ztest_arrangement_large_tree(self, capsys, monkeypatch, tmp_path):
        # a comb on 2k vertices: legs (i, k+i) and a spine (k+i, k+i+1). At
        # position i for vertex i every two legs interleave and no spine
        # edge has a position strictly inside it, so C = k(k-1)/2. Vertices
        # are relabelled at random so that the edges reach the counter out
        # of position order.
        k = 5000
        n = 2 * k
        label = np.random.Generator(np.random.PCG64(3)).permutation(n) + 1
        edges = [(i, k + i) for i in range(1, k + 1)]
        edges += [(k + i, k + i + 1) for i in range(1, k)]
        graph = tmp_path / "comb.txt"
        graph.write_text(f"{n} {len(edges)}\n" + "".join(
            f"{label[u - 1]} {label[v - 1]}\n" for u, v in edges))
        pos = np.empty(n, dtype=np.int64)
        pos[label - 1] = np.arange(1, n + 1)
        arr = tmp_path / "arr.txt"
        arr.write_text(" ".join(map(str, pos.tolist())) + "\n")
        refuse_q_pairs(monkeypatch)
        code, out, _ = run(capsys, "ztest", "--input", str(graph),
                           "--arrangement", str(arr), "--out", "json")
        assert code == 0
        assert json.loads(out)["C"] == str(k * (k - 1) // 2)


class TestZtest:
    def test_fig3_arrangement_file(self, capsys, tmp_path):
        path = tmp_path / "arr.txt"
        path.write_text("1 5 2 6 3 7 4 8\n")
        code, out, _ = run(capsys, "ztest", "--family", "one_regular", "--n", "8",
                           "--arrangement", str(path), "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert data["C"] == "6"
        assert data["Var"] == "28/15"
        assert float(data["z"]) == pytest.approx(2.92770021885, rel=1e-9)

    def test_observed_at_mean(self, capsys):
        code, out, _ = run(capsys, "ztest", "--family", "cycle", "--n", "6",
                           "--observed", "3", "--out", "json")
        assert code == 0
        assert float(json.loads(out)["z"]) == 0

    def test_star_degenerate_message(self, capsys):
        code, out, _ = run(capsys, "ztest", "--family", "star", "--n", "8",
                           "--observed", "0")
        assert code == 0
        assert "degenerate" in out

    def test_degenerate_csv_reads_back_as_its_json(self, capsys):
        # the note holds a comma, so its csv field is quoted
        line = ["ztest", "--family", "star", "--n", "5", "--observed", "0", "--out"]
        _, csv_out, _ = run(capsys, *line, "csv")
        _, json_out, _ = run(capsys, *line, "json")
        assert list(csv.DictReader(io.StringIO(csv_out))) == [json.loads(json_out)]
        assert csv_out.endswith(',"degenerate: Var[C] = 0, C is constant; no z-score",1\n')

    def test_csv_fields_without_a_comma_are_not_quoted(self, capsys):
        code, out, _ = run(capsys, "ztest", "--family", "cycle", "--n", "6",
                           "--observed", "2", "--out", "csv")
        assert code == 0
        assert out == "C,E,Var,z,chebyshev_pbound\n2,3,16/5,-0.559016994375,1\n"

    def test_observed_builds_no_q(self, capsys, monkeypatch):
        refuse_q_pairs(monkeypatch)
        code, out, _ = run(capsys, "ztest", "--family", "one_regular", "--n", "8",
                           "--observed", "6", "--out", "json")
        assert code == 0
        assert json.loads(out)["Var"] == "28/15"

    def test_undecodable_arrangement_exit_2(self, capsys, tmp_path):
        path = tmp_path / "arr.txt"
        path.write_bytes(b"1 2 \xff\n")
        code, _, err = run(capsys, "ztest", "--family", "cycle", "--n", "3",
                           "--arrangement", str(path))
        assert code == 2
        assert f"parse error: {path}: not utf-8 text" in err

    @pytest.mark.parametrize("text,expected,message", [
        ("1 2 x\n", 2, "parse error: arrangement entries must be integers"),
        ("1 2 3\n", 1, "error: arrangement covers 3 vertices, graph has 5"),
    ])
    def test_bad_arrangement_refused_before_moments(
            self, capsys, monkeypatch, tmp_path, text, expected, message):
        from crossings import product_types

        path = tmp_path / "arr.txt"
        path.write_text(text)
        calls = count_calls(monkeypatch, product_types.freq_fast)
        code, out, err = run(capsys, "ztest", "--family", "cycle", "--n", "5",
                             "--arrangement", str(path))
        assert (code, out, calls) == (expected, "", {"freq_fast": 0})
        assert err.splitlines()[1:] == [f"crossings: {message}"]

    def test_empty_arrangement_path_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "ztest", "--family", "cycle", "--n", "5",
                             "--arrangement", "")
        assert (code, out) == (2, "")
        assert "crossings: parse error: " in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, _ = run(capsys, "ztest", "--family", "cycle", "--n", "6")
        assert code == 1

    @pytest.mark.parametrize("observed,expected", [(-1, 1), (0, 0), (5, 0), (6, 1)])
    def test_observed_within_zero_to_q(self, capsys, observed, expected):
        # cycle(5) has |Q| = 5: no arrangement has fewer than 0 or more
        # than 5 crossings
        code, out, err = run(capsys, "ztest", "--family", "cycle", "--n", "5",
                             "--observed", str(observed))
        assert code == expected
        if expected:
            assert "0..5" in err
            assert out == ""


class TestJsonOutput:
    PAIRS = [
        ("n", "7"),
        ('say "hi"', 'a "quoted" value'),
        ("back\\slash", "C:\\path\\"),
        ("tab\there", "line\nbreak\r\x00\x1f\x7f\b\f"),
        ("naïve", "日本語 \u00e9 \U0001f600 \u2028"),
        ("", ""),
        ("/", "</script>"),
    ]

    @pytest.mark.parametrize("pairs", [PAIRS, PAIRS[:1], PAIRS[5:6],
                                       [("k", "first"), ("j", ""), ("k", "last")]])
    def test_matches_json_dumps(self, capsys, pairs):
        cli._emit_mapping(pairs, "json")
        assert capsys.readouterr().out == json.dumps(dict(pairs), indent=2) + "\n"

    def test_scan_json_is_json_dumps(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "cycle", "--nmin", "3",
                           "--nmax", "5", "--mode", "theory", "--out", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == ["3", "4", "5"]
        assert out == json.dumps(rows, indent=2) + "\n"


class TestScan:
    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "quasi_star",
                           "--nmin", "4", "--nmax", "24",
                           "--mode", "theory", "--out", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 21
        for row in rows:
            n = int(row["n"])
            assert Fraction(row["Var_theory"]) == Fraction(n * (n - 3), 18)
            assert Fraction(row["E_theory"]) == Fraction(n, 3) - 1

    def test_one_regular_skips(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "one_regular",
                           "--nmin", "4", "--nmax", "7",
                           "--mode", "theory", "--out", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["mode"] for r in rows] == ["theory", "skipped", "theory", "skipped"]

    def test_estimates_in_auto_mode(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "cycle",
                           "--nmin", "4", "--nmax", "6",
                           "--samples", "1000", "--out", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["mode"] == "exhaustive" for r in rows)
        assert Fraction(rows[0]["Var_est"]) == Fraction(2, 9)

    @pytest.mark.parametrize("nmin", ["4", "11"])
    def test_exhaustive_mode_honours_limit(self, capsys, monkeypatch, nmin):
        # refused before any size is enumerated
        monkeypatch.setattr(estimator, "crossing_counts", None)
        code, out, err = run(capsys, "scan", "--family", "cycle",
                             "--mode", "exhaustive", "--nmin", nmin, "--nmax", "11")
        assert code == 1
        assert out == ""
        assert "39916800" in err


    def test_exhaustive_mode_refuses_a_large_n_by_name(self, capsys):
        # 2000! has more digits than Python converts to text by default
        code, out, err = run(capsys, "scan", "--family", "cycle",
                             "--mode", "exhaustive", "--nmin", "4", "--nmax", "2000")
        assert code == 1
        assert out == ""
        assert ("vertices for exhaustive enumeration of 2000! arrangements: "
                "2000 exceeds the limit of 10") in err

    def test_monte_carlo_budget_checked_before_any_size_is_sampled(
            self, capsys, monkeypatch):
        # K_65 is the first size over MC_WORK_LIMIT; sampling K_11..K_64
        # first would take minutes
        with pytest.raises(BudgetError) as exc:
            estimator.monte_carlo_moments(gen_family("complete", 65))
        monkeypatch.setattr(estimator, "crossing_counts", None)
        started = time.perf_counter()
        code, out, err = run(capsys, "scan", "--family", "complete",
                             "--nmin", "11", "--nmax", "70")
        assert time.perf_counter() - started < 1
        assert code == 1
        assert out == ""
        assert err.splitlines()[1:] == [f"crossings: error: {exc.value}"]

    def test_monte_carlo_work_summed_over_the_sampled_sizes(self, capsys, monkeypatch):
        # K_11..K_64 at T = 10^5 each fit MC_WORK_LIMIT, but together take
        # 7.21 * 10^11 pair tests, 18 times the limit: about 18 minutes
        for n in (11, 64):
            estimator._check_monte_carlo(gen_family("complete", n), 100_000)
        monkeypatch.setattr(estimator, "crossing_counts", None)
        started = time.perf_counter()
        code, out, err = run(capsys, "scan", "--family", "complete",
                             "--nmin", "11", "--nmax", "64")
        assert time.perf_counter() - started < 1
        assert code == 1
        assert out == ""
        assert err.splitlines()[1:] == [
            "crossings: error: pair tests of the Monte Carlo estimates of "
            "T = 100000 on complete n = 11..64: 720871523020 exceeds the limit "
            f"of {estimator.MC_WORK_LIMIT}"]


class TestValidateCmd:
    def test_trees_success_exit_0(self, capsys):
        code, out, _ = run(capsys, "validate", "trees", "--nmax", "5")
        assert code == 0
        assert json.loads(out)["success"] is True

    def test_er_requires_args(self, capsys):
        code, _, _ = run(capsys, "validate", "er")
        assert code == 1

    def test_graph6_requires_path(self, capsys):
        code, out, err = run(capsys, "validate", "graph6")
        assert code == 1
        assert out == ""
        assert err.splitlines()[1:] == ["crossings: error: validate graph6 requires --path"]

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_er_trials_below_one_exit_1(self, capsys, trials):
        code, out, err = run(capsys, "validate", "er", "--n", "10", "--p", "0.2",
                             "--trials", trials)
        assert code == 1
        assert "trials must be at least 1" in err
        assert out == ""

    def test_er_runs(self, capsys):
        code, out, _ = run(capsys, "validate", "er", "--n", "10", "--p", "0.2",
                           "--trials", "3", "--seed", "4")
        assert code == 0
        assert json.loads(out)["graphs_checked"] == 3

    def test_er_reads_exhaustive_limit(self, capsys):
        code, out, _ = run(capsys, "validate", "er", "--n", "8", "--p", "0.5",
                           "--trials", "1", "--exhaustive-limit", "3")
        assert code == 0
        assert [(s["check"], s["detail"]) for s in json.loads(out)["skipped"]] == [
            (check, "vertices for exhaustive enumeration of 8! = 40320 "
                    "arrangements: 8 exceeds the limit of 3")
            for check in ("exhaustive_mean_vs_theory", "exhaustive_variance_vs_theory")
        ]

    @pytest.mark.parametrize("argv,message", [
        (("trees", "--nmax", "3", "--path", "MISSING", "--n", "5", "--p", "0.3",
          "--limit", "2"), "validate trees takes no --n, --p, --path, --limit"),
        (("families", "--nmax", "3", "--n", "5"), "validate families takes no --n"),
        (("graph6", "--path", "MISSING", "--n", "5", "--p", "0.3"),
         "validate graph6 takes no --n, --p"),
        (("er", "--n", "5", "--p", "0.3", "--path", "MISSING", "--limit", "2"),
         "validate er takes no --path, --limit"),
        (("families", "--nmax", "3", "--exhaustive-limit", "2", "--trials", "0"),
         "validate families takes no --trials, --exhaustive-limit"),
        (("er", "--n", "5", "--p", "0.5", "--trials", "1", "--nmax", "99"),
         "validate er takes no --nmax"),
        (("trees", "--trials", "5"), "validate trees takes no --trials"),
        (("graph6", "--path", "MISSING", "--nmax", "2", "--trials", "0"),
         "validate graph6 takes no --nmax, --trials"),
    ])
    def test_unread_flags_refused_exit_1(self, capsys, tmp_path, argv, message):
        missing = str(tmp_path / "missing.g6")
        code, out, err = run(capsys, "validate",
                             *(missing if a == "MISSING" else a for a in argv))
        assert code == 1
        assert out == ""
        assert err.splitlines()[1:] == [f"crossings: error: {message}"]

    @pytest.mark.parametrize("argv,shown", [
        (("families", "--nmax", "3"), "nmax=3"),
        (("er", "--n", "5", "--p", "0.5", "--trials", "1"),
         "trials=1 exhaustive_limit=10"),
        (("graph6", "--path", "CORPUS", "--exhaustive-limit", "4"),
         "exhaustive_limit=4"),
    ])
    def test_config_line_shows_only_what_the_corpus_reads(self, capsys, tmp_path,
                                                          argv, shown):
        corpus = tmp_path / "c.g6"
        corpus.write_text("C~\n")
        code, _, err = run(capsys, "validate",
                           *(str(corpus) if a == "CORPUS" else a for a in argv))
        assert code == 0
        assert err.splitlines() == [
            f"# crossings v{__version__} cmd=validate seed=0 {shown} out=json"]

    def test_graph6_corpus(self, capsys, tmp_path):
        path = tmp_path / "c.g6"
        path.write_text("C~\nD?{\n")
        code, out, _ = run(capsys, "validate", "graph6", "--path", str(path))
        assert code == 0
        assert json.loads(out)["graphs_checked"] == 2

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_graph6_limit_below_one_exit_1(self, capsys, tmp_path, limit):
        path = tmp_path / "c.g6"
        path.write_text("C~\n")
        code, out, err = run(capsys, "validate", "graph6", "--path", str(path),
                             "--limit", limit)
        assert code == 1
        assert out == ""
        assert "limit must be at least 1" in err

    def test_graph6_cycle_11_records_exhaustive_skips(self, capsys, tmp_path):
        path = tmp_path / "c11.g6"
        path.write_text("JhCGGC@?K?_\n")  # the 11-cycle
        code, out, _ = run(capsys, "validate", "graph6", "--path", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["success"] is True
        assert [(s["check"], s["detail"]) for s in data["skipped"]] == [
            (check, "vertices for exhaustive enumeration of 11! = 39916800 "
                    "arrangements: 11 exceeds the limit of 10")
            for check in ("exhaustive_mean_vs_theory", "exhaustive_variance_vs_theory")
        ]

    @pytest.mark.parametrize("out", ["table", "csv"])
    def test_out_other_than_json_exit_1(self, capsys, out):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "families", "--nmax", "5", "--out", out])
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""

    def test_out_json_default_and_accepted(self, capsys):
        code, out1, err = run(capsys, "validate", "trees", "--nmax", "4")
        assert code == 0 and "out=json" in err
        code, out2, _ = run(capsys, "validate", "trees", "--nmax", "4", "--out", "json")
        assert code == 0
        data1, data2 = json.loads(out1), json.loads(out2)
        del data1["elapsed_seconds"], data2["elapsed_seconds"]
        assert data1 == data2

    def test_graph6_corpus_bad_line_named(self, capsys, tmp_path):
        path = tmp_path / "c.g6"
        path.write_text("C~\nxx\n")
        code, out, err = run(capsys, "validate", "graph6", "--path", str(path))
        assert code == 2
        assert out == ""
        assert f"parse error: {path}: line 2: " in err

    def test_graph6_corpus_line_over_edge_budget_named(self, capsys, monkeypatch,
                                                        tmp_path):
        from crossings import generators

        monkeypatch.setattr(generators, "MAX_EDGES", 7)
        path = tmp_path / "c.g6"
        path.write_text("C~\nD~{\n")  # K4, then K5 with 10 edges
        code, out, err = run(capsys, "validate", "graph6", "--path", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines()[1:] == [
            f"crossings: error: {path}: line 2: edges: 10 exceeds the limit of 7"]

    def test_graph6_corpus_not_ascii_exit_2(self, capsys, tmp_path):
        path = tmp_path / "c.g6"
        path.write_bytes(b"\xff")
        code, _, err = run(capsys, "validate", "graph6", "--path", str(path))
        assert code == 2
        assert f"parse error: {path}: not ascii text" in err


class TestFamilySizes:
    def test_complete_bipartite_n1_n2(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "complete_bipartite",
                           "--n1", "3", "--n2", "4", "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["n"], data["m"], data["Q"], data["Var"]) == ("7", "12", "36", "56/5")
        # --n stands in for --n1
        code, out_n, _ = run(capsys, "analyze", "--family", "complete_bipartite",
                             "--n", "3", "--n2", "4", "--out", "json")
        assert code == 0
        assert out_n == out

    def test_star_plus_isolated_n_n1(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "star_plus_isolated",
                           "--n", "7", "--n1", "4", "--out", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["n"], data["m"], data["Q"]) == ("7", "3", "0")
        assert data["q_zero_family"] == "star_with_isolated"

    @pytest.mark.parametrize("argv,message", [
        (("analyze", "--family", "cycle", "--n1", "5"), "cycle requires n"),
        (("analyze", "--family", "star", "--n", "5", "--n2", "4"),
         "star takes no second part n2"),
        (("analyze", "--family", "cycle", "--n", "5", "--n1", "3"),
         "cycle takes no star size lam"),
        (("analyze", "--family", "complete_bipartite", "--n1", "3"),
         "complete_bipartite requires a second part n2"),
        (("analyze", "--family", "complete_bipartite", "--n2", "3"),
         "complete_bipartite requires n"),
        (("analyze", "--family", "complete_bipartite", "--n1", "0", "--n2", "3"),
         "complete_bipartite requires n, n2 >= 1"),
        (("analyze", "--family", "star_plus_isolated", "--n", "7"),
         "star_plus_isolated requires a star size lam"),
        (("analyze", "--family", "star_plus_isolated", "--n1", "4"),
         "star_plus_isolated requires n"),
        (("generate", "--family", "star_plus_isolated", "--n", "3", "--n1", "4"),
         "star size 4 must be within 0..3"),
        (("scan", "--family", "nosuch", "--nmin", "4", "--nmax", "5"),
         "unknown family 'nosuch'"),
        (("scan", "--family", "complete_bipartite", "--nmin", "4", "--nmax", "5"),
         "complete_bipartite also takes n2"),
        (("scan", "--family", "star_plus_isolated", "--nmin", "4", "--nmax", "5"),
         "star_plus_isolated also takes lam"),
        # a flag that the graph source does not read is refused, not dropped
        (("analyze", "--family", "cycle", "--n", "5", "--p", "0.3"),
         "cycle takes no --p"),
        (("generate", "--family", "erdos_renyi", "--n", "4", "--p", "0.5",
          "--n1", "2", "--n2", "3"),
         "erdos_renyi takes no --n1, --n2"),
        (("analyze", "--input", "INPUT", "--n", "7", "--p", "0.2"),
         "--input takes no --n, --p"),
        (("analyze", "--graph6", "INPUT", "--n2", "3"), "--graph6 takes no --n2"),
        (("analyze", "--family", "complete_bipartite", "--n", "9", "--n1", "3",
          "--n2", "4"),
         "complete_bipartite takes its first part from --n or --n1, not both"),
    ])
    def test_sizes_refused_exit_1(self, capsys, tmp_path, argv, message):
        # the input file holds a valid graph, so only the stray flag is wrong
        path = tmp_path / "graph.txt"
        path.write_text("3 1\n1 2\n" if "--input" in argv else "Bw\n")
        code, out, err = run(capsys, *(str(path) if a == "INPUT" else a for a in argv))
        assert code == 1
        assert out == ""
        [line] = err.splitlines()[1:]  # after the configuration line
        assert line.startswith("crossings: error: ")
        assert message in line


class TestRepeatedMain:
    def test_each_call_uses_its_own_arguments(self, capsys):
        # the parser is built once per process; later calls must not see
        # the options of earlier ones
        argv = ["estimate", "--family", "cycle", "--n", "11", "--samples", "50"]
        code1, out1, err1 = run(capsys, *argv, "--seed", "3", "--out", "json")
        code2, out2, err2 = run(capsys, *argv, "--seed", "4", "--out", "csv")
        assert code1 == code2 == 0
        assert "seed=3" in err1 and "out=json" in err1
        assert "seed=4" in err2 and "out=csv" in err2
        assert json.loads(out1)["seed"] == "3"
        assert next(csv.DictReader(io.StringIO(out2)))["seed"] == "4"
        code3, out3, _ = run(capsys, *argv, "--seed", "3", "--out", "json")
        assert out3 == out1


class TestUsage:
    def test_no_command_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--bogus"])
        assert exc.value.code == 1

    def test_jobs_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--help"])
        assert exc.value.code == 0
        assert "--jobs" not in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_only_a_declined_line_is_parsed_by_argparse(self, capsys, monkeypatch):
        # a plain line is read from the command's declaration, with no
        # argparse parse; any other form of it goes to the top-level parser,
        # which hands the command's arguments to that command's parser
        parsed_by = []
        original = cli._Parser.parse_known_args

        def spy(self, *args, **kwargs):
            parsed_by.append(self.prog)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_known_args", spy)
        line = ["ztest", "--family", "cycle", "--n", "6", "--observed", "3"]
        for out_flag, parsers in ((["--out", "json"], []),
                                  (["--out=json"], ["crossings", "crossings ztest"])):
            parsed_by.clear()
            code, out, _ = run(capsys, *line, *out_flag)
            assert code == 0
            assert json.loads(out)["Var"] == "16/5"
            assert parsed_by == parsers


TOP_USAGE = ("usage: crossings [-h] [--version]\n"
             "                 {analyze,generate,estimate,ztest,scan,validate} ...\n")
COMMANDS = "'analyze', 'generate', 'estimate', 'ztest', 'scan', 'validate'"
ANALYZE_USAGE = (
    "usage: crossings analyze [-h] [--input INPUT] [--graph6 GRAPH6]\n"
    "                         [--family FAMILY] [--n N] [--n1 N1] [--n2 N2] [--p P]\n"
    "                         [--seed SEED] [--out {table,csv,json}]\n")
ESTIMATE_USAGE = (
    "usage: crossings estimate [-h] [--input INPUT] [--graph6 GRAPH6]\n"
    "                          [--family FAMILY] [--n N] [--n1 N1] [--n2 N2]\n"
    "                          [--p P] [--seed SEED] [--out {table,csv,json}]\n"
    "                          [--samples SAMPLES]\n"
    "                          [--exhaustive-limit EXHAUSTIVE_LIMIT]\n")
STAR = ["--family", "star", "--n", "5"]
# argv: (exit code, start of stdout, stderr); argparse ends each with SystemExit
ARGPARSE_EXITS = {
    "empty": ([], 1, "", TOP_USAGE + "crossings: error: the following "
              "arguments are required: cmd\n"),
    "help": (["-h"], 0, TOP_USAGE + "\nCommand-line front end", ""),
    "version": (["--version"], 0, f"crossings {__version__}\n", ""),
    "version before a command": (["--version", "ztest"], 0,
                                 f"crossings {__version__}\n", ""),
    "unknown command": (["nope"], 1, "", TOP_USAGE + "crossings: error: "
                        f"argument cmd: invalid choice: 'nope' (choose from {COMMANDS})\n"),
    "command prefix": (["an"], 1, "", TOP_USAGE + "crossings: error: "
                       f"argument cmd: invalid choice: 'an' (choose from {COMMANDS})\n"),
    "command help": (["ztest", "-h"], 0,
                     "usage: crossings ztest [-h] [--input INPUT] [--graph6 GRAPH6]\n", ""),
    "trailing option": (["ztest", *STAR, "--observed", "1", "--bogus"], 1, "",
                        TOP_USAGE + "crossings: error: unrecognized arguments: --bogus\n"),
    "trailing positional": (["ztest", *STAR, "--observed", "1", "extra"], 1, "",
                            TOP_USAGE + "crossings: error: unrecognized arguments: extra\n"),
    "top-level option after a command": (
        ["analyze", *STAR, "--version"], 1, "",
        TOP_USAGE + "crossings: error: unrecognized arguments: --version\n"),
    "double dash and an extra argument": (
        ["analyze", *STAR, "--", "x"], 1, "",
        TOP_USAGE + "crossings: error: unrecognized arguments: -- x\n"),
    # the top-level parser reads "--=x" as an abbreviation of both its options
    "ambiguous at the top level": (
        ["analyze", *STAR, "--=x"], 1, "",
        TOP_USAGE + "crossings: error: ambiguous option: --=x could match --help, --version\n"),
    "ambiguous after a double dash": (
        ["analyze", *STAR, "--", "--=x"], 1, "",
        TOP_USAGE + "crossings: error: unrecognized arguments: -- --=x\n"),
    "bad choice": (["analyze", *STAR, "--out", "xml"], 1, "", ANALYZE_USAGE
                   + "crossings analyze: error: argument --out: invalid choice: "
                   "'xml' (choose from 'table', 'csv', 'json')\n"),
    "bad int": (["estimate", *STAR, "--jobs", "x"], 1, "", ESTIMATE_USAGE
                + "crossings estimate: error: argument --jobs: invalid int value: 'x'\n"),
}


class TestArgparseEdgeCases:
    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal

    @pytest.mark.parametrize("case", ARGPARSE_EXITS)
    def test_exit_code_and_stderr(self, capsys, case):
        argv, code, out_start, err = ARGPARSE_EXITS[case]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == code
        assert captured.err == err
        assert captured.out.startswith(out_start)
        if not out_start:
            assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--inp", "{path}"], ["--input={path}"],
                                      ["--input", "{path}"]])
    def test_input_spellings(self, capsys, tmp_path, argv):
        path = tmp_path / "paw.txt"
        path.write_text("4 4\n1 2\n2 3\n1 3\n3 4\n")
        code, out, err = run(capsys, "analyze",
                             *(a.format(path=path) for a in argv), "--out", "csv")
        assert code == 0
        assert err == f"# crossings v{__version__} cmd=analyze seed=0 out=csv\n"
        assert out.splitlines()[1].startswith("4,4,")


# command lines that argparse answers itself, with help, a version or a
# usage error, and some that run
PARSER_LINES = [
    ["--help"], *([cmd, "--help"] for cmd in cli._COMMANDS),
    ["-h"],
    ["--version"],
    ["--version", "analyze"],
    [],  # no command
    ["nope"],  # unknown command
    ["anal", *STAR],  # a command's prefix
    ["--=x"],
    ["analyze", "--bogus"],  # unknown flag
    ["analyze", "-h", "--bogus"],
    ["analyze", "--input"],  # missing value
    ["analyze", "--inp", "x"],  # an abbreviation, of a missing file
    ["analyze", *STAR, "--out", "xml"],  # bad choice
    ["analyze", *STAR, "--=x"],
    ["analyze", *STAR, "--", "x"],
    ["analyze", *STAR, "extra", "args"],
    ["estimate", *STAR, "--samples", "x"],  # bad int
    ["estimate", *STAR, "--jobs"],
    ["generate", *STAR, "--out", "json"],  # a flag another command takes
    ["ztest", *STAR, "--observed"],
    ["scan", "--nmax", "6"],  # missing required flag
    ["validate"],  # missing positional
    ["validate", "nope"],
    ["validate", "trees", "--out", "table"],
    ["validate", "trees", "--n", "3"],  # a flag the corpus does not read
    ["analyze", *STAR, "--out", "json"],
    ["analyze", *STAR, "--jobs", "2"],
    ["ztest", *STAR, "--observed", "2", "--out", "csv"],
    ["scan", "--family", "cycle", "--nmax", "6", "--mode", "theory"],
    ["validate", "families", "--nmax", "3"],
    ["generate", "--family", "cycle", "--n", "5"],
]


ALL_PARSERS = ["crossings", *(f"crossings {c}" for c in cli._COMMANDS)]


class TestParseRoutes:
    """A plain line builds no parser, and any other line the top-level
    parser with every command's; what a command line prints and its exit
    code equal those of the top-level parser parsing the whole line."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal

    @staticmethod
    def outcome(capsys, monkeypatch, argv, whole):
        # neither side starts with a parser built
        clear = (cli.build_parser.cache_clear, cli._plain_table.cache_clear)
        for f in clear:
            f()
        with monkeypatch.context() as patch:
            if whole:
                patch.setattr(cli, "_parse", lambda a: cli.build_parser().parse_args(a))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            finally:
                for f in clear:
                    f()
        captured = capsys.readouterr()
        # a validation report's wall-clock time differs between any two runs
        out = re.sub(r'"elapsed_seconds": [0-9.]+', '"elapsed_seconds": T', captured.out)
        return code, out, captured.err

    @pytest.mark.parametrize("argv", PARSER_LINES, ids=" ".join)
    def test_same_bytes_as_the_whole_parser(self, capsys, monkeypatch, argv):
        whole = self.outcome(capsys, monkeypatch, argv, whole=True)
        assert whole[1] or whole[2]
        assert self.outcome(capsys, monkeypatch, argv, whole=False) == whole

    @pytest.mark.parametrize("argv,built", [
        (["estimate", *STAR, "--jobs", "2", "--out", "json"], []),
        (["estimate", *STAR, "--jobs", "x"], ALL_PARSERS),
        (["ztest", *STAR, "--observed", "1", "--bogus"], ALL_PARSERS),
    ], ids=["plain", "usage error", "leftovers"])
    def test_parsers_built(self, capsys, monkeypatch, argv, built):
        # a plain line builds no parser; any other line of a known command
        # builds the top-level parser, with every command's, as --version does
        made = []
        init = cli._Parser.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self.prog)

        monkeypatch.setattr(cli._Parser, "__init__", spy)
        self.outcome(capsys, monkeypatch, argv, whole=False)
        assert made == built


# tokens a plain line must not be fooled by: abbreviations, an option with
# its value, help, a double dash, the top-level parser's ambiguous "--="
HOSTILE_OPTIONS = ["--inp", "--out=json", "-h", "--help", "--", "--=x"]
# values argparse reads as numbers or strings, or refuses, and values that
# start with "-"
VALUES = ["", "-1", "-x", "nan", "1_0", "\u0663", "3", "0.5", "cycle", "xml", "json",
          "theory", "trees", "extra"]


def one_in(draw, k: int) -> bool:
    return draw(st.integers(0, k - 1)) == 0


@st.composite
def command_lines(draw, cmd):
    """A command line of `cmd` built from the option strings it declares,
    values its options take and hostile tokens; repeats, a lone trailing
    option, a bare positional and a missing required option among them."""
    declared = {flag: keywords for flag, keywords in cli._COMMANDS[cmd][2]
                if flag.startswith("-")}
    options = sorted(declared)
    required = [o for o in options if declared[o].get("required")]
    picked = [o for o in required if not one_in(draw, 4)]
    picked += [draw(st.sampled_from(HOSTILE_OPTIONS if one_in(draw, 8) else options))
               for _ in range(draw(st.integers(0, 5)))]
    tokens = []
    for option in draw(st.permutations(picked)):
        keywords = declared.get(option)
        if keywords is None or one_in(draw, 8):
            value = draw(st.sampled_from(VALUES + HOSTILE_OPTIONS))
        elif "choices" in keywords:
            value = draw(st.sampled_from(sorted(keywords["choices"]) + ["xml"]))
        else:
            value = str(draw(st.integers(0, 12)))
        tokens += [option, value]
    if one_in(draw, 4):
        tokens.append(draw(st.sampled_from(options)))
    if one_in(draw, 4):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(VALUES)))
    return [cmd, *tokens]


def same_floats(namespace) -> dict:
    # nan != nan, so floats are compared by their repr
    return {k: repr(v) if isinstance(v, float) else v for k, v in vars(namespace).items()}


class TestPlainLines:
    """A plain line, a command then `--option value` pairs naming its
    options exactly, is read from the command's declaration; the namespace
    is the one the top-level parser makes."""

    @pytest.mark.parametrize("cmd", cli._COMMANDS)
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_declines_or_matches_argparse(self, cmd, data):
        argv = data.draw(command_lines(cmd))
        plain = cli._parse_plain(argv)
        if plain is None:
            return
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                args = cli.build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse refuses {argv}: {err.getvalue()}")
        assert same_floats(plain) == same_floats(args), argv

    @pytest.mark.parametrize("argv", [
        ["analyze", "--inp", "g.txt"],
        ["analyze", "--input=g.txt"],
        ["analyze", "--input", "g.txt", "-h"],
        ["analyze", "--input", "g.txt", "--", "x"],
        ["analyze", "--input", "g.txt", "--=x", "y"],
        ["analyze", "--input", "-x"],
        ["ztest", "--input", "g.txt", "--seed", "-1"],
        ["ztest", "--input", "g.txt", "--observed"],
        ["ztest", "--input", "g.txt", "--observed", "x"],
        ["ztest", "--input", "g.txt", "--out", "xml"],
        ["scan", "--nmax", "6"],
        ["validate", "trees"],
        ["generate", "--family", "cycle", "--n", "5", "--out", "json"],
    ], ids=" ".join)
    def test_declines(self, argv):
        assert cli._parse_plain(argv) is None

    def test_repeated_option_keeps_its_last_value(self):
        args = cli._parse_plain(["ztest", "--n", "4", "--observed", "1", "--n", "6"])
        assert (args.n, args.observed, args.cmd, args.func) == (6, 1, "ztest", cli.cmd_ztest)

    def test_every_workload_line_is_plain(self, monkeypatch, tmp_path):
        # every command the benchmark's workloads run at seeds 1 and 2 skips
        # argparse: z-tests, analyses, and exhaustive and Monte Carlo estimates
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        lines = []
        for seed in (1, 2):
            for build in workloads.BUILDERS.values():
                builder = workloads.Builder(tmp_path, seed)
                build(builder)
                lines += [c.argv for c in builder.commands]
        assert len(lines) > 2000
        assert {argv[0] for argv in lines} == {"analyze", "estimate", "ztest"}
        assert {"--jobs", "--samples", "--seed"} <= {
            token for argv in lines if argv[0] == "estimate" for token in argv}
        assert [argv for argv in lines if cli._parse_plain(argv) is None] == []
