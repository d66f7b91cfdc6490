"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 8 checks the scaling exponents of the closed forms: the log-log
slope of each family's expectation and variance over n in [50, 100] must
match the degree in n of its polynomial in `closed_forms.py`.
"""

import math
import time
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from crossings import (
    ALPHA_RLA,
    FreqVector,
    LinearArrangement,
    closed_expectation,
    closed_freq,
    closed_variance,
    crossings,
    exhaustive_moments,
    from_graph6,
    from_pruefer,
    gen_family,
    monte_carlo_moments,
    size_q,
    variance_rla,
)
from crossings.moments import variance_from_freq
from crossings.census import (
    GRAPHETTE_MULTIPLIERS,
    GRAPHETTE_SHAPES,
    count_graphette,
    freq_brute,
)
from crossings.product_types import PRODUCT_TYPES, freq_fast


def report(num: int, ok: bool, detail: str):
    print(f"\nCRITERION {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def all_trees(n_max):
    for n in range(2, n_max + 1):
        for code in product(range(1, n + 1), repeat=n - 2):
            yield n, code, from_pruefer(code)


def test_criterion_1_appendix_golden_fixtures():
    started = time.perf_counter()
    golden = [
        ("linear_tree", 4, Fraction(2, 9), {"24": 1}),
        ("linear_tree", 5, Fraction(5, 6), {"24": 3, "13": 4, "03": 2}),
        ("quasi_star", 5, Fraction(5, 9), {"24": 2, "13": 2}),
        ("linear_tree", 6, Fraction(2), {"24": 6, "12": 6, "13": 12,
                                         "03": 4, "021": 4, "022": 4}),
        ("linear_tree", 7, Fraction(347, 90), {"24": 10, "13": 24, "12": 24,
                                               "03": 6, "021": 12, "022": 12,
                                               "01": 12}),
        ("complete", 4, Fraction(0), {"24": 3, "04": 6}),
        ("complete", 5, Fraction(0), {"24": 15, "13": 60, "04": 30, "03": 120}),
    ]
    ok = True
    for family, n, want_var, want_freq in golden:
        g = gen_family(family, n)
        ok &= variance_rla(g) == want_var
        ok &= freq_fast(g) == FreqVector.from_dict(want_freq)
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    assert report(1, ok, f"7 golden fixtures, exact rational equality "
                         f"({elapsed:.3f}s < 1s)")


def test_criterion_2_table2_constants_rederived():
    started = time.perf_counter()
    reps = {
        "00": (8, ((1, 2), (3, 4)), ((5, 6), (7, 8))),
        "24": (4, ((1, 2), (3, 4)), ((1, 2), (3, 4))),
        "13": (5, ((1, 2), (3, 4)), ((1, 2), (3, 5))),
        "12": (6, ((1, 2), (3, 4)), ((1, 2), (5, 6))),
        "04": (4, ((1, 2), (3, 4)), ((1, 3), (2, 4))),
        "03": (5, ((1, 2), (3, 4)), ((1, 3), (4, 5))),
        "021": (6, ((1, 2), (3, 4)), ((1, 3), (5, 6))),
        "022": (6, ((1, 2), (3, 4)), ((1, 5), (3, 6))),
        "01": (7, ((1, 2), (3, 4)), ((1, 5), (6, 7))),
    }
    ok = True
    for code, (k, q1, q2) in reps.items():
        hits = 0
        for perm in permutations(range(1, k + 1)):
            pos = dict(zip(range(1, k + 1), perm))

            def cross(e, f):
                lo1, hi1 = sorted((pos[e[0]], pos[e[1]]))
                lo2, hi2 = sorted((pos[f[0]], pos[f[1]]))
                return lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1

            hits += cross(*q1) and cross(*q2)
        ok &= Fraction(hits, math.factorial(k)) == ALPHA_RLA[code]
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    assert report(2, ok, f"alpha re-derived from |v|! enumerations for all 9 "
                         f"types ({elapsed:.2f}s < 5s)")


def test_criterion_3_oracle_equivalence(er_corpus, atlas_graph6_path):
    started = time.perf_counter()
    tree_count = 0
    ok = True
    for _, _, g in all_trees(7):
        ok &= freq_fast(g) == freq_brute(g)
        tree_count += 1
    er_count = 0
    for _, g in er_corpus:
        ok &= freq_fast(g) == freq_brute(g)
        er_count += 1
    corpus_count = 0
    with open(atlas_graph6_path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            g = from_graph6(line)
            ok &= freq_fast(g) == freq_brute(g)
            corpus_count += 1
    elapsed = time.perf_counter() - started
    assert report(
        3, ok,
        f"freq_fast == freq_brute on {tree_count} labeled trees (n<=7), "
        f"{er_count} ER graphs, {corpus_count} graph6 corpus graphs "
        f"({elapsed:.1f}s)",
    )
    assert er_count >= 50


def test_criterion_4_graphette_identities(er_corpus):
    started = time.perf_counter()
    ok = True
    for key, g in er_corpus:
        fv = freq_fast(g)
        for code in PRODUCT_TYPES:
            want = GRAPHETTE_MULTIPLIERS[code] * count_graphette(
                g, GRAPHETTE_SHAPES[code]
            )
            ok &= fv[code] == want
    elapsed = time.perf_counter() - started
    assert report(
        4, ok,
        f"f_w = a_w * n_G(F_w) for all 9 types on {len(er_corpus)} ER graphs, "
        f"incl. the 021 identity ({elapsed:.1f}s)",
    )


def test_criterion_5_closed_forms_vs_general_path():
    started = time.perf_counter()
    ok = True
    count = 0
    combos = [
        ("complete", range(4, 41)),
        ("cycle", range(4, 41)),
        ("linear_tree", range(4, 41)),
        ("quasi_star", range(4, 41)),
        ("one_regular", range(4, 41, 2)),
    ]
    for family, ns in combos:
        for n in ns:
            g = gen_family(family, n)
            ok &= closed_freq(family, n) == freq_fast(g)
            ok &= closed_variance(family, n) == variance_rla(g)
            count += 1
    for n1 in range(2, 11):
        for n2 in range(n1, 11):
            g = gen_family("complete_bipartite", n1, n2=n2)
            ok &= closed_freq("complete_bipartite", n1, n2=n2) == freq_fast(g)
            ok &= closed_variance("complete_bipartite", n1, n2=n2) == variance_rla(g)
            count += 1
    elapsed = time.perf_counter() - started
    assert report(5, ok, f"closed forms == general path on {count} instances, "
                         f"exact ({elapsed:.1f}s)")


def test_criterion_6_theory_vs_exhaustive_enumeration():
    started = time.perf_counter()
    ok = True
    count = 0
    instances = []  # gen_family's arguments, handed to the closed forms too
    for n in range(4, 9):
        for family in ("complete", "cycle", "linear_tree", "quasi_star", "star"):
            instances.append((family, n, {}))
        if n % 2 == 0:
            instances.append(("one_regular", n, {}))
    for n1 in range(2, 5):
        for n2 in range(n1, 9 - n1):
            instances.append(("complete_bipartite", n1, {"n2": n2}))
    for family, n, params in instances:
        g = gen_family(family, n, **params)
        rep = exhaustive_moments(g)
        ok &= rep.mean == Fraction(size_q(g), 3) == closed_expectation(family, n, **params)
        ok &= rep.variance == variance_rla(g) == closed_variance(family, n, **params)
        count += 1
    elapsed = time.perf_counter() - started
    assert report(6, ok, f"population moments == theory for {count} family "
                         f"instances with 4<=n<=8, exact ({elapsed:.1f}s)")


def test_criterion_7_monte_carlo_regime():
    started = time.perf_counter()
    ok = True
    details = []
    for family, seed in [("cycle", 7), ("linear_tree", 7)]:
        g = gen_family(family, 50)
        theory = float(closed_variance(family, 50))
        rep = monte_carlo_moments(g, samples=100_000, seed=seed)
        rel = abs(rep.variance - theory) / theory
        details.append(f"{family}(50) rel err {rel:.4f}")
        ok &= rel < 0.02
    elapsed = time.perf_counter() - started
    assert report(7, ok, f"T=1e5 variance within 2%: {', '.join(details)} "
                         f"({elapsed:.1f}s)")


def test_criterion_8_scaling_laws():
    started = time.perf_counter()

    def slope(family, stat):
        closed = closed_variance if stat == "var" else closed_expectation
        ns, ys = [], []
        for n in range(50, 101):
            if family == "one_regular" and n % 2:
                continue
            ns.append(math.log(n))
            ys.append(math.log(float(closed(family, n))))
        return float(np.polyfit(ns, ys, 1)[0])

    # Each expected exponent is the degree in n of the closed form.
    cases = [
        ("quasi_star", "var", 2.0),   # n(n - 3)/18
        ("one_regular", "var", 3.0),  # (n - 2)n(n + 6)/360
        ("cycle", "var", 3.0),        # n(2n^2 + n - 30)/90
        ("linear_tree", "var", 3.0),  # (2n^3 - 5n^2 - 22n + 60)/90
        ("quasi_star", "exp", 1.0),   # |Q|/3 = (n - 3)/3
        ("one_regular", "exp", 2.0),  # |Q|/3 = C(n/2, 2)/3
        ("cycle", "exp", 2.0),        # |Q|/3 = n(n - 3)/6
        ("linear_tree", "exp", 2.0),  # |Q|/3 = C(n - 2, 2)/3
    ]
    parts = []
    for family, stat, want in cases:
        got = slope(family, stat)
        good = abs(got - want) <= 0.1
        parts.append(f"{family}/{stat}={got:.2f}{'' if good else f'!={want}+-0.1'}")
    failed = [part for part in parts if "!=" in part]
    ok = not failed
    elapsed = time.perf_counter() - started
    report(8, ok, f"log-log slopes over n in [50,100]: {'; '.join(parts)} "
                  f"({elapsed:.1f}s)")
    assert ok, f"log-log slope off its expected exponent: {'; '.join(failed)}"


def test_criterion_9_structural_invariants(er_corpus, atlas_graphs):
    started = time.perf_counter()
    ok = True
    checked = 0
    rng = np.random.Generator(np.random.PCG64(99))

    def check(g, acyclic_known=None):
        nonlocal ok, checked
        q = size_q(g)
        fv = freq_fast(g)
        ok &= sum(fv) == q * q
        ok &= fv["24"] == q
        ok &= all(fv[c] % 2 == 0 for c in PRODUCT_TYPES if c != "24")
        if acyclic_known:
            ok &= fv["04"] == 0
        ok &= variance_from_freq(fv) >= 0
        if g.n >= 1:
            for _ in range(3):
                arr = LinearArrangement((rng.permutation(g.n) + 1).tolist())
                ok &= crossings(g, arr) <= q
        checked += 1

    for _, g in er_corpus:
        check(g)
    for g in atlas_graphs:
        check(g)
    for _, _, g in all_trees(6):
        check(g, acyclic_known=True)
    for n in range(4, 21):
        check(gen_family("linear_tree", n), acyclic_known=True)
        check(gen_family("cycle", n))
    elapsed = time.perf_counter() - started
    assert report(9, ok, f"sum/parity/f04/C<=|Q|/Var>=0 invariants on "
                         f"{checked} corpus graphs ({elapsed:.1f}s)")


def test_criterion_10_q_zero_classification(atlas_graphs):
    started = time.perf_counter()
    from crossings import is_q_zero

    ok = True
    checked = 0
    for g in atlas_graphs:
        ok &= bool(is_q_zero(g)) == (size_q(g) == 0)
        checked += 1
    for _, _, g in all_trees(7):
        ok &= bool(is_q_zero(g)) == (size_q(g) == 0)
        checked += 1
    elapsed = time.perf_counter() - started
    assert report(10, ok, f"is_q_zero == (|Q| = 0) on {checked} graphs: all "
                          f"n<=7 isomorphism reps + all labeled trees n<=7 "
                          f"({elapsed:.1f}s)")
