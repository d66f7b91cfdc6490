"""Cross-validation battery: every computation path checked against the
others over tree enumerations, graph6 corpora, special families and
Erdos-Renyi ensembles.

All theoretical comparisons are exact rational equalities; tolerances exist
only for Monte Carlo spot checks and are recorded in the failure detail.
Only public operations are used, keeping each side of a comparison
independent of the other's internals.

An oracle over its budget (freq_brute, exhaustive enumeration, the graphette
census) refuses with a BudgetError, and `_oracle` records the checks that
needed it as skipped, with the error's text.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import moments
from .closed_forms import closed_freq, closed_variance
from .estimator import DEFAULT_EXHAUSTIVE_LIMIT, exhaustive_moments, monte_carlo_moments
from .graphs import (
    FAMILIES,
    BudgetError,
    Graph,
    GraphFormatError,
    _family_extra,
    erdos_renyi,
    from_graph6,
    from_pruefer,
    gen_family,
    is_q_zero,
    q_edge,
    read_input_file,
    size_q,
)
from .product_types import (
    GRAPHETTE_MULTIPLIERS,
    GRAPHETTE_SHAPES,
    PRODUCT_TYPES,
    FreqVector,
    count_graphette,
    freq_brute,
    freq_fast,
)

MC_SPOT_REL_TOL = 0.1


@dataclass
class ValidationReport:
    corpus: str
    graphs_checked: int = 0
    checks: list[str] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def success(self) -> bool:
        return not self.failures

    def fail(self, witness: str, check: str, detail: str):
        self.failures.append({"witness": witness, "check": check, "detail": detail})

    def skip(self, witness: str, check: str, detail: str):
        self.skipped.append({"witness": witness, "check": check, "detail": detail})

    def finish(self, started: float) -> "ValidationReport":
        self.failures.sort(key=lambda f: (f["witness"], f["check"]))
        self.elapsed_seconds = time.perf_counter() - started
        return self

    def to_json(self) -> str:
        return json.dumps(
            {
                "corpus": self.corpus,
                "graphs_checked": self.graphs_checked,
                "checks": self.checks,
                "failures": self.failures,
                "skipped": self.skipped,
                "elapsed_seconds": round(self.elapsed_seconds, 3),
                "success": self.success,
            },
            indent=2,
        )


def _is_acyclic(g: Graph) -> bool:
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _tree_form_variance(fv) -> Fraction:
    # acyclic graphs: the f04 term drops out of the general expression
    return Fraction(1, 9) * (
        2 * fv["24"]
        + Fraction(fv["022"], 20)
        + Fraction(fv["12"], 5)
        + Fraction(fv["13"], 2)
        - (Fraction(fv["021"], 10) + Fraction(fv["03"], 4))
    )


CORE_CHECKS = [
    "size_q_formula_vs_enumeration",
    "q_edge_sum",
    "q_zero_predicate",
    "freq_fast_vs_brute",
    "freq_sum_is_q_squared",
    "freq_parity",
    "variance_nonnegative",
    "acyclic_f04_zero",
    "acyclic_variance_form",
    "exhaustive_mean_vs_theory",
    "exhaustive_variance_vs_theory",
]


def _oracle(report: ValidationReport, witness: str, checks: tuple[str, ...], run):
    """run(), or None after a BudgetError, each of `checks` skipped with its text."""
    try:
        return run()
    except BudgetError as exc:
        for check in checks:
            report.skip(witness, check, str(exc))
        return None


def check_graph(
    g: Graph,
    witness: str,
    report: ValidationReport,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> tuple[int, FreqVector]:
    """Run the core cross-check battery on one graph. A check whose oracle
    exceeds its budget is recorded as skipped, with the oracle's refusal.
    Returns |Q| by the formula and freq_fast(g), for further checks."""
    q = size_q(g)
    edge_sum = sum(q_edge(g, u, v) for u, v in g.edges)
    if edge_sum != 2 * q:
        report.fail(witness, "q_edge_sum", f"sum q(s,t) = {edge_sum} != 2|Q| = {2 * q}")
    family = is_q_zero(g)
    if (family is not None) != (q == 0):
        report.fail(
            witness, "q_zero_predicate",
            f"is_q_zero = {family!r} but |Q| = {q}",
        )

    fv = freq_fast(g)
    fb = _oracle(report, witness, ("size_q_formula_vs_enumeration",
                                   "freq_fast_vs_brute"), lambda: freq_brute(g))
    if fb is not None:
        enumerated = fb["24"]  # the length of freq_brute's enumeration of Q
        if q != enumerated:
            report.fail(
                witness, "size_q_formula_vs_enumeration",
                f"formula {q} != enumerated {enumerated}",
            )
        if fv != fb:
            report.fail(
                witness, "freq_fast_vs_brute",
                f"fast {fv.as_tuple()} != brute {fb.as_tuple()}",
            )

    if fv.total() != q * q:
        report.fail(
            witness, "freq_sum_is_q_squared",
            f"sum f = {fv.total()} != |Q|^2 = {q * q}",
        )
    if fv["24"] != q:
        report.fail(witness, "freq_parity", f"f24 = {fv['24']} != |Q| = {q}")
    for code in PRODUCT_TYPES:
        if code != "24" and fv[code] % 2:
            report.fail(witness, "freq_parity", f"f{code} = {fv[code]} is odd")

    var = moments.variance_from_freq(fv)
    if var < 0:
        report.fail(witness, "variance_nonnegative", f"Var = {var}")

    if _is_acyclic(g):
        if fv["04"] != 0:
            report.fail(witness, "acyclic_f04_zero", f"f04 = {fv['04']}")
        tree_var = _tree_form_variance(fv)
        if tree_var != var:
            report.fail(
                witness, "acyclic_variance_form",
                f"tree-form variance {tree_var} != sum f_w gamma_w = {var}",
            )

    rep = _oracle(report, witness, ("exhaustive_mean_vs_theory",
                                     "exhaustive_variance_vs_theory"),
                  lambda: exhaustive_moments(g, exhaustive_limit))
    if rep is not None:
        if rep.mean != moments.expectation_rla(g):
            report.fail(
                witness, "exhaustive_mean_vs_theory",
                f"enumerated {rep.mean} != |Q|/3 = {moments.expectation_rla(g)}",
            )
        if rep.variance != var:
            report.fail(
                witness, "exhaustive_variance_vs_theory",
                f"enumerated {rep.variance} != theoretical {var}",
            )
    return q, fv


def validate_trees(
    n_max: int, exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> ValidationReport:
    """All labeled trees up to n_max vertices via Pruefer codes (lex order)."""
    if n_max > 9:
        raise ValueError(f"n_max = {n_max} too large: n^(n-2) trees is prohibitive")
    started = time.perf_counter()
    report = ValidationReport(corpus=f"labeled-trees-n<={n_max}", checks=CORE_CHECKS)
    for n in range(2, n_max + 1):
        for code in product(range(1, n + 1), repeat=n - 2):
            g = from_pruefer(code)
            check_graph(g, f"tree-n{n}-pruefer{code}", report,
                        exhaustive_limit=exhaustive_limit)
            report.graphs_checked += 1
    return report.finish(started)


def validate_graph6_corpus(
    path: str,
    limit: int | None = None,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> ValidationReport:
    """Battery over the first `limit` (>= 1, default all) graphs of a graph6 file."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    started = time.perf_counter()
    report = ValidationReport(corpus=f"graph6:{path}", checks=CORE_CHECKS)
    text = read_input_file(path, "ascii")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if limit is not None and report.graphs_checked >= limit:
            break
        try:
            g = from_graph6(line)
        except (GraphFormatError, BudgetError) as exc:
            exc.args = (f"{path}: line {lineno}: {exc}",)  # name where it is
            raise
        check_graph(g, f"line{lineno}:{line}", report,
                    exhaustive_limit=exhaustive_limit)
        report.graphs_checked += 1
    return report.finish(started)


def validate_families(
    n_max: int = 40,
    bipartite_max: int = 10,
    mc_samples: int = 20_000,
    seed: int = 0,
) -> ValidationReport:
    """Closed forms vs the general path for all special families.

    Exact equality of frequency vectors and variances for every instance
    gen_family accepts with n <= n_max (complete_bipartite: both parts
    <= bipartite_max; star_plus_isolated: every star size lam in 0..n), the
    same arguments going to gen_family and the closed forms; one Monte Carlo
    spot check per one-size family at its largest size (relative tolerance
    recorded in the check detail).
    """
    started = time.perf_counter()
    report = ValidationReport(
        corpus=f"families-n<={n_max}",
        checks=["closed_freq_vs_fast", "closed_variance_vs_general", "mc_spot"],
    )
    for family in FAMILIES:
        extra = _family_extra(family)
        if extra == "n2":  # both parts up to bipartite_max
            sizes = [(n, {"n2": n2}) for n in range(bipartite_max + 1)
                     for n2 in range(n, bipartite_max + 1)]
        elif extra == "lam":  # every star size of each n
            sizes = [(n, {"lam": lam}) for n in range(n_max + 1)
                     for lam in range(n + 1)]
        else:
            sizes = [(n, {}) for n in range(n_max + 1)]
        checked = None
        for n, params in sizes:
            try:  # gen_family and the closed forms refuse the same sizes
                g = gen_family(family, n, **params)
            except ValueError:
                continue
            witness = "-".join([family, str(n)] + [f"{k}={v}" for k, v in params.items()])
            fv = freq_fast(g)
            cf = closed_freq(family, n, **params)
            if fv != cf:
                report.fail(
                    witness, "closed_freq_vs_fast",
                    f"closed {cf.as_tuple()} != fast {fv.as_tuple()}",
                )
            cv = closed_variance(family, n, **params)
            gv = moments.variance_from_freq(fv)
            if cv != gv or cv != moments.variance_from_freq(cf):
                report.fail(
                    witness, "closed_variance_vs_general",
                    f"closed {cv} != general {gv}",
                )
            report.graphs_checked += 1
            checked = n
        # one Monte Carlo spot check per one-size family, at the largest size
        # if it is >= 5 and Var[C] > 0 there
        if extra is not None or checked is None or checked < 5:
            continue
        theory = closed_variance(family, checked)
        if theory == 0:
            continue
        rep = monte_carlo_moments(gen_family(family, checked), samples=mc_samples,
                                  seed=seed)
        rel = abs(rep.variance - float(theory)) / float(theory)
        if rel > MC_SPOT_REL_TOL:
            report.fail(
                f"{family}-{checked}", "mc_spot",
                f"relative error {rel:.4f} above tolerance {MC_SPOT_REL_TOL} "
                f"(T={mc_samples}, seed={seed})",
            )
    return report.finish(started)


def validate_er(n: int, p: float, trials: int, seed: int) -> ValidationReport:
    """Erdos-Renyi battery: oracle equivalence plus graphette identities.

    Trial t uses the derived graph seed SeedSequence([seed, t]).
    """
    if not 0 < p <= 1:
        raise ValueError("p must be within (0, 1]")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    import numpy as np

    started = time.perf_counter()
    report = ValidationReport(
        corpus=f"erdos-renyi-n{n}-p{p}-trials{trials}",
        checks=CORE_CHECKS + ["graphette_identities"],
    )
    for t in range(trials):
        gseed = int(np.random.SeedSequence([seed, t]).generate_state(1)[0])
        g = erdos_renyi(n, p, gseed)
        witness = f"er-n{n}-p{p}-trial{t}"
        _, fv = check_graph(g, witness, report)
        report.graphs_checked += 1
        counts = _oracle(report, witness, ("graphette_identities",), lambda: [
            count_graphette(g, GRAPHETTE_SHAPES[code]) for code in PRODUCT_TYPES])
        if counts is None:
            continue
        for code, count in zip(PRODUCT_TYPES, counts):
            expected = GRAPHETTE_MULTIPLIERS[code] * count
            if fv[code] != expected:
                report.fail(
                    witness, "graphette_identities",
                    f"f{code} = {fv[code]} != "
                    f"{GRAPHETTE_MULTIPLIERS[code]} * n_G({GRAPHETTE_SHAPES[code]}) "
                    f"= {expected}",
                )
    return report.finish(started)
