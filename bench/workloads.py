"""The benchmark's workloads: seeded inputs, the commands run on them, and
the checks of each command's output against the oracles.

Every input is generated here from the workload seed and written as an
edge-list or arrangement file; the program sees only those files.
"""

from __future__ import annotations

import functools
import heapq
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

TREEBANK_TREES = 1000
# Tree sizes follow round(lognormal(ln 18, 0.5)) clipped to 5..60. The median
# and spread are an assumption, not fitted to the sentence lengths of any
# treebank; they set E[n^2], and so most of the treebank figures.
TREE_SIZE_MEDIAN, TREE_SIZE_SIGMA, TREE_SIZE_RANGE = 18, 0.5, (5, 60)
TREEBANK_PATHS, TREEBANK_STARS = 30, 20
MC_SAMPLES = 50_000
# Monte Carlo estimates must lie within this many standard errors of the
# exact moments; the variance's standard error uses the normal
# approximation Var * sqrt(2 / (T - 1)).
MC_TOLERANCE_SE = 6
# Mark commands whose timings set graphs_per_s and the latency percentiles.
MAIN, SIDE = True, False


# --- graphs ------------------------------------------------------------------


@dataclass
class Graph:
    """An input graph: n, edges over 1..n, and the kind that has a closed form."""

    n: int
    edges: list[tuple[int, int]]
    closed: tuple[Fraction, Fraction] | None = None  # (E, Var) if known

    @functools.cached_property
    def q(self) -> int:
        return oracles.q_size(self.n, self.edges)

    @functools.cached_property
    def exact_moments(self) -> tuple[Fraction, Fraction]:
        if self.closed is not None:
            return self.closed
        if self.n <= 7:
            return oracles.enumerate_moments(self.n, self.edges)
        counts = oracles.pair_type_counts(self.edges)
        return Fraction(self.q, 3), oracles.variance_from_counts(counts)

    def text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"] + [f"{u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


def relabel(g: Graph, rng) -> Graph:
    perm = rng.permutation(g.n) + 1
    edges = [(int(perm[u - 1]), int(perm[v - 1])) for u, v in g.edges]
    return Graph(g.n, [(min(e), max(e)) for e in edges], g.closed)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)], oracles.path_moments(n))


def star(n):
    return Graph(n, [(1, v) for v in range(2, n + 1)], oracles.star_moments(n))


def cycle(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)], oracles.cycle_moments(n))


def bipartite(a, b):
    edges = [(u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)]
    return Graph(a + b, edges, oracles.bipartite_moments(a, b))


def random_tree(n, rng) -> Graph:
    """Uniform labelled tree, decoded from a random Pruefer sequence."""
    code = [int(x) for x in rng.integers(1, n + 1, size=n - 2)]
    degree = [1] * (n + 1)
    for x in code:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(n, edges)


def gnm(n, m, rng) -> Graph:
    """Erdos-Renyi G(n, m): m distinct vertex pairs drawn uniformly."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    picks = rng.choice(len(pairs), size=m, replace=False)
    return Graph(n, sorted(pairs[i] for i in picks))


# --- commands and their checks ----------------------------------------------


@dataclass
class Command:
    tag: str  # ztest, analyze-er, analyze-path, analyze-bipartite, exhaustive, mc
    argv: list[str]
    main: bool
    in_process: bool
    check: Callable[[dict], list[str]]
    arrangements: int = 0  # arrangements an estimate command evaluates
    graph: Graph | None = field(default=None, repr=False)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def ztest_check(g: Graph, pos: list[int]) -> Callable[[dict], list[str]]:
    expected_c = functools.cache(lambda: oracles.count_crossings(g.edges, pos))

    def check(out):
        c_exp = expected_c()
        e_exp = Fraction(g.q, 3)
        c, e, var = int(out["C"]), Fraction(out["E"]), Fraction(out["Var"])
        bad = []
        if c != c_exp:
            bad.append(f"C {c} != {c_exp}")
        if e != e_exp:
            bad.append(f"E {e} != {e_exp}")
        if var < 0:
            bad.append(f"Var {var} < 0")
        if var != g.exact_moments[1]:
            bad.append(f"Var {var} != {g.exact_moments[1]}")
        dev = c_exp - e_exp
        if var == 0:
            if out["z"] != "":
                bad.append(f"z {out['z']!r} given for Var = 0")
        elif not _close(float(out["z"]), float(dev) / math.sqrt(var)):
            bad.append(f"z {out['z']} != {float(dev) / math.sqrt(var)}")
        bound = Fraction(1) if dev == 0 else min(Fraction(1), var / (dev * dev))
        if Fraction(out["chebyshev_pbound"]) != bound:
            bad.append(f"chebyshev_pbound {out['chebyshev_pbound']} != {bound}")
        return bad

    return check


def analyze_check(g: Graph) -> Callable[[dict], list[str]]:
    subgraphs = functools.cache(lambda: (oracles.count_c4(g.n, g.edges),
                                         oracles.count_p3_k2(g.n, g.edges)))

    def check(out):
        c4, p3k2 = subgraphs()
        f = {w: int(out[f"f{w}"]) for w in oracles.GAMMA}
        e, var = Fraction(out["E"]), Fraction(out["Var"])
        want = {
            "n": (int(out["n"]), g.n),
            "m": (int(out["m"]), len(g.edges)),
            "Q": (int(out["Q"]), g.q),
            "E": (e, Fraction(g.q, 3)),
            "sum f": (sum(f.values()), g.q * g.q),
            "f24": (f["24"], g.q),
            "f04": (f["04"], 2 * c4),
            "f13": (f["13"], 2 * p3k2),
            "Var = sum f gamma": (var, oracles.variance_from_counts(f)),
        }
        if g.closed is not None:
            want["closed-form E"] = (e, g.closed[0])
            want["closed-form Var"] = (var, g.closed[1])
        return [f"{k}: {got} != {exp}" for k, (got, exp) in want.items() if got != exp]

    return check


def exhaustive_check(g: Graph) -> Callable[[dict], list[str]]:
    def check(out):
        e, var = g.exact_moments
        want = {
            "mode": (out["mode"], "exhaustive"),
            "exact": (out["exact"], "true"),
            "T": (int(out["T"]), math.factorial(g.n)),
            "mean": (Fraction(out["mean"]), e),
            "variance": (Fraction(out["variance"]), var),
        }
        return [f"{k}: {got} != {exp}" for k, (got, exp) in want.items() if got != exp]

    return check


def mc_check(g: Graph, samples: int) -> Callable[[dict], list[str]]:
    def check(out):
        e, var = g.exact_moments
        bad = []
        if out["mode"] != "monte_carlo" or int(out["T"]) != samples:
            bad.append(f"mode {out['mode']} with T = {out['T']}, expected monte_carlo, {samples}")
        se_mean = math.sqrt(var / samples)
        se_var = float(var) * math.sqrt(2 / (samples - 1))
        mean, variance = float(out["mean"]), float(out["variance"])
        if abs(mean - float(e)) > MC_TOLERANCE_SE * se_mean:
            bad.append(f"mean {mean} is more than {MC_TOLERANCE_SE} SE from {float(e)}")
        if abs(variance - float(var)) > MC_TOLERANCE_SE * se_var:
            bad.append(f"variance {variance} is more than {MC_TOLERANCE_SE} SE from {float(var)}")
        return bad

    return check


class Builder:
    """Writes a workload's input files and makes its commands."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.commands: list[Command] = []
        self.files: list[tuple[Path, str]] = []  # written by write_files()

    def rng(self, stream: int):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, stream])))

    def _file(self, text: str, suffix: str) -> str:
        path = self.workdir / f"{len(self.files):05d}.{suffix}"
        self.files.append((path, text))
        return str(path)

    def write_files(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for path, text in self.files:
            path.write_text(text, encoding="utf-8")

    def _add(self, tag, argv, main, check, g, arrangements=0):
        # z-tests and side commands run in-process: interpreter start-up
        # would swamp their few milliseconds of work
        in_process = tag == "ztest" or not main
        self.commands.append(Command(tag, argv, main, in_process, check, arrangements, g))

    def ztest(self, g: Graph, rng, main: bool):
        pos = [0] + [int(p) for p in rng.permutation(g.n) + 1]
        argv = ["ztest", "--input", self._file(g.text(), "txt"),
                "--arrangement", self._file(" ".join(map(str, pos[1:])) + "\n", "arr"),
                "--out", "json", "--jobs", "1"]
        self._add("ztest", argv, main, ztest_check(g, pos), g)

    def analyze(self, tag: str, g: Graph, main: bool):
        argv = ["analyze", "--input", self._file(g.text(), "txt"), "--out", "json"]
        self._add(tag, argv, main, analyze_check(g), g)

    def exhaustive(self, g: Graph, main: bool):
        argv = ["estimate", "--input", self._file(g.text(), "txt"), "--out", "json", "--jobs", "2"]
        self._add("exhaustive", argv, main, exhaustive_check(g), g, math.factorial(g.n))

    def mc(self, g: Graph, samples: int, mc_seed: int, main: bool):
        argv = ["estimate", "--input", self._file(g.text(), "txt"), "--out", "json", "--jobs", "2",
                "--samples", str(samples), "--seed", str(mc_seed)]
        self._add("mc", argv, main, mc_check(g, samples), g, samples)

    def side(self, tags: list[str]):
        """Small instances of the commands other workloads run at full size,
        so that every workload reports every end-to-end metric; a tag given
        k times runs k times a round. They are spread evenly among the main
        commands, so that their repeats sample different moments of the
        round."""
        main, self.commands = self.commands, []
        rng = self.rng(99)
        for tag in tags:
            if tag == "ztest":
                self.ztest(random_tree(30, rng), rng, SIDE)
            elif tag == "analyze-er":
                self.analyze(tag, gnm(60, 150, rng), SIDE)
            elif tag == "analyze-path":
                self.analyze(tag, relabel(path(100), rng), SIDE)
            elif tag == "analyze-bipartite":
                self.analyze(tag, relabel(bipartite(8, 8), rng), SIDE)
            elif tag == "exhaustive":
                # n = 9 enumerates through the same chunked generator as the
                # main commands; at n <= 8 the estimator reuses a cached table
                # of all n! arrangements, and in-process the numpy-bound count
                # over it spread by up to 0.26 between runs
                self.exhaustive(relabel(path(9), rng), SIDE)
            elif tag == "mc":
                self.mc(relabel(cycle(50), rng), MC_SAMPLES, int(rng.integers(2**31)), SIDE)
        side, step = self.commands, len(main) / len(self.commands)
        if any(c.in_process for c in main):
            # the benchmark process is then measured for peak_rss_mb, so
            # estimates, with their threads and position tables, run apart
            for cmd in side:
                cmd.in_process = cmd.tag not in ("exhaustive", "mc")
        self.commands = main
        for k, cmd in enumerate(side):
            self.commands.insert(round((k + 1) * step) + k, cmd)


def build_treebank(b: Builder):
    """1,000 small random trees, each z-tested in-process."""
    rng = b.rng(1)
    lo, hi = TREE_SIZE_RANGE
    # sizes are the quantiles of the size distribution, so that every seed
    # has the same sizes; the seed orders them and draws the trees
    size_dist = statistics.NormalDist(math.log(TREE_SIZE_MEDIAN), TREE_SIZE_SIGMA)
    sizes = [min(hi, max(lo, round(math.exp(size_dist.inv_cdf((i + 0.5) / TREEBANK_TREES)))))
             for i in rng.permutation(TREEBANK_TREES)]
    kinds = ["path"] * TREEBANK_PATHS + ["star"] * TREEBANK_STARS
    kinds += ["tree"] * (TREEBANK_TREES - len(kinds))
    for n, k in zip(sizes, rng.permutation(kinds)):
        if k == "path":
            g = relabel(path(n), rng)
        elif k == "star":
            g = relabel(star(n), rng)
        else:
            g = random_tree(n, rng)
        b.ztest(g, rng, MAIN)
    b.side(3 * ["analyze-er", "analyze-path", "analyze-bipartite"] + 2 * ["exhaustive", "mc"])


def build_exact_large(b: Builder):
    """Exact moments of three graphs with |Q| near 4.5 * 10^4."""
    rng = b.rng(2)
    b.analyze("analyze-er", gnm(64, 320, rng), MAIN)
    b.analyze("analyze-path", relabel(path(300), rng), MAIN)
    b.analyze("analyze-bipartite", relabel(bipartite(18, 18), rng), MAIN)
    # one estimate of each mode a round (about 0.4 s each), to keep most of
    # the round for analyze
    b.side(3 * ["ztest"] + ["mc", "exhaustive"])


def build_estimate(b: Builder):
    """Exhaustive enumeration at n = 9 and Monte Carlo at T = 5 * 10^4."""
    rng = b.rng(3)
    b.exhaustive(relabel(path(9), rng), MAIN)
    b.exhaustive(relabel(bipartite(4, 5), rng), MAIN)
    b.mc(relabel(cycle(50), rng), MC_SAMPLES, int(rng.integers(2**31)), MAIN)
    b.mc(random_tree(60, rng), MC_SAMPLES, int(rng.integers(2**31)), MAIN)
    b.side(3 * ["ztest", "analyze-er", "analyze-path", "analyze-bipartite"])


BUILDERS = {
    "treebank": build_treebank,
    "exact-large": build_exact_large,
    "estimate": build_estimate,
}
