"""Seeded end-to-end and per-layer benchmark of the `crossings` CLI.

Usage (from the repository root):

    python3 bench/run.py --workload treebank --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --write-benchmark-json

Each run sets up the workload's inputs from the seed, then runs whole rounds
of its commands one after another (a closed loop) for about --seconds,
checks every output against bench/oracles.py, and prints each metric by
name and unit. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones, from rounds run
with bench/tracer.py installed. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_SECONDS = 35
SETUP_REPS = 15
MIN_ROUNDS = 2
# The host's CPU speed drifts: one fixed loop took 13 to 33 ms, and its
# median over 15-s windows moved between 19 and 33 ms within five minutes,
# on both CPUs alike, so whole runs fall at one speed or another. Times are
# therefore reported at a reference speed: multiplied by REF_PROBE_S over
# the median time of a fixed probe, sampled all through the run, in the
# PROBE_WINDOW_S before and after the measured span.
REF_PROBE_S = 0.006
PROBE_ITEMS = 20_000
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.5

WORKLOADS = [
    ("treebank", "1,000 random trees of 5 to 60 vertices z-tested in-process: per-call overhead "
                 "of cli, graphs, arrangement and moments at small |Q|"),
    ("exact-large", "analyze on G(64, 320), the 300-vertex path and K_{18,18}, |Q| near 4.5e4: "
                    "q_pairs and freq_fast do nearly all the work, estimator none"),
    ("estimate", "exhaustive enumeration of 9! arrangements and Monte Carlo at T = 5e4 with "
                 "--jobs 2: the estimator layer, and no freq_fast"),
]

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("graphs_per_s", "graphs/s", "higher", 0.25),
    ("graph_latency_p50_ms", "ms", "lower", 0.25),
    ("graph_latency_p99_ms", "ms", "lower", 0.25),
    ("analyze_er_s", "s", "lower", 0.25),
    ("analyze_path_s", "s", "lower", 0.25),
    ("analyze_bipartite_s", "s", "lower", 0.25),
    ("mc_arrangements_per_s", "arrangements/s", "higher", 0.25),
    ("exhaustive_arrangements_per_s", "arrangements/s", "higher", 0.25),
]

PER_LAYER = [
    ("graphs.parse_edge_list_s", "s", "lower"),
    ("graphs.q_pairs_s", "s", "lower"),
    ("graphs.q_pairs_elements", "count", "lower"),
    ("graphs.q_pairs_alloc_mb", "MB", "lower"),
    ("product_types.freq_fast_s", "s", "lower"),
    ("product_types.freq_fast_us_per_q", "us/Q", "lower"),
    ("product_types.freq_fast_calls", "count", "lower"),
    ("moments.self_s", "s", "lower"),
    ("arrangement.parse_arrangement_s", "s", "lower"),
    ("arrangement.crossings_s", "s", "lower"),
    ("estimator.crossing_counts_s", "s", "lower"),
    ("estimator.crossing_counts_rows_per_s", "rows/s", "higher"),
    ("estimator.enumeration_s", "s", "lower"),
    ("estimator.sampling_s", "s", "lower"),
    ("estimator.exhaustive.jobs1_s", "s", "lower"),
    ("estimator.exhaustive.jobs2_s", "s", "lower"),
    ("estimator.exhaustive.alloc_peak_mb", "MB", "lower"),
    ("estimator.exhaustive.jobs1_alloc_peak_mb", "MB", "lower"),
    ("estimator.mc.jobs1_s", "s", "lower"),
    ("estimator.mc.jobs2_s", "s", "lower"),
    ("estimator.mc.alloc_peak_mb", "MB", "lower"),
    ("estimator.mc.jobs1_alloc_peak_mb", "MB", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# --- running commands ---------------------------------------------------------


class Speed:
    """Samples the host's current speed with a fixed pure-Python probe that
    walks a tuple of 4-tuples, as the program's hot loops do."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, probe time)
        self._items = tuple((i, i + 1, 2 * i, 3 * i) for i in range(PROBE_ITEMS))

    def sample(self, force: bool = True):
        if not force and self.samples and time.perf_counter() - self.samples[-1][0] < PROBE_EVERY_S:
            return
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for s, t, u, v in self._items:
            key = (s ^ v) & 63
            acc[key] = acc.get(key, 0) + s * t - u + v
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def factor(self, start: float, end: float) -> float:
        """Multiply a time measured from `start` to `end` by this to get it
        at the reference speed, judged from the probes taken around it."""
        near = [d for t, d in self.samples
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        return REF_PROBE_S / statistics.median(near or [d for _, d in self.samples])


class Runner:
    """Runs commands in-process or as subprocesses, traced or not."""

    def __init__(self, workdir: Path, speed: Speed):
        self.workdir = workdir
        self.speed = speed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)

    def run(self, cmd, traced: bool, argv=None) -> dict:
        argv = argv or cmd.argv
        start = time.perf_counter()
        if cmd.in_process:
            result = self._in_process(argv)
            self.speed.sample(force=False)
        else:
            result = self._subprocess(argv, traced)
            self.speed.sample()
            self.speed.sample()
        result["span"] = (start, start + result["wall"])
        return result

    def _in_process(self, argv) -> dict:
        from crossings import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                rc = -1
                traceback.print_exc()
            wall = time.perf_counter() - t0
        return {"wall": wall, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                "peak_mb": None, "trace": None}

    def _subprocess(self, argv, traced: bool) -> dict:
        # the child reports its own peak RSS: RUSAGE_CHILDREN keeps the
        # largest over every child waited for, and a child's ru_maxrss
        # starts from this process's RSS at the fork
        report_path = self.workdir / "report.json"
        report_path.unlink(missing_ok=True)
        args = [sys.executable, str(BENCH_DIR / "child.py"), str(report_path),
                str(int(traced))] + argv
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            rc = subprocess.run(args, stdout=out, stderr=err, env=self.env, cwd=ROOT).returncode
            wall = time.perf_counter() - t0
        report = (json.loads(report_path.read_text(encoding="utf-8"))
                  if report_path.exists() else {"peak_mb": None, "trace": None})
        return {"wall": wall, "rc": rc,
                "stdout": out_path.read_text(encoding="utf-8"),
                "stderr": err_path.read_text(encoding="utf-8"), **report}


def with_jobs(argv: list[str], jobs: int) -> list[str]:
    i = argv.index("--jobs")
    return argv[:i + 1] + [str(jobs)] + argv[i + 2:]


def run_round(runner: Runner, commands, traced: bool,
              jobs: int | None = None) -> tuple[list[dict], dict | None]:
    """One pass over the commands, with --jobs replaced when `jobs` is set;
    with `traced`, also the merged trace."""
    rec = None
    if traced and any(c.in_process for c in commands):
        rec = tracer.Tracer()
        rec.install()
    try:
        results = [runner.run(c, traced, with_jobs(c.argv, jobs) if jobs else None)
                   for c in commands]
    finally:
        if rec is not None:
            rec.uninstall()
    for r in results:
        r["time"] = r["wall"] * runner.speed.factor(*r["span"])
    if not traced:
        return results, None
    summaries = [r["trace"] for r in results if r["trace"] is not None]
    if rec is not None:
        summaries.append(rec.summary())
    return results, tracer.merge(summaries)


# --- checks -----------------------------------------------------------------


def check_results(commands, rounds) -> tuple[int, int, bool]:
    """attempted, failed, correct over every round of results."""
    attempted = failed = 0
    correct = True
    for results in rounds:
        for cmd, res in zip(commands, results):
            attempted += 1
            if res["rc"] != 0:
                failed += 1
                print(f"FAILED (exit {res['rc']}): crossings {' '.join(cmd.argv)}\n"
                      f"{res['stderr'][-2000:]}", file=sys.stderr)
                continue
            try:
                problems = cmd.check(json.loads(res["stdout"]))
            except (ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                correct = False
                print(f"WRONG: crossings {' '.join(cmd.argv)}: {'; '.join(problems)}",
                      file=sys.stderr)
    return attempted, failed, correct


# --- metrics ------------------------------------------------------------------


def end_to_end_metrics(commands, rounds, setup_times, in_process_peak_mb,
                       setup_factor: float) -> dict:
    # each command's time is its median over the rounds, at the reference speed
    best = [statistics.median(results[i]["time"] for results in rounds)
            for i in range(len(commands))]
    latencies = [t for t, cmd in zip(best, commands) if cmd.main]
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    # the processes that ran main commands: side commands, and the
    # benchmark process when it ran only side commands, do not count
    peaks = [res["peak_mb"] for results in rounds
             for res, cmd in zip(results, commands) if cmd.main and not cmd.in_process]
    if any(cmd.main and cmd.in_process for cmd in commands):
        peaks.append(in_process_peak_mb)

    def tag_time(tag):
        return statistics.median(t for t, cmd in zip(best, commands) if cmd.tag == tag)

    def rate(tag):
        tagged = [(t, cmd) for t, cmd in zip(best, commands) if cmd.tag == tag]
        return sum(cmd.arrangements for _, cmd in tagged) / sum(t for t, _ in tagged)

    return {
        "setup_s": setup_factor * statistics.median(setup_times),
        "peak_rss_mb": max(peaks),
        "graphs_per_s": len(latencies) / sum(latencies),
        "graph_latency_p50_ms": 1000 * percentiles[49],
        "graph_latency_p99_ms": 1000 * percentiles[98],
        "analyze_er_s": tag_time("analyze-er"),
        "analyze_path_s": tag_time("analyze-path"),
        "analyze_bipartite_s": tag_time("analyze-bipartite"),
        "mc_arrangements_per_s": rate("mc"),
        "exhaustive_arrangements_per_s": rate("exhaustive"),
    }


def q_pairs_alloc_mb(commands) -> float:
    """tracemalloc peak of building Q for the input graph with the largest |Q|."""
    from crossings.graphs import Graph

    g = max((c.graph for c in commands), key=lambda g: g.q)
    graph = Graph(g.n, g.edges)
    tracemalloc.start()
    try:
        graph.q_pairs()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def per_layer_metrics(traced, jobs1, untraced_walls, traced_walls, alloc_mb, import_s) -> dict:
    rounds = len(traced_walls)

    def own(summary, name):
        return summary["spans"].get(name, [0, 0.0, 0.0])[2]

    def calls(summary, name):
        return summary["spans"].get(name, [0, 0.0, 0.0])[0]

    def est(summary, mode, key, combine):
        return combine([e[key] for e in summary["estimates"] if e["mode"] == mode] or [0.0])

    tc, jc = traced["counts"], jobs1["counts"]
    moments_self = sum(v[2] for k, v in traced["spans"].items() if k.startswith("moments."))
    cc_self = own(jobs1, "estimator.crossing_counts")
    m = {
        "graphs.parse_edge_list_s": own(traced, "graphs.parse_edge_list") / rounds,
        "graphs.q_pairs_s": own(traced, "graphs.Graph.q_pairs") / rounds,
        "graphs.q_pairs_elements": tc["q_elements"] / rounds,
        "graphs.q_pairs_alloc_mb": alloc_mb,
        "product_types.freq_fast_s": own(traced, "product_types.freq_fast") / rounds,
        "product_types.freq_fast_us_per_q":
            1e6 * own(traced, "product_types.freq_fast") / max(tc["freq_fast_q"], 1),
        "product_types.freq_fast_calls":
            calls(traced, "product_types.freq_fast") / max(tc["commands_with_freq_fast"], 1),
        "moments.self_s": moments_self / rounds,
        "arrangement.parse_arrangement_s": own(traced, "arrangement.parse_arrangement") / rounds,
        "arrangement.crossings_s": own(traced, "arrangement.crossings") / rounds,
        "estimator.crossing_counts_s": cc_self,
        "estimator.crossing_counts_rows_per_s": jc["crossing_rows"] / cc_self if cc_self else 0.0,
        "estimator.enumeration_s": own(jobs1, "estimator.exhaustive_moments"),
        "estimator.sampling_s": own(jobs1, "estimator.monte_carlo_moments"),
        "cli.import_s": import_s,
        "cli.self_s": own(traced, "cli.main") / rounds,
        "trace.overhead_pct":
            100 * (statistics.median(traced_walls) / statistics.median(untraced_walls) - 1),
    }
    for mode in ("exhaustive", "mc"):
        m[f"estimator.{mode}.jobs1_s"] = est(jobs1, mode, "wall_s", sum)
        m[f"estimator.{mode}.jobs2_s"] = est(traced, mode, "wall_s", sum) / rounds
        m[f"estimator.{mode}.alloc_peak_mb"] = est(traced, mode, "rss_growth_mb", max)
        m[f"estimator.{mode}.jobs1_alloc_peak_mb"] = est(jobs1, mode, "rss_growth_mb", max)
    return m


# --- main ---------------------------------------------------------------------


def import_time(runner: Runner) -> float:
    """Time of `import crossings.cli`, measured inside a fresh interpreter,
    so that neither interpreter start-up nor process creation counts."""
    code = "import time; t = time.perf_counter(); import crossings.cli; print(time.perf_counter() - t)"
    return float(subprocess.run([sys.executable, "-c", code], env=runner.env, cwd=ROOT,
                                check=True, capture_output=True, text=True).stdout)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = BENCH_DIR / "work" / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    speed = Speed()
    runner = Runner(workdir, speed)
    try:
        # the inputs are the benchmark's, not the program's: made and
        # written untimed (creating the 2,000 small files of treebank took
        # 0.2 to 1.5 s on the reference host's filesystem)
        import workloads

        builder = workloads.Builder(workdir / "inputs", seed)
        workloads.BUILDERS[workload](builder)
        builder.write_files()
        commands = builder.commands
        # set-up is the program's import; the first one, untimed, writes
        # its bytecode cache
        import_time(runner)
        setup_times = []
        for _ in range(SETUP_REPS):
            speed.sample()
            setup_times.append(import_time(runner))
        speed.sample()
        setup_factor = speed.factor(speed.samples[0][0], speed.samples[-1][0])
        # keep the benchmark's own objects out of the program's garbage
        # collections: in-process commands would pay for traversing them
        gc.freeze()
        if any(c.in_process for c in commands):
            import crossings.cli  # noqa: F401  (imported once, before timing)

        all_rounds, untraced, traced = [], [], []
        t_start = time.perf_counter()
        # whole rounds only: at least MIN_ROUNDS, then more while the next
        # one is expected to end in time
        while (len(untraced) < MIN_ROUNDS
               or (time.perf_counter() - t_start) * (1 + 1 / len(untraced)) <= seconds):
            results, _ = run_round(runner, commands, traced=False)
            all_rounds.append(results)
            untraced.append(results)
            gc.freeze()
            if trace:
                results, summary = run_round(runner, commands, traced=True)
                all_rounds.append(results)
                traced.append((results, summary))
                gc.freeze()
        in_process_peak = tracer.peak_rss_mb()

        if trace:
            # estimator layers, timed apart from the threads of --jobs 2
            estimates = [c for c in commands if c.tag in ("exhaustive", "mc")]
            jobs1_results, jobs1_trace = run_round(runner, estimates, traced=True, jobs=1)
            a1, f1, ok1 = check_results(commands, all_rounds)
            a2, f2, ok2 = check_results(estimates, [jobs1_results])
            attempted, failed, correct = a1 + a2, f1 + f2, ok1 and ok2
            metrics = per_layer_metrics(
                tracer.merge(s for _, s in traced),
                jobs1_trace,
                [sum(r["time"] for r in res) for res in untraced],
                [sum(r["time"] for r in res) for res, _ in traced],
                q_pairs_alloc_mb(commands), statistics.median(setup_times))
            specs = PER_LAYER
        else:
            attempted, failed, correct = check_results(commands, all_rounds)
            metrics = end_to_end_metrics(commands, all_rounds, setup_times, in_process_peak,
                                         setup_factor)
            specs = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {}
    for name, unit, *_ in specs:
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"# {name:42s} {metrics[name]:>16.6g} {unit}")
    print(f"# probe median {1000 * statistics.median(d for _, d in speed.samples):.3f} ms "
          f"over {len(speed.samples)} samples; each time is scaled by the probes around it")
    print(f"# rounds {len(untraced)}, commands per round {len(commands)}, "
          f"attempted {attempted}, failed {failed}, correct {correct}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        text = json.dumps(benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "crossings" / "cli.py").is_file():
        print(f"error: the program's source {SRC / 'crossings'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
