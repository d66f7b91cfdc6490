"""Per-layer tracing of the `crossings` package from outside.

`Tracer.install()` replaces the public functions of each module (and every
name other modules imported them under) with wrappers that time and count
their calls; `uninstall()` puts the originals back. The program itself
records nothing. A span's self time is its duration minus that of the
wrapped calls it made in the same thread.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (module, function) pairs to time; "Graph.q_pairs" is a method. Functions
# that are not reported on their own are wrapped too, so that their time is
# not counted in the self time of their callers.
TRACED = [
    ("graphs", "parse_edge_list"),
    ("graphs", "Graph.q_pairs"),
    ("graphs", "size_q"),
    ("graphs", "degree_stats"),
    ("graphs", "is_q_zero"),
    ("product_types", "freq_fast"),
    ("moments", "expectation_rla"),
    ("moments", "variance_rla"),
    ("moments", "variance_from_freq"),
    ("moments", "z_score"),
    ("moments", "chebyshev_pbound"),
    ("moments", "format_rational"),
    ("arrangement", "parse_arrangement"),
    ("arrangement", "crossings"),
    ("estimator", "crossing_counts"),
    ("estimator", "exhaustive_moments"),
    ("estimator", "monte_carlo_moments"),
    ("cli", "main"),
]


def peak_rss_mb() -> float:
    """This process's own peak RSS (VmHWM). ru_maxrss cannot give it: a
    process started by fork or vfork keeps its parent's high-water mark
    across exec, so a child of a large process reads at least that."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class Tracer:
    """Span and counter recorder. Summaries are plain dicts that add up."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._graphs_seen: dict[int, object] = {}
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.counts = {"q_elements": 0, "freq_fast_q": 0, "crossing_rows": 0,
                       "commands_with_freq_fast": 0}
        self.estimates: list[dict] = []  # one per estimator call

    # -- recording ---------------------------------------------------------

    def _record(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    s = self.spans.setdefault(name, [0, 0.0, 0.0])
                    s[0] += 1
                    s[1] += dt
                    s[2] += dt - child
        return wrapper

    def _counting(self, name: str, fn):
        timed = self._record(name, fn)
        counts = self.counts

        if name == "graphs.Graph.q_pairs":
            def wrapper(g):
                result = timed(g)
                with self._lock:
                    if id(g) not in self._graphs_seen:
                        self._graphs_seen[id(g)] = g
                        counts["q_elements"] += len(result)
                return result
        elif name == "product_types.freq_fast":
            def wrapper(g, *a, **kw):
                result = timed(g, *a, **kw)
                counts["freq_fast_q"] += result.f24
                return result
        elif name == "estimator.crossing_counts":
            def wrapper(g, pos, *a, **kw):
                with self._lock:
                    counts["crossing_rows"] += pos.shape[0]
                return timed(g, pos, *a, **kw)
        elif name in ("estimator.exhaustive_moments", "estimator.monte_carlo_moments"):
            mode = "exhaustive" if "exhaustive" in name else "mc"

            def wrapper(g, *a, **kw):
                rss0, t0 = peak_rss_mb(), time.perf_counter()
                result = timed(g, *a, **kw)
                self.estimates.append({
                    "mode": mode,
                    "wall_s": time.perf_counter() - t0,
                    "rss_growth_mb": peak_rss_mb() - rss0,
                })
                return result
        elif name == "cli.main":
            def wrapper(*a, **kw):
                calls_before = self.spans.get("product_types.freq_fast", [0])[0]
                try:
                    return timed(*a, **kw)
                finally:
                    if self.spans.get("product_types.freq_fast", [0])[0] > calls_before:
                        counts["commands_with_freq_fast"] += 1
                    self._graphs_seen.clear()
        else:
            return timed
        return functools.wraps(fn)(wrapper)

    # -- patching ----------------------------------------------------------

    def install(self):
        import crossings.cli  # noqa: F401  (loads every module that cli uses)

        modules = [m for k, m in sys.modules.items()
                   if k == "crossings" or k.startswith("crossings.")]
        for modname, attr in TRACED:
            module = sys.modules[f"crossings.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._counting(f"{modname}.{attr}", original))
                continue
            original = getattr(module, attr)
            wrapped = self._counting(f"{modname}.{attr}", original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapped)

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts), "estimates": list(self.estimates)}


def merge(summaries) -> dict:
    """Add up summaries from several commands or processes."""
    out = {"spans": {}, "counts": {}, "estimates": []}
    for s in summaries:
        for k, (calls, total, own) in s["spans"].items():
            acc = out["spans"].setdefault(k, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for k, v in s["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        out["estimates"] += s["estimates"]
    return out
