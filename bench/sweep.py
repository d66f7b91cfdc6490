"""Size sweep of freq_fast: time and peak memory against |Q| on G(n, m).

Usage (from the repository root): python3 bench/sweep.py

Each size runs in its own interpreter. Mean degree is held at 10, as in
ER(200, 0.05), so n = m / 5. Time covers one freq_fast call on a freshly
parsed graph, including the build of Q; memory is the growth of the
process's peak RSS over that call. The fitted exponent is the least-squares
slope of log(value) against log(|Q|).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SIZES = [100, 200, 400, 700, 1000, 1400, 2000]
SEED = 1


def child(m: int):
    import numpy as np

    import workloads
    from crossings.graphs import parse_edge_list
    from crossings.product_types import freq_fast

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([SEED, m])))
    g = parse_edge_list(workloads.gnm(m // 5, m, rng).text())
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    fv = freq_fast(g)
    seconds = time.perf_counter() - t0
    growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
    print(json.dumps({"m": m, "n": g.n, "q": fv.f24, "seconds": seconds,
                      "rss_growth_mb": growth / 1024}))


def slope(xs, ys) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        sys.path.insert(0, str(SRC))
        child(args.child)
        return
    env = dict(os.environ, PYTHONPATH=str(SRC))
    rows = []
    print(f"{'m':>6} {'n':>5} {'|Q|':>9} {'seconds':>9} {'us/Q':>6} {'RSS growth MB':>14}")
    for m in SIZES:
        out = subprocess.run([sys.executable, __file__, "--child", str(m)],
                             env=env, capture_output=True, text=True, check=True)
        r = json.loads(out.stdout)
        rows.append(r)
        print(f"{r['m']:>6} {r['n']:>5} {r['q']:>9} {r['seconds']:>9.3f} "
              f"{1e6 * r['seconds'] / r['q']:>6.2f} {r['rss_growth_mb']:>14.1f}")
    big = [r for r in rows if r["rss_growth_mb"] > 0]
    print(f"time ~ |Q|^{slope([r['q'] for r in rows], [r['seconds'] for r in rows]):.3f}")
    print(f"memory ~ |Q|^{slope([r['q'] for r in big], [r['rss_growth_mb'] for r in big]):.3f}"
          f" (over the {len(big)} sizes whose peak RSS grew)")


if __name__ == "__main__":
    main()
