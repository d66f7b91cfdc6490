"""Run one `crossings` command and report on the process that ran it.

Usage: python3 bench/child.py REPORT.json TRACE <crossings arguments...>

Writes {"peak_mb": ..., "trace": ...} to REPORT.json and exits with the
command's exit code. `peak_mb` is this process's own peak RSS; `trace` is
the tracer's summary when TRACE is 1, else null.
"""

import json
import sys

import tracer


def main() -> int:
    out_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import crossings.cli

    rec = tracer.Tracer() if traced else None
    if rec is not None:
        rec.install()
    try:
        rc = crossings.cli.main(argv)
    finally:
        if rec is not None:
            rec.uninstall()
        report = {"peak_mb": tracer.peak_rss_mb(),
                  "trace": rec.summary() if rec is not None else None}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
