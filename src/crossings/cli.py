"""Command-line front end: analyze, generate, estimate, ztest, validate, scan.

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 validation
failure. Every run prints its effective configuration to stderr so results
can be reproduced.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .arrangement import crossings, parse_arrangement
from .estimator import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    DEFAULT_SAMPLES,
    exhaustive_moments,
    monte_carlo_moments,
    scan_family,
)
from .graphs import (
    BudgetError,
    GraphFormatError,
    _family_extra,
    _graph6_lines,
    degree_stats,
    erdos_renyi,
    format_edge_list,
    from_graph6,
    gen_family,
    is_q_zero,
    parse_edge_list,
    read_input_file,
)
from .moments import chebyshev_pbound, exact_moments, format_rational, z_score
from .product_types import PRODUCT_TYPES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # the subcommand parsers by name, top level only

    # usage errors exit 1 (argparse default is 2, reserved here for parse errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_graph_args(p: argparse.ArgumentParser):
    p.add_argument("--input", help="edge-list file (first line 'n m')")
    p.add_argument("--graph6",
                   help="graph6 file holding exactly one graph (for a corpus, "
                        "use 'crossings validate graph6 --path')")
    p.add_argument("--family", help="special family name")
    p.add_argument("--n", type=int, help="family size")
    p.add_argument("--n1", type=int,
                   help="first part of complete_bipartite (or give --n), or "
                        "star size of star_plus_isolated")
    p.add_argument("--n2", type=int, help="second part of complete_bipartite")
    p.add_argument("--p", type=float, help="edge probability (erdos_renyi)")


def _resolve_seed(args) -> int:
    """--seed, else CROSSINGS_SEED, else 0; a value numpy cannot seed with is
    refused by its source's name."""
    if args.seed is not None:
        if args.seed < 0:
            raise _UsageError(f"--seed must be non-negative, got {args.seed}")
        return args.seed
    env = os.environ.get("CROSSINGS_SEED")
    if not env:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise _UsageError(f"CROSSINGS_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise _UsageError(f"CROSSINGS_SEED must be non-negative, got {env!r}")
    return seed


def _refuse_unread(args, source: str, *read: str,
                   among: tuple[str, ...] = ("n", "n1", "n2", "p")) -> None:
    """Raise _UsageError naming each flag of `among` given that `source`
    does not read."""
    stray = ["--" + k.replace("_", "-") for k in among
             if k not in read and getattr(args, k) is not None]
    if stray:
        raise _UsageError(f"{source} takes no {', '.join(stray)}")


def _load_graph(args):
    sources = [s for s in (args.input, args.graph6, args.family) if s]
    if len(sources) != 1:
        raise _UsageError("exactly one of --input, --graph6, --family is required")
    if args.input:
        _refuse_unread(args, "--input")
        return parse_edge_list(read_input_file(args.input, "utf-8"))
    if args.graph6:
        _refuse_unread(args, "--graph6")
        lines = _graph6_lines(args.graph6)
        if not lines:
            raise GraphFormatError(f"{args.graph6}: no graph6 line found")
        if len(lines) > 1:
            raise GraphFormatError(
                f"{args.graph6}: holds {len(lines)} graphs, but --graph6 takes "
                "a file with one graph; to check a corpus, run "
                f"'crossings validate graph6 --path {args.graph6}'"
            )
        return from_graph6(lines[0][1])
    family = args.family
    if family == "erdos_renyi":
        _refuse_unread(args, family, "n", "p")
        if args.n is None or args.p is None:
            raise _UsageError("erdos_renyi requires --n and --p")
        return erdos_renyi(args.n, args.p, args.seed)
    _family_extra(family)  # an unknown family is named before its flags
    _refuse_unread(args, family, "n", "n1", "n2")
    # gen_family checks the sizes; --n1, or else --n, is complete_bipartite's
    # first part, and for any other family --n1 is the star size lam
    if family == "complete_bipartite":
        if args.n is not None and args.n1 is not None:
            raise _UsageError(
                "complete_bipartite takes its first part from --n or --n1, not both"
            )
        return gen_family(family, args.n if args.n1 is None else args.n1, n2=args.n2)
    return gen_family(family, args.n, n2=args.n2, lam=args.n1)


class _UsageError(Exception):
    pass


def _config_line(args) -> str:
    parts = [f"crossings v{__version__}", f"cmd={args.cmd}", f"seed={args.seed}"]
    for key in ("samples", "nmax", "trials", "exhaustive_limit", "out"):
        if hasattr(args, key) and getattr(args, key) is not None:
            parts.append(f"{key}={getattr(args, key)}")
    return "# " + " ".join(parts)


def _emit_mapping(pairs: list[tuple[str, str]], out: str):
    if out == "json":
        # json.dumps(dict(pairs), indent=2), but with the C string encoder:
        # given an indent, json.dumps runs the pure-Python encoder
        enc = encode_basestring_ascii
        print("{\n" + ",\n".join(f"  {enc(k)}: {enc(v)}" for k, v in dict(pairs).items())
              + "\n}")
    elif out == "csv":
        print(",".join(k for k, _ in pairs))
        print(",".join(v for _, v in pairs))
    else:
        width = max(len(k) for k, _ in pairs)
        for k, v in pairs:
            print(f"{k:<{width}}  {v}")


def cmd_analyze(args) -> int:
    g = _load_graph(args)
    fv, e, var = exact_moments(g)
    pairs = [
        ("n", str(g.n)),
        ("m", str(g.m)),
        ("k2", str(degree_stats(g))),
        ("Q", str(fv.f24)),
        ("E", str(e)),
        ("E_decimal", f"{float(e):.12g}"),
        ("Var", str(var)),
        ("Var_decimal", f"{float(var):.12g}"),
    ]
    pairs += [(f"f{c}", str(fv[c])) for c in PRODUCT_TYPES]
    pairs.append(("q_zero_family", is_q_zero(g) or ""))
    if args.out == "table":
        # friendlier rendering for the exact values
        table = dict(pairs)
        table["E"] = format_rational(e)
        table["Var"] = format_rational(var)
        _emit_mapping([(k, v) for k, v in table.items()
                       if not k.endswith("_decimal")], "table")
    else:
        _emit_mapping(pairs, args.out)
    return EXIT_OK


def cmd_generate(args) -> int:
    g = _load_graph(args)
    sys.stdout.write(format_edge_list(g))
    return EXIT_OK


def cmd_estimate(args) -> int:
    g = _load_graph(args)
    if g.n <= args.exhaustive_limit:
        rep = exhaustive_moments(g, limit=args.exhaustive_limit)
    else:
        rep = monte_carlo_moments(g, samples=args.samples, seed=args.seed)
    pairs = [
        ("mode", rep.mode),
        ("T", str(rep.samples)),
        ("seed", "" if rep.seed is None else str(rep.seed)),
        ("exact", str(rep.exact).lower()),
        ("mean", str(rep.mean)),
        ("variance", str(rep.variance)),
    ]
    _emit_mapping(pairs, args.out)
    return EXIT_OK


def cmd_ztest(args) -> int:
    g = _load_graph(args)
    if (args.arrangement is None) == (args.observed is None):
        raise _UsageError("provide exactly one of --arrangement or --observed")
    observed = args.observed
    if args.arrangement is not None:
        # read and counted before the moments, so that a malformed file is
        # refused before the costly frequency pass
        observed = crossings(g, parse_arrangement(
            read_input_file(args.arrangement, "utf-8")))
    fv, e, var = exact_moments(g)
    if args.observed is not None and not 0 <= observed <= fv.f24:
        raise _UsageError(
            f"--observed must be within 0..|Q| = 0..{fv.f24}, got {observed}"
        )
    pairs = [
        ("C", str(observed)),
        ("E", str(e)),
        ("Var", str(var)),
    ]
    if var == 0:
        pairs.append(("z", ""))
        pairs.append(("note", "degenerate: Var[C] = 0, C is constant; no z-score"))
    else:
        pairs.append(("z", f"{z_score(e, var, observed):.12g}"))
    pairs.append(("chebyshev_pbound", str(chebyshev_pbound(e, var, observed))))
    _emit_mapping(pairs, args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    rows = scan_family(
        args.family,
        n_min=args.nmin,
        n_max=args.nmax,
        mode=args.mode,
        exhaustive_limit=args.exhaustive_limit,
        samples=args.samples,
        seed=args.seed,
    )
    header = ["family", "n", "Q", "E_theory", "Var_theory",
              "E_est", "Var_est", "mode", "T", "seed"]

    def cells(r):
        return [
            r.family, str(r.n), str(r.q), str(r.e_theory), str(r.var_theory),
            "" if r.e_est is None else str(r.e_est),
            "" if r.var_est is None else str(r.var_est),
            r.mode,
            "" if r.samples is None else str(r.samples),
            "" if r.seed is None else str(r.seed),
        ]

    if args.out == "json":
        print(json.dumps([dict(zip(header, cells(r))) for r in rows], indent=2))
    elif args.out == "table":
        print("  ".join(header))
        for r in rows:
            print("  ".join(cells(r)))
    else:
        print(",".join(header))
        for r in rows:
            print(",".join(cells(r)))
    return EXIT_OK


# the flags each validate corpus reads, and the defaults of those that have
# one; a flag a corpus does not read is refused, so its default is None
_VALIDATE_READS = {
    "trees": ("nmax", "exhaustive_limit"),
    "graph6": ("path", "limit", "exhaustive_limit"),
    "families": ("nmax",),
    "er": ("n", "p", "trials", "exhaustive_limit"),
}
_VALIDATE_FLAGS = ("n", "p", "path", "limit", "nmax", "trials", "exhaustive_limit")
_VALIDATE_DEFAULTS = {"nmax": 6, "trials": 10,
                      "exhaustive_limit": DEFAULT_EXHAUSTIVE_LIMIT}


def _validate_defaults(args) -> None:
    """Give each flag with a default that `validate args.what` reads, and
    that the command line leaves out, that default."""
    for key in _VALIDATE_READS[args.what]:
        if getattr(args, key) is None:
            setattr(args, key, _VALIDATE_DEFAULTS.get(key))


def cmd_validate(args) -> int:
    # imported on first use, so that no other command loads the battery
    from .validation import (
        validate_er,
        validate_families,
        validate_graph6_corpus,
        validate_trees,
    )

    _refuse_unread(args, f"validate {args.what}", *_VALIDATE_READS[args.what],
                   among=_VALIDATE_FLAGS)
    if args.what == "trees":
        report = validate_trees(args.nmax, exhaustive_limit=args.exhaustive_limit)
    elif args.what == "graph6":
        if not args.path:
            raise _UsageError("validate graph6 requires --path")
        report = validate_graph6_corpus(
            args.path, limit=args.limit, exhaustive_limit=args.exhaustive_limit
        )
    elif args.what == "families":
        report = validate_families(n_max=args.nmax, seed=args.seed)
    else:  # er
        if args.n is None or args.p is None:
            raise _UsageError("validate er requires --n and --p")
        report = validate_er(args.n, args.p, args.trials, args.seed,
                             exhaustive_limit=args.exhaustive_limit)
    print(report.to_json())
    return EXIT_OK if report.success else EXIT_VALIDATION


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and reused by later calls."""
    parser = _Parser(prog="crossings", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"crossings {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    parser.commands = sub.choices

    def common(p, graph=True, out=True):
        if graph:
            _add_graph_args(p)
        p.add_argument("--seed", type=int, default=None,
                       help="PRNG seed (fallback: CROSSINGS_SEED, then 0)")
        # accepted so that existing command lines keep working; ignored,
        # since the estimator runs on one thread
        p.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
        if out:
            return p.add_argument("--out", choices=("table", "csv", "json"),
                                  default="table")

    p = sub.add_parser("analyze", help="exact |Q|, E[C], Var[C] and frequencies")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="emit a graph as edge-list text")
    common(p, out=False)  # edge-list text is its only output format
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("estimate", help="empirical moments of C")
    common(p)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--exhaustive-limit", dest="exhaustive_limit",
                   type=int, default=DEFAULT_EXHAUSTIVE_LIMIT)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("ztest", help="z-score of an observed crossing count")
    common(p)
    p.add_argument("--arrangement", help="arrangement file (positions line)")
    p.add_argument("--observed", type=int, help="observed crossing count")
    p.set_defaults(func=cmd_ztest)

    p = sub.add_parser("scan", help="theory vs estimates across a size range")
    p.add_argument("--family", required=True)
    p.add_argument("--nmin", type=int, default=4)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--mode", choices=("auto", "exhaustive", "monte_carlo", "theory"),
                   default="auto")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--exhaustive-limit", dest="exhaustive_limit",
                   type=int, default=DEFAULT_EXHAUSTIVE_LIMIT)
    common(p, graph=False)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("validate", help="run a cross-validation battery")
    p.add_argument("what", choices=tuple(_VALIDATE_READS))
    p.add_argument("--nmax", type=int)
    p.add_argument("--path", help="graph6 corpus file (what=graph6)")
    p.add_argument("--limit", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--exhaustive-limit", dest="exhaustive_limit", type=int)
    out = common(p, graph=False)
    out.choices, out.default = ("json",), "json"  # reports are JSON only
    p.set_defaults(func=cmd_validate)

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), parsing a known command's arguments once.

    The top-level parser would parse the whole command line and then have
    the command's parser parse the rest again, so a command line that starts
    with a command goes straight to that parser; leftovers are refused by
    the top-level parser, as argparse does. Every other command line goes
    through the top-level parser, as does one holding an argument that
    starts with "--=": the top-level parser refuses that as an ambiguous
    abbreviation of --help and --version.
    """
    parser = build_parser()
    if argv and argv[0] in parser.commands and not any(
            a.startswith("--=") for a in argv):
        args, extras = parser.commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(cmd=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        args.seed = _resolve_seed(args)
        if args.cmd == "validate":  # the line shows what the corpus reads
            _validate_defaults(args)
        print(_config_line(args), file=sys.stderr)
        return args.func(args)
    except _UsageError as exc:
        print(f"crossings: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphFormatError as exc:
        print(f"crossings: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, BudgetError) as exc:
        print(f"crossings: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
