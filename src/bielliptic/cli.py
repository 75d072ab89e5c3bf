"""Command-line interface.

Exit codes: 0 success, 1 integrity failure (a golden-data or exact-arithmetic
check failed, or a named data-file line is malformed or not UTF-8), 2 usage
error, 3 a named data file is missing or unreadable.  Levels, positional or
in --levels, and w tokens are decimal digits only (`ntheory.parse_decimal`).
Values go to stdout; rule traces only with --trace.
`genus N --w GENS` takes any involutions of level N (without --w, the genus
of X0(N)), `fix N [ELEMENT]` prints one count or the whole table, and
`selftest` runs every check unless some are selected.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import atlas, involutions
from .errors import DataError, IntegrityError
from .ntheory import ALSubgroup, memoise, parse_decimal, parse_level
from .x0invariants import genus_x0

EXIT_OK = 0
EXIT_INTEGRITY = 1
EXIT_USAGE = 2
EXIT_MISSING_DATA = 3


def _resolve(path: str) -> str:
    if os.path.isabs(path) or os.path.exists(path):
        return path
    return os.path.join(os.environ.get("BIELLIPTIC_DATA_DIR", "."), path)


class DataFileError(Exception):
    """A data file given on the command line is missing or cannot be read."""


def _load(path: str | None, ingest, default):
    """`ingest` of the file at `path`, or `default()` when there is none."""
    if path is None:
        return default()
    path = _resolve(path)
    try:
        with open(path, "rb") as fh:
            return ingest(fh)
    except OSError as exc:
        problem = "missing" if isinstance(exc, FileNotFoundError) else "unreadable"
        raise DataFileError(f"{problem} data file: {exc}") from exc


def _load_adjudications(args):
    return _load(args.adjudications, atlas.ingest_adjudications, atlas.default_adjudications)


def _load_tables(args):
    return _load(args.ec, atlas.ingest_ec_table, atlas.default_ec_table), _load_adjudications(args)


def cmd_genus(args) -> int:
    N = parse_level(args.level)
    if args.w is None:
        print(genus_x0(N))
        return EXIT_OK
    gens = [g.strip() for g in args.w.split(",")]
    if not all(gens):
        raise ValueError(f"empty generator in --w {args.w!r}")
    print(involutions.quotient_genus_hurwitz(N, gens))
    return EXIT_OK


def cmd_fix(args) -> int:
    N = parse_level(args.level)
    if args.element is None:
        print(involutions.fix_table_tsv(N))
    else:
        print(involutions.fix_count(involutions.parse_element(N, args.element)))
    return EXIT_OK


def cmd_screen(args) -> int:
    N = parse_level(args.level)
    sub = ALSubgroup.trivial(N) if args.w is None else ALSubgroup.parse(N, args.w)
    record = atlas.classify_pair(N, sub, _load_adjudications(args))
    print(f"{record.status}")
    if record.witness is not None:
        print(f"witness: {record.witness.describe()} field: {record.field}")
    if record.adjudication is not None:
        print(f"adjudication: {record.adjudication[1]}")
    if args.trace:
        for res in record.rule_trace:
            print(res.line())
    return EXIT_OK


def cmd_classify(args) -> int:
    ec, adj = _load_tables(args)
    records = atlas.classify_all(ec, adj)
    print(atlas.emit_report(records, args.format), end="")
    if args.trace:
        for rec in records:
            for res in rec.rule_trace:
                print(f"{rec.N},{rec.subgroup.label()}: {res.line()}", file=sys.stderr)
    return EXIT_OK


def cmd_quadpoints(args) -> int:
    ec, adj = _load_tables(args)
    records = atlas.classify_all(ec, adj)
    for rec in records:
        print(f"{rec.N} {rec.subgroup.label()} {rec.quadratic_points}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    if not (args.genus_tables or args.fix_tables or args.classification):
        args.genus_tables = args.fix_tables = args.classification = True
    if args.levels is not None and not args.genus_tables:
        raise ValueError("--levels restricts only the genus-table check "
                         "(--genus-tables, or no check selected)")
    if (args.ec, args.adjudications) != (None, None) and not args.classification:
        raise ValueError("--ec and --adjudications are read only by the classification "
                         "check (--classification, or no check selected)")
    if args.genus_tables:
        levels = None
        if args.levels is not None:
            what = f"--levels {args.levels!r}: level"
            levels = {parse_decimal(tok.strip(), what) for tok in args.levels.split(",")}
        count = atlas.verify_genus_tables(levels)
        print(f"genus-tables: {count} genus cells verified")
    if args.fix_tables:
        count = atlas.verify_fix_tables()
        print(f"fix-tables: {count} fixed-point counts verified")
    if args.classification:
        ec, adj = _load_tables(args)
        stats = atlas.verify_classification(atlas.classify_all(ec, adj))
        print(
            "classification: {pairs} pairs, {bielliptic} bielliptic, "
            "{excluded} excluded, {adjudicated} adjudicated, "
            "{infinite_quadratic} with infinitely many quadratic points".format(**stats)
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bielliptic",
        description="Exact screening calculus for bielliptic Atkin-Lehner quotients",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("genus", help="genus of X0(N)/G for a group of involutions")
    p.add_argument("level")
    p.add_argument("--w", help='group generators, e.g. w8,w3 or "w9,V3*w7"')
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("fix", help="fixed-point counts at a level")
    p.add_argument("level")
    p.add_argument("element", nargs="?", help='one element, e.g. "V2*w40"; '
                   "without it, the full table as TSV")
    p.set_defaults(func=cmd_fix)

    p = sub.add_parser("screen", help="screen a single pair")
    p.add_argument("level")
    p.add_argument("--w", help="subgroup generators")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--adjudications", help="adjudicated-verdict file")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("classify", help="classify every pair in scope")
    p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--ec")
    p.add_argument("--adjudications")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("quadpoints", help="quadratic-point status of every pair")
    p.add_argument("--ec")
    p.add_argument("--adjudications")
    p.set_defaults(func=cmd_quadpoints)

    p = sub.add_parser("selftest", help="verify the engine against golden data")
    p.add_argument("--genus-tables", action="store_true")
    p.add_argument("--fix-tables", action="store_true")
    p.add_argument("--classification", action="store_true")
    p.add_argument("--levels", help="restrict genus-table check to these levels")
    p.add_argument("--ec")
    p.add_argument("--adjudications")
    p.set_defaults(func=cmd_selftest)

    return parser


@memoise
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one verb and return its exit code.  The parser is built once per
    process (`_parser`, emptied by `clear_caches` like every memo table)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except DataFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except (IntegrityError, DataError) as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
