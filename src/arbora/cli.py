"""Command line front end.

Exit codes: 0 for a completed run (including a "nonidentity" verdict),
1 for a verification failure (verify-paper or free-semigroup found a
broken identity), 2 for usage errors, malformed input, or an exhausted
search budget.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .errors import ArboraError
from .family import build_table, catalog, catalog_word
from .tree import (
    RecursionTable,
    _check_level_size,
    _orbit_numbers,
    act_vertex,
    format_portrait,
    format_vertex,
    load_table_file,
    parse_vertex,
    portrait,
    section,
)
from .verifier import check_free_semigroup, run_all
from .wordproblem import Finite, is_identity, order_probe
from .words import Word, canonical_names, exponent_vector, format_word, parse_word


def _add_table_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--d", type=int, help="arity of the built-in family (3..9)"
    )
    parser.add_argument(
        "--table",
        help="path to a custom recursion table file (overrides --d sections)",
    )


def _resolve_table(args) -> RecursionTable:
    if args.table:
        try:
            table = load_table_file(args.table)
        except (OSError, UnicodeDecodeError) as exc:
            raise ArboraError(f"cannot read --table: {exc}") from exc
        if args.d is not None and args.d != table.alphabet.d:
            raise ArboraError(
                f"--d {args.d} conflicts with the {table.alphabet.d}-generator table"
            )
        if any(len(s) > 1 for row in table.sections for s in row):
            print(
                "warning: this table has sections longer than one letter, so "
                "identity searches may not terminate; budgets still apply",
                file=sys.stderr,
            )
        return table
    if args.d is None:
        raise ArboraError("one of --d or --table is required")
    return build_table(_family_arity(args.d))


def _family_arity(d: int | None) -> int:
    """The --d of a command that needs the built-in family."""
    if d is None:
        raise ArboraError("--d is required")
    if not 3 <= d <= 9:
        raise ArboraError(f"--d must be between 3 and 9, got {d}")
    return d


def _names_for(table: RecursionTable) -> dict[str, int] | None:
    if table.names == canonical_names(table.alphabet):
        return None  # canonical names plus the arity-3 aliases
    return {name: i for i, name in enumerate(table.names, start=1)}


def _parse(table: RecursionTable, text: str) -> Word:
    return parse_word(text, table.alphabet, _names_for(table))


def _positive(option: str, value: int | None) -> int | None:
    if value is not None and value < 1:
        raise ArboraError(f"{option} must be positive, got {value}")
    return value


def _iter_words(args, table: RecursionTable):
    names = _names_for(table)  # one map for every word of the command
    if args.words_file:
        if args.word is not None:
            raise ArboraError("give a word or --words-file, not both")
        try:
            with open(args.words_file, "r", encoding="utf-8") as fh:
                for line in fh:
                    text = line.split("#", 1)[0].strip()
                    if text:
                        yield parse_word(text, table.alphabet, names)
        except (OSError, UnicodeDecodeError) as exc:
            raise ArboraError(f"cannot read --words-file: {exc}") from exc
    elif args.word is not None:
        yield parse_word(args.word, table.alphabet, names)
    else:
        raise ArboraError("provide a word or --words-file")


def cmd_eval(args) -> int:
    table = _resolve_table(args)
    w = _parse(table, args.word)
    v = parse_vertex(args.vertex, table.alphabet.d)
    print(format_vertex(act_vertex(table, w, v), table.alphabet.d))
    return 0


def cmd_section(args) -> int:
    table = _resolve_table(args)
    w = _parse(table, args.word)
    v = parse_vertex(args.vertex, table.alphabet.d)
    print(format_word(section(table, w, v), table.names))
    return 0


def cmd_identity(args) -> int:
    table = _resolve_table(args)
    budget = _positive("--max-nodes", args.max_nodes)
    batch = bool(args.words_file)
    for w in _iter_words(args, table):
        decision = is_identity(table, w, budget)
        verdict = "identity" if decision.is_identity else "nonidentity"
        stats = f"nodes={decision.nodes_explored} depth={decision.max_depth}"
        if batch:
            print(f"{verdict} {stats}")
        else:
            print(verdict)
            print(stats)
    return 0


def cmd_expsum(args) -> int:
    table = _resolve_table(args)
    for w in _iter_words(args, table):
        print(" ".join(str(n) for n in exponent_vector(w)))
    return 0


def cmd_order_probe(args) -> int:
    table = _resolve_table(args)
    w = _parse(table, args.word)
    result = order_probe(table, w, _positive("--max-power", args.max_power),
                         max_nodes=_positive("--max-nodes", args.max_nodes))
    if isinstance(result, Finite):
        print(f"finite {result.order}")
    else:
        print(f"unknown-beyond {result.bound}")
    return 0


def cmd_orbit(args) -> int:
    table = _resolve_table(args)
    k = args.level
    _check_level_size(table.alphabet.d, k)
    print(len(_orbit_numbers(table, (1,) * k)))
    return 0


def cmd_portrait(args) -> int:
    table = _resolve_table(args)
    w = _parse(table, args.word)
    print(format_portrait(portrait(table, w, args.depth), table.names))
    return 0


def cmd_catalog(args) -> int:
    d = _family_arity(args.d)
    entries = catalog(d)
    if args.name:
        print(str(catalog_word(d, args.name)))
    else:
        for name, w in entries.items():
            print(f"{name} = {w}")
    return 0


def cmd_free_semigroup(args) -> int:
    table = build_table(_family_arity(args.d))
    report = check_free_semigroup(table, _positive("--max-len", args.max_len))
    status = "PASS" if report.ok else "FAIL"
    print(
        f"words={report.data['words']} "
        f"pairs={report.data['pairs_checked']} {status}"
    )
    if not report.ok:
        print(report.detail, file=sys.stderr)
        return 1
    return 0


def cmd_verify_paper(args) -> int:
    reports = run_all(_family_arity(args.d))
    failed = False
    for rep in reports:
        status = rep.status.upper()
        failed = failed or rep.status == "fail"
        detail = rep.detail.replace("\t", " ").replace("\n", " ")
        print(f"{rep.check_id}\t{status}\t{detail}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbora",
        description=(
            "Words acting on the d-regular rooted tree: evaluate, take "
            "sections, decide identities, and re-derive the library's "
            "catalog of identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="image of a vertex under a word")
    _add_table_options(p)
    p.add_argument("word")
    p.add_argument("vertex", help="digits (dotted at degree 10+), empty for the root")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("section", help="section of a word at a vertex")
    _add_table_options(p)
    p.add_argument("word")
    p.add_argument("vertex", help="digits (dotted at degree 10+), empty for the root")
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("identity", help="decide whether a word acts trivially")
    _add_table_options(p)
    p.add_argument("word", nargs="?")
    p.add_argument("--words-file", help="file with one word per line, # comments")
    p.add_argument("--max-nodes", type=int, help="search node budget")
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("expsum", help="signed letter counts per generator")
    _add_table_options(p)
    p.add_argument("word", nargs="?")
    p.add_argument("--words-file", help="file with one word per line, # comments")
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("order-probe", help="look for a finite order by direct powers")
    _add_table_options(p)
    p.add_argument("word")
    p.add_argument("--max-power", type=int, default=128)
    p.add_argument("--max-nodes", type=int, help="search node budget")
    p.set_defaults(func=cmd_order_probe)

    p = sub.add_parser("orbit", help="size of the generator orbit of the leftmost vertex")
    _add_table_options(p)
    p.add_argument("level", type=int)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("portrait", help="permutations of a word down to a depth")
    _add_table_options(p)
    p.add_argument("word")
    p.add_argument("depth", type=int)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("catalog", help="named derived elements at an arity")
    p.add_argument("--d", type=int)
    p.add_argument("--name", help="print just this entry")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser(
        "free-semigroup",
        help="check that positive words up to a length are pairwise distinct",
    )
    p.add_argument("--d", type=int)
    p.add_argument("--max-len", type=int, default=4)
    p.set_defaults(func=cmd_free_semigroup)

    p = sub.add_parser(
        "verify-paper",
        help="re-derive the full catalog of identities; TSV report",
    )
    p.add_argument("--d", type=int)
    p.add_argument("--seed", type=int, default=0, help="accepted; has no effect")
    p.set_defaults(func=cmd_verify_paper)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """Built once: a build costs 30 parses, and parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ArboraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
