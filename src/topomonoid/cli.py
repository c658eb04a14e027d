"""Command-line interface.

    topomonoid normalize WORD [--axioms base|pb]
    topomonoid enumerate --gens LETTERS [--axioms ...] [--json]
    topomonoid eval WORD (--set DSL | --witness NAME)
    topomonoid distinguish --witness NAME --gens LETTERS [--axioms ...]
    topomonoid poset [--axioms ...] [--dot FILE] [--json]
    topomonoid table {figure-even,vitali,kfd-counts}
    topomonoid verify [--corpus-size N] [--seed S] [--json FILE]

Global flags --w0 / --w1 set the Vitali atom's parameters.  Exit status:
0 success, 1 failed check, evaluation error or unwritable output file,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus as corpus_mod
from . import verify as verify_mod
from .monoid import enumerate_monoid, parity
from .poset import corpus_relation, emit_dot, hasse, proved_relation
from .rewrite import ReductionBudgetError, normalize
from .rules import get_axioms
from .tables import even_figure, format_rows, kfd_counts, vitali_figure
from .vitali import Undecidable, VitaliParams, apply_word, distinguish, render_symbolic
from .words import ParseError, parse_word, render_word


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="topomonoid",
        description="monoids of topological set operators, evaluated exactly on the real line")
    p.add_argument("--w0", default="(8,9)", metavar="INTERVAL",
                   help="Vitali parameter W0 (open; default (8,9))")
    p.add_argument("--w1", default="(8,10)", metavar="INTERVAL",
                   help="Vitali parameter W1 (open; default (8,10))")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize", help="canonical form of an operator word")
    sp.add_argument("word")
    sp.add_argument("--axioms", choices=("base", "pb"), default="base")

    sp = sub.add_parser("enumerate", help="generate a monoid and its Cayley tables")
    sp.add_argument("--gens", required=True, metavar="LETTERS")
    sp.add_argument("--axioms", choices=("base", "pb"), default="base")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("eval", help="apply a word to a set")
    sp.add_argument("word")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", dest="set_dsl", metavar="DSL")
    group.add_argument("--witness", choices=corpus_mod.WITNESS_NAMES)

    sp = sub.add_parser("distinguish", help="count distinct images of a witness")
    sp.add_argument("--witness", required=True, choices=corpus_mod.WITNESS_NAMES)
    sp.add_argument("--gens", required=True, metavar="LETTERS")
    sp.add_argument("--axioms", choices=("base", "pb"), default="base")

    sp = sub.add_parser("poset", help="partial order on the even operators")
    sp.add_argument("--axioms", choices=("base", "pb"), default="base")
    sp.add_argument("--dot", metavar="FILE")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("table", help="reference tables")
    sp.add_argument("name", choices=("figure-even", "vitali", "kfd-counts"))

    sp = sub.add_parser("verify", help="run the full verification suite")
    sp.add_argument("--corpus-size", type=_positive_int,
                    default=verify_mod.DEFAULT_CORPUS_SIZE)
    sp.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED)
    sp.add_argument("--json", metavar="FILE")
    return p


def _params(args) -> VitaliParams:
    w0 = corpus_mod.parse_set_dsl(args.w0)
    w1 = corpus_mod.parse_set_dsl(args.w1)
    if not (w0.is_tame() and w1.is_tame()):
        raise ParseError("W0 and W1 must be tame open sets")
    return VitaliParams.make(w0.base, w1.base)


def _cmd_normalize(args, params) -> int:
    ax = get_axioms(args.axioms)
    print(render_word(normalize(parse_word(args.word), ax)))
    return 0


def _cmd_enumerate(args, params) -> int:
    table = enumerate_monoid(args.gens, get_axioms(args.axioms))
    if args.json:
        print(json.dumps(table.to_json(), indent=2))
    else:
        print(f"<{','.join(table.generators)}> under {table.axioms}: "
              f"{len(table.elements)} elements")
        print(" ".join(render_word(w) for w in table.elements))
    return 0


def _cmd_eval(args, params) -> int:
    word = parse_word(args.word)
    if args.witness:
        s = corpus_mod.witness(args.witness, params)
    else:
        s = corpus_mod.parse_set_dsl(args.set_dsl, params)
    try:
        print(render_symbolic(apply_word(word, s)))
    except Undecidable as exc:
        print(f"error: {exc} on set {render_symbolic(s)!r}", file=sys.stderr)
        return 1
    return 0


def _cmd_distinguish(args, params) -> int:
    table = enumerate_monoid(args.gens, get_axioms(args.axioms))
    s = corpus_mod.witness(args.witness, params)
    count, images = distinguish(s, table.elements)
    print(f"{count} distinct images of {args.witness} under "
          f"{len(table.elements)} operators")
    for w in table.elements:
        print(f"  {render_word(w):>6}  {images[render_word(w)]}")
    return 0


def _cmd_poset(args, params) -> int:
    ax = get_axioms(args.axioms)
    elements = enumerate_monoid("kcd", ax).elements
    evens = tuple(w for w in elements if parity(w) == "even")
    proved = proved_relation(evens, ax)
    witnesses = [corpus_mod.witness(n, params) for n in corpus_mod.WITNESS_NAMES]
    empirical = corpus_relation(evens, witnesses)
    agree = proved.leq == empirical.leq
    edges = hasse(proved)
    if args.json:
        print(json.dumps({
            "schema_version": 1,
            "axioms": ax.name,
            "elements": [render_word(w) for w in evens],
            "proved_equals_corpus": agree,
            "hasse_edges": [[render_word(a), render_word(b)] for a, b in edges],
        }, indent=2))
    else:
        print(f"{len(evens)} even operators under {ax.name}; "
              f"proved relation {'==' if agree else '!='} corpus relation")
        for a, b in edges:
            print(f"  {render_word(a)} -> {render_word(b)}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(emit_dot(edges, evens))
        print(f"wrote {args.dot}")
    return 0 if agree else 1


def _cmd_table(args, params) -> int:
    if args.name == "figure-even":
        rows = [(w + "A", img) for w, img in even_figure(params)]
        print(format_rows(rows, headers=("operator", "image")))
    elif args.name == "vitali":
        rows = []
        for label, value, printed in vitali_figure(params):
            note = "" if printed is None else f"printed as {printed!r}; see typo ledger"
            rows.append((label, value, note))
        print(format_rows(rows, headers=("operator", "derived value", "note")))
    else:
        rows = [(ax, f"<{','.join(gens)}>", count,
                 " ".join(render_word(w) for w in elements))
                for ax, gens, count, elements in kfd_counts()]
        print(format_rows(rows, headers=("axioms", "generators", "count", "elements")))
    return 0


def _cmd_verify(args, params) -> int:
    report = verify_mod.run_verify(args.corpus_size, args.seed, params)
    print(report.format_text())
    if args.json:
        verify_mod.write_json(report, args.json)
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


_COMMANDS = {
    "normalize": _cmd_normalize,
    "enumerate": _cmd_enumerate,
    "eval": _cmd_eval,
    "distinguish": _cmd_distinguish,
    "poset": _cmd_poset,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = _params(args)
        return _COMMANDS[args.command](args, params)
    except (ParseError, ReductionBudgetError, Undecidable, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
