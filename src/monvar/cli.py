"""Command line front end.

Exit codes follow one convention across subcommands: 0 for yes/holds/pass,
1 for no/fails, 2 for unknown within the configured bounds, 3 when a
resource cap stops the computation, 64 for usage errors and 65 for
unreadable or inconsistent input data, a word longer than
`words.MAX_WORD_LEN` letters included.

The submodules are bound as the package binds them, executed on first use,
so each command runs only the modules it reads: `preceq` runs `words`
alone; `derive` and `check` run `words`, `deduction` and `varieties`, and
`monoids` only when a verdict reads a table; `monoid` runs `words` and
`monoids`; `lattice` runs `words` and `lattices`; `verify-paper` runs them
all.  A command that fails also runs `monoids` to name its exceptions.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import deduction, lattices, monoids, varieties, verify
from .words import Bounds, embeds, format_word, parse_identity, parse_word


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# source resolution


def _resolve(source: str, named, load, kind: str):
    """A builtin by name, else a readable file."""
    try:
        return named(source)
    except KeyError:
        if os.path.exists(source):
            return load(source)
    raise KeyError(f"{source!r} is neither a builtin {kind} nor a readable file")


def _basis(name: str):
    spec = varieties.lookup(name)
    if spec.basis is None:
        raise ValueError(f"variety {spec.name} is model-defined and has no"
                         " identity basis to derive from")
    return spec.basis


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    spec = varieties.lookup(args.variety)
    if spec.name == "MON":
        raise _UsageError(
            "MON denotes the variety of all monoids: an identity holds there"
            " exactly when both sides are the same word, so compare the words"
            " directly instead of querying the catalog")
    ident = parse_identity(args.identity)
    verdict = varieties.decide_identity(spec, ident, Bounds(args.max_len, args.max_depth))
    print(f"{spec.name} |- {ident}: {verdict.value}")
    if verdict.reason:
        print(f"  {verdict.reason}")
    if isinstance(verdict.witness, dict):
        assign = ", ".join(f"{k} -> {v}" for k, v in sorted(verdict.witness.items()))
        print(f"  counterexample: {assign}")
    elif isinstance(verdict.witness, deduction.Derivation):
        print("  derivation: " + " -> ".join(format_word(w)
                                             for w in verdict.witness.words))
    return {varieties.HOLDS: 0, varieties.FAILS: 1}.get(verdict.value, 2)


def _cmd_monoid_build(args) -> int:
    m = _resolve(args.source, monoids.named_monoid, monoids.load_monoid, "monoid")
    print(f"monoid {args.source}: {len(m)} elements")
    print("elements: " + " ".join(m.names))
    return 0


def _cmd_monoid_satisfies(args) -> int:
    m = _resolve(args.source, monoids.named_monoid, monoids.load_monoid, "monoid")
    ident = parse_identity(args.identity)
    cx = monoids.find_counterexample(m, ident, allow_large=args.allow_large)
    if cx is None:
        print(f"{args.source} satisfies {ident}")
        return 0
    assign = ", ".join(f"{k} -> {v}" for k, v in sorted(cx.items()))
    print(f"{args.source} violates {ident}")
    print(f"  counterexample: {assign}")
    return 1


def _cmd_monoid_info(args) -> int:
    m = _resolve(args.source, monoids.named_monoid, monoids.load_monoid, "monoid")
    ip = monoids.monoid_index_period(m)
    print(f"monoid {args.source}: {len(m)} elements")
    print(f"identity element: {m.names[m.one]}")
    print("zero element: " + (m.names[m.zero] if m.zero is not None else "none"))
    print(f"index {ip.index}, period {ip.period}")
    print(f"commutative: {_yesno(monoids.is_commutative(m))}")
    print(f"completely regular: {_yesno(ip.index == 1)}")
    return 0


def _cmd_lattice(args) -> int:
    lat = _resolve(args.source, lattices.named_lattice, lattices.load_lattice, "lattice")
    tests = ("modular", "cancellable", "costandard")
    wanted = [label for label in tests if getattr(args, label)]
    if args.element is None and wanted:
        raise _UsageError("element property flags require --element")
    if args.element is not None:
        el = args.element.replace("∨", "v")  # accept the join sign
        rep = lattices.classify_element(lat, el)
        if not wanted:
            print(f"element {rep.element} of {args.source}:")
        for label in wanted or tests:  # the full report is indented under its heading
            print(f"{'' if wanted else '  '}{label}: {_render_check(getattr(rep, label))}")
        return 0 if all(getattr(rep, label).ok for label in wanted) else 1
    if args.count_modular:
        count = sum(lattices.classify_element(lat, i).modular.ok for i in range(len(lat)))
        print(f"{count} of {len(lat)} elements are modular")
        return 0
    print(f"lattice {args.source}: {len(lat)} elements,"
          f" bottom {lat.bottom}, top {lat.top}")
    if getattr(args, "global"):
        print(f"modular: {_render_check(lattices.is_modular_lattice(lat))}")
        print(f"distributive: {_render_check(lattices.is_distributive_lattice(lat))}")
        return 0
    for x in range(len(lat)):
        rep = lattices.classify_element(lat, x)
        print(f"  {rep.element}: modular={_yesno(rep.modular.ok)}"
              f" cancellable={_yesno(rep.cancellable.ok)}"
              f" costandard={_yesno(rep.costandard.ok)}")
    return 0


def _render_check(chk) -> str:
    if chk.ok:
        return "yes"
    return "no (witness " + ", ".join(chk.witness) + ")"


def _cmd_derive(args) -> int:
    u, v = parse_word(args.lhs), parse_word(args.rhs)
    sys_ = _resolve(args.system, _basis, deduction.load_identity_system, "variety")
    res = deduction.derivable(u, v, sys_, args.max_len, args.max_depth)
    if res.status == deduction.YES:
        print(f"yes ({len(res.derivation)} steps, {res.explored} words explored)")
        for w in res.derivation.words:
            print("  " + format_word(w))
        return 0
    if res.status == deduction.NO:
        print(f"no-within-bounds ({res.explored} words explored;"
              " the rewrite closure is complete, so the words are not equivalent)")
        return 1
    print(f"unknown ({res.explored} words explored; the search hit the bounds)")
    return 2


def _cmd_preceq(args) -> int:
    u, v = parse_word(args.lhs), parse_word(args.rhs)
    if embeds(u, v):
        print(f"yes: {format_word(u)} embeds into {format_word(v)}")
        return 0
    print(f"no: {format_word(u)} does not embed into {format_word(v)}")
    return 1


def _cmd_verify_paper(args) -> int:
    report = verify.run_verification()
    print(report.render_text())
    for line in report.machine_lines():
        print(line)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser


def _bound(text: str) -> int:
    """A search bound on the command line: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_bounds(p):
    p.add_argument("--max-len", type=_bound, default=Bounds.max_len,
                   help="longest intermediate word the search may visit")
    p.add_argument("--max-depth", type=_bound, default=Bounds.max_depth,
                   help="most rewrite steps the search may chain")


def _build_parser() -> _Parser:
    parser = _Parser(prog="monvar",
                     description="word problems, finite monoids and lattice"
                                 " elements for monoid varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide an identity in a catalog variety")
    p.add_argument("variety", help="catalog name, e.g. D2, LRB, C3, A2, Z:2:xy")
    p.add_argument("identity", help="identity such as x2y=yx2")
    _add_bounds(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("monoid", help="build, test or describe a finite monoid")
    msub = p.add_subparsers(dest="action", required=True)
    source_help = ("builtin (D2, R, Rop, RxRop, counter:<n>, group:<m>,"
                   " lrb:<k>) or a file")
    pb = msub.add_parser("build", help="construct, validate and list the elements")
    pb.add_argument("source", help=source_help)
    pb.set_defaults(func=_cmd_monoid_build)
    ps = msub.add_parser("satisfies", help="test an identity over all assignments")
    ps.add_argument("source", help=source_help)
    ps.add_argument("identity", help="identity such as x3yzt=yxzxtx")
    ps.add_argument("--allow-large", action="store_true",
                    help="lift the brute-force size guard")
    ps.set_defaults(func=_cmd_monoid_satisfies)
    pi = msub.add_parser("info", help="index/period, commutativity, regularity")
    pi.add_argument("source", help=source_help)
    pi.set_defaults(func=_cmd_monoid_info)

    p = sub.add_parser("lattice", help="inspect a lattice or one of its elements")
    p.add_argument("source", help="builtin (fig1, fig2, chainD, part:<k>) or a file")
    p.add_argument("--element", help="element name to classify")
    p.add_argument("--modular", action="store_true")
    p.add_argument("--cancellable", action="store_true")
    p.add_argument("--costandard", action="store_true")
    p.add_argument("--global", action="store_true",
                   help="whole-lattice modularity and distributivity")
    p.add_argument("--count-modular", action="store_true",
                   help="count the modular elements")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("derive", help="bounded search for an equational derivation")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--system", required=True,
                   help="identity file or catalog variety supplying the basis")
    _add_bounds(p)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("preceq", help="test the embedding quasi-order on words")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(func=_cmd_preceq)

    p = sub.add_parser("verify-paper", help="replay every bundled verification")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    # an except clause is evaluated only when an exception reaches it, so a
    # command that succeeds does not run monoids to name its exceptions
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (monoids.LikelyInfinite, monoids.SearchCapExceeded, MemoryError) as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 65


if __name__ == "__main__":
    sys.exit(main())
