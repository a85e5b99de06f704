"""Command-line front end for the workbench.

Subcommands: enumerate (trees, configurations, graph elements), compose
(operadic composition), verify (the property suites), homology (exact
integral nerve homology) and render (SVG drawings).  Every command computes
what it prints; nothing is stored between runs.

Reports are line-delimited; with ``--format records`` each line is a JSON
object carrying a schema version.  A fixed seed and fixed flags give
byte-identical output.  Exit codes: 0 on success, 1 when a verification or
other check fails (including an internal invariant check), 2 on usage and
parse errors and on terms nested too deeply to process.  Every failure
prints a one-line ``error: ...`` reason to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .cattop import (
    CategoryError,
    acyclicity_report,
    build_comma,
    build_hat_comma,
    comma_below,
    deletion_functor,
    fiber_adjoint_report,
    hat_comma_isomorphism,
    nerve_homology,
    poset_category,
)
from .circled import enumerate_configs, parse_config, random_config
from .homology import HomologyError
from .kgraph import (
    KElt,
    _integer,
    k_compose,
    k_enumerate,
    k_iota,
    k_leq,
    kelt_text,
    parse_kelt,
)
from .operad_h import (
    HOperation,
    associativity_sides,
    complexity,
    compose,
    equivariance_sides,
    operations,
    unit_sides,
)
from .render import clearance_violations, layout_config, render_layout
from .trees import LEAF, Node, enumerate_trees, parse_tree
from .trees import leaves as tree_leaves
from .trees import vertices as tree_vertices

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
SCHEMA = 1


class CheckFailure(Exception):
    """A verification or report-level check did not pass."""


def _render_records(args, records) -> str:
    """One line per record: plain text or JSON with a schema field."""
    if args.format == "records":
        lines = [
            json.dumps({"schema": SCHEMA, **fields}, sort_keys=True)
            for _, fields in records
        ]
    else:
        lines = [text for text, _ in records]
    return "\n".join(lines)


def _parse_arg(parse, noun: str, text: str):
    """parse(text), with a failure reported as a bad noun naming the text."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"bad {noun} {text!r}: {exc}") from exc


# --- enumerate -----------------------------------------------------------------

def _enumerate_records(args):
    if args.what == "trees":
        out = []
        for t in enumerate_trees(args.max_vertices, args.max_leaves):
            fields = {
                "kind": "tree",
                "text": str(t),
                "vertices": tree_vertices(t),
                "leaves": tree_leaves(t),
            }
            out.append((str(t), fields))
        return out
    if args.what == "configs":
        tree = _parse_arg(parse_tree, "tree", args.tree)
        return [
            (str(c), {"kind": "config", "tree": args.tree, "k": args.k,
                      "text": str(c)})
            for c in enumerate_configs(tree, args.k)
        ]
    cells = k_enumerate(args.m, args.k)
    return [
        (kelt_text(x), {"kind": "kelt", "m": args.m, "k": args.k,
                        "text": kelt_text(x)})
        for x in cells
    ]


def cmd_enumerate(args) -> int:
    print(_render_records(args, _enumerate_records(args)))
    return EXIT_OK


# --- compose -------------------------------------------------------------------

def cmd_compose(args) -> int:
    if args.what == "config":
        outer, *inners = (HOperation(_parse_arg(parse_config, "configuration", t))
                          for t in (args.outer, *args.inner))
        if len(inners) != outer.k:
            raise ValueError(
                f"outer operation has {outer.k} white circles,"
                f" got {len(inners)} --inner arguments"
            )
        result = compose(outer, inners, r3=args.r3)
        text = str(result.term)
        fields = {"kind": "config", "text": text,
                  "target": str(result.target),
                  "sources": [str(s) for s in result.sources]}
    else:
        outer, *inners = (_parse_arg(parse_kelt, "graph element", t)
                          for t in (args.outer, *args.inner))
        if len(inners) != outer.k:
            raise ValueError(
                f"outer element has arity {outer.k},"
                f" got {len(inners)} --inner arguments"
            )
        result = k_compose(outer, inners)
        text = kelt_text(result)
        fields = {"kind": "kelt", "text": text}
    print(_render_records(args, [(text, fields)]))
    return EXIT_OK


# --- verify ---------------------------------------------------------------------

_CORPUS = ["|", "(|)", "(| |)", "((|))", "((|) |)", "((|) (|))"]


def _random_args(rng, o: HOperation, whites=None):
    """One random operation on each source of o, with 1 or 2 whites unless given."""
    return tuple(HOperation(random_config(rng, s, whites or 1 + rng.randrange(2)))
                 for s in o.sources)


def _check(records, ok: bool, name: str, detail: str, **fields):
    status = "ok" if ok else "FAIL"
    records.append(
        (f"{status} {name} {detail}",
         {"kind": "check", "name": name, "ok": ok, "detail": detail, **fields})
    )


def _check_samples(args, records, name: str, holds):
    """Record whether holds(rng, o) is true on every seeded sample.

    Sample i draws o on corpus tree i (cyclically) with 1 + i % 3 whites, and
    holds draws the rest from rng before it composes, so a failing sample does
    not shift later ones.  A composite that is not a valid operation fails."""
    trees = [parse_tree(t) for t in _CORPUS]
    rng = random.Random(args.seed)
    failing = []
    for i in range(args.samples):
        o = HOperation(random_config(rng, trees[i % len(trees)], 1 + i % 3))
        try:
            ok = holds(rng, o)
        except ValueError:
            ok = False
        if not ok:
            failing.append(i)
    first = f" first={failing[0]}" if failing else ""
    _check(records, not failing, name,
           f"samples={args.samples} failures={len(failing)}{first}", seed=args.seed)


def _suite_axioms(args, records):
    tiny = [o for t in (LEAF, parse_tree("(|)")) for k in (1, 2)
            for o in operations(t, k)]
    # Unit laws at the term level, so switching the reduction rule off shows
    # the genuine law failure instead of an invalid-term error.
    bad = sum(unit_sides(o, r3=args.r3) != (o.term, o.term) for o in tiny)
    _check(records, bad == 0, "axioms/units-exhaustive",
           f"operations={len(tiny)} failures={bad}", r3=args.r3)

    def holds(rng, o):
        ps = _random_args(rng, o)
        qss = tuple(_random_args(rng, p) for p in ps)
        sigma = list(range(1, o.k + 1))
        rng.shuffle(sigma)
        gathered = _random_args(rng, o)
        assoc = associativity_sides(o, ps, qss, r3=args.r3)
        equiv = equivariance_sides(tuple(sigma), o, gathered, r3=args.r3)
        return (assoc[0] == assoc[1] and equiv[0] == equiv[1]
                and unit_sides(o, r3=args.r3) == (o.term, o.term))

    _check_samples(args, records, "axioms/randomized", holds)


def _suite_inequality(args, records):
    def holds(rng, o):
        ps = _random_args(rng, o)
        bound = k_compose(complexity(o), tuple(complexity(p) for p in ps))
        return k_leq(complexity(compose(o, ps, r3=args.r3)), bound)

    _check_samples(args, records, "inequality", holds)


def _suite_lemma(args, records):
    tree = _parse_arg(parse_tree, "tree", args.tree)
    for base in k_enumerate(2, args.k):
        cell = k_iota(base)
        report = acyclicity_report(comma_below(tree, cell), args.max_dim)
        _check(
            records, report.acyclic, "lemma",
            f"tree={args.tree} cell=[{kelt_text(cell)}]"
            f" objects={report.object_count} acyclic={report.acyclic}",
        )


def _suite_remark_linear(args, records):
    tree = LEAF
    for v in range(args.vertices + 1):
        for perm in ((1, 2), (2, 1)):
            cell = KElt(2, (0,), perm)
            size = len(comma_below(tree, cell).objects)
            _check(
                records, size == 0, "remark-linear",
                f"tree={tree} cell=[{kelt_text(cell)}] objects={size}",
            )
        tree = Node((tree,))


def _suite_grothendieck(args, records):
    tree = _parse_arg(parse_tree, "tree", args.tree)
    iso = hat_comma_isomorphism(tree)
    omap, amap = iso._omap, iso._amap
    objects_ok = len(set(omap)) == len(omap) == len(iso.cod.objects)
    arrows_ok = len(set(amap)) == len(amap) == len(iso.cod.arrows)
    _check(
        records, objects_ok and arrows_ok, "grothendieck",
        f"tree={args.tree} objects={len(omap)} arrows={len(amap)}",
    )


def _suite_cowedge(args, records):
    # The two-step composition squares: associativity with one-white middle
    # and inner layers.
    def holds(rng, o):
        fs = _random_args(rng, o, whites=1)
        lhs, rhs = associativity_sides(
            o, fs, tuple(_random_args(rng, f, whites=1) for f in fs), r3=args.r3)
        return lhs == rhs

    _check_samples(args, records, "cowedge", holds)


def _suite_proof_structure(args, records):
    tree = _parse_arg(parse_tree, "tree", args.tree)
    for base in k_enumerate(2, 2):
        cell = k_iota(base)
        F = deletion_functor(tree, cell)
        bad = []
        for target in F.cod.objects:
            if not fiber_adjoint_report(F, target).ok:
                bad.append(str(target))
        _check(
            records, not bad, "proof-structure",
            f"tree={args.tree} cell=[{kelt_text(cell)}]"
            f" targets={len(F.cod.objects)} failures={len(bad)}",
        )


_SUITES = {
    "axioms": _suite_axioms,
    "inequality": _suite_inequality,
    "lemma": _suite_lemma,
    "remark-linear": _suite_remark_linear,
    "grothendieck": _suite_grothendieck,
    "cowedge": _suite_cowedge,
    "proof-structure": _suite_proof_structure,
}


def cmd_verify(args) -> int:
    records = []
    try:
        _SUITES[args.suite](args, records)
    finally:
        if records:
            print(_render_records(args, records))
    failed = dict.fromkeys(f["name"] for _, f in records if not f["ok"])
    if failed:
        raise CheckFailure(f"checks failed: {', '.join(failed)}")
    return EXIT_OK


# --- homology -------------------------------------------------------------------

def _homology_records(args):
    if args.what == "kposet":
        C = poset_category(k_enumerate(args.m, args.k), k_leq)
        name = f"kposet m={args.m} k={args.k}"
    elif args.what == "comma":
        C = build_comma(_parse_arg(parse_tree, "tree", args.tree), args.k)
        name = f"comma tree={args.tree} k={args.k}"
    elif args.what == "hat":
        C = build_hat_comma(_parse_arg(parse_tree, "tree", args.tree),
                            args.level, args.k)
        name = f"hat tree={args.tree} level={args.level} k={args.k}"
    else:
        C = comma_below(_parse_arg(parse_tree, "tree", args.tree),
                        _parse_arg(parse_kelt, "graph element", args.cell))
        name = f"below tree={args.tree} cell=[{args.cell}]"
    result = nerve_homology(C, args.max_dim)
    out = []
    for n in range(len(result.betti)):
        out.append(
            (f"H{n} = {result.group(n)}",
             {"kind": "homology", "of": name, "degree": n,
              "group": result.group(n), "rank": result.betti[n],
              "torsion": list(result.torsion[n])})
        )
    return out


def cmd_homology(args) -> int:
    print(_render_records(args, _homology_records(args)))
    return EXIT_OK


# --- render -------------------------------------------------------------------

def cmd_render(args) -> int:
    config = _parse_arg(parse_config, "configuration", args.config)
    layout = layout_config(config)
    if args.check:
        violations = clearance_violations(layout)
        if violations:
            raise CheckFailure(
                f"render produced {len(violations)} curve intersections:"
                f" {violations[0]}"
            )
    svg = render_layout(layout)
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error: ...`` line."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _int_option(text: str) -> int:
    """The type of every integer option: the codecs' integers, ASCII digits
    with no leading zero after an optional minus, so '+1', '0_1' and other
    scripts' digits are usage errors as they are in a codec text."""
    try:
        return _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _add_global_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "records"), default="text")
    parser.add_argument("--seed", type=_int_option, default=0)
    parser.add_argument("--no-r3", dest="r3", action="store_false",
                        help="drop the black-circles-inside-white rule")
    parser.add_argument("--max-dim", type=_int_option, default=3)


def _check_global_options(argv) -> None:
    """Reject an unknown option before the subcommand by its name.

    The full parser would take the option's value for the subcommand and
    report that value as an invalid choice instead.
    """
    parser = _Parser(add_help=False)
    _add_global_options(parser)
    parser.add_argument("-h", "--help", action="store_true")
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    _, unknown = parser.parse_known_args(argv)
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circleops",
        description="workbench for circled planar trees and their homology",
    )
    _add_global_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list trees, configurations, or cells")
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("trees")
    q.add_argument("--max-vertices", type=_int_option, required=True)
    q.add_argument("--max-leaves", type=_int_option, required=True)
    q = ps.add_parser("configs")
    q.add_argument("--tree", required=True)
    q.add_argument("--k", type=_int_option, required=True)
    q = ps.add_parser("kgraph")
    q.add_argument("--m", type=_int_option, required=True)
    q.add_argument("--k", type=_int_option, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("compose", help="operadic composition")
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("config")
    q.add_argument("--outer", required=True)
    q.add_argument("--inner", action="append", default=[], required=True)
    q = ps.add_parser("kgraph")
    q.add_argument("--outer", required=True)
    q.add_argument("--inner", action="append", default=[], required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("verify", help="run a property suite")
    ps = p.add_subparsers(dest="suite", required=True)
    q = ps.add_parser("axioms")
    q.add_argument("--samples", type=_int_option, default=200)
    q = ps.add_parser("inequality")
    q.add_argument("--samples", type=_int_option, default=200)
    q = ps.add_parser("lemma")
    q.add_argument("--tree", required=True)
    q.add_argument("--k", type=_int_option, default=2)
    q = ps.add_parser("remark-linear")
    q.add_argument("--vertices", type=_int_option, default=3)
    q = ps.add_parser("grothendieck")
    q.add_argument("--tree", required=True)
    q = ps.add_parser("cowedge")
    q.add_argument("--samples", type=_int_option, default=100)
    q = ps.add_parser("proof-structure")
    q.add_argument("--tree", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("homology", help="integral homology of a nerve")
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("kposet")
    q.add_argument("--m", type=_int_option, required=True)
    q.add_argument("--k", type=_int_option, required=True)
    q = ps.add_parser("comma")
    q.add_argument("--tree", required=True)
    q.add_argument("--k", type=_int_option, required=True)
    q = ps.add_parser("hat")
    q.add_argument("--tree", required=True)
    q.add_argument("--level", type=_int_option, default=2)
    q.add_argument("--k", type=_int_option, default=2)
    q = ps.add_parser("below")
    q.add_argument("--tree", required=True)
    q.add_argument("--cell", required=True)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("render", help="draw a configuration as SVG")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--check", action="store_true",
                   help="fail if any curves intersect")
    p.set_defaults(func=cmd_render)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        _check_global_options(argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # A negative count would check nothing and still report success.
        for name in ("max_dim", "samples", "vertices"):
            value = getattr(args, name, 0)
            if value < 0:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} must be nonnegative, got {value}")
        return args.func(args)
    except CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except CategoryError as exc:
        print(f"error: loop-free or category check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except RecursionError:
        # RecursionError is a RuntimeError: catch it first.  A parsed term
        # nests at most 200 deep, but a composite can nest deeper than the
        # recursive walkers reach.
        print("error: term nested too deeply: a result nests deeper than the"
              " term walkers follow (inputs nest at most 200 deep)", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # A nerve or category too large for the machine: the input is the
        # fault, as for a term nested too deeply.
        what = getattr(args, "what", None) or getattr(args, "suite", None)
        name = " ".join(x for x in (args.command, what) if x)
        print(f"error: out of memory while running {name}: the input is too"
              " large for this machine", file=sys.stderr)
        return EXIT_USAGE
    except (HomologyError, RuntimeError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())
