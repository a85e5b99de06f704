"""Digests of categories, nerves, functors, composites, drawings and CLI
runs, for comparing two checkouts.

Every category, nerve, functor and term item renders its values as codec
text, in the order the library returns them (a rejected composition as its
error); every ``render/...`` item renders each seeded configuration, its
clearance violations and, for a clear drawing, its SVG; every ``cli/...``
item runs one command in-process through ``cli.run`` and renders its exit
code, stdout and stderr.  Each item prints
one ``name sha256`` line.  Run it from the root of each checkout and compare
the outputs with ``diff``:

    PYTHONPATH=src python3 tools/digests.py > digests.txt

Each item's wall time and the process's peak RSS after it (as
``getrusage`` reports it, so the largest of this item and those before it)
go to stderr, one line per item; run one heavy item alone, by its name, to
compare its memory between checkouts.

Optional arguments select the items whose names start with one of them.
The light items (``LIGHT``, ``TERM``, ``RENDER`` and ``CLI``) are also pinned by
``tests/test_digests.py``; the heavy ones (``HEAVY``) take minutes and run
only here.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import product

from circleops import cli

from circleops.cattop import (
    Arrow,
    build_comma,
    build_hat_comma,
    comma_below,
    deletion_functor,
    fiber_adjoint_report,
    fiber_inclusion,
    hat_comma_grothendieck,
    nerve,
    poset_category,
)
from circleops.circled import (
    BLACK,
    White,
    _random_insert,
    enumerate_configs,
    parse_config,
    random_config,
    validate_config,
    white_profile,
)
from circleops.kgraph import k_enumerate, k_iota, k_leq, parse_kelt
from circleops.operad_h import (
    HOperation,
    associativity_sides,
    complexity,
    compose,
    equivariance_sides,
    identity_op,
    operations,
    unit_sides,
)
from circleops.render import clearance_violations, layout_config, render_layout
from circleops.trees import enumerate_trees, parse_tree
from circleops.trees import vertices as tree_vertices

FIVE_TREES = ("|", "(|)", "(| |)", "((|))", "((|) |)")
DOWN_SET_TOP = "3; mu(1,2)=2 mu(1,3)=2 mu(2,3)=2; perm=[1 2 3]"
LAW_TREES = ("|", "(|)", "(| |)", "((|))", "((|) |)", "((|) (|))")


def text(x) -> str:
    """Codec text of a payload: terms, trees and graph elements print
    themselves; arrows and tuples are spelled out around them."""
    if isinstance(x, Arrow):
        return f"[{text(x.src)} -> {text(x.dst)} : {text(x.label)}]"
    if isinstance(x, tuple):
        return "(" + ", ".join(text(y) for y in x) + ")"
    return str(x)


def sha256_lines(lines) -> str:
    """The digest of the lines joined by newlines, hashed as they come, so
    that no item holds all its text at once."""
    h, sep = hashlib.sha256(), b""
    for line in lines:
        h.update(sep + line.encode())
        sep = b"\n"
    return h.hexdigest()


def category_lines(name, C):
    yield f"# {name}"
    yield from (f"object {text(x)}" for x in C.objects)
    yield from (f"arrow {text(a)}" for a in C.arrows)
    yield from (f"identity {text(x)} = {text(e)}" for x, e in C.identities.items())
    yield from (f"table {text(g)} . {text(f)} = {text(h)}"
                for (g, f), h in C.table.items())


def nerve_lines(name, C, max_dim):
    yield f"# {name} to degree {max_dim}"
    for n, b in enumerate(nerve(C, max_dim).boundaries):
        yield f"d{n + 1} {b.nrows}x{b.ncols} {b.entries}"


def functor_lines(name, F):
    yield f"# {name}"
    yield from (f"obj {text(x)} -> {text(y)}" for x, y in F.object_map.items())
    yield from (f"arr {text(a)} -> {text(b)}" for a, b in F.arrow_map.items())


def inclusion_lines(name, F):
    for target in F.cod.objects:
        for side in ("under", "over"):
            inc = fiber_inclusion(F, target, side)
            yield from category_lines(f"{name} {text(target)} {side}", inc.cod)
            yield from functor_lines("inclusion", inc)


def report_lines(name, F):
    for target in F.cod.objects:
        r = fiber_adjoint_report(F, target)
        yield f"# {name} {text(target)} ok={r.ok}"
        yield f"terminal {text(r.fiber_terminal)}"
        yield from (f"approx {text(z)} -> {text(t)}" for z, t in r.approximations)


def positive_cells(k=2):
    """The positive arity-k cells, shifts of k_enumerate(2, k): four at k=2."""
    return [k_iota(c) for c in k_enumerate(2, k)]


def comma_belows(trees=FIVE_TREES, k=2):
    for t in trees:
        for cell in positive_cells(k):
            yield f"comma_below {t} [{cell}]", comma_below(parse_tree(t), cell)


def k3_hat_commas():
    for t in ("|", "(|)"):
        yield f"build_hat_comma {t} k=3", build_hat_comma(parse_tree(t), 2, 3)


def posets():
    for m, k in ((2, 3), (3, 2)):
        yield f"poset k_enumerate({m}, {k})", poset_category(k_enumerate(m, k), k_leq)
    top = parse_kelt(DOWN_SET_TOP)
    below = [e for e in k_enumerate(3, 3) if k_leq(e, top)]
    yield "poset down-set", poset_category(below, k_leq)


def commas(pairs):
    for t, k in pairs:
        yield f"build_comma {t} k={k}", build_comma(parse_tree(t), k)


def hat_commas():
    for t in DELETION_TREES:
        yield f"build_hat_comma {t}", build_hat_comma(parse_tree(t))
    for t in ("|", "(|)"):
        yield f"hat_comma_grothendieck {t}", hat_comma_grothendieck(parse_tree(t))


def deletions(trees):
    for t in trees:
        for cell in positive_cells():
            yield f"deletion {t} [{cell}]", deletion_functor(parse_tree(t), cell)


def categories_item(source):
    def lines():
        for name, C in source():
            yield from category_lines(name, C)
    return lines


def nerves_item(source, max_dim):
    def lines():
        for name, C in source():
            yield from nerve_lines(name, C, max_dim)
    return lines


def functors_item(trees, render):
    def lines():
        for name, F in deletions(trees):
            yield from render(name, F)
    return lines


def homology_categories():
    """(name, category, nerve max_dim): the stage posets, the down-set below
    DOWN_SET_TOP and the positive k=2 commas below three trees.  Stage 3 at
    k=3 goes only to degree 1, as in the benchmark's homology workload."""
    for m, k in ((2, 3), (3, 2)):
        yield f"k_enumerate({m}, {k})", poset_category(k_enumerate(m, k), k_leq), 3
    yield "k_enumerate(3, 3)", poset_category(k_enumerate(3, 3), k_leq), 1
    top = parse_kelt(DOWN_SET_TOP)
    below = [e for e in k_enumerate(3, 3) if k_leq(e, top)]
    yield "down-set", poset_category(below, k_leq), 2
    for t in ("|", "(|)", "(| |)"):
        for cell in positive_cells():
            yield f"{t} {cell}", comma_below(parse_tree(t), cell), 4


def poset_nerve_lines():
    for name, C in posets():
        yield from nerve_lines(name, C, 2 if name.endswith("down-set") else 3)


SMALL_COMMAS = (("(| |)", 2), ("((|) |)", 2))
DELETION_TREES = ("|", "(|)", "(| |)")
TEST_02_TREES = tuple(str(t) for t in enumerate_trees(2, 2))

LIGHT = {
    "categories/comma_below": categories_item(comma_belows),
    "categories/poset": categories_item(posets),
    "categories/build_comma": categories_item(lambda: commas(SMALL_COMMAS)),
    "categories/hat_comma": categories_item(hat_commas),
    "nerve/comma_below": nerves_item(comma_belows, 4),
    "nerve/poset": poset_nerve_lines,
    "nerve/build_comma": nerves_item(lambda: commas(SMALL_COMMAS), 3),
    "functors/deletion": functors_item(DELETION_TREES, functor_lines),
    "functors/fiber_inclusion": functors_item(("|", "(|)"), inclusion_lines),
    "functors/fiber_adjoint_report": functors_item(DELETION_TREES, report_lines),
}


def outcome(f, *args) -> str:
    """The text of f's result, or the type and message of what it raised."""
    try:
        return text(f(*args))
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def law_lines(samples=400, seed=20261018):
    """Both sides of each operad law on seeded operations, with and without
    the uncovered-black rule; without it a side may be rejected."""
    rng = random.Random(seed)
    trees = [parse_tree(t) for t in LAW_TREES]
    for i in range(samples):
        o = HOperation(random_config(rng, trees[i % len(trees)], 1 + i % 3))
        ps = tuple(HOperation(random_config(rng, s, 1 + rng.randrange(2)))
                   for s in o.sources)
        qss = tuple(tuple(HOperation(random_config(rng, s, 1 + rng.randrange(2)))
                          for s in p.sources)
                    for p in ps)
        sigma = list(range(1, o.k + 1))
        rng.shuffle(sigma)
        yield f"# {o} ; {text(ps)} ; {text(qss)} ; {text(tuple(sigma))}"
        for r3 in (True, False):
            yield f"unit r3={r3} {outcome(unit_sides, o, r3)}"
            yield f"assoc r3={r3} {outcome(associativity_sides, o, ps, qss, r3)}"
            yield (f"equiv r3={r3}"
                   f" {outcome(equivariance_sides, tuple(sigma), o, ps, r3)}")


# (outer, arguments): each composition is rejected.
REJECTED = (
    ("{w1 (| |) / | |}", ()),
    ("{w1 (| |) / | |}", ("{w1 (| |) / | |}", "{w1 (| |) / | |}")),
    ("{w1 (| |) / | |}", ("{w1 (|) / |}",)),
    ("({w1 | / |} {w2 (|) / |})", ("{w1 | / |}", "{w1 | / |}")),
    ("({w2 | / |} {w1 (|) / |})", ("{w1 (|) / |}", "{w1 (| |) / | |}")),
)


def rejected_lines():
    for outer, inners in REJECTED:
        o = HOperation(parse_config(outer))
        args = tuple(HOperation(parse_config(a)) for a in inners)
        yield f"{outer} ; {' ; '.join(inners)} => {outcome(compose, o, args)}"


def complexity_lines(configs):
    """Each configuration and the complexity of its operation, or the error."""
    for c in configs:
        yield f"{c} => {outcome(lambda: complexity(HOperation(c)))}"


def complexity_configs(seed=20261018, samples=300):
    """Every configuration on enumerate_trees(2, 2) with k <= 2, then seeded
    draws on enumerate_trees(3, 3) cycling through 1..8 white circles."""
    for t in enumerate_trees(2, 2):
        for k in range(3):
            yield from enumerate_configs(t, k)
    rng = random.Random(seed)
    trees = enumerate_trees(3, 3)
    for i in range(samples):
        yield random_config(rng, trees[i % len(trees)], 1 + i % 8)


def validity_configs(seed=20261019, samples=300):
    """Seeded draws on enumerate_trees(3, 3) cycling through 1..6 white
    circles, each followed by itself with one more circle put in by
    _random_insert without the validity filter: a black one, or a white one
    labelled from -1 to k + 2, so that every violation code can occur."""
    rng = random.Random(seed)
    trees = enumerate_trees(3, 3)
    for i in range(samples):
        k = 1 + i % 6
        c = random_config(rng, trees[i % len(trees)], k)
        yield c
        kind = BLACK if rng.randrange(2) else White(rng.randrange(-1, k + 3))
        yield _random_insert(rng, c, kind)


def validity_lines(configs):
    """Each term's validity report, violations in order, and its white
    profile or the error white_profile raises."""
    for c in configs:
        report = validate_config(c)
        yield f"# {c} ok={report.ok} whites={report.whites}"
        yield from (f"{text(addr)} {code}: {msg}"
                    for addr, code, msg in report.violations)
        yield f"profile {outcome(white_profile, c)}"


def k3_enumeration_lines():
    """Every configuration with three white circles on each of FIVE_TREES."""
    for t in FIVE_TREES:
        yield from (str(c) for c in enumerate_configs(parse_tree(t), 3))


TERM = {
    "terms/enumerate_configs k=3": k3_enumeration_lines,
    "terms/laws": law_lines,
    "terms/rejected": rejected_lines,
    "terms/complexity": lambda: complexity_lines(complexity_configs()),
    "terms/validity": lambda: validity_lines(validity_configs()),
}


RENDER_TREES = enumerate_trees(3, 3)


def render_configs(seed=20261018, samples=300):
    """Seeded draws on the trees of enumerate_trees(3, 3), cycling through
    the trees and through 1..6 white circles."""
    rng = random.Random(seed)
    for i in range(samples):
        yield random_config(rng, RENDER_TREES[i % len(RENDER_TREES)], 1 + i % 6)


def every_render_config(seed):
    """One seeded draw for every (tree, k) with k = 1..6."""
    rng = random.Random(seed)
    for t in RENDER_TREES:
        for k in range(1, 7):
            yield random_config(rng, t, k)


def drawing_lines(configs):
    """Each configuration, its clearance violations and, when there are
    none, its SVG; failing drawings stay in."""
    for c in configs:
        layout = layout_config(c)
        violations = clearance_violations(layout)
        yield f"# {c}"
        yield from violations
        if not violations:
            yield render_layout(layout)


RENDER = {
    "render/drawings": lambda: drawing_lines(render_configs()),
}


def test_02_lines():
    """Every composite test_02 forms, in its order: the unit laws, both
    associativity sides, both equivariance sides and the seeded sweep."""
    pool = {}

    def ops_for(s):
        if s not in pool:
            pool[s] = operations(s, 1) + operations(s, 2)
        return pool[s]

    counter = 0

    def rot_args(o):
        nonlocal counter
        picked = []
        for s in o.sources:
            options = ops_for(s)
            picked.append(options[counter % len(options)])
            counter += 1
        return tuple(picked)

    def units(o):
        yield text(compose(o, tuple(identity_op(s) for s in o.sources)))
        yield text(compose(identity_op(o.target), (o,)))

    corpus = [o for t in enumerate_trees(2, 2) for k in (1, 2)
              for o in operations(t, k)]
    for o in corpus:
        yield from units(o)
    for o in corpus:
        if tree_vertices(o.target) <= 1:
            middle_tuples = product(*[ops_for(s) for s in o.sources])
        else:
            middle_tuples = (rot_args(o),)
        for ps in middle_tuples:
            qss = tuple(rot_args(p) for p in ps)
            yield text(associativity_sides(o, ps, qss))
    for o in corpus:
        if o.k == 2:
            yield text(equivariance_sides((2, 1), o, rot_args(o)))
    rng = random.Random(20260815)
    trees = list(enumerate_trees(3, 3))
    for i in range(200):
        o = HOperation(random_config(rng, trees[i % len(trees)], 1 + i % 3))
        ps = tuple(HOperation(random_config(rng, s, 1 + rng.randrange(3)))
                   for s in o.sources)
        qss = tuple(tuple(HOperation(random_config(rng, s, 1 + rng.randrange(2)))
                          for s in p.sources)
                    for p in ps)
        yield text(associativity_sides(o, ps, qss))
        yield from units(o)
        sigma = list(range(1, o.k + 1))
        rng.shuffle(sigma)
        yield text(equivariance_sides(tuple(sigma), o, ps))


def enumeration_lines():
    for t in enumerate_trees(3, 3):
        for k in range(3):
            yield f"# {t} k={k}"
            yield from (str(c) for c in enumerate_configs(t, k))


def cli_item(argv):
    def lines():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(argv))
        yield f"exit {code}"
        yield json.dumps(out.getvalue())
        yield json.dumps(err.getvalue())
    return lines


HEAVY = {
    "heavy/build_comma k=3": categories_item(
        lambda: commas((("(|)", 3), ("((|) |)", 3)))),
    "heavy/comma_below k=3": categories_item(lambda: comma_belows(("(| |)",), 3)),
    "heavy/build_hat_comma k=3": categories_item(k3_hat_commas),
    "heavy/build_comma test_02 corpus": categories_item(
        lambda: commas((t, k) for t in TEST_02_TREES for k in (1, 2))),
    # the largest poset certified by its hom-sets: 1,536 objects, 49,920
    # arrows and 408,768 table entries
    "heavy/poset k_enumerate(2, 4)": categories_item(
        lambda: (("poset k_enumerate(2, 4)",
                  poset_category(k_enumerate(2, 4), k_leq)),)),
    "heavy/nerve stage 3": nerves_item(
        lambda: (("poset k_enumerate(3, 3)",
                  poset_category(k_enumerate(3, 3), k_leq)),), 4),
    "heavy/deletion five trees": functors_item(FIVE_TREES, functor_lines),
    "heavy/fiber_adjoint_report five trees": functors_item(FIVE_TREES, report_lines),
    "heavy/test_02 composites": test_02_lines,
    "heavy/enumerate_configs trees(3, 3) k<=2": enumeration_lines,
    "heavy/complexity trees(3, 3) k<=3": lambda: complexity_lines(
        c for t in enumerate_trees(3, 3) for k in (1, 2, 3)
        for c in enumerate_configs(t, k)),
    "heavy/render every (tree, k<=6) at seeds 1, 2, 3": lambda: drawing_lines(
        c for seed in (1, 2, 3) for c in every_render_config(seed)),
    # the boundaries with the most fill in Smith normal form
    "heavy/cli/--max-dim 5 homology kposet --m 3 --k 3": cli_item(
        ("--max-dim", "5", "homology", "kposet", "--m", "3", "--k", "3")),
    # a top chain group larger than the one below it (68,664 over 52,920
    # chains), so homology reduces from d_1 up
    "heavy/cli/homology kposet --m 3 --k 3": cli_item(
        ("homology", "kposet", "--m", "3", "--k", "3")),
}


# The README's CLI quick start; render writes its SVG to stdout, not a file.
README_COMMANDS = (
    ("enumerate", "trees", "--max-vertices", "1", "--max-leaves", "2"),
    ("enumerate", "configs", "--tree", "(| |)", "--k", "2"),
    ("compose", "kgraph", "--outer", "2; mu(1,2)=1; perm=[1 2]",
     "--inner", "3; mu(1,2)=0 mu(1,3)=2 mu(2,3)=2; perm=[1 2 3]",
     "--inner", "2; mu(1,2)=0; perm=[1 2]"),
    ("--seed", "7", "verify", "axioms", "--samples", "200"),
    ("verify", "lemma", "--tree", "(| |)", "--k", "2"),
    ("homology", "kposet", "--m", "3", "--k", "2"),
    ("render", "--config", "{w1 (| |) / | |}", "--check", "--out", "-"),
    ("homology", "hat", "--tree", "(|)"),
)
SUITE_ARGS = {
    "axioms": (), "inequality": (), "lemma": ("--tree", "(| |)"),
    "remark-linear": (), "grothendieck": ("--tree", "(| |)"), "cowedge": (),
    "proof-structure": ("--tree", "(| |)"),
}
VERIFY_COMMANDS = tuple(
    ("--seed", seed, "--format", fmt, "verify", suite, *args)
    for suite, args in SUITE_ARGS.items()
    for seed in ("0", "7")
    for fmt in ("text", "records")
)
ERROR_COMMANDS = (
    ("verify", "lemma", "--tree", "(("),
    ("--max-dim", "-1", "homology", "kposet", "--m", "2", "--k", "2"),
)
# Arity at and below zero: no white circles is a point, fewer is an error.
ARITY_COMMANDS = (
    ("verify", "lemma", "--tree", "(|)", "--k", "0"),
    ("enumerate", "kgraph", "--m", "2", "--k", "-1"),
)
# The configuration, tree and graph-element arguments of compose and
# homology: one run that parses and one that names a bad argument, each.
ARGUMENT_COMMANDS = (
    ("compose", "config", "--outer", "{w1 (| |) / | |}",
     "--inner", "({w1 | / |} {w2 | / |})"),
    ("compose", "config", "--outer", "{w1 (| |) / |", "--inner", "{w1 | / |}"),
    ("homology", "comma", "--tree", "(|)", "--k", "2"),
    ("homology", "comma", "--tree", "(| x)", "--k", "2"),
    ("homology", "below", "--tree", "(| |)", "--cell", "2; mu(1,2)=1; perm=[1 2]"),
    ("homology", "below", "--tree", "(| |)", "--cell", "2; mu(1,2)=x; perm=[1 2]"),
)
# A nerve whose top chain group is larger than the one below it, 48/264/372
# chains, so homology reduces from d_1 up.
BOTTOM_UP_COMMANDS = (
    ("--max-dim", "1", "homology", "kposet", "--m", "2", "--k", "3"),
)

CLI = {
    "cli/" + " ".join(argv): cli_item(argv)
    for argv in (README_COMMANDS + VERIFY_COMMANDS + ERROR_COMMANDS
                 + ARITY_COMMANDS + ARGUMENT_COMMANDS + BOTTOM_UP_COMMANDS)
}


def main(argv) -> int:
    for name, lines in {**LIGHT, **TERM, **RENDER, **CLI, **HEAVY}.items():
        if argv and not any(name.startswith(p) for p in argv):
            continue
        start = time.perf_counter()
        print(name, sha256_lines(lines()), flush=True)
        # ru_maxrss is in kilobytes on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{name}: {time.perf_counter() - start:.2f} s,"
              f" peak RSS {peak:.0f} MB", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
