"""The four workloads: their inputs, the calls they make and the checks.

Each workload builds its inputs as plain text before the timed phase and
hands circleops nothing else.  ``operad`` and ``render`` draw their inputs
from the seed; ``categories`` and ``homology`` are fixed corpora that ignore
it.  Every output is checked against a reference that does not come from
the code under test: a law of the operad, a known homology group, a count
pinned at the seed commit, or the independent term model in ``terms``.
An item is one law instance, one drawing, or one check of the fixed
corpora, the work of one ``circleops`` command without interpreter start.
"""

from __future__ import annotations

import random

import terms
from circleops.cattop import (
    comma_below,
    deletion_functor,
    fiber_adjoint_report,
    find_terminal,
    nerve,
    poset_category,
)
from circleops.circled import enumerate_configs, parse_config
from circleops.homology import homology
from circleops.kgraph import k_compose, k_enumerate, k_leq, parse_kelt
from circleops.operad_h import HOperation, complexity, compose, sigma_act
from circleops.render import clearance_violations, layout_config, render_layout
from circleops.trees import parse_tree

TREE_POOL = terms.trees(3, 3)
FIVE_TREES = ("|", "(|)", "(| |)", "((|))", "((|) |)")
# The four positive arity-2 cells: the lemma's cells k_enumerate(3, 2) with
# a positive label, which are also the shifts of k_enumerate(2, 2) that the
# deletion functor runs on.
CELLS = (
    "2; mu(1,2)=1; perm=[1 2]",
    "2; mu(1,2)=1; perm=[2 1]",
    "2; mu(1,2)=2; perm=[1 2]",
    "2; mu(1,2)=2; perm=[2 1]",
)


def _homology_check(ctx, C, max_dim: int):
    """Nerve and homology of C through max_dim; returns (betti, torsion)."""
    cx = ctx.call("cattop.nerve", nerve, C, max_dim + 1)
    ctx.count("cattop.nerve.chains", sum(cx.dims))
    h = ctx.call("homology.homology", homology, cx)
    if ctx.traced:
        ctx.count("homology.nnz", sum(len(b.entries) for b in cx.boundaries))
        # Over Q, betti_n = dims_n - rank d_n - rank d_(n+1) and the top
        # boundary is into the top degree, so the ranks follow top down.
        ranks, above = 0, 0
        for n in range(len(cx.dims) - 1, 0, -1):
            above = cx.dims[n] - h.betti[n] - above
            ranks += above
        ctx.count("homology.rank", ranks)
    return h.betti[: max_dim + 1], h.torsion[: max_dim + 1]


class Operad:
    """Law instances on trees with at most 3 vertices and 3 leaves.

    Outer operations have 1-3 white circles and every composite at most 7.
    The instances share little, so compose runs on cold, distinct terms; a
    memo or intern table that pays off only on repeats shows here as cost.
    No category or homology code runs.
    """

    name = "operad"
    seeded = True
    items_per_rep = 800
    max_whites = 7

    def inputs(self, seed: int) -> list:
        rng = random.Random(f"operad-{seed}")
        return [self._instance(rng) for _ in range(self.items_per_rep)]

    def _whites(self, rng, parts: int, cap: int) -> list:
        """Per-operation white counts in 1..cap, summing to at most max_whites."""
        out = []
        for j in range(parts):
            room = self.max_whites - sum(out) - (parts - j - 1)
            out.append(rng.randint(1, min(cap, room)))
        return out

    def _instance(self, rng) -> dict:
        target = rng.choice(TREE_POOL)
        o = terms.random_config(rng, target, rng.randint(1, 3))
        o_src = terms.sources(o)
        ps = [terms.random_config(rng, s, k)
              for s, k in zip(o_src, self._whites(rng, len(o_src), 3))]
        p_src = [s for p in ps for s in terms.sources(p)]
        flat_q = [terms.random_config(rng, s, k)
                  for s, k in zip(p_src, self._whites(rng, len(p_src), 2))]
        qss, start = [], 0
        for p in ps:
            n = len(terms.sources(p))
            qss.append(flat_q[start:start + n])
            start += n
        k = len(o_src)
        sigma = list(range(1, k + 1))
        rng.shuffle(sigma)
        inv = [sigma.index(v) + 1 for v in range(1, k + 1)]
        sizes = [len(terms.sources(p)) for p in ps]
        rho = []
        for i in range(k):
            shift = sum(sizes[c] for c in range(k) if sigma[c] < sigma[i])
            rho.extend(shift + m for m in range(1, sizes[i] + 1))
        return {
            "target": terms.text(target),
            "o": terms.text(o),
            "ps": [terms.text(p) for p in ps],
            "qss": [[terms.text(q) for q in qs] for qs in qss],
            "ids": [terms.identity_text(s) for s in o_src],
            "target_id": terms.identity_text(target),
            "sigma": tuple(sigma),
            "bs": [i - 1 for i in inv],
            "rho": tuple(rho),
            "sources": [terms.text(s) for q in flat_q for s in terms.sources(q)],
        }

    def run(self, ctx, x):
        call = ctx.call

        def op(text):
            ctx.count("circled.parse_config.bytes", len(text))
            term = call("circled.parse_config", parse_config, text)
            return call("operad_h.HOperation", HOperation, term)

        def comp(outer, args):
            return call("operad_h.compose", compose, outer, tuple(args))

        def cx(o):
            return call("operad_h.complexity", complexity, o)

        o = op(x["o"])
        ps = [op(t) for t in x["ps"]]
        qss = [[op(t) for t in qs] for qs in x["qss"]]
        mid = comp(o, ps)
        lhs = comp(mid, [q for qs in qss for q in qs])
        rhs = comp(o, [comp(p, qs) for p, qs in zip(ps, qss)])
        ctx.check(lhs == rhs, "associativity")
        ctx.check(comp(o, [op(t) for t in x["ids"]]) == o, "right unit law")
        ctx.check(comp(op(x["target_id"]), [o]) == o, "left unit law")
        moved = call("operad_h.sigma_act", sigma_act, x["sigma"], o)
        ctx.check(comp(moved, [ps[i] for i in x["bs"]])
                  == call("operad_h.sigma_act", sigma_act, x["rho"], mid),
                  "equivariance")
        bound = call("kgraph.k_compose", k_compose, cx(o), tuple(cx(p) for p in ps))
        ctx.check(call("kgraph.k_leq", k_leq, cx(mid), bound), "complexity bound")
        out = call("circled.str", str, lhs.term)
        ctx.count("circled.parse_config.bytes", len(out))
        ctx.check(call("circled.parse_config", parse_config, out) == lhs.term,
                  "codec round trip")
        ref = terms.parse(out)
        ctx.check(terms.text(ref) == out and not terms.violations(ref)
                  and terms.text(terms.underlying(ref)) == x["target"]
                  and [terms.text(s) for s in terms.sources(ref)] == x["sources"],
                  "composite is a valid operation with the composite profile")
        ctx.digest(out)


class Categories:
    """The lemma and deletion-fiber sweeps on the acceptance trees.

    enumerate_configs at k=3 on the five trees, then comma_below for the four
    positive cells with acyclicity through degree 3, then the deletion-fiber
    reports on the three smallest trees.  The same unary operations are
    composed thousands of times and FinCategory construction and its axiom
    check dominate: the high-reuse use of compose.  Its nerves are small.
    """

    name = "categories"
    seeded = False
    enum_counts = {"|": 36, "(|)": 336, "(| |)": 624, "((|))": 1920, "((|) |)": 2904}
    # objects, arrows and table entries of comma_below for each of CELLS
    lemma_sizes = {
        "|": [(1, 1, 1), (1, 1, 1), (3, 5, 7), (3, 5, 7)],
        "(|)": [(5, 9, 13), (5, 9, 13), (17, 53, 109), (17, 53, 109)],
        "(| |)": [(10, 19, 28), (10, 19, 28), (28, 97, 208), (28, 97, 208)],
        "((|))": [(17, 53, 109), (17, 53, 109), (65, 359, 1063), (65, 359, 1063)],
        "((|) |)": [(28, 91, 190), (28, 91, 190), (88, 541, 1676), (88, 541, 1676)],
    }
    fiber_targets = {"|": 1, "(|)": 3, "(| |)": 4}

    def inputs(self, seed: int) -> list:
        items = [("enum", t, None) for t in FIVE_TREES]
        items += [("lemma", t, c) for t in FIVE_TREES for c in range(len(CELLS))]
        items += [("fiber", t, c) for t in self.fiber_targets for c in range(len(CELLS))]
        return [{"kind": kind, "tree": t, "cell": None if c is None else CELLS[c],
                 "index": c} for kind, t, c in items]

    def run(self, ctx, x):
        tree = parse_tree(x["tree"])
        if x["kind"] == "enum":
            configs = ctx.call("circled.enumerate_configs", enumerate_configs, tree, 3)
            ctx.count("circled.enumerate_configs.configs", len(configs))
            ctx.check(len(configs) == self.enum_counts[x["tree"]], "configuration count")
            return
        cell = parse_kelt(x["cell"])
        if x["kind"] == "lemma":
            C = ctx.call("cattop.comma_below", comma_below, tree, cell)
            sizes = (len(C.objects), len(C.arrows), len(C.table))
            ctx.count("cattop.comma_below.objects", sizes[0])
            ctx.count("cattop.comma_below.arrows", sizes[1])
            ctx.count("cattop.comma_below.table", sizes[2])
            ctx.check(sizes == self.lemma_sizes[x["tree"]][x["index"]], "comma size")
            betti, torsion = _homology_check(ctx, C, 3)
            ctx.check(betti == (1, 0, 0, 0) and not any(torsion),
                      "nonempty, connected and acyclic through degree 3")
            return
        F = ctx.call("cattop.deletion_functor", deletion_functor, tree, cell)
        targets = F.cod.objects
        ctx.check(len(targets) == self.fiber_targets[x["tree"]], "fiber target count")
        for target in targets:
            report = ctx.call("cattop.fiber_adjoint_report", fiber_adjoint_report,
                              F, target)
            ctx.check(report.ok, "fiber has a terminal object and a right adjoint")


class Homology:
    """Nerves of the complete-graph stage posets, checked against topology.

    k_enumerate(2, 3) is Conf_3(R^2) (Z, Z^3, Z^2); k_enumerate(3, 2) is S^2
    (Z, 0, Z); k_enumerate(3, 3) is connected; the down-set below a maximal
    element of k_enumerate(3, 3) is contractible (Z, 0), with a terminal
    object as a second witness.  A few large boundaries make Smith normal
    form dominate while the thin poset categories stay cheap to hash.
    """

    name = "homology"
    seeded = False
    # Labels at the top of stage 3 cannot grow and equal labels keep their
    # orientation, so this element is maximal; its down-set has 95 elements.
    top = "3; mu(1,2)=2 mu(1,3)=2 mu(2,3)=2; perm=[1 2 3]"
    down_set_size = 95

    def inputs(self, seed: int) -> list:
        return [
            {"name": "conf3", "m": 2, "k": 3, "dim": 2, "betti": (1, 3, 2)},
            {"name": "sphere", "m": 3, "k": 2, "dim": 2, "betti": (1, 0, 1)},
            {"name": "stage3", "m": 3, "k": 3, "dim": 0, "betti": (1,)},
            {"name": "down-set", "m": 3, "k": 3, "dim": 1, "betti": (1, 0),
             "below": self.top},
        ]

    def run(self, ctx, x):
        elements = ctx.call("kgraph.k_enumerate", k_enumerate, x["m"], x["k"])
        top = None
        if "below" in x:
            top = parse_kelt(x["below"])
            elements = [e for e in elements
                        if ctx.call("kgraph.k_leq", k_leq, e, top)]
            ctx.check(len(elements) == self.down_set_size, "down-set size")
        C = ctx.call("cattop.poset_category", poset_category, elements, k_leq)
        ctx.count("cattop.poset_category.arrows", len(C.arrows))
        betti, torsion = _homology_check(ctx, C, x["dim"])
        ctx.check(betti == x["betti"] and not any(torsion), f"homology of {x['name']}")
        if top is not None:
            ctx.check(ctx.call("cattop.find_terminal", find_terminal, C) == top,
                      "the top element is terminal")


class Render:
    """Drawings of random configurations with 1-6 white circles.

    Every pair of a tree from operad's pool and a white count comes once:
    822 drawings.  Each item parses, lays out, checks clearance and writes
    the SVG, as ``circleops render --check`` does; a drawing that fails its
    own clearance check is a failed item, as the command exits 1.  The
    4-6-white inputs, where the layout's known defect shows, are kept.
    """

    name = "render"
    seeded = True
    max_whites = 6

    def inputs(self, seed: int) -> list:
        rng = random.Random(f"render-{seed}")
        # Every (tree, white count) pair once, so the seed changes only the
        # configurations and their order; the mix of sizes, and with it the
        # work of a repetition, is the same for every seed.
        pairs = [(tree, k) for tree in TREE_POOL for k in range(1, self.max_whites + 1)]
        rng.shuffle(pairs)
        out = []
        for tree, k in pairs:
            t = terms.random_config(rng, tree, k)
            cs = terms.circles(t)
            out.append({"text": terms.text(t), "circles": len(cs),
                        "whites": sum(1 for c in cs if c[1])})
        return out

    def run(self, ctx, x):
        ctx.count("circled.parse_config.bytes", len(x["text"]))
        config = ctx.call("circled.parse_config", parse_config, x["text"])
        layout = ctx.call("render.layout_config", layout_config, config)
        ctx.count("render.curves", len(layout.curves))
        ctx.check(len(layout.curves) == x["circles"], "one curve per circle")
        violations = ctx.call("render.clearance_violations", clearance_violations, layout)
        if violations:
            ctx.count("render.clearance_fail", 1)
            ctx.refuse(x["text"], violations[0])
            ctx.digest("clearance failure " + x["text"])
            return
        svg = ctx.call("render.render_layout", render_layout, layout)
        ctx.count("render.svg_bytes", len(svg))
        ctx.check(svg.startswith("<?xml") and svg.endswith("</svg>\n")
                  and svg.count("<path ") == x["circles"]
                  and svg.count("<text ") == x["whites"],
                  "one path per circle and one label per white circle")
        ctx.digest(svg)


WORKLOADS = {w.name: w for w in (Operad(), Categories(), Homology(), Render())}
