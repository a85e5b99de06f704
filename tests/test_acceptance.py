"""Acceptance checklist: one test per numbered package guarantee.

Run with `pytest -v` to get a pass/fail line per guarantee.  Each test
asserts the mathematical statement exactly and, where a wall-clock budget
is part of the guarantee, asserts that budget too.
"""

import itertools
import random
import time

from circleops.cattop import (
    acyclicity_report,
    build_comma,
    build_hat_comma,
    comma_below,
    deletion_functor,
    fiber_adjoint_report,
    hat_comma_grothendieck,
    hat_comma_isomorphism,
    nerve,
    nerve_homology,
    poset_category,
)
from circleops.circled import (
    BLACK,
    Circ,
    enumerate_configs,
    open_leaves,
    parse_config,
    random_config,
    underlying,
)
from circleops.cli import run
from circleops.kgraph import (
    KElt,
    k_compose,
    k_enumerate,
    k_iota,
    k_leq,
    kelt_text,
    parse_kelt,
)
from circleops.operad_h import (
    HOperation,
    associativity_sides,
    complexity,
    compose,
    compose_terms,
    equivariance_sides,
    identity_op,
    operations,
    reduce_term,
    substitute_whites,
)
from circleops.trees import LEAF, Node, enumerate_trees, parse_tree, vertices

FIVE_TREES = ("|", "(|)", "(| |)", "((|))", "((|) |)")

_pool = {}


def ops_for(s):
    if s not in _pool:
        _pool[s] = operations(s, 1) + operations(s, 2)
    return _pool[s]


def two_vertex_ops():
    """Every operation with at most two whites on a tree with <= 2 vertices.

    The leaf count is capped at 2 to keep the family finite; wider trees
    are exercised by the randomized sweeps.
    """
    return [o for t in enumerate_trees(2, 2) for k in (1, 2)
            for o in operations(t, k)]


def three_vertex_trees():
    return list(enumerate_trees(3, 3))


class Rotation:
    """Deterministic cycling through argument pools.

    Guarantees each pool element is used once before any repeats, so a
    linear sweep still touches every argument shape.
    """

    def __init__(self):
        self.counter = 0

    def pick(self, s):
        options = ops_for(s)
        choice = options[self.counter % len(options)]
        self.counter += 1
        return choice

    def args(self, o):
        return tuple(self.pick(s) for s in o.sources)


def assert_associative(o, ps, qss):
    lhs, rhs = associativity_sides(o, ps, qss)
    assert lhs == rhs


def assert_equivariant(o, sigma, gathered):
    lhs, rhs = equivariance_sides(sigma, o, gathered)
    assert lhs == rhs


def test_01_complete_graph_composition_worked_example():
    start = time.perf_counter()
    outer = KElt(2, (1,), (1, 2))
    inner = (KElt(3, (0, 2, 2), (1, 2, 3)), KElt(2, (0,), (1, 2)))
    got = k_compose(outer, inner)
    # blocks keep their labels, the six cross pairs inherit the outer
    # label 1, and identity permutations compose to the identity
    assert got == KElt(5, (0, 2, 1, 1, 2, 1, 1, 1, 1, 0), (1, 2, 3, 4, 5))
    assert time.perf_counter() - start < 1.0


def test_02_operad_axioms_exhaustive_and_randomized():
    start = time.perf_counter()
    corpus = two_vertex_ops()
    assert len(corpus) == 1275

    for o in corpus:
        assert compose(o, tuple(identity_op(s) for s in o.sources)) == o
        assert compose(identity_op(o.target), (o,)) == o

    # associativity: every middle tuple on one-vertex trees, deterministic
    # rotation through the pools elsewhere and for the inner layer
    rot = Rotation()
    for o in corpus:
        if vertices(o.target) <= 1:
            middle_tuples = itertools.product(*[ops_for(s) for s in o.sources])
        else:
            middle_tuples = (rot.args(o),)
        for ps in middle_tuples:
            qss = tuple(rot.args(p) for p in ps)
            assert_associative(o, ps, qss)

    for o in corpus:
        if o.k == 2:
            assert_equivariant(o, (2, 1), rot.args(o))

    rng = random.Random(20260815)
    pool = three_vertex_trees()
    for i in range(200):
        o = HOperation(random_config(rng, pool[i % len(pool)], 1 + i % 3))
        ps = tuple(HOperation(random_config(rng, s, 1 + rng.randrange(3)))
                   for s in o.sources)
        qss = tuple(
            tuple(HOperation(random_config(rng, s, 1 + rng.randrange(2)))
                  for s in p.sources)
            for p in ps)
        assert_associative(o, ps, qss)
        assert compose(o, tuple(identity_op(s) for s in o.sources)) == o
        assert compose(identity_op(o.target), (o,)) == o
        sigma = list(range(1, o.k + 1))
        rng.shuffle(sigma)
        assert_equivariant(o, tuple(sigma), ps)
    assert time.perf_counter() - start < 300.0


def test_03_composite_complexity_bounded_by_graph_composition():
    start = time.perf_counter()
    cache = {}

    def cx(o):
        if o not in cache:
            cache[o] = complexity(o)
        return cache[o]

    def check(o, args):
        bound = k_compose(cx(o), tuple(cx(a) for a in args))
        assert k_leq(complexity(compose(o, args)), bound)

    rot = Rotation()
    for o in two_vertex_ops():
        if vertices(o.target) <= 1:
            for ps in itertools.product(*[ops_for(s) for s in o.sources]):
                check(o, ps)
        else:
            check(o, rot.args(o))

    rng = random.Random(30303)
    pool = three_vertex_trees()
    for i in range(200):
        o = HOperation(random_config(rng, pool[i % len(pool)], 1 + i % 3))
        args = tuple(HOperation(random_config(rng, s, 1 + rng.randrange(3)))
                     for s in o.sources)
        check(o, args)
    assert time.perf_counter() - start < 120.0


def test_04_comma_below_positive_cells_is_acyclic():
    start = time.perf_counter()
    cells = [c for c in k_enumerate(3, 2) if c.labels[0] >= 1]
    assert len(cells) == 4
    for text in FIVE_TREES:
        tree = parse_tree(text)
        for cell in cells:
            report = acyclicity_report(comma_below(tree, cell), 3)
            assert report.object_count > 0, (text, kelt_text(cell))
            assert report.component_count == 1, (text, kelt_text(cell))
            assert report.acyclic, (text, kelt_text(cell), report)
    assert time.perf_counter() - start < 600.0


def test_05_comma_below_flat_cells_on_linear_trees_is_empty():
    start = time.perf_counter()
    tree = LEAF
    for _ in range(4):
        for perm in ((1, 2), (2, 1)):
            assert not comma_below(tree, KElt(2, (0,), perm)).objects
        tree = Node((tree,))
    assert time.perf_counter() - start < 1.0


def test_06_stage_poset_nerves_are_spheres():
    start = time.perf_counter()
    for m, want in ((2, ("Z", "Z", "0", "0")), (3, ("Z", "0", "Z", "0"))):
        h = nerve_homology(poset_category(k_enumerate(m, 2), k_leq), 3)
        assert tuple(h.group(n) for n in range(4)) == want, (m, str(h))
    assert time.perf_counter() - start < 10.0


def test_07_tagged_comma_categories_are_circles():
    start = time.perf_counter()
    for text in ("|", "(|)", "(| |)"):
        h = nerve_homology(build_hat_comma(parse_tree(text), 2, 2), 3)
        assert tuple(h.group(n) for n in range(4)) == ("Z", "Z", "0", "0"), (
            text, str(h))
    assert time.perf_counter() - start < 600.0


def test_08_tagged_comma_is_isomorphic_to_grothendieck_total():
    start = time.perf_counter()
    for text in ("|", "(|)", "(| |)"):
        tree = parse_tree(text)
        iso = hat_comma_isomorphism(tree)
        model = hat_comma_grothendieck(tree)
        assert set(iso.cod.objects) == set(model.objects)
        assert set(iso.cod.arrows) == set(model.arrows)
        assert set(iso.object_map.values()) == set(model.objects)
        assert len(iso.object_map) == len(iso.dom.objects)
        assert set(iso.arrow_map.values()) == set(model.arrows)
        assert len(iso.arrow_map) == len(iso.dom.arrows)
    assert time.perf_counter() - start < 60.0


def test_09_deletion_fibers_have_terminal_objects_and_adjoints():
    start = time.perf_counter()
    targets = 0
    for text in FIVE_TREES:
        tree = parse_tree(text)
        for base in k_enumerate(2, 2):
            F = deletion_functor(tree, k_iota(base))
            for target in F.cod.objects:
                report = fiber_adjoint_report(F, target)
                assert report.ok, (text, kelt_text(k_iota(base)), str(target))
                targets += 1
    assert targets == 92
    assert time.perf_counter() - start < 300.0


def test_10_composition_squares_commute():
    start = time.perf_counter()
    rng = random.Random(41)
    pool = three_vertex_trees()
    for i in range(120):
        o = HOperation(random_config(rng, pool[i % len(pool)], 1 + i % 3))
        fs = tuple(HOperation(random_config(rng, s, 1)) for s in o.sources)
        xs = tuple(HOperation(random_config(rng, f.sources[0], 1)) for f in fs)
        both, other = associativity_sides(o, fs, tuple((x,) for x in xs))
        assert both == other
    assert time.perf_counter() - start < 60.0


def test_11_reduction_confluent_across_splice_orders(normal_forms):
    rot = Rotation()
    checked = 0
    for o in two_vertex_ops():
        if vertices(o.target) <= 1:
            middle_tuples = itertools.product(*[ops_for(s) for s in o.sources])
        else:
            middle_tuples = (rot.args(o),)
        for ps in middle_tuples:
            raw = substitute_whites(o, ps)
            forms = normal_forms(raw)
            assert forms == frozenset((reduce_term(raw),)), str(raw)
            checked += 1
    assert checked > 19000


def test_12_unit_law_fails_without_uncovered_black_rule():
    stacked = parse_config("{w1 | / {w2 | / |}}")
    ident = identity_op(underlying(stacked))
    assert compose_terms(ident, (HOperation(stacked),)) == stacked
    leftover = compose_terms(ident, (HOperation(stacked),), r3=False)
    assert leftover != stacked
    assert leftover == Circ(BLACK, stacked, (LEAF,) * open_leaves(stacked))


def test_13_codecs_round_trip_and_reruns_are_byte_identical(capsys):
    for t in enumerate_trees(3, 3):
        assert parse_tree(str(t)) == t
    count = 0
    for t in enumerate_trees(2, 2):
        for k in (1, 2):
            for c in enumerate_configs(t, k):
                assert parse_config(str(c)) == c
                count += 1
    assert count == 1275
    for x in k_enumerate(3, 3):
        assert parse_kelt(kelt_text(x)) == x

    args = ["--seed", "13", "--format", "records",
            "verify", "cowedge", "--samples", "40"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("{")


def test_14_stage_posets_have_the_homology_of_configuration_spaces():
    # The nerve of the stage-m poset of arity k is equivalent to Conf_k(R^m)
    # (Berger 1997), whose homology is free with Poincare polynomial
    # prod_{j=1}^{k-1} (1 + j t^(m-1)) (Arnold 1969, F. Cohen 1976).
    start = time.perf_counter()
    for m, k in ((2, 2), (3, 2), (4, 2), (2, 3)):
        poincare = [1]
        for j in range(1, k):
            step = [0] * (len(poincare) + m - 1)
            for n, c in enumerate(poincare):
                step[n] += c
                step[n + m - 1] += j * c
            poincare = step
        # a strict step raises at least one of the C(k, 2) labels, each by
        # at most m - 1, so no chain is longer than top
        top = (m - 1) * k * (k - 1) // 2
        P = poset_category(k_enumerate(m, k), k_leq)
        cx = nerve(P, top + 1)
        assert cx.dims[-1] == 0, (m, k)
        h = nerve_homology(P, max(k, top))
        expected = tuple(poincare) + (0,) * (max(k, top) + 1 - len(poincare))
        assert h.betti == expected, (m, k, h.betti)
        assert not any(h.torsion), (m, k)
        euler = sum((-1) ** n * d for n, d in enumerate(cx.dims))
        assert euler == sum((-1) ** n * c for n, c in enumerate(poincare)), (m, k)
    assert time.perf_counter() - start < 1.0


def test_15_comma_below_positive_cells_is_acyclic_at_k3():
    # the lemma at three white circles: every shifted stage-2 cell of arity 3
    start = time.perf_counter()
    tree = parse_tree("(| |)")
    cells = [k_iota(c) for c in k_enumerate(2, 3)]
    assert len(cells) == 48
    for cell in cells:
        report = acyclicity_report(comma_below(tree, cell), 3)
        assert report.object_count > 0, kelt_text(cell)
        assert report.component_count == 1, kelt_text(cell)
        assert report.acyclic, (kelt_text(cell), report)
    assert time.perf_counter() - start < 15.0


def test_16_build_comma_at_k3_on_the_frontier_tree():
    # the whole comma at three white circles on the largest corpus tree:
    # every arrow composed, identified among the objects and checked
    start = time.perf_counter()
    C = build_comma(parse_tree("((|) |)"), 3)
    assert (len(C.objects), len(C.arrows)) == (2904, 48702)
    assert time.perf_counter() - start < 25.0
