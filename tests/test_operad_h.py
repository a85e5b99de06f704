"""Tests for the circled-tree operad: composition, reduction, complexity."""

import gc
import random
import sys
from pathlib import Path

import pytest

from circleops.circled import (
    BLACK,
    Circ,
    White,
    circle_addresses,
    contracted,
    enumerate_configs,
    open_leaves,
    parse_config,
    random_config,
    relabel_whites,
    resolve,
    splice,
    underlying,
    validate_config,
    validated_profile,
    white_addresses,
    white_profile,
)
from circleops.kgraph import (
    KElt,
    k_compose,
    k_enumerate,
    k_iota,
    k_leq,
    kelt_relabel,
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
    sigma_act,
    substitute_whites,
    superimpose,
    unit_sides,
)
from circleops.trees import LEAF, Node, corolla, node, parse_tree

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digests  # noqa: E402

TREES = [
    LEAF,
    parse_tree("(|)"),
    parse_tree("(| |)"),
    parse_tree("((|))"),
    parse_tree("((|) |)"),
    parse_tree("((|) (|))"),
]


def random_op(rng, t, k):
    return HOperation(random_config(rng, t, k))


def random_args(rng, o, ks=(1, 1, 2, 2)):
    return tuple(
        random_op(rng, s, ks[rng.randrange(len(ks))]) for s in o.sources
    )


def tiny_ops():
    out = []
    for t, k in [(LEAF, 1), (LEAF, 2), (parse_tree("(|)"), 1), (parse_tree("(|)"), 2)]:
        out.extend(operations(t, k))
    return out


# --- operations and identities -----------------------------------------------------

def test_operation_profile():
    o = HOperation(parse_config("{w2 {w1 | / |} / |}"))
    assert o.k == 2
    assert o.sources == (LEAF, node(LEAF))
    assert o.target == LEAF
    with pytest.raises(ValueError):
        HOperation(parse_config("{w2 | / |}"))
    with pytest.raises(ValueError):
        HOperation(LEAF)  # no nullary operations


def test_operation_profile_and_reduction_on_the_complexity_corpus():
    # The profile comes from the walk that validates the operation, and a
    # valid term has nothing to splice, so reduction hands back its object.
    checked = 0
    for c in digests.complexity_configs():
        if validate_config(c).whites == 0:
            with pytest.raises(ValueError):
                HOperation(c)
            continue
        assert HOperation(c).profile == white_profile(c)
        assert reduce_term(c) is c
        assert reduce_term(c, r3=False) is c
        checked += 1
    assert checked > 300


def test_identity_op():
    t = parse_tree("((|) |)")
    e = identity_op(t)
    assert e.term == Circ(White(1), t, (LEAF, LEAF))
    assert e.sources == (t,) and e.target == t
    assert complexity(e) == KElt(1, (), (1,))


# --- superimpose -------------------------------------------------------------------

def test_superimpose_cuts_the_finer_term():
    # Every one-white shape on the contraction of c, drawn onto c: the white
    # circle's content and grafts are the cut of c into a bottom part and
    # the tops above it, so splicing the circle gives back c.
    for i in range(40):
        rng = random.Random(i)
        k = 1 + i % 3
        c = random_config(rng, TREES[i % len(TREES)], k)
        c = relabel_whites(c, {j: j + 1 for j in range(1, k + 1)})
        assert superimpose(contracted(c), c) == c
        for beta in enumerate_configs(contracted(c), 1):
            s = superimpose(beta, c)
            here, there = white_addresses(s)[1], white_addresses(beta)[1]
            inside = resolve(beta, there).content
            assert splice(s, here) == superimpose(splice(beta, there), c)
            assert contracted(resolve(s, here).content) == contracted(inside)
            if len(circle_addresses(beta)) == 1:
                assert splice(s, here) == c
                assert contracted(resolve(s, here).content) == underlying(inside)


def test_superimpose_rejects_a_shape_that_does_not_fit():
    t = Node((Circ(White(1), LEAF, (LEAF,)), LEAF))
    with pytest.raises(ValueError):
        superimpose(Circ(White(2), parse_tree("((|) (|))"), (LEAF, LEAF)), t)
    with pytest.raises(ValueError):
        superimpose(Circ(White(2), corolla(3), (LEAF,) * 3), t)
    with pytest.raises(ValueError):
        superimpose(LEAF, t)


def test_superimpose_examples():
    t = parse_config("{b ((|)) / |}")
    beta = parse_config("{w1 (|) / |}")
    assert superimpose(beta, t) == Circ(White(1), t, (LEAF,))
    # underlying shapes must agree
    with pytest.raises(ValueError):
        superimpose(parse_config("{w1 (| |) / | |}"), t)


def test_superimpose_on_own_tree_is_identity():
    for i in range(40):
        c = random_config(random.Random(i), TREES[i % len(TREES)], 1 + i % 3)
        assert superimpose(c, underlying(c)) == c


# --- composition ----------------------------------------------------------------

def test_compose_worked_example():
    o = HOperation(parse_config("{w2 {w1 | / |} / |}"))
    p = HOperation(parse_config("{w1 | / (|)}"))
    got = compose(o, (identity_op(LEAF), p))
    assert str(got.term) == "{w2 | / {w1 | / |}}"
    assert got.sources == (LEAF, LEAF) and got.target == LEAF


def test_compose_rejects_profile_mismatch():
    o = HOperation(parse_config("{w1 | / |}"))
    with pytest.raises(ValueError):
        compose(o, (identity_op(parse_tree("(|)")),))
    with pytest.raises(ValueError):
        compose(o, ())


def test_compose_names_a_wrong_argument_count_and_tree():
    o = HOperation(parse_config("({w2 | / |} {w1 (|) / |})"))
    one = identity_op(parse_tree("(|)"))
    with pytest.raises(ValueError) as err:
        compose(o, (one,))
    assert str(err.value) == "operation with 2 white circles composed with 1 arguments"
    with pytest.raises(ValueError) as err:
        compose(o, (one, one))
    assert str(err.value) == "argument 2 lives on (|), expected |"


def test_compose_reaches_the_parser_nesting_limit():
    # a chain as deep as parsed text may nest composes with itself
    chain = LEAF
    for _ in range(200):
        chain = Node((chain,))
    o = identity_op(chain)
    assert compose(o, (o,)) == o


def test_compose_concatenates_sources():
    rng = random.Random(5)
    for _ in range(30):
        t = TREES[rng.randrange(len(TREES))]
        o = random_op(rng, t, 1 + rng.randrange(3))
        args = random_args(rng, o)
        got = compose(o, args)
        assert got.sources == tuple(
            s for a in args for s in a.sources
        )
        assert got.target == o.target


def test_unit_laws_exhaustive():
    for o in tiny_ops():
        assert unit_sides(o) == (o.term, o.term)


def test_unit_laws_randomized():
    for i in range(200):
        rng = random.Random(1000 + i)
        o = random_op(rng, TREES[i % len(TREES)], 1 + i % 3)
        assert unit_sides(o) == (o.term, o.term)


def test_associativity_exhaustive_tiny():
    pool = {}

    def ops_for(s):
        if s not in pool:
            pool[s] = operations(s, 1) + operations(s, 2)
        return pool[s]

    counter = 0
    for o in operations(LEAF, 2):
        for p1 in ops_for(o.sources[0]):
            for p2 in ops_for(o.sources[1]):
                qs = []
                for p in (p1, p2):
                    chosen = []
                    for s in p.sources:
                        options = ops_for(s)
                        chosen.append(options[counter % len(options)])
                        counter += 1
                    qs.append(tuple(chosen))
                lhs, rhs = associativity_sides(o, (p1, p2), tuple(qs))
                assert lhs == rhs


def test_associativity_randomized():
    for i in range(200):
        rng = random.Random(2000 + i)
        o = random_op(rng, TREES[i % len(TREES)], 1 + i % 3)
        ps = random_args(rng, o, ks=(1, 1, 2, 2))
        qss = tuple(random_args(rng, p) for p in ps)
        lhs, rhs = associativity_sides(o, ps, qss)
        assert lhs == rhs


def test_equivariance_randomized():
    for i in range(200):
        rng = random.Random(3000 + i)
        o = random_op(rng, TREES[i % len(TREES)], 1 + i % 3)
        sigma = list(range(1, o.k + 1))
        rng.shuffle(sigma)
        gathered = tuple(random_op(rng, s, 1 + rng.randrange(2))
                         for s in o.sources)
        lhs, rhs = equivariance_sides(tuple(sigma), o, gathered)
        assert lhs == rhs


def ops(*texts):
    return tuple(HOperation(parse_config(t)) for t in texts)


def test_associativity_sides_worked_examples():
    # one white: every circle sits on an edge, so each substituted circle
    # blackens around a single circle and is spliced away
    (o,) = ops("({w1 | / |})")
    sides = associativity_sides(
        o, ops("{w1 | / {w2 | / |}}"),
        (ops("{w1 | / |}", "{w1 {w2 | / |} / |}"),))
    assert [str(x) for x in sides] == ["({w1 | / {w2 {w3 | / |} / |}})"] * 2
    # two nested whites: the blackened outer circle survives until the
    # black-outside-white rule splices it
    (o,) = ops("{w2 {w1 | / |} / |}")
    sides = associativity_sides(
        o, ops("{w1 | / |}", "{w1 | / (|)}"),
        (ops("{w1 | / {w2 | / |}}"), ops("{w1 | / |}")))
    assert [str(x) for x in sides] == ["{w3 | / {w1 | / {w2 | / |}}}"] * 2


def test_equivariance_sides_worked_examples():
    (o,) = ops("{w1 | / |}")
    sides = equivariance_sides((1,), o, ops("{w1 | / {w2 | / |}}"))
    assert [str(x) for x in sides] == ["{w1 | / {w2 | / |}}"] * 2
    # sigma = (2 1) on two side-by-side whites, arguments of arities 2 and 1:
    # the block permutation sends 1, 2, 3 to 2, 3, 1
    (o,) = ops("({w1 | / |} {w2 | / |})")
    sides = equivariance_sides(
        (2, 1), o, ops("{w1 | / {w2 | / |}}", "{w1 | / |}"))
    assert [str(x) for x in sides] == ["({w2 | / {w3 | / |}} {w1 | / |})"] * 2


def test_unit_sides_without_uncovered_black_rule():
    (o,) = ops("{w1 | / {w2 | / |}}")
    assert unit_sides(o) == (o.term, o.term)
    right, left = unit_sides(o, r3=False)
    assert str(right) == "{w1 | / {w2 | / |}}"
    assert str(left) == "{b {w1 | / {w2 | / |}} / |}"


def test_sigma_act_is_an_action():
    for i in range(50):
        rng = random.Random(4000 + i)
        o = random_op(rng, TREES[i % len(TREES)], 2 + i % 2)
        sigma = list(range(1, o.k + 1))
        tau = list(range(1, o.k + 1))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        combined = tuple(tau[sigma[i0] - 1] for i0 in range(o.k))
        assert sigma_act(tau, sigma_act(sigma, o)) == sigma_act(combined, o)


def test_sigma_act_needs_a_permutation_of_the_whites():
    o = HOperation(parse_config("({w1 | / |} {w2 | / |} {w3 | / |})"))
    for sigma in ((1, 2), (3, 1, 2, 4), (1, 1, 2), (0, 1, 2), (1, 2, 4)):
        with pytest.raises(ValueError) as err:
            sigma_act(sigma, o)
        assert str(err.value) == f"{sigma} is not a permutation of 1..3"
    assert str(sigma_act((3, 1, 2), o)) == "({w3 | / |} {w1 | / |} {w2 | / |})"


# --- reduction --------------------------------------------------------------------

def test_reduction_is_confluent(normal_forms):
    checked = 0
    for i in range(120):
        rng = random.Random(5000 + i)
        o = random_op(rng, TREES[i % len(TREES)], 1 + i % 2)
        args = random_args(rng, o)
        raw = substitute_whites(o, args)
        if len(circle_addresses(raw)) > 7:
            continue
        for r3 in (True, False):
            forms = normal_forms(raw, r3=r3)
            assert forms == {reduce_term(raw, r3=r3)}
        checked += 1
    assert checked > 60


def test_left_unit_needs_uncovered_black_rule():
    stacked = parse_config("{w1 | / {w2 | / |}}")
    wide = parse_config("({w1 | / |} {w2 | / |})")
    for term in (stacked, wide):
        t = underlying(term)
        ident = identity_op(t)
        assert compose_terms(ident, (HOperation(term),), r3=True) == term
        leftover = compose_terms(ident, (HOperation(term),), r3=False)
        assert leftover != term
        assert leftover == Circ(BLACK, term, (LEAF,) * open_leaves(term))
    # a single enclosing circle reduces already by the small-content rule
    conc = parse_config("{w2 {w1 | / |} / |}")
    assert compose_terms(identity_op(LEAF), (HOperation(conc),), r3=False) == conc


# --- complexity --------------------------------------------------------------------

def test_complexity_of_basic_pairs():
    cases = {
        "({w1 | / |} {w2 | / |})": KElt(2, (0,), (1, 2)),
        "({w2 | / |} {w1 | / |})": KElt(2, (0,), (2, 1)),
        "{w1 | / {w2 | / |}}": KElt(2, (1,), (1, 2)),
        "{w2 | / {w1 | / |}}": KElt(2, (1,), (2, 1)),
        "{w1 {w2 | / |} / |}": KElt(2, (2,), (1, 2)),
        "{w2 {w1 | / |} / |}": KElt(2, (2,), (2, 1)),
    }
    for text, want in cases.items():
        assert complexity(HOperation(parse_config(text))) == want
    # (pair, label, dominant circle) where a circle nested in one white
    # circle meets one stacked above it, directly or through a third
    pairs = {
        "{w1 {w2 | / |} / {w3 | / |}}": ((2, 3), 1, 2),
        "{w1 ({w2 | / |} |) / | {w3 | / |}}": ((2, 3), 0, 2),
        "{w1 (| {w2 | / |}) / {w3 | / |} |}": ((2, 3), 0, 3),
        "{w1 {w2 | / {w3 | / |}} / {w4 | / |}}": ((3, 4), 1, 3),
        "{w1 {w2 {w3 | / |} / |} / {w4 | / |}}": ((3, 4), 1, 3),
        "{w1 {w2 (| |) / {w3 | / |} |} / | {w4 | / |}}": ((3, 4), 0, 3),
    }
    for text, ((i, j), label, dominant) in pairs.items():
        got = complexity(HOperation(parse_config(text)))
        assert got.mu(i, j) == label
        assert got.before(i, j) == (dominant == i)


def test_complexity_at_the_parsers_nesting_limit():
    n = 199
    stacked = nested = "|"
    for label in range(n, 0, -1):
        stacked = f"{{w{label} | / {stacked}}}"
        nested = f"{{w{label} {nested} / |}}"
    for text, label in ((stacked, 1), (nested, 2)):
        got = complexity(HOperation(parse_config(text)))
        assert got == KElt(n, (label,) * (n * (n - 1) // 2),
                           tuple(range(1, n + 1)))


def test_complexity_of_five_circle_demo():
    small = Circ(White(3), corolla(3), (node(LEAF, LEAF), LEAF, LEAF))
    mid = Circ(White(2), small, (LEAF, LEAF, LEAF, LEAF))
    inner_left = Circ(White(5), node(LEAF, node(LEAF, LEAF)),
                      (node(LEAF), LEAF, LEAF))
    big_left = Circ(White(4), inner_left, (LEAF, LEAF, LEAF))
    demo = Circ(White(1), Node((LEAF, mid)),
                (big_left, LEAF, LEAF, LEAF, LEAF))
    got = complexity(HOperation(demo))
    assert got == KElt(5, (2, 2, 1, 1, 2, 0, 0, 0, 0, 2), (1, 4, 5, 2, 3))


def test_complexity_lands_in_stage_three():
    for o in tiny_ops():
        c = complexity(o)
        assert all(l <= 2 for l in c.labels)


def test_complexity_is_equivariant():
    for i in range(100):
        rng = random.Random(6000 + i)
        o = random_op(rng, TREES[i % len(TREES)], 1 + i % 3)
        sigma = list(range(1, o.k + 1))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        assert complexity(sigma_act(sigma, o)) == kelt_relabel(
            complexity(o), sigma)


def test_composition_never_exceeds_composite_complexity():
    for i in range(100):
        rng = random.Random(7000 + i)
        o = random_op(rng, TREES[i % len(TREES)], 1 + i % 3)
        args = random_args(rng, o)
        bound = k_compose(complexity(o), tuple(complexity(a) for a in args))
        assert k_leq(complexity(compose(o, args)), bound)


# --- stage-two tags bounding complexity, as build_hat_comma pairs them ------------

UNIT_TAG = KElt(1, (), (1,))


def tags(o):
    """The stage-two tags of o: those of its arity whose shift bounds its
    complexity."""
    return [kappa for kappa in k_enumerate(2, o.k)
            if k_leq(complexity(o), k_iota(kappa))]


def assert_tag(o, kappa):
    assert kappa.k == o.k
    assert all(label <= 1 for label in kappa.labels)
    assert k_leq(complexity(o), k_iota(kappa))


def tagged_composite(o, kappa, inners):
    """compose of o with the operations of the (operation, tag) pairs
    inners, and k_compose of kappa with their tags; every tag is checked
    to tag its operation, the composite's too."""
    for p, tag in ((o, kappa), *inners):
        assert_tag(p, tag)
    got = compose(o, tuple(p for p, _ in inners))
    tag = k_compose(kappa, tuple(tag for _, tag in inners))
    assert_tag(got, tag)
    return got, tag


STACKED = "{w1 | / {w2 | / |}}"
CONCENTRIC = "{w2 {w1 | / |} / |}"


def test_hat_operation_checks_the_bound():
    # a stacked and a nested pair, each against tags that do and do not bound
    # it; a tag of another arity or stage is never one of them
    stacked = HOperation(parse_config(STACKED))
    assert KElt(2, (0,), (1, 2)) in tags(stacked)
    assert KElt(2, (0,), (2, 1)) not in tags(stacked)
    conc = HOperation(parse_config(CONCENTRIC))
    assert KElt(2, (1,), (2, 1)) in tags(conc)
    for kappa in (KElt(2, (1,), (1, 2)), KElt(2, (2,), (2, 1)), UNIT_TAG):
        assert kappa not in tags(conc)


def test_hat_tags_per_operation():
    for o in tiny_ops():
        assert tags(o), str(o)
        for kappa in tags(o):
            assert_tag(o, kappa)


def test_hat_compose():
    def unit(t):
        return identity_op(t), UNIT_TAG

    for text, kappa in ((STACKED, KElt(2, (0,), (1, 2))),
                        (CONCENTRIC, KElt(2, (1,), (2, 1)))):
        o = HOperation(parse_config(text))
        assert tagged_composite(o, kappa, [unit(s) for s in o.sources]) == (o, kappa)
    conc = HOperation(parse_config(CONCENTRIC))
    inner = HOperation(parse_config("{w1 | / (|)}"))
    got, tag = tagged_composite(
        conc, KElt(2, (1,), (2, 1)), [unit(LEAF), (inner, UNIT_TAG)])
    assert str(got.term) == "{w2 | / {w1 | / |}}"
    assert tag == KElt(2, (1,), (2, 1))


def test_hat_compose_randomized_keeps_invariant():
    for i in range(150):
        rng = random.Random(8000 + i)
        o = random_op(rng, TREES[i % len(TREES)], 1 + i % 2)
        ts = tags(o)
        kappa = ts[rng.randrange(len(ts))]
        inners = []
        for s in o.sources:
            p = random_op(rng, s, 1 + rng.randrange(2))
            ps = tags(p)
            inners.append((p, ps[rng.randrange(len(ps))]))
        tagged_composite(o, kappa, inners)


def test_profile_and_complexity_leave_no_cyclic_garbage():
    # The recursive walks behind both refer to themselves; unless each call
    # breaks that cycle, every call leaves garbage for the cyclic collector.
    ops = [HOperation(c) for c in enumerate_configs(parse_tree("((|) |)"), 3)]
    gc.collect()
    gc.disable()
    try:
        for o in ops:
            validated_profile(o.term)
            complexity(o)
        assert gc.collect() == 0
    finally:
        gc.enable()
