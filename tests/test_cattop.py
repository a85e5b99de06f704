"""Tests for finite categories, comma constructions, and their homology."""

import re

import pytest

from circleops.trees import LEAF, parse_tree
from circleops.kgraph import KElt, k_enumerate, k_iota, k_leq, parse_kelt
from circleops import cattop
from circleops.circled import parse_config
from circleops.homology import matrix_from_dict
from circleops.operad_h import HOperation, complexity, identity_op
from circleops.cattop import (
    Arrow,
    CategoryError,
    FinCategory,
    FinFunctor,
    acyclicity_report,
    build_comma,
    build_hat_comma,
    comma,
    comma_below,
    deletion_functor,
    fiber,
    fiber_adjoint_report,
    fiber_inclusion,
    find_initial,
    find_terminal,
    full_subcategory,
    grothendieck,
    grothendieck_projection,
    hat_comma_grothendieck,
    hat_comma_isomorphism,
    identity_functor,
    nerve,
    nerve_homology,
    poset_category,
)


def chain(n):
    return poset_category(tuple(range(n)), lambda a, b: a <= b)


def cells22():
    return [k_iota(k) for k in k_enumerate(2, 2)]


# --- FinCategory and FinFunctor axioms ---------------------------------------------


def test_poset_category_axioms_and_homs():
    C = chain(3)
    assert len(C.objects) == 3
    assert len(C.arrows) == 6
    assert len(C.hom(0, 2)) == 1
    assert C.hom(2, 0) == ()
    f = C.hom(0, 1)[0]
    g = C.hom(1, 2)[0]
    assert C.compose(g, f) == C.hom(0, 2)[0]


def test_labelled_rejects_parallel_arrows_with_one_label():
    with pytest.raises(CategoryError) as err:
        cattop._labelled(
            ("x",), [0, 0], [0, 0], ["i", "i"],
            lambda label: label, lambda g, f: "i", lambda x: "i",
        )
    assert str(err.value) == (
        "two arrows share source, target and label: ('x', 'x', 'i')"
    )


def test_poset_category_needs_transitivity():
    steps = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}  # no 0 <= 2
    with pytest.raises(CategoryError) as err:
        poset_category((0, 1, 2), lambda a, b: (a, b) in steps)
    assert str(err.value) == (
        "composite of Arrow(src=0, dst=1, label=None) then"
        " Arrow(src=1, dst=2, label=None) is not an arrow"
    )


def test_poset_category_checks_reflexivity_before_duplicates():
    with pytest.raises(CategoryError, match="^order is not reflexive at y$"):
        poset_category(("x", "x", "y"), lambda a, b: a == b == "x")
    with pytest.raises(CategoryError, match="^duplicate objects$"):
        poset_category(("x", "x"), lambda a, b: a == b)


def test_category_rejects_missing_identity():
    a = Arrow("x", "x", "id")
    with pytest.raises(CategoryError):
        FinCategory(("x", "y"), (a,), {"x": a}, {})


def test_category_rejects_bad_composite_endpoints():
    ix = Arrow("x", "x", "ix")
    iy = Arrow("y", "y", "iy")
    f = Arrow("x", "y", "f")
    # table claims f o f composes, but endpoints do not match
    with pytest.raises(CategoryError):
        FinCategory(
            ("x", "y"),
            (ix, iy, f),
            {"x": ix, "y": iy},
            {(f, f): f, (f, ix): f, (iy, f): f},
        )


def test_category_rejects_nonassociative_table():
    # three endomorphisms with a deliberately twisted table
    i = Arrow("x", "x", "i")
    a = Arrow("x", "x", "a")
    b = Arrow("x", "x", "b")
    table = {}
    for g in (i, a, b):
        for f in (i, a, b):
            if g == i:
                table[(g, f)] = f
            elif f == i:
                table[(g, f)] = g
            else:
                table[(g, f)] = a if (g, f) == (a, a) else i
    with pytest.raises(CategoryError):
        FinCategory(("x",), (i, a, b), {"x": i}, table)


def walking_arrow_table(ix, iy, f):
    return {(ix, ix): ix, (f, ix): f, (iy, f): f, (iy, iy): iy}


def idempotent(a_after_a="a"):
    """One object x, its identity i and an endomorphism a; a.a is a_after_a."""
    i, a = Arrow("x", "x", "i"), Arrow("x", "x", "a")
    by_name = {"i": i, "a": a}
    table = {(i, i): i, (a, i): a, (i, a): a, (a, a): by_name[a_after_a]}
    return i, a, table


def test_every_category_check_names_its_failure():
    ix, iy = Arrow("x", "x", "ix"), Arrow("y", "y", "iy")
    f, g = Arrow("x", "y", "f"), Arrow("y", "x", "g")
    stray = Arrow("x", "x", "stray")
    ok = walking_arrow_table(ix, iy, f)
    cases = [
        ((("x", "x"), (), {}, {}), "duplicate objects"),
        ((("x",), (ix, ix), {"x": ix}, {}), "duplicate arrows"),
        ((("x",), (ix, g), {"x": ix}, {}),
         f"arrow endpoints outside the category: {g}"),
        ((("x", "y"), (ix, iy, f), {"x": ix}, ok),
         "identities must cover exactly the objects"),
        ((("x", "y"), (ix, iy, f), {"x": ix, "y": iy, "z": iy}, ok),
         "identities must cover exactly the objects"),
        ((("x", "y"), (ix, iy, f), {"x": f, "y": iy}, ok), "bad identity arrow at x"),
        ((("x", "y"), (ix, iy, f), {"x": stray, "y": iy}, ok),
         "bad identity arrow at x"),
        ((("x", "y"), (ix, iy, f), {"x": ix, "y": iy}, {(ix, ix): ix}),
         "composition table has 1 entries, expected 4"),
        ((("x", "y"), (ix, iy, f), {"x": ix, "y": iy}, {**ok, (iy, f): stray}),
         "composition table mentions unknown arrows"),
        ((("x", "y"), (ix, iy, f), {"x": ix, "y": iy},
          {(ix, ix): ix, (f, ix): f, (iy, f): f, (f, f): f}),
         f"table entry for non-composable pair ({f}, {f})"),
        ((("x", "y"), (ix, iy, f), {"x": ix, "y": iy}, {**ok, (f, ix): ix}),
         f"composite of ({ix}, {f}) has wrong endpoints"),
    ]
    i, a, table = idempotent()
    cases.append(((("x",), (i, a), {"x": i}, {**table, (a, i): i}),
                  f"unit law fails at {a}"))
    b = Arrow("x", "x", "b")
    twisted = {}
    for h in (i, a, b):
        for k in (i, a, b):
            twisted[(h, k)] = k if h == i else h if k == i else (
                a if (h, k) == (a, a) else i)
    cases.append(((("x",), (i, a, b), {"x": i}, twisted),
                  f"associativity fails on {a} then {a} then {b}"))
    for args, message in cases:
        with pytest.raises(CategoryError, match=f"^{re.escape(message)}$"):
            FinCategory(*args)


def test_every_functor_check_names_its_failure():
    C, D = chain(3), chain(2)
    omap = {0: 0, 1: 1, 2: 1}
    amap = {a: D.hom(omap[a.src], omap[a.dst])[0] for a in C.arrows}
    f02 = C.hom(0, 2)[0]
    i, a, table = idempotent()
    E = FinCategory(("x",), (i, a), {"x": i}, table)
    cases = [
        ((C, D, {0: 0, 1: 1}, amap), "object map must cover exactly the domain objects"),
        ((C, D, {**omap, 3: 1}, amap), "object map must cover exactly the domain objects"),
        ((C, D, omap, {f02: amap[f02]}), "arrow map must cover exactly the domain arrows"),
        ((C, D, {**omap, 2: 5}, amap), "image of 2 is not a codomain object"),
        ((C, D, omap, {**amap, f02: Arrow(0, 1, "f")}),
         f"image of {f02} is not a codomain arrow"),
        ((C, D, omap, {**amap, f02: D.identity(1)}), f"functor breaks endpoints on {f02}"),
        ((E, E, {"x": "x"}, {i: a, a: a}), "functor breaks the identity at x"),
    ]
    # a functor that is right on identities and endpoints but not on a.a
    E2 = FinCategory(("x",), (i, a), {"x": i}, idempotent("i")[2])
    cases.append(((E2, E, {"x": "x"}, {i: i, a: a}),
                  f"functor breaks composition on ({a}, {a})"))
    for args, message in cases:
        with pytest.raises(CategoryError, match=f"^{re.escape(message)}$"):
            FinFunctor(*args)


def test_functor_must_preserve_composition():
    C = chain(3)
    D = chain(2)
    omap = {0: 0, 1: 1, 2: 1}
    amap = {}
    for a in C.arrows:
        amap[a] = D.hom(omap[a.src], omap[a.dst])[0]
    F = FinFunctor(C, D, omap, amap)
    assert F.obj(2) == 1
    # now break one arrow image
    bad = dict(amap)
    bad[C.hom(0, 2)[0]] = D.identity(0)
    with pytest.raises(CategoryError):
        FinFunctor(C, D, omap, bad)


def test_full_subcategory_of_chain():
    C = chain(4)
    S = full_subcategory(C, lambda x: x != 1)
    assert S.objects == (0, 2, 3)
    assert len(S.hom(0, 3)) == 1


def test_find_terminal_and_initial_on_chain():
    C = chain(4)
    assert find_terminal(C) == 3
    assert find_initial(C) == 0
    disc = poset_category((0, 1), lambda a, b: a == b)
    assert find_terminal(disc) is None
    assert find_initial(disc) is None


def test_down_set_below_a_maximal_stage_3_element_is_contractible():
    # labels at the top of stage 3 cannot grow and equal labels keep their
    # orientation, so this element is maximal in k_enumerate(3, 3)
    top = parse_kelt("3; mu(1,2)=2 mu(1,3)=2 mu(2,3)=2; perm=[1 2 3]")
    below = [e for e in k_enumerate(3, 3) if k_leq(e, top)]
    assert len(below) == 95
    C = poset_category(below, k_leq)
    h = nerve_homology(C, 1)
    assert h.betti == (1, 0) and h.torsion == ((), ())
    assert find_terminal(C) == top


# --- slice, coslice, comma ---------------------------------------------------------


def test_identity_functor_slice_is_over_category():
    C = chain(3)
    inc = fiber_inclusion(identity_functor(C), 1, "over")
    sl, fib = inc.cod, inc.dom
    assert sorted(x for x, _ in sl.objects) == [0, 1]
    assert [x for x in fib.objects] == [1]
    assert inc.obj(1) == (1, C.identity(1))


def test_identity_functor_coslice_is_under_category():
    C = chain(3)
    inc = fiber_inclusion(identity_functor(C), 1, "under")
    cos, fib = inc.cod, inc.dom
    assert sorted(x for x, _ in cos.objects) == [1, 2]
    assert [x for x in fib.objects] == [1]
    assert inc.obj(1) == (1, C.identity(1))


def test_comma_both_sides_for_identity():
    C = chain(3)
    under = comma(identity_functor(C), 1, "under")
    over = comma(identity_functor(C), 1, "over")
    assert len(under.objects) == 2  # (1,id), (2, 1<=2)
    assert len(over.objects) == 2  # (0, 0<=1), (1,id)
    assert find_initial(under) == (1, C.identity(1))
    assert find_terminal(over) == (1, C.identity(1))


def test_comma_rejects_bad_side_and_foreign_object():
    F = identity_functor(chain(3))
    with pytest.raises(ValueError, match="side"):
        comma(F, 1, "sideways")
    for build in (lambda: comma(F, 7, "under"), lambda: fiber(F, 7)):
        with pytest.raises(CategoryError, match="not an object"):
            build()


@pytest.mark.parametrize("side", ["under", "over"])
def test_comma_laws_on_deletion_functor(side):
    # unlike the identity on a chain, this functor sends 17 objects onto 3
    F = deletion_functor(parse_tree("(|)"), k_iota(KElt(2, (1,), (1, 2))))
    A, B = F.dom, F.cod
    for z in B.objects:
        K = comma(F, z, side)
        assert K.objects
        for w, g in K.objects:
            legs = B.hom(z, F.obj(w)) if side == "under" else B.hom(F.obj(w), z)
            assert g in legs
        for a in K.arrows:
            (w, g), (w2, g2), m = a.src, a.dst, a.label
            assert (m.src, m.dst) == (w, w2)
            if side == "under":
                assert B.compose(F.arr(m), g) == g2
            else:
                assert B.compose(g2, F.arr(m)) == g
        fib = fiber(F, z)
        assert set(fib.objects) == {x for x in A.objects if F.obj(x) == z}
        assert all(F.arr(u) == B.identity(z) for u in fib.arrows)
        inc = fiber_inclusion(F, z, side)
        assert inc.cod.objects == K.objects and inc.dom.objects == fib.objects
        assert all(inc.obj(x) == (x, B.identity(z)) for x in fib.objects)


# --- Grothendieck construction -----------------------------------------------------


def test_grothendieck_chain_of_terminal_fibers_is_chain():
    base = chain(2)
    pt0 = poset_category(("p",), lambda a, b: True)
    pt1 = poset_category(("q",), lambda a, b: True)
    fibers = {0: pt0, 1: pt1}
    transitions = {}
    for a in base.arrows:
        if a.src == a.dst:
            transitions[a] = identity_functor(fibers[a.src])
        else:
            transitions[a] = FinFunctor(
                pt0, pt1, {"p": "q"}, {pt0.identity("p"): pt1.identity("q")}
            )
    G = grothendieck(base, fibers, transitions)
    assert len(G.objects) == 2
    assert len(G.arrows) == 3
    P = grothendieck_projection(G, base)
    assert P.obj((0, "p")) == 0
    assert all(P.arr(a) == a.label[0] for a in G.arrows)


def test_grothendieck_rejects_wrong_fiber_coverage():
    base = chain(2)
    pt = poset_category(("p",), lambda a, b: True)
    with pytest.raises(CategoryError):
        grothendieck(base, {0: pt}, {})


# --- comma categories of circled configurations ------------------------------------


def test_comma_k0_is_terminal_category():
    t = parse_tree("(| |)")
    C = build_comma(t, 0)
    assert C.objects == (t,)
    assert len(C.arrows) == 1


def test_comma_on_edge_is_a_four_cycle():
    C = build_comma(LEAF, 2)
    assert len(C.objects) == 4
    assert len(C.arrows) == 8
    stacked_12 = parse_config("{w1 | / {w2 | / |}}")
    stacked_21 = parse_config("{w2 | / {w1 | / |}}")
    conc_1out = parse_config("{w1 {w2 | / |} / |}")
    conc_2out = parse_config("{w2 {w1 | / |} / |}")
    assert set(C.objects) == {stacked_12, stacked_21, conc_1out, conc_2out}
    nonid = [(a.src, a.dst) for a in C.arrows if not C.is_identity(a)]
    assert sorted(map(str, nonid)) == sorted(
        map(
            str,
            [
                (stacked_21, conc_1out),
                (stacked_12, conc_1out),
                (stacked_12, conc_2out),
                (stacked_21, conc_2out),
            ],
        )
    )


def test_comma_object_and_arrow_counts():
    # whole k=2 comma categories over the small tree corpus
    expected = {
        "|": (4, 8),
        "(|)": (24, 88),
        "(| |)": (38, 158),
        "((|))": (96, 612),
        "((|) |)": (126, 910),
    }
    for txt, (nobj, narr) in expected.items():
        C = build_comma(parse_tree(txt), 2)
        assert (len(C.objects), len(C.arrows)) == (nobj, narr)


def test_comma_below_sizes_on_corpus():
    # object/arrow counts of the bounded subcategories, by edge label
    expected = {
        "|": {1: (1, 1), 2: (3, 5)},
        "(|)": {1: (5, 9), 2: (17, 53)},
        "(| |)": {1: (10, 19), 2: (28, 97)},
        "((|))": {1: (17, 53), 2: (65, 359)},
        "((|) |)": {1: (28, 91), 2: (88, 541)},
    }
    for txt, by_mu in expected.items():
        t = parse_tree(txt)
        for cell in cells22():
            C = comma_below(t, cell)
            assert (len(C.objects), len(C.arrows)) == by_mu[cell.mu(1, 2)]


def test_comma_below_acyclic_on_corpus():
    for txt in ["|", "(|)", "(| |)", "((|))", "((|) |)"]:
        t = parse_tree(txt)
        for cell in cells22():
            rep = acyclicity_report(comma_below(t, cell), max_dim=2)
            assert rep.acyclic, f"{txt} {cell}"


def test_arity_zero_cell_gives_the_bare_tree():
    # the only arity-0 cell is below itself, so it keeps the bare tree
    for txt in ["|", "(|)", "(| |)"]:
        t = parse_tree(txt)
        C = comma_below(t, KElt(0, (), ()))
        assert C.objects == build_comma(t, 0).objects == (t,)
        assert len(C.arrows) == 1


def test_left_of_cells_empty_on_linear_trees():
    for txt in ["|", "(|)", "((|))", "(((|)))"]:
        t = parse_tree(txt)
        for perm in [(1, 2), (2, 1)]:
            C = comma_below(t, KElt(2, (0,), perm))
            assert C.objects == ()
            rep = acyclicity_report(C, max_dim=1)
            assert not rep.acyclic and rep.object_count == 0


def test_commas_are_read_off_build_comma(monkeypatch):
    # once build_comma(t, 2) is built, the filtered and tagged commas compose
    # nothing; a cell with no configuration below it does not build it at all
    t = parse_tree("(| |)")
    build_comma(t, 2)
    comma_below.cache_clear()
    build_hat_comma.cache_clear()
    calls = []
    real = cattop.compose

    def counting(outer, inner):
        calls.append((outer, inner))
        return real(outer, inner)

    monkeypatch.setattr(cattop, "compose", counting)
    for cell in cells22():
        assert comma_below(t, cell).objects
    assert build_hat_comma(t).objects
    assert calls == []
    chain3 = parse_tree("(((|)))")
    before = build_comma.cache_info()
    for perm in [(1, 2), (2, 1)]:
        assert comma_below(chain3, KElt(2, (0,), perm)).objects == ()
    assert build_comma.cache_info() == before
    assert calls == []


def test_comma_below_is_the_full_subcategory_below_each_cell():
    # the restriction by complexity classes, against the plain predicate on
    # every object of build_comma and the arrows between the kept ones
    t = parse_tree("(|)")
    C = build_comma(t, 3)
    cells = [k_iota(c) for c in k_enumerate(2, 3)]
    assert len(cells) == 48
    cx = {o: complexity(HOperation(o)) for o in C.objects}
    for cell in cells:
        below = {o: k_leq(x, cell) for o, x in cx.items()}
        got = comma_below(t, cell)
        want = full_subcategory(C, below.__getitem__)
        assert got.objects == want.objects
        assert got.arrows == want.arrows == tuple(
            a for a in C.arrows if below[a.src] and below[a.dst])
        assert (got._src, got._dst) == (want._src, want._dst)
        assert got.identities == want.identities
        assert list(got.table.items()) == list(want.table.items())


def test_composite_off_the_objects_is_a_category_error(monkeypatch):
    # a composite that is no configuration on the tree names the failure
    stray = identity_op(parse_tree("((|) |)"))
    monkeypatch.setattr(cattop, "compose", lambda outer, inner: stray)
    with pytest.raises(CategoryError, match="is not an object"):
        build_comma.__wrapped__(parse_tree("(|)"), 1)


# --- nerve and homology of the complete-graph posets -------------------------------


def test_k2_poset_nerve_is_a_four_cycle():
    P = poset_category(tuple(k_enumerate(2, 2)), k_leq)
    cx = nerve(P, 3)
    assert cx.dims == (4, 4, 0, 0)
    hom = nerve_homology(P, 2)
    assert hom.betti == (1, 1, 0) and not any(hom.torsion)


def test_k3_poset_nerve_is_a_two_sphere():
    P = poset_category(tuple(k_enumerate(3, 2)), k_leq)
    cx = nerve(P, 3)
    assert cx.dims == (6, 12, 8, 0)
    hom = nerve_homology(P, 3)
    assert hom.betti == (1, 0, 1, 0) and not any(hom.torsion)


def test_nerve_requires_loop_free():
    ix = Arrow("x", "x", "ix")
    iy = Arrow("y", "y", "iy")
    f = Arrow("x", "y", "f")
    g = Arrow("y", "x", "g")
    # walking isomorphism: composable loops both ways
    C = FinCategory(
        ("x", "y"),
        (ix, iy, f, g),
        {"x": ix, "y": iy},
        {
            (g, f): ix,
            (f, g): iy,
            (f, ix): f,
            (iy, f): f,
            (g, iy): g,
            (ix, g): g,
            (ix, ix): ix,
            (iy, iy): iy,
        },
    )
    with pytest.raises(CategoryError):
        nerve(C, 2)


def test_nerve_of_terminal_and_chain():
    pt = poset_category(("p",), lambda a, b: True)
    assert nerve(pt, 2).dims == (1, 0, 0)
    two = chain(2)
    assert nerve(two, 2).dims == (2, 1, 0)


def parallel_arrows_category():
    """A loop-free category on 0 < 1 < 2 < 3 that is not thin: two arrows
    0 -> 1, two 2 -> 3, and one 1 -> 2 that merges the first pair.

    An arrow i -> j carries a choice 1 or 2 when it ends in 3 or is 0 -> 1,
    and 0 otherwise; a composite keeps its last arrow's choice when it ends
    in 3.  The arrows are listed backwards, so no boundary is in row order
    by accident.
    """
    two = {(0, 1), (0, 3), (1, 3), (2, 3)}
    arrows = [Arrow(x, x, 0) for x in range(4)] + [
        Arrow(i, j, c)
        for i in range(4) for j in range(i + 1, 4)
        for c in ((1, 2) if (i, j) in two else (0,))
    ]
    arrows.reverse()

    def compose(g, f):
        if f.src == f.dst:
            return g
        if g.src == g.dst:
            return f
        return Arrow(f.src, g.dst, g.label if g.dst == 3 else 0)

    table = {(g, f): compose(g, f) for f in arrows for g in arrows if f.dst == g.src}
    return FinCategory(range(4), arrows, {x: Arrow(x, x, 0) for x in range(4)}, table)


def reference_nerve(C, max_dim):
    """Chain ranks and boundaries built the way nerve once built them: one
    {(row, col): value} dict of face sums per boundary, then matrix_from_dict,
    with chains held as tuples of arrow payloads."""
    nonid = [a for a in C.arrows if not C.is_identity(a)]
    levels = [list(C.objects), [(a,) for a in nonid]][: max_dim + 1]
    while len(levels) <= max_dim:
        levels.append(
            [c + (g,) for c in levels[-1] for g in nonid if g.src == c[-1].dst]
        )
    boundaries = []
    for n in range(1, max_dim + 1):
        below = {s: row for row, s in enumerate(levels[n - 1])}
        entries = {}
        for col, c in enumerate(levels[n]):
            for i in range(n + 1):
                if n == 1:
                    face = c[0].dst if i == 0 else c[0].src
                elif i == 0:
                    face = c[1:]
                elif i == n:
                    face = c[:-1]
                else:
                    face = c[: i - 1] + (C.compose(c[i], c[i - 1]),) + c[i + 1 :]
                key = (below[face], col)
                entries[key] = entries.get(key, 0) + (-1) ** i
        boundaries.append(
            matrix_from_dict(len(levels[n - 1]), len(levels[n]), entries)
        )
    return tuple(len(l) for l in levels), tuple(boundaries)


def test_nerve_of_a_category_with_parallel_arrows_matches_the_reference():
    C = parallel_arrows_category()
    assert len(C.hom(0, 1)) == 2 and len(C.hom(0, 3)) == 2
    for max_dim in range(5):
        cx = nerve(C, max_dim)
        assert (cx.dims, cx.boundaries) == reference_nerve(C, max_dim)
    assert nerve(C, 4).dims == (4, 10, 10, 4, 0)


def test_acyclicity_report_fields():
    rep = acyclicity_report(chain(3), max_dim=2)
    assert rep.object_count == 3
    assert rep.component_count == 1
    assert rep.reduced_betti == (0, 0, 0)
    assert rep.acyclic


# --- hat comma categories ----------------------------------------------------------


def test_hat_comma_sizes_and_circle_homology():
    expected = {"|": (8, 20), "(|)": (44, 204), "(| |)": (76, 412)}
    for txt, (nobj, narr) in expected.items():
        H = build_hat_comma(parse_tree(txt))
        assert (len(H.objects), len(H.arrows)) == (nobj, narr)
        hom = nerve_homology(H, 2)
        assert hom.betti == (1, 1, 0) and not any(hom.torsion)


def test_hat_comma_matches_grothendieck():
    for txt in ["|", "(|)"]:
        t = parse_tree(txt)
        iso = hat_comma_isomorphism(t)
        G = hat_comma_grothendieck(t)
        H = build_hat_comma(t)
        assert len(H.objects) == len(G.objects)
        assert len(H.arrows) == len(G.arrows)
        assert len({iso.obj(x) for x in H.objects}) == len(H.objects)
        assert len({iso.arr(a) for a in H.arrows}) == len(H.arrows)


def test_hat_comma_with_no_whites_is_a_point():
    t = parse_tree("(|)")
    H = build_hat_comma(t, 2, 0)
    assert H.objects == ((t, KElt(0, (), ())),)
    assert len(H.arrows) == 1
    iso = hat_comma_isomorphism(t, 2, 0)
    assert iso.obj(H.objects[0]) == hat_comma_grothendieck(t, 2, 0).objects[0]
    assert nerve_homology(H, 2).betti == (1, 0, 0)


# --- deletion functor and its fibers -----------------------------------------------


def test_deletion_functor_requires_positive_labels():
    with pytest.raises(ValueError):
        deletion_functor(LEAF, KElt(2, (0,), (1, 2)))
    with pytest.raises(ValueError):
        deletion_functor(LEAF, KElt(1, (), (1,)))


def test_deletion_functor_on_edge_fiber_characterization():
    cell = KElt(2, (2,), (1, 2))
    F = deletion_functor(LEAF, cell)
    target = parse_config("{w1 | / |}")
    assert list(F.cod.objects) == [target]
    assert sorted(map(str, F.dom.objects)) == [
        "{w1 {w2 | / |} / |}",
        "{w1 | / {w2 | / |}}",
        "{w2 | / {w1 | / |}}",
    ]
    fib = fiber(F, target)
    assert set(fib.objects) == set(F.dom.objects)
    assert find_terminal(fib) == parse_config("{w1 {w2 | / |} / |}")


def test_deletion_functor_splices_lead_circle():
    # lead circle is the one the cell ranks first
    cell = KElt(2, (1,), (2, 1))  # circle 2 ranked first
    F = deletion_functor(parse_tree("(|)"), cell)
    src = parse_config("{w2 | / {w1 (|) / |}}")
    assert src in set(F.dom.objects)
    assert F.obj(src) == parse_config("{w1 (|) / |}")


def test_fiber_adjoint_report_ok_on_sample():
    for txt in ["|", "(|)"]:
        t = parse_tree(txt)
        for cell in cells22():
            F = deletion_functor(t, cell)
            for o2 in F.cod.objects:
                rep = fiber_adjoint_report(F, o2)
                assert rep.ok, f"{txt} {cell} {o2}"


def test_slice_side_reflection_can_fail():
    # the coslice carries the adjunction; the slice-side dual does not:
    # this target has slice objects with no arrow into the fiber at all
    t = parse_tree("(|)")
    F = deletion_functor(t, k_iota(KElt(2, (1,), (1, 2))))
    target = parse_config("{w1 (|) / |}")
    inc = fiber_inclusion(F, target, "over")
    missing = [
        z for z in inc.cod.objects if find_initial(comma(inc, z, "under")) is None
    ]
    assert missing, "expected at least one slice object without a reflection"
    assert fiber_adjoint_report(F, target).ok
