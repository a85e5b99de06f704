"""Tests for finite categories, comma constructions, and their homology."""

import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from circleops.trees import LEAF, parse_tree
from circleops.kgraph import KElt, k_enumerate, k_iota, k_leq, parse_kelt
from circleops import cattop, operad_h
from circleops.circled import enumerate_configs, parse_config
from circleops.homology import matrix_from_dict
from circleops.operad_h import HOperation, complexity, compose, identity_op
from circleops.cattop import (
    Arrow,
    CategoryError,
    FinCategory,
    FinFunctor,
    acyclicity_report,
    build_comma,
    build_hat_comma,
    comma_below,
    deletion_functor,
    fiber_adjoint_report,
    fiber_inclusion,
    find_terminal,
    grothendieck,
    hat_comma_grothendieck,
    hat_comma_isomorphism,
    nerve,
    nerve_homology,
    poset_category,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digests  # noqa: E402


def chain(n):
    return poset_category(tuple(range(n)), lambda a, b: a <= b)


def identity_functor(C):
    return FinFunctor._of_ids(
        C, C, list(range(len(C.objects))), list(range(len(C.arrows)))
    )


def cells22():
    return [k_iota(k) for k in k_enumerate(2, 2)]


# --- FinCategory and FinFunctor axioms ---------------------------------------------


def test_poset_category_axioms_and_homs():
    C = chain(3)
    assert len(C.objects) == 3
    assert len(C.arrows) == 6
    # the objects 0, 1, 2 have the ids 0, 1, 2
    assert 2 in C._hom[0]
    assert 0 not in C._hom[2]
    f, g, h = (C.arrows[C._hom[x][y]] for x, y in ((0, 1), (1, 2), (0, 2)))
    assert C.table[g, f] == h


def test_labelled_rejects_parallel_arrows_with_one_label():
    with pytest.raises(CategoryError) as err:
        cattop._labelled(
            ("x",), [0, 0], [0, 0], ["i", "i"],
            lambda label: label, lambda g, f: "i", lambda x: "i",
        )
    i = Arrow("x", "x", "i")
    assert str(err.value) == f"two arrows share a source and a target: {i} and {i}"


def test_labelled_thin_loop_is_an_identity_only_with_the_unit_label():
    def one_loop(unit):
        return cattop._labelled(
            ("x",), [0], [0], ["i"],
            lambda label: label, lambda g, f: "i", lambda x: unit,
        )

    assert one_loop("i").identities == {"x": Arrow("x", "x", "i")}
    with pytest.raises(CategoryError, match="^bad identity arrow at x$"):
        one_loop("e")


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


def walking_arrow(**change):
    """The _of_ids arguments of the walking arrow f: x -> y, whose arrows
    ix, iy, f have the ids 0, 1, 2; keyword arguments replace some of them."""
    ix, iy, f = Arrow("x", "x", "ix"), Arrow("y", "y", "iy"), Arrow("x", "y", "f")
    args = dict(
        objects=("x", "y"), arrows=(ix, iy, f), src=[0, 1, 0], dst=[0, 1, 1],
        ident=[0, 1],
    )
    return {**args, **change}


def test_every_category_check_names_its_failure():
    ix, iy, f = walking_arrow()["arrows"]
    a = Arrow("x", "x", "a")
    assert FinCategory._of_ids(**walking_arrow()).identities == {"x": ix, "y": iy}
    cases = [
        (walking_arrow(src=[0, 1, -1]), f"arrow endpoints outside the category: {f}"),
        (walking_arrow(dst=[0, 1, -1]), f"arrow endpoints outside the category: {f}"),
        (walking_arrow(src=[0, 1]), "endpoints must cover exactly the arrows"),
        (walking_arrow(dst=[0, 1, 1, 1]), "endpoints must cover exactly the arrows"),
        # ids past the end are rejected before they index a list
        (dict(objects=("x",), arrows=(a,), src=[1], dst=[0], ident=[0]),
         f"arrow endpoints outside the category: {a}"),
        (walking_arrow(dst=[0, 1, 2]), f"arrow endpoints outside the category: {f}"),
        (walking_arrow(ident=[0, 3]), "bad identity arrow at y"),
        (walking_arrow(ident=[0]), "identities must cover exactly the objects"),
        (walking_arrow(ident=[0, 1, 1]), "identities must cover exactly the objects"),
        # an identity for x but not for y
        (walking_arrow(arrows=(ix,), src=[0], dst=[0], ident=[0]),
         "identities must cover exactly the objects"),
        (walking_arrow(ident=[2, 1]), "bad identity arrow at x"),
        (walking_arrow(ident=[-1, 1]), "bad identity arrow at x"),
    ]
    for args, message in cases:
        with pytest.raises(CategoryError, match=f"^{re.escape(message)}$"):
            FinCategory._of_ids(**args)


def test_thin_categories_without_a_table_name_each_failure():
    # _of_ids stores no composites, so thinness, the identities and closure
    # under composition are all it has to check
    ix, iy, iz = (Arrow(x, x, None) for x in "xyz")
    f, f2, g = Arrow("x", "y", "f"), Arrow("x", "y", "f2"), Arrow("y", "z", "g")
    cases = [
        (dict(objects=("x", "y"), arrows=(ix, iy, f, f2),
              src=[0, 1, 0, 0], dst=[0, 1, 1, 1], ident=[0, 1]),
         f"two arrows share a source and a target: {f} and {f2}"),
        (dict(objects=("x", "y"), arrows=(ix, f),
              src=[0, 0], dst=[0, 1], ident=[0, -1]),
         "bad identity arrow at y"),
        (dict(objects=("x", "y", "z"), arrows=(ix, iy, iz, f, g),
              src=[0, 1, 2, 0, 1], dst=[0, 1, 2, 1, 2], ident=[0, 1, 2]),
         f"composite of {f} then {g} is not an arrow"),
    ]
    for args, message in cases:
        with pytest.raises(CategoryError, match=f"^{re.escape(message)}$"):
            FinCategory._of_ids(**args)
    # with the composite x -> z the same arrows form a thin category
    h = Arrow("x", "z", "h")
    C = FinCategory._of_ids(("x", "y", "z"), (ix, iy, iz, f, g, h),
                            [0, 1, 2, 0, 1, 0], [0, 1, 2, 1, 2, 2], [0, 1, 2])
    assert C.table[g, f] == h


def test_thin_table_rejects_pairs_that_do_not_compose():
    # the hom dicts have an arrow src f -> dst g for these pairs, so only
    # the composability test keeps the table from answering them
    C = poset_category(k_enumerate(2, 3), k_leq)
    src, dst = C._src, C._dst
    pairs = [(f, g) for f in range(0, len(C.arrows), 17)
             for g in range(0, len(C.arrows), 13)
             if dst[f] != src[g] and dst[g] in C._hom[src[f]]]
    assert len(pairs) > 100
    for f, g in pairs:
        key = (C.arrows[g], C.arrows[f])
        assert key not in C.table
        with pytest.raises(KeyError):
            C.table[key]
    # and every pair that does compose is answered by its one arrow
    for (g, f), h in C.table.items():
        assert C.table[g, f] == h == C.arrows[C._hom[C._oid[f.src]][C._oid[g.dst]]]
    assert len(C.table) == sum(1 for _ in C.table) == 948


def test_every_functor_check_names_its_failure():
    C, D = chain(3), chain(2)
    omap = [0, 1, 1]
    amap = [D._hom[omap[s]][omap[t]] for s, t in zip(C._src, C._dst)]
    f02 = C._hom[0][2]

    def image(b):
        return amap[:f02] + [b] + amap[f02 + 1:]

    cases = [
        ((C, D, [0, 1], amap), "object map must cover exactly the domain objects"),
        ((C, D, [0, 1, 1, 1], amap), "object map must cover exactly the domain objects"),
        ((C, D, omap, amap[:-1]), "arrow map must cover exactly the domain arrows"),
        ((C, D, omap, amap + [0]), "arrow map must cover exactly the domain arrows"),
        ((C, D, [0, 1, -1], amap), "image of 2 is not a codomain object"),
        ((C, D, [0, 1, 2], amap), "image of 2 is not a codomain object"),
        ((C, D, omap, image(-1)), f"image of {C.arrows[f02]} is not a codomain arrow"),
        ((C, D, omap, image(len(D.arrows))),
         f"image of {C.arrows[f02]} is not a codomain arrow"),
        ((C, D, omap, image(D._ident[1])), f"functor breaks endpoints on {C.arrows[f02]}"),
        ((C, D, omap, image(D._ident[0])), f"functor breaks endpoints on {C.arrows[f02]}"),
    ]
    for args, message in cases:
        with pytest.raises(CategoryError, match=f"^{re.escape(message)}$"):
            FinFunctor._of_ids(*args)


def axiom_failures(C):
    """The unit and associativity laws walked by brute force, reading only
    C.table and C.identities: each failure as a tuple naming its arrows.

    The table must hold exactly the composable pairs of its arrows, each
    composite running from the source of its first arrow to the target of
    its second."""
    table, ids = dict(C.table.items()), C.identities
    arrows = {f for _, f in table} | set(ids.values())
    out = {}
    for a in arrows:
        out.setdefault(a.src, []).append(a)
    failures = []
    if set(table) != {(g, f) for f in arrows for g in out[f.dst]}:
        failures.append(("pairs",))
    for (g, f), h in table.items():
        if (h.src, h.dst) != (f.src, g.dst):
            failures.append(("ends", g, f))
    for f in arrows:
        if table.get((f, ids[f.src])) != f or table.get((ids[f.dst], f)) != f:
            failures.append(("unit", f))
    for (g, f), gf in table.items():
        for h in out[g.dst]:
            if table.get((h, gf)) != table.get((table.get((h, g)), f)):
                failures.append(("associativity", h, g, f))
    return failures


def test_axiom_failures_finds_broken_laws():
    # the reference walk is not vacuous: one object x with identity i and
    # arrows a, b, where every product of a and b is i but a.a = a
    i, a, b = (Arrow("x", "x", label) for label in "iab")

    def monoid(after):
        return SimpleNamespace(
            table={(g, f): after(g, f) for g in (i, a, b) for f in (i, a, b)},
            identities={"x": i},
        )

    def product(g, f):
        return f if g == i else g if f == i else a if g == f == a else i

    failures = axiom_failures(monoid(product))
    assert ("associativity", b, a, a) in failures
    assert {x[0] for x in failures} == {"associativity"}
    assert ("unit", a) in axiom_failures(
        monoid(lambda g, f: i if (g, f) == (a, i) else product(g, f)))


@pytest.fixture(scope="module")
def digest_categories():
    """Every category a light digest item writes out, as CATTOP_SHA256
    hashes it, by name: the poset, comma_below, build_comma and hat comma
    items (the latter holds build_hat_comma and hat_comma_grothendieck of
    (|)), and the commas of every fiber inclusion."""
    seen = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(digests, "category_lines",
                   lambda name, C: seen.setdefault(name, C) and ())
        for name, lines in digests.LIGHT.items():
            if not name.startswith("nerve/"):  # nerve items write no category
                for _ in lines():
                    pass
    assert {"build_hat_comma (|)", "hat_comma_grothendieck (|)"} <= set(seen)
    assert len(seen) == 62
    return seen


def test_digest_categories_pass_the_reference_axiom_walk(digest_categories):
    for name, C in digest_categories.items():
        assert axiom_failures(C) == [], name


def test_hom_dicts_list_each_objects_out_arrows_in_id_order(digest_categories):
    # table, _subcategory and grothendieck read the arrows out of x in the
    # order of _hom[x], which must be their id order
    for name, C in digest_categories.items():
        out = [[] for _ in C.objects]
        for a, x in enumerate(C._src):
            out[x].append(a)
        assert [list(h.values()) for h in C._hom] == out, name
        assert all(C._dst[a] == y for h in C._hom for y, a in h.items()), name


def test_functors_into_thin_categories_reject_every_misdirected_arrow():
    # every arrow image pointed at every other codomain arrow
    for t in ("|", "(|)"):
        for cell in cells22():
            F = deletion_functor(parse_tree(t), cell)
            functors = [F] + [fiber_inclusion(F, z, side)
                              for z in F.cod.objects for side in ("under", "over")]
            for G in functors:
                for a, b in enumerate(G._amap):
                    for wrong in range(len(G.cod.arrows)):
                        if wrong == b:
                            continue
                        amap = G._amap[:a] + [wrong] + G._amap[a + 1:]
                        with pytest.raises(CategoryError) as err:
                            FinFunctor._of_ids(G.dom, G.cod, G._omap, amap)
                        assert str(err.value) == (
                            f"functor breaks endpoints on {G.dom.arrows[a]}")


def test_categories_and_functors_are_built_only_by_of_ids():
    with pytest.raises(TypeError, match=r"FinCategory\._of_ids"):
        FinCategory()
    with pytest.raises(TypeError, match=r"FinFunctor\._of_ids"):
        FinFunctor()
    C = chain(2)
    assert type(C) is FinCategory and type(identity_functor(C)) is FinFunctor


def test_inclusion_names_a_domain_object_missing_from_the_codomain():
    # the missing object's id is -1, which must not index the codomain's
    # hom dicts: on the empty codomain that would raise IndexError, and on
    # a nonempty one read its last object
    empty = cattop._labelled((), [], [], [], None, None, None)
    for dom, cod in ((chain(3), chain(2)), (chain(1), empty)):
        last = dom.objects[-1]
        with pytest.raises(CategoryError,
                           match=f"^image of {last} is not a codomain object$"):
            cattop._inclusion(dom, cod)


def test_functor_must_preserve_composition():
    C = chain(3)
    D = chain(2)
    omap = [0, 1, 1]
    amap = [D._hom[omap[s]][omap[t]] for s, t in zip(C._src, C._dst)]
    F = FinFunctor._of_ids(C, D, omap, amap)
    assert F.object_map == {0: 0, 1: 1, 2: 1}


def test_find_terminal_and_initial_on_chain():
    assert find_terminal(chain(4)) == 3
    # the initial object of the chain is the terminal one of its opposite
    assert find_terminal(poset_category(range(4), lambda a, b: a >= b)) == 0
    disc = poset_category((0, 1), lambda a, b: a == b)
    assert find_terminal(disc) is None


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
    assert inc.object_map[1] == (1, C.identities[1])


def test_identity_functor_coslice_is_under_category():
    C = chain(3)
    inc = fiber_inclusion(identity_functor(C), 1, "under")
    cos, fib = inc.cod, inc.dom
    assert sorted(x for x, _ in cos.objects) == [1, 2]
    assert [x for x in fib.objects] == [1]
    assert inc.object_map[1] == (1, C.identities[1])


def test_comma_both_sides_for_identity():
    C = chain(3)
    under = fiber_inclusion(identity_functor(C), 1, "under").cod
    over = fiber_inclusion(identity_functor(C), 1, "over").cod
    assert len(under.objects) == 2  # (1,id), (2, 1<=2)
    assert len(over.objects) == 2  # (0, 0<=1), (1,id)
    # (1, id) is initial under: one arrow to every object
    assert all(y in under._hom[0] for y in range(len(under.objects)))
    assert under.objects[0] == (1, C.identities[1])
    assert find_terminal(over) == (1, C.identities[1])


def test_comma_rejects_bad_side_and_foreign_object():
    F = identity_functor(chain(3))
    with pytest.raises(ValueError, match="^side must be 'under' or 'over', not 'sideways'$"):
        fiber_inclusion(F, 1, "sideways")
    # the object is resolved before the side is checked
    for side in ("under", "sideways"):
        with pytest.raises(CategoryError, match="^7 is not an object of the codomain$"):
            fiber_inclusion(F, 7, side)


@pytest.mark.parametrize("side", ["under", "over"])
def test_comma_laws_on_deletion_functor(side):
    # unlike the identity on a chain, this functor sends 17 objects onto 3
    F = deletion_functor(parse_tree("(|)"), k_iota(KElt(2, (1,), (1, 2))))
    A, B = F.dom, F.cod
    fobj, farr = F.object_map, F.arrow_map
    for z in B.objects:
        inc = fiber_inclusion(F, z, side)
        K, fib, id_z = inc.cod, inc.dom, B.identities[z]
        assert K.objects
        for w, g in K.objects:
            legs = (z, fobj[w]) if side == "under" else (fobj[w], z)
            assert g in B.arrows and (g.src, g.dst) == legs
        for a in K.arrows:
            (w, g), (w2, g2), m = a.src, a.dst, a.label
            assert (m.src, m.dst) == (w, w2)
            if side == "under":
                assert B.table[farr[m], g] == g2
            else:
                assert B.table[g2, farr[m]] == g
        assert set(fib.objects) == {x for x in A.objects if fobj[x] == z}
        assert set(fib.arrows) == {u for u in A.arrows if farr[u] == id_z}
        assert all(inc.object_map[x] == (x, id_z) for x in fib.objects)


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
            transitions[a] = FinFunctor._of_ids(pt0, pt1, [0], [0])
    G = grothendieck(base, fibers, transitions)
    assert G.objects == ((0, "p"), (1, "q"))
    assert len(G.arrows) == 3
    # the projection onto the base is a functor
    P = FinFunctor._of_ids(
        G, base, [0, 1], [base._aid[a.label[0]] for a in G.arrows]
    )
    assert all(P.arrow_map[a] == a.label[0] for a in G.arrows)


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
    ident = set(C.identities.values())
    nonid = [(a.src, a.dst) for a in C.arrows if a not in ident]
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

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    for module in (cattop, operad_h):
        for name in ("compose", "compose_terms"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
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
    # the counters do see the compositions of a build
    build_comma.__wrapped__(parse_tree("(|)"), 1)
    assert calls


def test_comma_below_is_the_full_subcategory_below_each_cell():
    # the restriction by complexity classes, against the plain predicate on
    # every object of build_comma and the arrows between the kept ones, in
    # build_comma's order, with its identities and composites
    t = parse_tree("(|)")
    C = build_comma(t, 3)
    cells = [k_iota(c) for c in k_enumerate(2, 3)]
    assert len(cells) == 48
    cx = [complexity(HOperation(o)) for o in C.objects]
    src, dst = C._src, C._dst
    aid = C._aid
    table = [(aid[f], aid[g], aid[h]) for (g, f), h in C.table.items()]
    for cell in cells:
        below = [k_leq(x, cell) for x in cx]
        objs = [x for x, b in enumerate(below) if b]
        arrows = [a for a in range(len(C.arrows)) if below[src[a]] and below[dst[a]]]
        got = comma_below(t, cell)
        assert got.objects == tuple(C.objects[x] for x in objs)
        assert got.arrows == tuple(C.arrows[a] for a in arrows)
        assert [got.objects[x] for x in got._src] == [C.objects[src[a]] for a in arrows]
        assert [got.objects[x] for x in got._dst] == [C.objects[dst[a]] for a in arrows]
        assert [got.arrows[e] for e in got._ident] == [
            C.arrows[C._ident[x]] for x in objs]
        assert list(got.table.items()) == [
            ((C.arrows[g], C.arrows[f]), C.arrows[h]) for f, g, h in table
            if below[src[f]] and below[dst[f]] and below[dst[g]]
        ]


def test_composite_off_the_objects_is_a_category_error(monkeypatch):
    # a composite that is no configuration on the tree names the failure
    stray = identity_op(parse_tree("((|) |)"))
    monkeypatch.setattr(cattop, "compose_terms", lambda outer, inner: stray.term)
    with pytest.raises(CategoryError, match="is not an object"):
        build_comma.__wrapped__(parse_tree("(|)"), 1)


def test_composite_equal_to_an_object_of_another_profile_is_rejected(monkeypatch):
    # a composite is certified by the validated operation it equals; that
    # operation's profile must still be the one compose would require, both
    # in the arrow sweep (two arguments) and in the unary table (one)
    t = parse_tree("(|)")
    ops = cattop._operations(t, 2)
    unaries = [
        HOperation(c)
        for s in dict.fromkeys(s for o in ops for s in o.sources)
        for c in enumerate_configs(s, 1)
    ]
    real = cattop.compose_terms

    def stray(arity, pool):
        # with arity arguments, the first operation of pool whose profile
        # is not the one the composite needs
        def compose_terms(outer, args):
            if len(args) != arity:
                return real(outer, args)
            want = (tuple(a.sources[0] for a in args), outer.target)
            return next(o.term for o in pool if o.profile != want)
        return compose_terms

    for arity, pool in ((2, ops), (1, unaries)):
        monkeypatch.setattr(cattop, "compose_terms", stray(arity, pool))
        with pytest.raises(
            RuntimeError, match="^composition changed the operation profile$"
        ):
            build_comma.__wrapped__(t, 2)


@pytest.mark.parametrize("txt, k", [
    *((txt, 2) for txt in ("|", "(|)", "(| |)", "((|))", "((|) |)")),
    ("(|)", 3),
])
def test_build_comma_agrees_with_validating_compose(txt, k):
    # differential check against the path that validates every composite:
    # each arrow's source is the object compose builds from its target and
    # label, and each composite arrow's label is compose of the labels
    C = build_comma(parse_tree(txt), k)
    op = {}

    def as_op(term):
        if term not in op:
            op[term] = HOperation(term)
        return op[term]

    for a, t in zip(C.arrows, C._dst):
        args = tuple(map(as_op, a.label))
        assert a.src == compose(as_op(C.objects[t]), args).term
    unary = {}
    for (g, f), h in C.table.items():
        for q, p, r in zip(g.label, f.label, h.label):
            if (q, p) not in unary:
                unary[q, p] = compose(as_op(q), (as_op(p),)).term
            assert unary[q, p] == r


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


def walking_isomorphism():
    """Arrows f: x -> y and g: y -> x inverse to each other."""
    labels = ["ix", "iy", "f", "g"]

    def combine(g, f):
        if labels[g] in ("ix", "iy"):
            return labels[f]
        if labels[f] in ("ix", "iy"):
            return labels[g]
        return "ix" if labels[f] == "f" else "iy"

    return cattop._labelled(
        ("x", "y"), [0, 1, 0, 1], [0, 1, 1, 0], labels,
        lambda label: label, combine, ["ix", "iy"].__getitem__,
    )


def test_nerve_requires_loop_free():
    iso = walking_isomorphism()
    assert iso.table[iso.arrows[3], iso.arrows[2]] == iso.identities["x"]
    with pytest.raises(
        CategoryError, match="^not loop-free: arrows both ways between x and y$"
    ):
        nerve(iso, 2)


def test_nerve_of_terminal_and_chain():
    pt = poset_category(("p",), lambda a, b: True)
    assert nerve(pt, 2).dims == (1, 0, 0)
    two = chain(2)
    assert nerve(two, 2).dims == (2, 1, 0)


def reference_nerve(C, max_dim):
    """Chain ranks and boundaries built the way nerve once built them: one
    {(row, col): value} dict of face sums per boundary, then matrix_from_dict,
    with chains held as tuples of arrow payloads."""
    ident = set(C.identities.values())
    nonid = [a for a in C.arrows if a not in ident]
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
                    face = c[: i - 1] + (C.table[c[i], c[i - 1]],) + c[i + 1 :]
                key = (below[face], col)
                entries[key] = entries.get(key, 0) + (-1) ** i
        boundaries.append(
            matrix_from_dict(len(levels[n - 1]), len(levels[n]), entries)
        )
    return tuple(len(l) for l in levels), tuple(boundaries)


def test_nerve_matches_the_reference_nerve():
    # test_14's stage posets through the degree past their longest chain, and
    # a comma of operations
    cases = [
        (poset_category(k_enumerate(m, k), k_leq), (m - 1) * k * (k - 1) // 2 + 1)
        for m, k in ((2, 2), (3, 2), (4, 2), (2, 3))
    ]
    cases.append((build_comma(parse_tree("(| |)"), 2), 4))
    for C, max_dim in cases:
        cx = nerve(C, max_dim)
        assert (cx.dims, cx.boundaries) == reference_nerve(C, max_dim)
        for n, b in enumerate(cx.boundaries, 1):
            # faces of width n + 1: the d-squared check's +-1 branch
            assert b.width == n + 1
            assert b.ptr == range(0, (n + 1) * b.ncols + 1, n + 1)
            if b.ncols:
                assert b.vals[:n + 1] == [(-1) ** i for i in range(n + 1)]


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
        assert len(set(iso.object_map.values())) == len(H.objects)
        assert len(set(iso.arrow_map.values())) == len(H.arrows)


def test_hat_comma_with_no_whites_is_a_point():
    t = parse_tree("(|)")
    H = build_hat_comma(t, 2, 0)
    assert H.objects == ((t, KElt(0, (), ())),)
    assert len(H.arrows) == 1
    iso = hat_comma_isomorphism(t, 2, 0)
    assert iso.object_map[H.objects[0]] == hat_comma_grothendieck(t, 2, 0).objects[0]
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
    fib = fiber_inclusion(F, target, "under").dom
    assert set(fib.objects) == set(F.dom.objects)
    assert find_terminal(fib) == parse_config("{w1 {w2 | / |} / |}")


def test_deletion_functor_splices_lead_circle():
    # lead circle is the one the cell ranks first
    cell = KElt(2, (1,), (2, 1))  # circle 2 ranked first
    F = deletion_functor(parse_tree("(|)"), cell)
    src = parse_config("{w2 | / {w1 (|) / |}}")
    assert src in set(F.dom.objects)
    assert F.object_map[src] == parse_config("{w1 (|) / |}")


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
        z for z in inc.cod.objects if not fiber_inclusion(inc, z, "under").cod.objects
    ]
    assert missing, "expected at least one slice object without a reflection"
    assert fiber_adjoint_report(F, target).ok
