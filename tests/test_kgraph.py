"""Tests for the labelled-complete-graph operad."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleops.kgraph import (
    DOWN_LABELS,
    K_UNIT,
    KElt,
    _orientations,
    block_perm,
    k_compose,
    k_enumerate,
    k_iota,
    k_leq,
    kelt_delete_vertex,
    kelt_relabel,
    kelt_text,
    pair_index,
    parse_kelt,
    vertex_pairs,
)


def oracle_compose(outer, inners):
    """Composition built from scratch on named vertices (block, member).

    Labels come from dict lookups per pair, positions from sorting by the
    pair (outer position of the block, inner position of the member); this
    mirrors none of the offset arithmetic in k_compose.
    """
    names = [
        (a, p)
        for a in range(1, outer.k + 1)
        for p in range(1, inners[a - 1].k + 1)
    ]
    ranked = sorted(
        names,
        key=lambda up: (outer.perm[up[0] - 1], inners[up[0] - 1].perm[up[1] - 1]),
    )
    pos = {u: r + 1 for r, u in enumerate(ranked)}
    k = len(names)

    def label(u, v):
        (a, p), (b, q) = u, v
        return inners[a - 1].mu(p, q) if a == b else outer.mu(a, b)

    labels = tuple(label(names[u - 1], names[v - 1]) for u, v in vertex_pairs(k))
    return KElt(k, labels, tuple(pos[u] for u in names))


@st.composite
def kelts(draw, min_k=0, max_k=3, max_label=2):
    k = draw(st.integers(min_k, max_k))
    labels = tuple(
        draw(st.integers(0, max_label)) for _ in range(comb(k, 2))
    )
    perm = tuple(draw(st.permutations(range(1, k + 1))))
    return KElt(k, labels, perm)


# --- representation ---------------------------------------------------------------

def test_pair_index_matches_pair_order():
    for k in range(6):
        for idx, (i, j) in enumerate(vertex_pairs(k)):
            assert pair_index(k, i, j) == idx
            assert pair_index(k, j, i) == idx
    with pytest.raises(ValueError):
        pair_index(3, 2, 2)
    with pytest.raises(ValueError):
        pair_index(3, 0, 1)


def test_kelt_validation():
    with pytest.raises(ValueError):
        KElt(2, (), (1, 2))
    with pytest.raises(ValueError):
        KElt(2, (-1,), (1, 2))
    with pytest.raises(ValueError):
        KElt(2, (0,), (1, 1))
    x = KElt(3, (0, 1, 2), (2, 3, 1))
    assert x.mu(1, 3) == x.mu(3, 1) == 1
    assert x.before(3, 1) and not x.before(1, 3)


# --- partial order -----------------------------------------------------------------

def test_order_on_arity_two():
    low_id, low_sw = KElt(2, (0,), (1, 2)), KElt(2, (0,), (2, 1))
    high_id, high_sw = KElt(2, (1,), (1, 2)), KElt(2, (1,), (2, 1))
    assert k_leq(low_id, high_id) and k_leq(low_id, high_sw)
    assert k_leq(low_sw, high_id) and k_leq(low_sw, high_sw)
    assert not k_leq(low_id, low_sw)
    assert not k_leq(high_id, low_id)
    with pytest.raises(ValueError):
        k_leq(low_id, K_UNIT)


def edgewise_leq(x, y):
    """The order read edge by edge through mu and before."""
    return all(
        x.mu(i, j) < y.mu(i, j)
        or (x.mu(i, j) == y.mu(i, j) and x.before(i, j) == y.before(i, j))
        for i, j in vertex_pairs(x.k)
    )


def test_order_is_a_partial_order():
    elts = k_enumerate(2, 3)
    assert len(elts) == 48
    for x in elts:
        assert k_leq(x, x)
    rel = {
        (a, b)
        for a, x in enumerate(elts)
        for b, y in enumerate(elts)
        if k_leq(x, y)
    }
    assert rel == {
        (a, b)
        for a, x in enumerate(elts)
        for b, y in enumerate(elts)
        if edgewise_leq(x, y)
    }
    for a, b in rel:
        assert (b, a) not in rel or a == b
    for a, b in rel:
        for c in range(len(elts)):
            if (b, c) in rel:
                assert (a, c) in rel


def test_leq_matches_the_edgewise_definition():
    # every ordered pair of two stage posets, then seeded elements whose
    # labels reach 9, above every stage the tests and the CLI build
    for m, k in ((2, 3), (3, 2)):
        elts = k_enumerate(m, k)
        for x in elts:
            for y in elts:
                assert k_leq(x, y) == edgewise_leq(x, y)
    rng = random.Random(20261019)
    for _ in range(2000):
        k = rng.randint(0, 5)
        x, y = (
            KElt(k, tuple(rng.randint(0, 9) for _ in range(comb(k, 2))),
                 tuple(rng.sample(range(1, k + 1), k)))
            for _ in range(2)
        )
        assert k_leq(x, y) == edgewise_leq(x, y)
        assert k_leq(x, x) and tuple(_orientations(x.perm)) == tuple(
            x.before(i, j) for i, j in vertex_pairs(k))
    with pytest.raises(ValueError, match="cannot compare arity 2 with arity 3"):
        k_leq(KElt(2, (0,), (1, 2)), KElt(3, (0, 0, 0), (1, 2, 3)))


def test_cached_orientations_leave_equality_and_hash_alone():
    x = KElt(3, (0, 1, 1), (2, 3, 1))
    y = KElt(3, (0, 1, 1), (2, 3, 1))
    fresh = (hash(y), repr(y))
    # edge e's pair (m, o) is e + 3 * (2m + o): edge 0 keeps (0, True),
    # edges 1 and 2 hold both orientations of label 0 and then (1, False)
    assert x.down == frozenset({3, 1, 4, 7, 2, 5, 8})
    # only x has filled its cache
    assert "down" in vars(x) and "down" not in vars(y)
    assert x == y and y == x and len({x, y}) == 1
    assert (hash(x), repr(x)) == (hash(y), repr(y)) == fresh
    assert "down" not in repr(x)
    assert y.down == x.down and x == y and (hash(y), repr(y)) == fresh
    z = KElt(3, (0, 1, 1), (2, 1, 3))
    assert z.down != x.down and z != x


def test_leq_past_the_down_set_labels_is_edgewise():
    # an element with a label at DOWN_LABELS or above has no down-set code
    # and is compared edge by edge, also against one that has a code
    rng = random.Random(20261020)
    seen = set()
    for _ in range(2000):
        k = rng.randint(2, 3)
        x, y = (
            KElt(k, tuple(rng.randint(DOWN_LABELS - 2, DOWN_LABELS + 1)
                          for _ in range(comb(k, 2))),
                 tuple(rng.sample(range(1, k + 1), k)))
            for _ in range(2)
        )
        for a in (x, y):
            assert (a.down is None) == (max(a.labels) >= DOWN_LABELS)
        assert k_leq(x, y) == edgewise_leq(x, y)
        seen.add((x.down is None, y.down is None, k_leq(x, y)))
    # every case but one: a label past the bound is above all of y's labels
    assert len(seen) == 7 and (True, False, True) not in seen


def test_iota_embeds_stages():
    elts = k_enumerate(2, 2)
    for x in elts:
        assert min(k_iota(x).labels) >= 1
    for x in elts:
        for y in elts:
            assert k_leq(x, y) == k_leq(k_iota(x), k_iota(y))
    assert len({k_iota(x) for x in elts}) == len(elts)


def test_iota_respects_composition():
    outers = k_enumerate(2, 2)
    inners = k_enumerate(2, 1)
    for x in outers:
        for a in inners:
            for b in inners:
                lhs = k_iota(k_compose(x, (a, b)))
                rhs = k_compose(k_iota(x), (k_iota(a), k_iota(b)))
                assert lhs == rhs


# --- composition -------------------------------------------------------------------

def test_compose_worked_example():
    outer = KElt(2, (1,), (1, 2))
    first = KElt(3, (0, 2, 2), (1, 2, 3))
    second = KElt(2, (0,), (1, 2))
    got = k_compose(outer, (first, second))
    assert got == KElt(
        5,
        (0, 2, 1, 1, 2, 1, 1, 1, 1, 0),
        (1, 2, 3, 4, 5),
    )


def test_compose_reorders_blocks_by_outer_order():
    outer = KElt(2, (1,), (2, 1))  # second block comes first
    first = KElt(2, (0,), (1, 2))
    second = KElt(1, (), (1,))
    got = k_compose(outer, (first, second))
    assert got.perm == (2, 3, 1)
    assert got.mu(1, 2) == 0 and got.mu(1, 3) == 1 and got.mu(2, 3) == 1


def test_compose_arity_mismatch():
    with pytest.raises(ValueError):
        k_compose(K_UNIT, ())


@settings(max_examples=300)
@given(st.data())
def test_compose_matches_oracle(data):
    outer = data.draw(kelts(max_k=3))
    inners = tuple(data.draw(kelts(max_k=3)) for _ in range(outer.k))
    assert k_compose(outer, inners) == oracle_compose(outer, inners)


@settings(max_examples=200)
@given(kelts())
def test_unit_laws(x):
    assert k_compose(K_UNIT, (x,)) == x
    assert k_compose(x, (K_UNIT,) * x.k) == x


@settings(max_examples=200)
@given(st.data())
def test_associativity(data):
    x = data.draw(kelts(max_k=2))
    ys = tuple(data.draw(kelts(max_k=2)) for _ in range(x.k))
    zss = tuple(
        tuple(data.draw(kelts(max_k=2)) for _ in range(y.k)) for y in ys
    )
    flat = tuple(z for zs in zss for z in zs)
    lhs = k_compose(k_compose(x, ys), flat)
    rhs = k_compose(x, tuple(k_compose(y, zs) for y, zs in zip(ys, zss)))
    assert lhs == rhs


@settings(max_examples=200)
@given(st.data())
def test_equivariance(data):
    x = data.draw(kelts(min_k=1, max_k=3))
    bs = tuple(data.draw(kelts(max_k=2)) for _ in range(x.k))
    sigma = tuple(data.draw(st.permutations(range(1, x.k + 1))))
    gathered = tuple(bs[sigma[i - 1] - 1] for i in range(1, x.k + 1))
    lhs = k_compose(kelt_relabel(x, sigma), bs)
    rho = block_perm(sigma, tuple(b.k for b in gathered))
    assert lhs == kelt_relabel(k_compose(x, gathered), rho)


def test_compose_is_monotone():
    elts = k_enumerate(2, 2)
    pairs = [(x, y) for x in elts for y in elts if k_leq(x, y)]
    singles = k_enumerate(2, 1)
    spairs = [(a, b) for a in singles for b in singles if k_leq(a, b)]
    for x, y in pairs:
        for a1, b1 in spairs:
            for a2, b2 in spairs:
                assert k_leq(k_compose(x, (a1, a2)), k_compose(y, (b1, b2)))


# --- relabelling -------------------------------------------------------------------

@settings(max_examples=200)
@given(st.data())
def test_relabel_moves_edges(data):
    x = data.draw(kelts(min_k=1))
    sigma = tuple(data.draw(st.permutations(range(1, x.k + 1))))
    y = kelt_relabel(x, sigma)
    for i, j in vertex_pairs(x.k):
        assert y.mu(sigma[i - 1], sigma[j - 1]) == x.mu(i, j)
        assert y.before(sigma[i - 1], sigma[j - 1]) == x.before(i, j)


@settings(max_examples=200)
@given(st.data())
def test_relabel_is_an_action(data):
    x = data.draw(kelts())
    sigma = tuple(data.draw(st.permutations(range(1, x.k + 1))))
    tau = tuple(data.draw(st.permutations(range(1, x.k + 1))))
    assert kelt_relabel(kelt_relabel(x, sigma), tau) == kelt_relabel(
        x, tuple(tau[s - 1] for s in sigma)
    )
    assert kelt_relabel(x, tuple(range(1, x.k + 1))) == x


def test_block_perm_example():
    assert block_perm((2, 1), (2, 3)) == (4, 5, 1, 2, 3)
    assert block_perm((1, 2, 3), (1, 2, 1)) == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        block_perm((1, 1), (1, 2))


# --- enumeration and codec ---------------------------------------------------------

def test_enumerate_counts_and_determinism():
    assert len(k_enumerate(2, 2)) == 4
    assert len(k_enumerate(3, 2)) == 6
    assert len(k_enumerate(2, 3)) == 48
    assert k_enumerate(3, 3) == k_enumerate(3, 3)
    assert len(set(k_enumerate(3, 3))) == len(k_enumerate(3, 3))
    for x in k_enumerate(3, 2):
        assert max(x.labels) < 3
    with pytest.raises(ValueError):
        k_enumerate(0, 2)
    with pytest.raises(ValueError, match="^arity must be nonnegative$"):
        k_enumerate(2, -1)


def test_codec_round_trip():
    x = KElt(3, (0, 2, 1), (2, 3, 1))
    assert kelt_text(x) == "3; mu(1,2)=0 mu(1,3)=2 mu(2,3)=1; perm=[2 3 1]"
    assert parse_kelt(kelt_text(x)) == x
    for y in k_enumerate(2, 3):
        assert parse_kelt(kelt_text(y)) == y
    assert parse_kelt(kelt_text(K_UNIT)) == K_UNIT
    empty = KElt(0, (), ())
    assert parse_kelt(kelt_text(empty)) == empty


@pytest.mark.parametrize(
    "text",
    [
        "2; mu(1,2)=0",
        "2; mu(1,2)=0 mu(1,2)=1; perm=[1 2]",
        "2; ; perm=[1 2]",
        "2; mu(1,2)=x; perm=[1 2]",
        "2; mu(1,2)=0; perm=(1 2)",
    ],
)
def test_codec_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_kelt(text)


@pytest.mark.parametrize(
    "text, word",
    [
        ("1; ; perm=[0_1]", "0_1"),  # int() drops underscores
        ("+2; mu(1,2)=0; perm=[1 2]", "+2"),
        ("١; ; perm=[1]", "١"),
        ("2; mu(1,2)=0; perm=[1 ٢]", "٢"),
    ],
)
def test_codec_integers_are_ascii_digits(text, word):
    # int() reads each word as a number; the codec does not
    with pytest.raises(ValueError) as exc:
        parse_kelt(text)
    assert str(exc.value) == f"integer {word!r} must be ASCII digits 0-9"


@pytest.mark.parametrize(
    "text, word, value",
    [
        ("2; mu(1,2)=01; perm=[1 2]", "01", 1),
        ("2; mu(01,2)=1; perm=[1 2]", "01", 1),
        ("2; mu(1,2)=1; perm=[01 2]", "01", 1),
        ("02; mu(1,2)=1; perm=[1 2]", "02", 2),
        ("-0; ; perm=[]", "-0", 0),
    ],
)
def test_codec_integers_have_no_leading_zero(text, word, value):
    # each would read as the element that prints with value in its place
    with pytest.raises(ValueError) as exc:
        parse_kelt(text)
    assert str(exc.value) == f"integer {word!r} must be written {value}"


@pytest.mark.parametrize("text", ["0; ; perm=[]", "2; mu(1,2)=0; perm=[2 1]"])
def test_codec_zero_parses(text):
    assert kelt_text(parse_kelt(text)) == text


def test_codec_edge_labels_are_ascii_digits():
    with pytest.raises(ValueError) as exc:
        parse_kelt("2; mu(1,2)=١; perm=[1 2]")
    assert str(exc.value) == "bad edge label token 'mu(1,2)=١'"


# --- vertex deletion ---------------------------------------------------------------

def test_delete_vertex_restricts_labels_and_order():
    x = KElt(3, (0, 2, 1), (2, 3, 1))
    # deleting vertex 1 keeps the pair (2,3) as the new (1,2)
    y = kelt_delete_vertex(x, 1)
    assert y == KElt(2, (1,), (2, 1))
    # deleting vertex 3 keeps the pair (1,2); 1 sat at position 2, 2 at 3
    z = kelt_delete_vertex(x, 3)
    assert z == KElt(2, (0,), (1, 2))


def test_delete_vertex_rejects_bad_indices():
    x = KElt(2, (1,), (1, 2))
    with pytest.raises(ValueError):
        kelt_delete_vertex(x, 3)
    with pytest.raises(ValueError):
        kelt_delete_vertex(KElt(1, (), (1,)), 1)


def test_delete_vertex_is_monotone():
    for a in k_enumerate(2, 3):
        for b in k_enumerate(2, 3):
            if k_leq(a, b):
                for i in range(1, 4):
                    assert k_leq(kelt_delete_vertex(a, i), kelt_delete_vertex(b, i))


def test_delete_vertex_of_iota_restores_smaller_arity():
    for x in k_enumerate(2, 2):
        big = k_iota(x)
        for i in (1, 2):
            small = kelt_delete_vertex(big, i)
            assert small.k == 1 and small.labels == ()
