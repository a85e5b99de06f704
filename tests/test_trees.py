import pytest
from hypothesis import given, strategies as st

from circleops.circled import circle_graft as graft
from circleops.trees import (
    LEAF,
    Node,
    ParseError,
    corolla,
    enumerate_trees,
    leaves,
    node,
    parse_tree,
    tree_sort_key,
    vertices,
)


def trees_strategy(max_leaves=6):
    return st.recursive(
        st.just(LEAF),
        lambda sub: st.lists(sub, max_size=3).map(lambda cs: Node(tuple(cs))),
        max_leaves=max_leaves,
    )


# --- construction and codec ----------------------------------------------

def test_corolla_shapes():
    assert corolla(0) == Node(())
    assert corolla(2) == Node((LEAF, LEAF))
    assert str(corolla(0)) == "()"
    assert str(corolla(1)) == "(|)"
    assert str(corolla(2)) == "(| |)"
    with pytest.raises(ValueError):
        corolla(-1)


def test_parse_examples():
    assert parse_tree("|") == LEAF
    assert parse_tree("((|) |)") == node(node(LEAF), LEAF)
    assert parse_tree("()") == corolla(0)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("((|)", 4),
        ("(| x)", 3),
        ("|)", 1),
        ("", 0),
        (")", 0),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_tree(text)
    assert exc.value.offset == offset


def test_nesting_limit():
    # 200 nested brackets parse; the 201st is an error at its own offset
    deep = parse_tree("(" * 200 + ")" * 200)
    assert str(deep) == "(" * 200 + ")" * 200
    with pytest.raises(ParseError) as exc:
        parse_tree("(" * 201 + ")" * 201)
    assert exc.value.offset == 200
    assert exc.value.reason == "brackets nested deeper than 200"
    with pytest.raises(ParseError) as exc:
        parse_tree("(" * 1500)
    assert exc.value.offset == 200


@given(trees_strategy())
def test_codec_round_trip(t):
    assert parse_tree(str(t)) == t


def test_counts():
    t = parse_tree("((|) |)")
    assert vertices(t) == 2
    assert leaves(t) == 2
    assert vertices(LEAF) == 0
    assert leaves(LEAF) == 1
    assert leaves(corolla(0)) == 0


# --- graft ----------------------------------------------------------------
# Grafting planar trees is circle_graft on terms without circles.

def test_graft_hand_values():
    assert graft(corolla(2), [corolla(1), LEAF]) == parse_tree("((|) |)")
    assert graft(LEAF, [parse_tree("(| |)")]) == parse_tree("(| |)")
    assert graft(corolla(0), []) == corolla(0)


def test_graft_arity_error():
    with pytest.raises(ValueError, match="term has 2 open leaves, got 1"):
        graft(corolla(2), [LEAF])


@given(trees_strategy(max_leaves=4), st.data())
def test_graft_two_stage_equals_one_stage(s, data):
    rs = [data.draw(trees_strategy(max_leaves=3)) for _ in range(leaves(s))]
    qss = [
        [data.draw(trees_strategy(max_leaves=2)) for _ in range(leaves(r))]
        for r in rs
    ]
    flat = [q for qs in qss for q in qs]
    lhs = graft(graft(s, rs), flat)
    rhs = graft(s, [graft(r, qs) for r, qs in zip(rs, qss)])
    assert lhs == rhs


@given(trees_strategy(max_leaves=5))
def test_graft_with_leaves_is_identity(t):
    assert graft(t, [LEAF] * leaves(t)) == t


# --- enumeration ----------------------------------------------------------

def test_enumerate_frozen_small():
    assert enumerate_trees(0, 1) == (LEAF,)
    assert enumerate_trees(1, 2) == (
        LEAF,
        corolla(0),
        corolla(1),
        corolla(2),
    )


def test_enumerate_two_vertices_one_leaf_hand_list():
    expected = {
        "|",
        "()",
        "(|)",
        "(())",
        "(() |)",
        "((|))",
        "(| ())",
    }
    got = enumerate_trees(2, 1)
    assert {str(t) for t in got} == expected
    assert parse_tree("((|))") in got
    assert parse_tree("(())") in got


def test_enumerate_is_sorted_bounded_duplicate_free():
    for mv, ml in [(2, 2), (3, 2), (3, 3), (2, 0)]:
        ts = enumerate_trees(mv, ml)
        assert len(set(ts)) == len(ts)
        keys = [tree_sort_key(t) for t in ts]
        assert keys == sorted(keys)
        for t in ts:
            assert vertices(t) <= mv
            assert leaves(t) <= ml


def test_enumerate_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="^max_vertices must be nonnegative, got -1$"):
        enumerate_trees(-1, 2)
    with pytest.raises(ValueError, match="^max_leaves must be nonnegative, got -2$"):
        enumerate_trees(2, -2)
    assert enumerate_trees(0, 0) == ()


def test_enumerate_matches_filter_of_larger_bounds():
    big = enumerate_trees(4, 4)
    small = enumerate_trees(3, 2)
    filtered = tuple(t for t in big if vertices(t) <= 3 and leaves(t) <= 2)
    assert filtered == small
