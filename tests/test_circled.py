"""Tests for circled trees: codec, validity, surgery, enumeration."""

import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleops.circled import (
    BLACK,
    CONTENT,
    Circ,
    White,
    _gen,
    _map_whites,
    circle_addresses,
    enumerate_configs,
    open_leaves,
    parse_config,
    random_config,
    relabel_whites,
    replace_at,
    resolve,
    splice,
    underlying,
    validate_config,
    white_addresses,
    white_profile,
)
from circleops.operad_h import HOperation, complexity
from circleops.trees import (
    LEAF,
    Node,
    ParseError,
    corolla,
    enumerate_trees,
    node,
    parse_tree,
)


def cw(label, content, *grafts):
    return Circ(White(label), content, tuple(grafts))


def cb(content, *grafts):
    return Circ(BLACK, content, tuple(grafts))


# --- independent enumeration oracle: closure under single-circle insertion ---

def all_addresses(term):
    yield ()
    if isinstance(term, Node):
        for i, x in enumerate(term.children):
            for rest in all_addresses(x):
                yield (("child", i),) + rest
    elif isinstance(term, Circ):
        for rest in all_addresses(term.content):
            yield (CONTENT,) + rest
        for i, g in enumerate(term.grafts):
            for rest in all_addresses(g):
                yield (("graft", i),) + rest


def region_splits(u):
    # all (bottom, tops) with circle_graft(bottom, tops) == u; a region that
    # touches a circle swallows it whole, so never descend into a content
    out = [(LEAF, (u,))]
    parts = None
    if isinstance(u, Node):
        parts = u.children
    elif isinstance(u, Circ):
        parts = u.grafts
    if parts is not None:
        for combo in itertools.product(*[region_splits(p) for p in parts]):
            bottoms = tuple(b for b, _ in combo)
            tops = tuple(itertools.chain.from_iterable(t for _, t in combo))
            if isinstance(u, Node):
                out.append((Node(bottoms), tops))
            else:
                out.append((Circ(u.kind, u.content, bottoms), tops))
    return out


def insert_everywhere(term, kind):
    for addr in all_addresses(term):
        for bottom, tops in region_splits(resolve(term, addr)):
            yield replace_at(term, addr, Circ(kind, bottom, tops))


def oracle_enumerate(t, k, max_blacks):
    """All valid k-white configurations with at most max_blacks black circles.

    Works by brute-force closure under inserting one circle at a time, with
    no grammar recursion and no pruning, so it exercises a different path
    than enumerate_configs.  Any valid term stays valid while blacks are
    removed one at a time, so restricting the frontier to valid terms after
    each black insertion loses nothing.
    """
    layer = {t}
    for label in range(1, k + 1):
        layer = {new for term in layer
                 for new in insert_everywhere(term, White(label))}
    labelled = set()
    for term in layer:
        for perm in itertools.permutations(range(1, k + 1)):
            labelled.add(relabel_whites(term, dict(zip(range(1, k + 1), perm))))
    out = {c for c in labelled if validate_config(c).ok}
    frontier = out
    for _ in range(max_blacks):
        frontier = {new for term in frontier
                    for new in insert_everywhere(term, BLACK)
                    if validate_config(new).ok}
        out |= frontier
    return out


# --- fixtures ------------------------------------------------------------------

def five_circle_demo():
    """Five nested/disjoint whites on a nine-vertex tree, built by hand."""
    small = cw(3, corolla(3), node(LEAF, LEAF), LEAF, LEAF)
    mid = cw(2, small, LEAF, LEAF, LEAF, LEAF)
    inner_left = cw(5, node(LEAF, node(LEAF, LEAF)), node(LEAF), LEAF, LEAF)
    big_left = cw(4, inner_left, LEAF, LEAF, LEAF)
    return cw(1, Node((LEAF, mid)), big_left, LEAF, LEAF, LEAF, LEAF)


CONCENTRIC = "{w2 {w1 | / |} / |}"
STACKED = "{w1 | / {w2 | / |}}"


# --- codec ---------------------------------------------------------------------

def test_str_examples():
    assert str(cw(1, LEAF, LEAF)) == "{w1 | / |}"
    assert str(cw(2, cw(1, LEAF, LEAF), LEAF)) == CONCENTRIC
    assert str(cw(1, LEAF, cw(2, LEAF, LEAF))) == STACKED
    assert str(cb(corolla(0))) == "{b () /}"
    assert str(Node((cw(1, LEAF, LEAF), LEAF))) == "({w1 | / |} |)"


def test_parse_examples():
    assert parse_config("{w1 | / |}") == cw(1, LEAF, LEAF)
    assert parse_config(CONCENTRIC) == cw(2, cw(1, LEAF, LEAF), LEAF)
    assert parse_config(STACKED) == cw(1, LEAF, cw(2, LEAF, LEAF))
    assert parse_config("{b () /}") == cb(corolla(0))
    assert parse_config("(| |)") == node(LEAF, LEAF)
    # whitespace is insignificant between tokens
    assert parse_config("{ w12   {b (|)/|}/ | }") == cw(12, cb(node(LEAF), LEAF), LEAF)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("{w1 (| |) / |}", 0),  # content has two open leaves, one graft
        ("{w | / |}", 2),
        ("{x | / |}", 1),
        ("{w1 | |}", 6),
        ("{b | / |", 8),
        ("{w1 | / |} x", 11),
        ("", 0),
        ("}", 0),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text", ["{w² | / |}", "{w١ | / |}"])
def test_white_labels_are_ascii_digits(text):
    # str.isdigit takes "²", which int() then rejects, and int() reads "١"
    # as 1, so "{w١ | / |}" would print as "{w1 | / |}"
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert (exc.value.offset, exc.value.reason) == (
        2, "white circle label must be an integer")


@pytest.mark.parametrize(
    "text", ["{w01 | / |}", "{w00 | / |}", "({w1 | / |} {w2 | / |} {w007 | / |})"])
def test_white_labels_have_no_leading_zero(text):
    # "{w01 | / |}" would print back as "{w1 | / |}"
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert (exc.value.offset, exc.value.reason) == (
        text.rindex("w") + 1, "white circle label has a leading zero")


@pytest.mark.parametrize("text", ["{w0 | / |}", "{w10 | / |}", "{w1 {w0 | / |} / |}"])
def test_white_labels_zero_and_trailing_zeros_parse(text):
    assert str(parse_config(text)) == text


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="int() converts digit strings of any length here")
def test_white_label_longer_than_int_reads_is_a_parse_error():
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(ParseError) as exc:
        parse_config("{w" + "1" * digits + " | / |}")
    assert (exc.value.offset, exc.value.reason) == (
        2, "white circle label is too long")


def test_nested_black_chain_validates_in_linear_time():
    # each black circle encloses the next over one bare edge, so every one
    # is flagged black-around-small; naming its contracted content must not
    # walk that content again
    n = 40
    c = parse_config("{w1 " + "{b " * n + "|" + " / |}" * n + " / |}")
    start = time.perf_counter()
    codes = [code for _, code, _ in validate_config(c).violations]
    assert time.perf_counter() - start < 1.0
    assert codes == ["black-around-small"] + [
        "black-around-small", "black-in-black"] * (n - 1)


def test_nesting_limit_counts_both_brackets():
    # 100 circles around 100 vertices are 200 brackets deep
    def nest(circles, vertices):
        inner = "(" * vertices + "|" + ")" * vertices
        return "{w1 " * circles + inner + " / |}" * circles

    at_limit = nest(100, 100)
    assert str(parse_config(at_limit)) == at_limit
    over = nest(100, 101)
    with pytest.raises(ParseError) as exc:
        parse_config(over)
    assert exc.value.offset == over.index("(") + 100
    assert exc.value.reason == "brackets nested deeper than 200"


def test_circ_rejects_wrong_graft_arity():
    with pytest.raises(ValueError):
        Circ(White(1), node(LEAF, LEAF), (LEAF,))


@st.composite
def circled_terms(draw, depth=3):
    kinds = st.one_of(st.builds(White, st.integers(1, 9)), st.just(BLACK))
    choice = draw(st.integers(0, 2 if depth > 0 else 1))
    if choice == 0:
        return LEAF
    if choice == 1 and depth > 0:
        n = draw(st.integers(0, 3))
        return Node(tuple(draw(circled_terms(depth=depth - 1)) for _ in range(n)))
    if choice == 1:
        return Node(())
    content = draw(circled_terms(depth=depth - 1))
    if open_leaves(content) > 4:
        content = LEAF
    grafts = tuple(draw(circled_terms(depth=depth - 1))
                   for _ in range(open_leaves(content)))
    return Circ(draw(kinds), content, grafts)


@settings(max_examples=200)
@given(circled_terms())
def test_codec_round_trip(c):
    assert parse_config(str(c)) == c


# --- underlying / contracted / profiles ----------------------------------------

def test_underlying_and_open_leaves():
    assert underlying(parse_config(CONCENTRIC)) == LEAF
    assert underlying(parse_config(STACKED)) == LEAF
    c = cw(1, node(LEAF, LEAF), node(LEAF), LEAF)
    assert underlying(c) == parse_tree("((|) |)")
    assert open_leaves(c) == 2
    assert open_leaves(parse_config(CONCENTRIC)) == 1


def test_profiles_of_basic_pairs():
    assert white_profile(parse_config(CONCENTRIC)) == ((LEAF, node(LEAF)), LEAF)
    assert white_profile(parse_config(STACKED)) == ((LEAF, LEAF), LEAF)


def test_five_circle_demo_profile():
    c = five_circle_demo()
    assert validate_config(c).ok
    insides, out = white_profile(c)
    assert out == parse_tree("(((|) (| |)) ((| |) | |))")
    assert insides == (
        parse_tree("(| (| | | |))"),
        parse_tree("((| |) | |)"),
        parse_tree("(| | |)"),
        parse_tree("((|) | |)"),
        parse_tree("(| (| |))"),
    )
    assert parse_config(str(c)) == c


def test_profile_errors_in_preorder():
    # The first repeated label in preorder is reported, before the labels
    # are checked against 1..k.
    for text, message in [
        ("({w2 {w2 | / |} / |} {w1 {w1 | / |} / |})", "duplicate white label 2"),
        ("({w3 | / |} {w1 | / {w3 | / |}})", "duplicate white label 3"),
        ("{w3 {w1 | / |} / |}", r"white labels \[1, 3\] are not 1..2"),
    ]:
        with pytest.raises(ValueError, match=message):
            white_profile(parse_config(text))


# --- validity ------------------------------------------------------------------

def codes(c):
    return tuple(code for _, code, _ in validate_config(c).violations)


def test_valid_black_needs_two_vertices_inside():
    ok = cw(1, cb(parse_tree("((|))"), LEAF), LEAF)
    assert validate_config(ok).ok
    assert codes(cw(1, cb(LEAF, LEAF), LEAF)) == ("black-around-small",)
    assert codes(cw(1, cb(corolla(2), LEAF, LEAF), LEAF, LEAF)) == (
        "black-around-small",
    )
    # contraction counts an inner circle as one vertex
    small = cw(1, cb(cw(2, parse_tree("((|))"), LEAF), LEAF), LEAF)
    assert codes(small) == ("black-around-small",)


def test_black_directly_inside_black():
    inner = cb(parse_tree("((|))"), LEAF)
    outer = cb(Node((inner, LEAF)), LEAF, LEAF)
    c = cw(1, outer, LEAF, LEAF)
    assert codes(c) == ("black-in-black",)
    addr = validate_config(c).violations[0][0]
    assert resolve(c, addr) == inner
    # a white circle in between clears the violation
    buffered = cw(1, cb(Node((cw(2, inner, LEAF), LEAF)), LEAF, LEAF), LEAF, LEAF)
    assert validate_config(buffered).ok


def test_black_must_sit_inside_a_white():
    assert codes(cb(parse_tree("((|))"), LEAF)) == ("black-outside-white",)
    # a graft of a white circle is outside it
    c = cw(1, LEAF, cb(parse_tree("((|))"), LEAF))
    assert codes(c) == ("black-outside-white",)


def test_white_label_rules():
    assert codes(parse_config("{w2 | / |}")) == ("white-labels-not-contiguous",)
    assert codes(parse_config("{w0 | / |}")) == ("white-label-nonpositive",)
    assert codes(parse_config("({w1 | / |} {w1 | / |})")) == ("duplicate-white-label",)


# --- pairwise relations of white circles ---------------------------------------

def rel_by_label(c):
    """Pairwise relations of the white circles, as the complexity graph."""
    return complexity(HOperation(c))


def test_every_white_pair_is_classified():
    for t, k in [(LEAF, 2), (LEAF, 3), (node(LEAF, LEAF), 2)]:
        for c in enumerate_configs(t, k):
            rel = rel_by_label(c)
            assert rel.k == k and len(rel.labels) == k * (k - 1) // 2


# --- surgery -------------------------------------------------------------------

def test_splice_basic():
    conc = parse_config(CONCENTRIC)
    assert splice(conc, ()) == parse_config("{w1 | / |}")
    assert splice(conc, (CONTENT,)) == parse_config("{w2 | / |}")
    stack = parse_config(STACKED)
    assert splice(stack, ()) == parse_config("{w2 | / |}")
    assert splice(stack, (("graft", 0),)) == parse_config("{w1 | / |}")


def test_splice_preserves_underlying():
    c = five_circle_demo()
    for addr in circle_addresses(c):
        assert underlying(splice(c, addr)) == underlying(c)


def test_splice_black_keeps_white_relations():
    corpus = list(enumerate_configs(LEAF, 3)) + list(
        enumerate_configs(parse_tree("((|))"), 2)
    )
    seen_black = 0
    for c in corpus:
        whites = set(white_addresses(c).values())
        before = rel_by_label(c)
        for addr in circle_addresses(c):
            if addr in whites:
                continue
            seen_black += 1
            spliced = splice(c, addr)
            assert validate_config(spliced).ok
            assert rel_by_label(spliced) == before
    assert seen_black > 0


def test_relabel_is_a_group_action():
    c = five_circle_demo()
    sigma = {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}
    tau = {1: 2, 2: 1, 3: 4, 4: 5, 5: 3}
    composed = {l: tau[sigma[l]] for l in sigma}
    assert relabel_whites(relabel_whites(c, sigma), tau) == relabel_whites(c, composed)
    ident = {l: l for l in range(1, 6)}
    assert relabel_whites(c, ident) == c


def test_relabel_rejects_bad_mappings():
    c = parse_config(CONCENTRIC)
    with pytest.raises(ValueError):
        relabel_whites(c, {1: 2})
    with pytest.raises(ValueError):
        relabel_whites(c, {1: 1, 2: 1})


def test_resolve_replace_round_trip():
    c = five_circle_demo()
    for addr in circle_addresses(c):
        assert replace_at(c, addr, resolve(c, addr)) == c


# --- enumeration ----------------------------------------------------------------

def test_two_whites_on_a_free_edge():
    got = enumerate_configs(LEAF, 2)
    assert tuple(str(c) for c in got) == (
        "{w1 {w2 | / |} / |}",
        "{w1 | / {w2 | / |}}",
        "{w2 {w1 | / |} / |}",
        "{w2 | / {w1 | / |}}",
    )


def test_enumerate_counts():
    assert len(enumerate_configs(LEAF, 1)) == 1
    assert len(enumerate_configs(parse_tree("(|)"), 1)) == 3
    assert len(enumerate_configs(parse_tree("(| |)"), 1)) == 4
    linear = enumerate_configs(parse_tree("((|))"), 1)
    # six circle-on-a-segment placements plus one with a black circle inside
    assert len(linear) == 7
    assert parse_config("{w1 {b ((|)) / |} / |}") in linear
    assert sum(len(circle_addresses(c)) == 1 for c in linear) == 6


def test_enumerate_matches_insertion_oracle():
    cases = [
        (LEAF, 0, 0),
        (LEAF, 1, 1),
        (LEAF, 2, 2),
        (parse_tree("(|)"), 1, 2),
        (parse_tree("(| |)"), 1, 1),
        (parse_tree("((|))"), 1, 2),
        (parse_tree("((|))"), 2, 1),
    ]
    for t, k, max_blacks in cases:
        want = oracle_enumerate(t, k, max_blacks)
        got = {
            c
            for c in enumerate_configs(t, k)
            if len(circle_addresses(c)) - k <= max_blacks
        }
        assert got == want, (str(t), k, max_blacks)


def test_no_valid_term_exceeds_circle_budget():
    # brute force past the budget: nothing new shows up
    assert oracle_enumerate(LEAF, 2, 3) == oracle_enumerate(LEAF, 2, 2)


def test_enumerate_is_sorted_valid_and_deterministic():
    for t, k in [(LEAF, 2), (parse_tree("(|)"), 2), (parse_tree("((|) |)"), 2)]:
        got = enumerate_configs(t, k)
        assert got == enumerate_configs(t, k)
        assert [str(c) for c in got] == sorted(str(c) for c in got)
        assert len(set(got)) == len(got)
        for c in got:
            report = validate_config(c)
            assert report.ok and report.whites == k
            assert underlying(c) == t


def relabelled_enumeration(t, k):
    """enumerate_configs built term by term: each shape of _gen with k whites,
    labelled 1..k in preorder, kept when valid, relabelled through
    relabel_whites by every permutation, then all sorted by text."""
    out = []
    for shape, whites in _gen(t, False, False, k):
        if whites != k:
            continue
        first = _map_whites(shape, lambda _, n=itertools.count(1): next(n))
        if not validate_config(first).ok:
            continue
        for perm in itertools.permutations(range(1, k + 1)):
            out.append(relabel_whites(first, dict(zip(range(1, k + 1), perm))))
    out.sort(key=str)
    return tuple(out)


@pytest.mark.parametrize("t, k", [
    *((t, k) for t in enumerate_trees(2, 2) for k in range(4)),
    *((parse_tree(t), 3) for t in ("|", "(|)", "(| |)", "((|))", "((|) |)")),
])
def test_enumerate_matches_relabelled_shapes(t, k):
    assert enumerate_configs(t, k) == relabelled_enumeration(t, k)


def test_enumerate_rejects_negative_k():
    with pytest.raises(ValueError):
        enumerate_configs(LEAF, -1)


def test_random_config_is_valid_and_seeded():
    rng = random.Random(7)
    trees = [LEAF, parse_tree("(|)"), parse_tree("((|) |)"), parse_tree("(| | |)")]
    for i in range(100):
        t = trees[i % len(trees)]
        k = 1 + i % 3
        c = random_config(random.Random(i), t, k)
        report = validate_config(c)
        assert report.ok and report.whites == k
        assert underlying(c) == t
        assert parse_config(str(c)) == c
    a = random_config(random.Random(42), trees[2], 3)
    b = random_config(random.Random(42), trees[2], 3)
    assert a == b
    assert rng  # rng unused beyond seeding examples
