"""The coloured operad of circled-tree operations.

An operation from trees T_1, ..., T_k to a tree T is a valid configuration
of k white circles (plus black helper circles) on T whose j-th white circle
has T_j inside it.  Composition substitutes an operation on T_j into the
j-th white circle: the substituted term is superimposed onto the circle's
content, the circle turns black, and the result is reduced by splicing away
black circles that enclose fewer than two vertices, sit directly inside
another black circle, or sit outside every white circle.

The complexity of an operation records, for every pair of white circles,
how they sit relative to each other and which of the two dominates, as an
edge-labelled complete graph.  It is read off one walk of the underlying
tree.  A pair is nested (2) when one circle holds the other, and the outer
one dominates; stacked (1) when both are entered on one edge or one
entering edge lies above the other's, and the lower one dominates; side by
side (0) otherwise, and the circle on the earlier edge in preorder, the
left one, dominates.  Composition never increases complexity beyond the
composite of the complexities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import is_

from .circled import (
    BLACK,
    Circ,
    White,
    below_two_vertices,
    circle_graft,
    enumerate_configs,
    relabel_whites,
    validate_config,
    validated_profile,
)
from .kgraph import KElt, block_perm, vertex_pairs
from .trees import LEAF, Leaf, Node
from .trees import leaves as tree_leaves


@dataclass(frozen=True)
class HOperation:
    """A valid circled-tree configuration regarded as an operadic operation."""

    term: object
    profile: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        report, profile = validated_profile(self.term)
        if not report.ok:
            addr, code, msg = report.violations[0]
            raise ValueError(f"invalid operation term ({code} at {addr}): {msg}")
        # A circle-free term is not an operation: substituting it would
        # dissolve the target white circle together with a vertex that other
        # white circles may rely on, so profiles could not be preserved.
        if report.whites == 0:
            raise ValueError("an operation needs at least one white circle")
        object.__setattr__(self, "profile", profile)

    @property
    def sources(self):
        return self.profile[0]

    @property
    def target(self):
        return self.profile[1]

    @property
    def k(self) -> int:
        return len(self.sources)

    def __str__(self) -> str:
        return str(self.term)


def identity_op(t) -> HOperation:
    """The identity on t: one white circle drawn around all of t."""
    return HOperation(Circ(White(1), t, (LEAF,) * tree_leaves(t)))


def operations(t, k: int):
    """All operations with k white circles on t."""
    return tuple(HOperation(c) for c in enumerate_configs(t, k))


# --- composition ------------------------------------------------------------------

def superimpose(beta, t):
    """Transfer the circles of beta onto the finer term t.

    beta's underlying tree must equal the contraction of t, so each vertex
    of beta's tree names either a vertex or a whole circle of t; the circles
    of beta come out drawn around the matching regions of t.
    """
    return _superimpose(beta, t, None, 0)


def _superimpose(beta, t, tops, offset):
    # Inside a circle of beta, tops collects the parts of t above the
    # circle's exit leaves; circles of t are never cut.  beta's white
    # circles come out with their labels raised by offset.  A part that
    # comes out equal to t's is t's own object.
    if isinstance(beta, Leaf):
        if tops is not None:
            tops.append(t)
            return LEAF
        if not isinstance(t, Leaf):
            raise ValueError(f"cannot superimpose a bare edge onto {t}")
        return t
    if isinstance(beta, Node):
        old = (None if isinstance(t, Leaf)
               else t.children if isinstance(t, Node) else t.grafts)
        if old is None or len(old) != len(beta.children):
            raise ValueError(f"cannot superimpose {beta} onto {t}")
        parts = []
        for b, x in zip(beta.children, old):
            parts.append(_superimpose(b, x, tops, offset))
        if all(map(is_, parts, old)):
            return t
        if isinstance(t, Node):
            return Node(tuple(parts))
        return Circ(t.kind, t.content, tuple(parts))
    inner = []
    content = _superimpose(beta.content, t, inner, offset)
    kind = beta.kind
    if offset and isinstance(kind, White):
        kind = White(kind.label + offset)
    parts = []
    for g, top in zip(beta.grafts, inner):
        parts.append(_superimpose(g, top, tops, offset))
    return Circ(kind, content, tuple(parts))


def reduction_violations(term, r3: bool = True):
    """Black circles that must be spliced away, in term preorder.

    Returns (address, code) pairs; code is one of black-around-small,
    black-in-black and black-outside-white.  The last rule is optional so
    its effect on the unit laws can be observed.
    """
    keep = {"black-around-small", "black-in-black"}
    if r3:
        keep.add("black-outside-white")
    return tuple((addr, code)
                 for addr, code, _ in validate_config(term).violations
                 if code in keep)


def reduce_term(term, r3: bool = True):
    """Splice away every removable black circle, in one bottom-up pass.

    A circle's grafts and content are reduced before the circle itself; a
    black circle's content is reduced as lying directly inside a black
    circle, so only white circles are left at its top level.  The black
    circle is then spliced when it sits directly inside a black circle,
    outside every white circle (a rule that r3 switches), or around fewer
    than two vertices of its reduced content.  Each of these splices removes
    a circle that violates a rule at that moment, and the result violates
    none, so the pass is one splice order of the iterative reduction; that
    reduction is confluent, so the result is its unique normal form.

    This is one walk of the term.  A subterm in which nothing is spliced
    comes back as the same object, so a term with nothing to splice is
    returned itself.
    """
    return _reduce(term, r3, False, False)


def _reduce(c, r3, in_white, black_parent):
    # in_white: some enclosing circle is white; black_parent: the nearest
    # enclosing circle is black.  Grafts sit beside their circle, not in it.
    if isinstance(c, Leaf):
        return c
    node = isinstance(c, Node)
    old = c.children if node else c.grafts
    parts = []
    for x in old:
        parts.append(x if isinstance(x, Leaf)
                     else _reduce(x, r3, in_white, black_parent))
    same = all(map(is_, parts, old))
    if node:
        return c if same else Node(tuple(parts))
    if isinstance(c.kind, White):
        content = _reduce(c.content, r3, True, False)
    else:
        content = _reduce(c.content, r3, in_white, True)
        if (black_parent or (r3 and not in_white)
                or below_two_vertices(content)):
            return circle_graft(content, parts)
    if same and content is c.content:
        return c
    return Circ(c.kind, content, tuple(parts))


def substitute_whites(o: HOperation, args):
    """Blacken each white circle of o around the matching argument operation.

    The j-th argument's term is superimposed onto the content of white
    circle j, its white labels shifted past those of the earlier arguments
    as the circles are drawn.  The result is an unreduced term.  It is
    rebuilt bottom-up, so a white circle's content has its own white circles
    substituted before the argument is superimposed onto it; superimpose
    treats each circle of the content as one vertex, and substitution keeps
    a circle's grafts, so this is the same term as substituting the deepest
    circles first.

    This is one walk of o's term, plus one of each argument's term inside
    superimpose; a subterm of o without white circles is kept as it is.
    """
    args = tuple(args)
    if len(args) != o.k:
        raise ValueError(
            f"operation with {o.k} white circles composed"
            f" with {len(args)} arguments"
        )
    offsets = []
    offset = 0
    for j, (a, inside) in enumerate(zip(args, o.sources), start=1):
        if a.target != inside:
            raise ValueError(f"argument {j} lives on {a.target}, expected {inside}")
        offsets.append(offset)
        offset += a.k
    return _substitute(o.term, args, offsets)


def _substitute(c, args, offsets):
    # White circle l becomes a black circle around args[l - 1], its labels
    # raised by offsets[l - 1], superimposed onto its (already substituted)
    # content.
    if isinstance(c, Leaf):
        return c
    node = isinstance(c, Node)
    old = c.children if node else c.grafts
    parts = []
    for x in old:
        parts.append(x if isinstance(x, Leaf) else _substitute(x, args, offsets))
    same = all(map(is_, parts, old))
    if node:
        return c if same else Node(tuple(parts))
    content = _substitute(c.content, args, offsets)
    if isinstance(c.kind, White):
        j = c.kind.label - 1
        return Circ(BLACK, _superimpose(args[j].term, content, None, offsets[j]),
                    tuple(parts))
    if same and content is c.content:
        return c
    return Circ(c.kind, content, tuple(parts))


def compose_terms(o: HOperation, args, r3: bool = True):
    """The reduced term of o with the argument operations substituted."""
    return reduce_term(substitute_whites(o, args), r3=r3)


def compose(o: HOperation, args, r3: bool = True) -> HOperation:
    """Operadic composition; sources concatenate and the target is kept.

    Three walks build and check the composite: substitution (superimposing
    each argument as it goes), reduction, and the one walk in which the new
    HOperation validates its term and reads its profile.  The profile is
    then compared with the sources and target the composite must have.
    """
    args = tuple(args)
    result = HOperation(compose_terms(o, args, r3))
    _require_profile(result, o, args)
    return result


def _require_profile(found: HOperation, outer: HOperation, args):
    """Raise unless found, the operation built for the composite of outer
    with args, has the sources of args in order and the target of outer."""
    expected = tuple(chain.from_iterable(a.sources for a in args))
    if found.sources != expected or found.target != outer.target:
        raise RuntimeError("composition changed the operation profile")


def sigma_act(sigma, o: HOperation) -> HOperation:
    """Rename white circle i to sigma(i); sigma is a permutation of 1..k."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, o.k + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{o.k}")
    return HOperation(relabel_whites(
        o.term, {i: sigma[i - 1] for i in range(1, o.k + 1)}))


# --- the operad laws ----------------------------------------------------------------

def unit_sides(o: HOperation, r3: bool = True):
    """o with identities in its white circles, and o in its target's identity,
    as terms: both are o.term exactly when the unit laws hold."""
    return (
        compose_terms(o, tuple(identity_op(s) for s in o.sources), r3=r3),
        compose_terms(identity_op(o.target), (o,), r3=r3),
    )


def associativity_sides(o: HOperation, ps, qss, r3: bool = True):
    """(o . ps) . flattened qss, and o . (p . qs for each p in ps)."""
    return (
        compose(compose(o, ps, r3=r3), tuple(chain.from_iterable(qss)), r3=r3),
        compose(o, tuple(compose(p, qs, r3=r3) for p, qs in zip(ps, qss)), r3=r3),
    )


def equivariance_sides(sigma, o: HOperation, gathered, r3: bool = True):
    """(sigma . o) fed the arguments in sigma's order, and o . gathered acted
    on by the permutation that moves gathered's blocks of sources by sigma."""
    permuted = tuple(gathered[sigma.index(v)] for v in range(1, o.k + 1))
    return (
        compose(sigma_act(sigma, o), permuted, r3=r3),
        sigma_act(block_perm(sigma, tuple(b.k for b in gathered)),
                  compose(o, gathered, r3=r3)),
    )


# --- complexity --------------------------------------------------------------------

def complexity(o: HOperation) -> KElt:
    """The labelled complete graph of pairwise white-circle positions.

    A pair is nested (label 2) when one circle holds the other; the outer
    one dominates.  Otherwise it is stacked (label 1) when both circles are
    entered on one edge of the underlying tree, or when one entering edge
    lies above the other's; the lower one dominates.  Otherwise the pair is
    side by side (label 0), and the circle on the earlier edge in preorder
    is on the left and dominates.  Dominance is always transitive on a
    valid configuration and orders the vertices.
    """
    sites, ends = _white_sites(o.term)
    k = len(sites)
    labels = []
    wins = dict.fromkeys(range(1, k + 1), 0)
    for i, j in vertex_pairs(k):
        # The walk reaches the outer, lower or left circle of a pair first,
        # so i's edge is at most j's; the edges above edge e are numbered
        # from e + 1 up to ends[e] - 1.
        if sites[j][1] < sites[i][1]:
            i, j = j, i
        edge_j, _, around_j = sites[j]
        stacked = edge_j < ends[sites[i][0]]
        labels.append(2 if i in around_j else 1 if stacked else 0)
        wins[i] += 1
    if sorted(wins.values()) != list(range(k)):
        raise ValueError("dominance between white circles is not transitive")
    perm = tuple(k - wins[i] for i in range(1, k + 1))
    return KElt(k, tuple(labels), perm)


def _white_sites(term):
    """Where the white circles of term sit on its underlying tree.

    The edges of the underlying tree are numbered in preorder, the root edge
    0.  Returns (sites, ends): sites maps each white label to (edge, visit,
    around), the edge the circle is entered on, its place in the walk (which
    orders the circles along an edge from the bottom up) and the labels of
    the white circles around it; ends[e] is the first edge number past the
    part of the tree above edge e.  An exit leaf of a circle's content
    continues into the matching graft on the same edge, so the walk recurses
    only at the vertices of the underlying tree.
    """
    sites = {}
    ends = [0]

    def walk(c, edge, around, exits):
        # exits: (remaining grafts, around, exits) of the innermost circle
        # whose content c lies in, or None outside every circle.
        while True:
            if isinstance(c, Node):
                for x in c.children:
                    n = len(ends)
                    ends.append(n)
                    walk(x, n, around, exits)
                    ends[n] = len(ends)
                return
            if isinstance(c, Circ):
                exits = (iter(c.grafts), around, exits)
                if isinstance(c.kind, White):
                    sites[c.kind.label] = (edge, len(sites), around)
                    around = around | {c.kind.label}
                c = c.content
            elif exits is None:
                return
            else:
                grafts, around, exits = exits
                c = next(grafts)

    try:
        walk(term, 0, frozenset(), None)
    finally:
        del walk  # it refers to itself: left alone, each call leaves a cycle
    ends[0] = len(ends)
    return sites, ends
