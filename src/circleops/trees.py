"""Planar rooted trees with ordered children.

A tree is either the free-living edge (no vertex at all) or a vertex carrying
an ordered, possibly empty tuple of child trees.  Terms are immutable and
compared structurally, so equality coincides with planar isomorphism.

Text form: ``tree ::= "|" | "(" tree* ")"`` with single spaces between the
children of a vertex.  ``corolla(2)`` prints as ``(| |)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class ParseError(ValueError):
    """Raised on malformed text input; carries the byte offset of the fault."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.reason = message


@dataclass(frozen=True)
class Leaf:
    """The free-living edge; it has one leaf and no vertices."""

    def __str__(self) -> str:
        return "|"


@dataclass(frozen=True)
class Node:
    """A vertex with an ordered tuple of child trees (possibly empty)."""

    children: tuple

    def __str__(self) -> str:
        return "(" + " ".join(str(c) for c in self.children) + ")"


LEAF = Leaf()


def node(*children) -> Node:
    return Node(tuple(children))


def corolla(n: int) -> Node:
    """The tree with one vertex and n leaves."""
    if n < 0:
        raise ValueError("corolla arity must be nonnegative")
    return Node((LEAF,) * n)


def leaves(t) -> int:
    if isinstance(t, Leaf):
        return 1
    return sum(leaves(c) for c in t.children)


def vertices(t) -> int:
    if isinstance(t, Leaf):
        return 0
    return 1 + sum(vertices(c) for c in t.children)


_MAX_NESTING = 200


def parse_tree(text: str):
    """Parse the text form of a planar tree; errors carry byte offsets.

    Brackets may nest at most 200 deep; a deeper bracket is a ParseError at
    its offset.
    """
    return _parse(text, "tree", None)


def _skip_spaces(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] == " ":
        pos += 1
    return pos


def _parse(text: str, noun: str, brace):
    """The recursive-descent parser shared with ``circled.parse_config``.

    noun names the whole input in error messages; brace, if given, parses
    the items that start with "{" (see ``_parse_item``), so without it the
    parser reads planar trees only.
    """
    t, pos = _parse_item(text, _skip_spaces(text, 0), 0, noun, brace)
    pos = _skip_spaces(text, pos)
    if pos != len(text):
        raise ParseError(pos, f"trailing input after {noun}")
    return t


def _parse_item(text: str, pos: int, depth: int, noun: str, brace):
    """Parse one item that sits inside depth brackets.

    An item starting with "{" is parsed by brace(text, pos, depth + 1, noun).
    """
    if pos >= len(text):
        raise ParseError(pos, f"unexpected end of input, expected a {noun}")
    ch = text[pos]
    if ch == "|":
        return LEAF, pos + 1
    if ch != "(" and (ch != "{" or brace is None):
        raise ParseError(pos, f"unexpected character {ch!r}")
    if depth == _MAX_NESTING:
        raise ParseError(pos, f"brackets nested deeper than {_MAX_NESTING}")
    if ch == "{":
        return brace(text, pos, depth + 1, noun)
    pos += 1
    children = []
    while True:
        pos = _skip_spaces(text, pos)
        if pos >= len(text):
            raise ParseError(pos, "unclosed '('")
        if text[pos] == ")":
            return Node(tuple(children)), pos + 1
        child, pos = _parse_item(text, pos, depth + 1, noun, brace)
        children.append(child)


def _graft(t, it):
    """t with its leaves replaced, left to right, by the trees from it."""
    if isinstance(t, Leaf):
        return next(it)
    return Node(tuple(_graft(c, it) for c in t.children))


def tree_sort_key(t):
    """Total order used by the enumerators: size first, then text."""
    return (vertices(t), leaves(t), str(t))


def enumerate_trees(max_vertices: int, max_leaves: int):
    """All planar trees within the given bounds, smallest first, no duplicates."""
    for name, bound in (("max_vertices", max_vertices), ("max_leaves", max_leaves)):
        if bound < 0:
            raise ValueError(f"{name} must be nonnegative, got {bound}")
    out = []
    for nv in range(max_vertices + 1):
        out.extend(_trees_exact(nv, max_leaves))
    return tuple(sorted(out, key=tree_sort_key))


@lru_cache(maxsize=None)
def _trees_exact(nv: int, max_leaves: int):
    if nv == 0:
        return (LEAF,) if max_leaves >= 1 else ()
    return tuple(Node(f) for f in _forests(nv - 1, max_leaves))


@lru_cache(maxsize=None)
def _forests(nv: int, max_leaves: int):
    # Ordered forests with nv vertices in total and at most max_leaves leaves.
    # Leading leaf entries cost leaf budget, so the recursion terminates.
    out = [()] if nv == 0 else []
    for first_nv in range(nv + 1):
        for first in _trees_exact(first_nv, max_leaves):
            rest_budget = max_leaves - leaves(first)
            if rest_budget < 0:
                continue
            for rest in _forests(nv - first_nv, rest_budget):
                out.append((first,) + rest)
    return tuple(out)
