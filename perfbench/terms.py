"""Circled-tree terms for generating inputs and checking outputs.

This model is deliberately independent of circleops: the benchmark draws its
inputs with it, so a change to the package's own sampler cannot change what a
seed means, and it checks the package's outputs against it, so a reference
never comes from the code under test.

A term is the bare edge ``LEAF``, a vertex ``("N", children)`` or a circle
``("C", label, content, grafts)`` with label 0 for a black circle.  The text
form is the one circleops prints and parses.
"""

from __future__ import annotations

from itertools import product

LEAF = "|"
BLACK = 0


def node(children) -> tuple:
    return ("N", tuple(children))


def circ(label: int, content, grafts) -> tuple:
    return ("C", label, content, tuple(grafts))


# --- text ------------------------------------------------------------------------

def text(t) -> str:
    """Canonical text: single spaces, ``{w3 content / grafts}`` or ``{b ...}``."""
    if t == LEAF:
        return "|"
    if t[0] == "N":
        return "(" + " ".join(text(c) for c in t[1]) + ")"
    _, label, content, grafts = t
    kind = f"w{label}" if label else "b"
    inner = " ".join(text(g) for g in grafts)
    return "{" + kind + " " + text(content) + " /" + (" " + inner if inner else "") + "}"


def parse(s: str):
    """Parse canonical or loosely spaced text; raises ValueError on bad input."""
    t, pos = _parse_at(s, _skip(s, 0))
    if _skip(s, pos) != len(s):
        raise ValueError(f"trailing input at offset {pos}")
    return t


def _skip(s: str, pos: int) -> int:
    while pos < len(s) and s[pos] == " ":
        pos += 1
    return pos


def _parse_at(s: str, pos: int):
    if pos >= len(s):
        raise ValueError("unexpected end of input")
    ch = s[pos]
    if ch == "|":
        return LEAF, pos + 1
    if ch == "(":
        kids, pos = _parse_seq(s, pos + 1, ")")
        return node(kids), pos
    if ch == "{":
        pos = _skip(s, pos + 1)
        if s.startswith("b", pos):
            label, pos = BLACK, pos + 1
        elif s.startswith("w", pos):
            end = pos + 1
            while end < len(s) and s[end].isdigit():
                end += 1
            if end == pos + 1:
                raise ValueError(f"white circle without a label at offset {pos}")
            label, pos = int(s[pos + 1:end]), end
        else:
            raise ValueError(f"bad circle kind at offset {pos}")
        content, pos = _parse_at(s, _skip(s, pos))
        pos = _skip(s, pos)
        if not s.startswith("/", pos):
            raise ValueError(f"expected '/' at offset {pos}")
        grafts, pos = _parse_seq(s, pos + 1, "}")
        if len(grafts) != open_leaves(content):
            raise ValueError("graft count does not match the content's open leaves")
        return circ(label, content, grafts), pos
    raise ValueError(f"unexpected character {ch!r} at offset {pos}")


def _parse_seq(s: str, pos: int, close: str):
    items = []
    while True:
        pos = _skip(s, pos)
        if pos >= len(s):
            raise ValueError(f"unclosed sequence, expected {close!r}")
        if s[pos] == close:
            return items, pos + 1
        item, pos = _parse_at(s, pos)
        items.append(item)


# --- structure ---------------------------------------------------------------------

def open_leaves(t) -> int:
    if t == LEAF:
        return 1
    if t[0] == "N":
        return sum(open_leaves(c) for c in t[1])
    return sum(open_leaves(g) for g in t[3])


def vertices(t) -> int:
    """Vertices of a planar tree (a circle-free term)."""
    if t == LEAF:
        return 0
    return 1 + sum(vertices(c) for c in t[1])


def _graft(t, it):
    if t == LEAF:
        return next(it)
    return node(_graft(c, it) for c in t[1])


def underlying(t):
    """The planar tree left after erasing every circle."""
    if t == LEAF:
        return LEAF
    if t[0] == "N":
        return node(underlying(c) for c in t[1])
    return _graft(underlying(t[2]), iter([underlying(g) for g in t[3]]))


def contracted(t):
    """The planar tree with every circle contracted to one vertex."""
    if t == LEAF:
        return LEAF
    if t[0] == "N":
        return node(contracted(c) for c in t[1])
    return node(contracted(g) for g in t[3])


def _circles(t, out):
    if t == LEAF:
        return
    if t[0] == "N":
        for c in t[1]:
            _circles(c, out)
        return
    out.append(t)
    _circles(t[2], out)
    for g in t[3]:
        _circles(g, out)


def circles(t) -> list:
    """Every circle of t in preorder."""
    out = []
    _circles(t, out)
    return out


def sources(t) -> tuple:
    """The inside trees of the white circles, by label 1..k."""
    whites = {c[1]: contracted(c[2]) for c in circles(t) if c[1]}
    return tuple(whites[j] for j in range(1, len(whites) + 1))


def violations(t) -> list:
    """Broken circle rules, as codes; empty exactly for a valid configuration.

    White labels are 1..k without repeats; a black circle encloses at least
    two vertices, does not sit directly inside a black circle, and sits inside
    some white circle.
    """
    out = []
    labels = []

    def walk(u, in_white, black_parent):
        if u == LEAF:
            return
        if u[0] == "N":
            for c in u[1]:
                walk(c, in_white, black_parent)
            return
        _, label, content, grafts = u
        if label:
            labels.append(label)
            walk(content, True, False)
        else:
            if vertices(contracted(content)) < 2:
                out.append("black-around-small")
            if black_parent:
                out.append("black-in-black")
            if not in_white:
                out.append("black-outside-white")
            walk(content, in_white, True)
        for g in grafts:
            walk(g, in_white, black_parent)

    walk(t, False, False)
    if sorted(labels) != list(range(1, len(labels) + 1)):
        out.append("white-labels-not-1..k")
    return out


# --- generation ------------------------------------------------------------------

def trees(max_vertices: int, max_leaves: int) -> list:
    """Every planar tree within both bounds, sorted by text."""
    out = []
    for nv in range(max_vertices + 1):
        out.extend(t for t, _ in _trees_exact(nv, max_leaves))
    return sorted(out, key=text)


def _trees_exact(nv: int, max_leaves: int) -> list:
    """(tree, leaves) with exactly nv vertices and at most max_leaves leaves."""
    if nv == 0:
        return [(LEAF, 1)] if max_leaves >= 1 else []
    return [(node(kids), nl) for kids, nl in _forests(nv - 1, max_leaves)]


def _forests(nv: int, max_leaves: int) -> list:
    """Ordered forests with nv vertices in total and at most max_leaves leaves."""
    out = [((), 0)] if nv == 0 else []
    for first_v in range(nv + 1):
        for first, l1 in _trees_exact(first_v, max_leaves):
            for rest, l2 in _forests(nv - first_v, max_leaves - l1):
                out.append(((first,) + rest, l1 + l2))
    return out


def _subterm_paths(t, path, out):
    out.append(path)
    if t == LEAF:
        return
    if t[0] == "N":
        for i, c in enumerate(t[1]):
            _subterm_paths(c, path + (i,), out)
    else:
        _subterm_paths(t[2], path + ("content",), out)
        for i, g in enumerate(t[3]):
            _subterm_paths(g, path + (i,), out)


def _at(t, path):
    for step in path:
        t = t[2] if step == "content" else (t[1][step] if t[0] == "N" else t[3][step])
    return t


def _replace(t, path, new):
    if not path:
        return new
    step, rest = path[0], path[1:]
    if step == "content":
        return circ(t[1], _replace(t[2], rest, new), t[3])
    if t[0] == "N":
        kids = list(t[1])
        kids[step] = _replace(kids[step], rest, new)
        return node(kids)
    grafts = list(t[3])
    grafts[step] = _replace(grafts[step], rest, new)
    return circ(t[1], t[2], grafts)


def _cuts(u) -> list:
    """Every (bottom, tops) whose regrafting gives u; circles are never cut."""
    out = [(LEAF, (u,))]
    if u == LEAF:
        return out
    parts = u[1] if u[0] == "N" else u[3]
    for combo in product(*[_cuts(p) for p in parts]):
        bottoms = [b for b, _ in combo]
        tops = tuple(x for _, ts in combo for x in ts)
        out.append((node(bottoms) if u[0] == "N" else circ(u[1], u[2], bottoms), tops))
    return out


def _insert(rng, t, label: int):
    paths = []
    _subterm_paths(t, (), paths)
    path = paths[rng.randrange(len(paths))]
    cuts = _cuts(_at(t, path))
    bottom, tops = cuts[rng.randrange(len(cuts))]
    return _replace(t, path, circ(label, bottom, tops))


def random_config(rng, tree, k: int, black_tries: int = 2):
    """A valid configuration on tree with white labels 1..k, drawn from rng.

    White circles go in one by one, in a random label order, around a random
    region; then up to black_tries black circles are tried and kept when the
    result is still valid.
    """
    labels = list(range(1, k + 1))
    rng.shuffle(labels)
    t = tree
    for label in labels:
        t = _insert(rng, t, label)
    for _ in range(black_tries):
        cand = _insert(rng, t, BLACK)
        if not violations(cand):
            t = cand
    return t


def identity_text(tree) -> str:
    """The identity operation on tree: one white circle around all of it."""
    return text(circ(1, tree, (LEAF,) * open_leaves(tree)))
