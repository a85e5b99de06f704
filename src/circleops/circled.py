"""Planar trees decorated with a laminar family of circles.

A circled tree is a planar tree together with nested or disjoint circles
drawn on it.  Each circle encloses a connected region with one entering edge
from below; the ``content`` field holds the region inside the circle and the
``grafts`` hold the continuations of its exit edges above the circle, one per
open leaf of the content.  A bare planar tree is a circle-free circled tree.

Circles are white (carrying a positive integer label) or black.  A
configuration with k white circles is valid when the white labels are exactly
1..k, no black circle encloses fewer than two vertices of its inside tree, no
black circle sits directly inside another black circle, and every black
circle sits inside at least one white circle.

Text form: ``ct ::= "|" | "(" ct* ")" | "{" kind ct "/" ct* "}"`` with
``kind ::= "w"<int> | "b"``; the identity circle on the free edge prints as
``{w1 | / |}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations, product
from operator import is_, itemgetter

from .trees import (
    LEAF,
    Leaf,
    Node,
    ParseError,
    _parse,
    _parse_item,
    _graft,
    _skip_spaces,
)


@dataclass(frozen=True)
class White:
    """Kind of a labelled white circle."""

    label: int

    def __str__(self) -> str:
        return f"w{self.label}"


@dataclass(frozen=True)
class Black:
    """Kind of a black circle."""

    def __str__(self) -> str:
        return "b"


BLACK = Black()


@dataclass(frozen=True)
class Circ:
    """A circle with the region inside it and the continuations above it."""

    kind: White | Black
    content: object
    grafts: tuple

    def __post_init__(self):
        need = open_leaves(self.content)
        if len(self.grafts) != need:
            raise ValueError(
                f"graft arity mismatch: content has {need} open leaves,"
                f" got {len(self.grafts)} grafts"
            )

    def __str__(self) -> str:
        inner = " ".join(str(g) for g in self.grafts)
        sep = " " if inner else ""
        return "{" + f"{self.kind} {self.content} /{sep}{inner}" + "}"


def open_leaves(c) -> int:
    """Open leaves of a term; a circle binds its content's leaves to grafts."""
    if isinstance(c, Leaf):
        return 1
    n = 0
    for x in c.children if isinstance(c, Node) else c.grafts:
        n += 1 if isinstance(x, Leaf) else open_leaves(x)
    return n


def underlying(c):
    """Erase all circles, returning the underlying planar tree."""
    return _survey(c)[3]


def contracted(c):
    """Contract every circle of c to a single vertex over its exits."""
    return _survey(c)[4]


# --- codec -----------------------------------------------------------------

def parse_config(text: str):
    """Parse the text form of a circled tree; errors carry byte offsets.

    Brackets of either kind may nest at most 200 deep; a deeper bracket is
    a ParseError at its offset.
    """
    return _parse(text, "configuration", _parse_circle)


def _parse_circle(text: str, pos: int, depth: int, noun: str):
    start = pos
    kind, pos = _parse_kind(text, pos + 1)
    pos = _skip_spaces(text, pos)
    content, pos = _parse_item(text, pos, depth, noun, _parse_circle)
    pos = _skip_spaces(text, pos)
    if pos >= len(text) or text[pos] != "/":
        raise ParseError(pos, "expected '/' between content and grafts")
    pos += 1
    grafts = []
    while True:
        pos = _skip_spaces(text, pos)
        if pos >= len(text):
            raise ParseError(pos, "unclosed '{'")
        if text[pos] == "}":
            break
        g, pos = _parse_item(text, pos, depth, noun, _parse_circle)
        grafts.append(g)
    try:
        return Circ(kind, content, tuple(grafts)), pos + 1
    except ValueError:
        raise ParseError(
            start,
            f"circle content has {open_leaves(content)} open leaves"
            f" but {len(grafts)} grafts were given",
        ) from None


def _parse_kind(text: str, pos: int):
    pos = _skip_spaces(text, pos)
    if pos >= len(text):
        raise ParseError(pos, "expected circle kind 'w<int>' or 'b'")
    if text[pos] == "b":
        return BLACK, pos + 1
    if text[pos] == "w":
        start = pos = pos + 1
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        if pos == start:
            raise ParseError(start, "white circle label must be an integer")
        if text[start] == "0" and pos - start > 1:  # "w01" would print as "w1"
            raise ParseError(start, "white circle label has a leading zero")
        try:
            return White(int(text[start:pos])), pos
        except ValueError:  # more digits than int() converts
            raise ParseError(start, "white circle label is too long") from None
    raise ParseError(pos, f"unexpected circle kind {text[pos]!r}")


# --- addresses ---------------------------------------------------------------

# An address is a tuple of steps ("child", i) | ("content", 0) | ("graft", i)
# leading from the root of the term to a subterm.

CONTENT = ("content", 0)


def resolve(c, addr):
    for what, idx in addr:
        if what == "child" and isinstance(c, Node) and idx < len(c.children):
            c = c.children[idx]
        elif what == "content" and isinstance(c, Circ):
            c = c.content
        elif what == "graft" and isinstance(c, Circ) and idx < len(c.grafts):
            c = c.grafts[idx]
        else:
            raise ValueError(f"address step {(what, idx)} does not match term {c}")
    return c


def replace_at(c, addr, new):
    if not addr:
        return new
    step, rest = addr[0], addr[1:]
    what, idx = step
    if what == "child" and isinstance(c, Node) and idx < len(c.children):
        kids = list(c.children)
        kids[idx] = replace_at(kids[idx], rest, new)
        return Node(tuple(kids))
    if what == "content" and isinstance(c, Circ):
        return Circ(c.kind, replace_at(c.content, rest, new), c.grafts)
    if what == "graft" and isinstance(c, Circ) and idx < len(c.grafts):
        gs = list(c.grafts)
        gs[idx] = replace_at(gs[idx], rest, new)
        return Circ(c.kind, c.content, tuple(gs))
    raise ValueError(f"address step {step} does not match term {c}")


def circle_addresses(c):
    """Addresses of all circles in term preorder (a circle before its parts)."""
    return tuple(addr for addr, x in _subterms(c, (), [])
                 if isinstance(x, Circ))


def white_addresses(c):
    """Mapping from white label to circle address; labels must be unique."""
    out = {}
    for addr, x in _subterms(c, (), []):
        if isinstance(x, Circ) and isinstance(x.kind, White):
            if x.kind.label in out:
                raise ValueError(f"duplicate white label {x.kind.label}")
            out[x.kind.label] = addr
    return out


def _subterms(c, addr, out):
    """Append (address, subterm) for c and everything below it, in preorder."""
    out.append((addr, c))
    if isinstance(c, Node):
        for i, x in enumerate(c.children):
            _subterms(x, addr + (("child", i),), out)
    elif isinstance(c, Circ):
        _subterms(c.content, addr + (CONTENT,), out)
        for i, g in enumerate(c.grafts):
            _subterms(g, addr + (("graft", i),), out)
    return out


def white_profile(c):
    """((T_1, ..., T_k), T): the inside trees by white label and the output tree.

    Read off the walk behind validate_config.
    """
    return _profile(*_survey(c)[1:4])


def _profile(insides, duplicate, out):
    if duplicate is not None:
        raise ValueError(f"duplicate white label {duplicate}")
    k = len(insides)
    if set(insides) != set(range(1, k + 1)):
        raise ValueError(f"white labels {sorted(insides)} are not 1..{k}")
    return tuple(insides[j] for j in range(1, k + 1)), out


# --- validity ----------------------------------------------------------------

@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    whites: int
    violations: tuple


def validate_config(c) -> ValidityReport:
    """Check the circle constraints; violations carry (address, code, message)."""
    return _survey(c)[0]


def validated_profile(c):
    """(validate_config(c), white_profile(c)) from one walk.

    The profile is None when the report has a violation.
    """
    report, insides, duplicate, out, _ = _survey(c)
    return report, _profile(insides, duplicate, out) if report.ok else None


def _survey(c):
    """The one walk behind validate_config, white_profile, underlying and
    contracted.

    Returns the validity report, the contracted content of the first white
    circle with each label (nonpositive ones too), the first label met twice
    in preorder (None if none), the underlying tree and the contracted tree.
    Every subterm yields its underlying and its contracted tree bottom-up; a
    circle-free subterm is both itself.  Addresses are (parent, what, index)
    chains, spelled out only for a violation.
    """
    violations = []
    positive = set()
    insides = {}
    duplicate = None

    def flag(chain, code, message, at=None):
        steps = []
        while chain is not None:
            chain, what, idx = chain
            steps.append((what, idx))
        violations.insert(len(violations) if at is None else at,
                          (tuple(reversed(steps)), code, message))

    def walk(term, chain, in_white, black_parent):
        # (underlying, contracted) of a Node or Circ term.  in_white: some
        # enclosing circle is white; black_parent: the nearest enclosing
        # circle is black.  Grafts sit beside their circle, and bare edges
        # are answered without a call.
        nonlocal duplicate
        if isinstance(term, Node):
            parts, what = term.children, "child"
        else:
            parts, what = term.grafts, "graft"
            content = term.content
            white = isinstance(term.kind, White)
            # a black circle's black-around-small names its contracted
            # content, known only after the walk; it goes in ahead of the rest
            at = len(violations)
            if white:
                label = term.kind.label
                if label < 1:
                    flag(chain, "white-label-nonpositive",
                         f"white label {label} is not positive")
                elif label in positive:
                    flag(chain, "duplicate-white-label",
                         f"white label {label} appears twice")
                else:
                    positive.add(label)
                first = label not in insides
                if first:
                    insides[label] = None
                elif duplicate is None:
                    duplicate = label
            else:
                if black_parent:
                    flag(chain, "black-in-black",
                         "black circle directly inside a black circle")
                if not in_white:
                    flag(chain, "black-outside-white",
                         "black circle not inside any white circle")
            under = inner = content
            if not isinstance(content, Leaf):
                under, inner = walk(content, (chain, "content", 0),
                                    in_white or white, not white)
            if white and first:
                insides[label] = inner
            elif not white and below_two_vertices(content):
                flag(chain, "black-around-small",
                     f"black circle encloses {inner}, fewer than two vertices",
                     at)
        unders, contractions = [], []
        for i, x in enumerate(parts):
            if isinstance(x, Leaf):
                unders.append(x)
                contractions.append(x)
            else:
                u, k = walk(x, (chain, what, i), in_white, black_parent)
                unders.append(u)
                contractions.append(k)
        if what == "graft":
            return _graft(under, iter(unders)), Node(tuple(contractions))
        if all(map(is_, unders, parts)):
            return term, term
        return Node(tuple(unders)), Node(tuple(contractions))

    try:
        out, flat = (c, c) if isinstance(c, Leaf) else walk(c, None, False, False)
    finally:
        del walk  # it refers to itself: left alone, each call leaves a cycle
    k = len(positive)
    if positive and positive != set(range(1, k + 1)):
        flag(None, "white-labels-not-contiguous",
             f"white labels {sorted(positive)} are not 1..{k}")
    report = ValidityReport(ok=not violations, whites=k,
                            violations=tuple(violations))
    return report, insides, duplicate, out, flat


def below_two_vertices(c) -> bool:
    """Whether contracted(c) has fewer than two vertices: c is a bare edge,
    or one vertex or circle with only bare edges above it."""
    if isinstance(c, Leaf):
        return True
    return all(isinstance(x, Leaf)
               for x in (c.children if isinstance(c, Node) else c.grafts))


# --- surgery -----------------------------------------------------------------

def circle_graft(t, replacements):
    """Replace the open leaves of t, left to right, with the given terms."""
    reps = list(replacements)
    if open_leaves(t) != len(reps):
        raise ValueError(
            f"graft arity mismatch: term has {open_leaves(t)} open leaves,"
            f" got {len(reps)} replacements"
        )
    return _circle_graft(t, iter(reps))


def _circle_graft(t, it):
    if isinstance(t, Leaf):
        return next(it)
    parts = []
    for x in t.children if isinstance(t, Node) else t.grafts:
        parts.append(next(it) if isinstance(x, Leaf) else _circle_graft(x, it))
    if isinstance(t, Node):
        return Node(tuple(parts))
    return Circ(t.kind, t.content, tuple(parts))


def splice(c, addr):
    """Remove the circle at addr, merging its content into the ambient tree."""
    circ = resolve(c, addr)
    if not isinstance(circ, Circ):
        raise ValueError(f"no circle at address {addr}")
    return replace_at(c, addr, circle_graft(circ.content, circ.grafts))


def relabel_whites(c, mapping):
    """Apply an injective relabelling to every white label in c."""
    present = set(white_addresses(c))
    if not present <= set(mapping):
        raise ValueError(f"mapping does not cover labels {sorted(present)}")
    images = [mapping[l] for l in present]
    if len(set(images)) != len(images):
        raise ValueError("relabelling is not injective")
    return _map_whites(c, mapping.__getitem__)


def _map_whites(c, f):
    """c with every white label l replaced by f(l).

    Labels are visited in term preorder: a circle's kind, then its content,
    then its grafts.
    """
    if isinstance(c, Leaf):
        return c
    if isinstance(c, Node):
        return Node(tuple(_map_whites(x, f) for x in c.children))
    kind = White(f(c.kind.label)) if isinstance(c.kind, White) else BLACK
    return Circ(kind, _map_whites(c.content, f),
                tuple(_map_whites(g, f) for g in c.grafts))


# --- enumeration ---------------------------------------------------------------

def enumerate_configs(t, k: int):
    """All valid configurations on t with white labels 1..k, sorted by text.

    The work is done once per unlabelled shape from _gen: its first
    labelling is built and validated (validity does not depend on which
    labelling, as every one uses 1..k once), and the shape's text, with its
    white placeholders made slots, gives each labelling its sort key by
    string formatting.  Each labelled term rebuilds only the subterms that
    hold a white circle.  Duplicates are caught on adjacent sort keys:
    equal terms print equal text, so every duplicate an equality test would
    find is found.
    """
    if k < 0:
        raise ValueError("white circle count must be nonnegative")
    keyed = []
    for shape, whites in _gen(t, False, False, k):
        if whites != k:
            continue
        label = _labeller(shape)
        labellings = iter(_all_labellings(shape, k))
        first = next(labellings)
        term = label(iter(first))
        if not validate_config(term).ok:
            continue
        # The placeholder label prints as w0, and no other text does.
        template = str(shape).replace("w0", "w%d")
        keyed.append((template % first, term))
        keyed.extend((template % labels, label(iter(labels)))
                     for labels in labellings)
    keyed.sort(key=itemgetter(0))
    for x, y in zip(keyed, keyed[1:]):
        if x[0] == y[0]:
            raise RuntimeError("enumeration produced a duplicate configuration")
    return tuple(term for _, term in keyed)


def _labeller(c):
    """A function taking an iterator of labels to c with its white circles
    labelled from it in term preorder, as _map_whites visits them.

    Subterms that hold no white circle are shared with c, not rebuilt.
    """
    fill = _fill(c)
    return (lambda it: c) if fill is None else fill


def _fill(c):
    """_labeller's function for c, or None when c holds no white circle."""
    if isinstance(c, Leaf):
        return None
    if isinstance(c, Node):
        f_kids = _fill_parts(c.children)
        return None if f_kids is None else lambda it: Node(f_kids(it))
    kind, content, grafts = c.kind, c.content, c.grafts
    white = isinstance(kind, White)
    f_content, f_grafts = _fill(content), _fill_parts(grafts)
    if not white and f_content is None and f_grafts is None:
        return None

    def fill(it):
        return Circ(
            White(next(it)) if white else kind,
            content if f_content is None else f_content(it),
            grafts if f_grafts is None else f_grafts(it),
        )
    return fill


def _fill_parts(parts):
    """_fill for a tuple of subterms, filled left to right."""
    fills = [_fill(x) for x in parts]
    if not any(fills):
        return None
    pairs = tuple(zip(parts, fills))
    return lambda it: tuple([x if f is None else f(it) for x, f in pairs])


@lru_cache(maxsize=None)
def _gen(t, in_white: bool, black_parent: bool, white_cap: int):
    """Terms over t with at most white_cap whites, pruned by the black rules.

    Returns pairs (term, whites); white circles carry the placeholder label 0.

    The circles are bounded without being counted.  Each black circle
    directly encloses at least two vertices or white circles, and each of
    those has exactly one nearest circle, so 2 * blacks <= vertices + whites:
    a valid term with k whites has at most k + (vertices + k) / 2 circles.
    The recursion ends because a white circle lowers white_cap for its
    content and its grafts, a black circle's content cannot start with a
    black circle, and a black circle's grafts are reached only when its
    content has at least two vertices or white circles, so they are proper
    subtrees of t or have a lower white_cap.
    """
    results = []
    if isinstance(t, Leaf):
        results.append((LEAF, 0))
    else:
        for kids, whites in _gen_forest(t.children, in_white, black_parent,
                                        white_cap):
            results.append((Node(kids), whites))
    for shape, tops in _region_cuts(t):
        for is_white in (True, False):
            if is_white and white_cap == 0:
                continue
            if not is_white and (not in_white or black_parent):
                continue
            kind = White(0) if is_white else BLACK
            cap_inside = white_cap - 1 if is_white else white_cap
            for cont, w1 in _gen(shape, in_white or is_white, not is_white,
                                 cap_inside):
                if not is_white and below_two_vertices(cont):
                    continue
                whites = w1 + (1 if is_white else 0)
                for gs, w2 in _gen_forest(tops, in_white, black_parent,
                                          white_cap - whites):
                    results.append((Circ(kind, cont, gs), whites + w2))
    return tuple(results)


@lru_cache(maxsize=None)
def _gen_forest(ts, in_white: bool, black_parent: bool, white_cap: int):
    if not ts:
        return (((), 0),)
    out = []
    for first, w1 in _gen(ts[0], in_white, black_parent, white_cap):
        for rest, w2 in _gen_forest(ts[1:], in_white, black_parent,
                                    white_cap - w1):
            out.append(((first,) + rest, w1 + w2))
    return tuple(out)


def _all_labellings(term, k: int):
    """Every labelling of term's k white circles, each as the tuple of its
    labels in term preorder; enumerate_configs reads its labellings here."""
    return permutations(range(1, k + 1))


# --- random sampling -----------------------------------------------------------

def random_config(rng, t, k: int):
    """A pseudo-random valid configuration on t with k whites, seeded by rng.

    After the whites, two black circles are tried and each is kept if the
    term stays valid.
    """
    term = t
    for label in range(1, k + 1):
        term = _random_insert(rng, term, White(label))
    for _ in range(2):
        cand = _random_insert(rng, term, BLACK)
        if validate_config(cand).ok:
            term = cand
    if k > 1:
        images = list(range(1, k + 1))
        rng.shuffle(images)
        term = relabel_whites(term, dict(zip(range(1, k + 1), images)))
    return term


def _random_insert(rng, term, kind):
    subterms = _subterms(term, (), [])
    addr, sub = subterms[rng.randrange(len(subterms))]
    cuts = _region_cuts(sub)
    bottom, tops = cuts[rng.randrange(len(cuts))]
    return replace_at(term, addr, Circ(kind, bottom, tops))


def _region_cuts(u):
    """All (bottom, tops) with circle_graft(bottom, tops) == u.

    A region containing a circle contains the whole circle, so the recursion
    descends into grafts but never into a content.
    """
    out = [(LEAF, (u,))]
    if isinstance(u, Node):
        for combo in product(*[_region_cuts(x) for x in u.children]):
            out.append((Node(tuple(b for b, _ in combo)),
                        tuple(chain.from_iterable(ts for _, ts in combo))))
    elif isinstance(u, Circ):
        for combo in product(*[_region_cuts(g) for g in u.grafts]):
            out.append((Circ(u.kind, u.content, tuple(b for b, _ in combo)),
                        tuple(chain.from_iterable(ts for _, ts in combo))))
    return tuple(out)
