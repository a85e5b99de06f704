"""Finite categories built from circled-tree operations, and their homology.

A FinCategory is a finite thin category, at most one arrow per hom-set,
whose every categorical axiom is checked at construction time, so a value
of the type is itself a certificate.  Its core is integer: objects and
arrows are numbered in the order given, composition is read off the hom
index, and the axioms and the functor laws are checked on those ids.  The
payloads (configurations, graph elements, Arrow values) live in side
tables, read back as payload views and to name a failure.  Categories and
functors are built only by the constructions below, through
FinCategory._of_ids and FinFunctor._of_ids, which take ids and hash no
payload for their indexes or checks.  The constructions used by the
verification suites are: posets, the inclusion of a functor's strict fiber
over z into its comma category under or over z (fiber_inclusion), and the
Grothendieck total of a diagram of categories.

Every construction whose arrows carry labels is made by one builder,
_labelled, which checks each composite and identity by its label; a poset
has one unlabelled arrow per x <= y and is handed to FinCategory as it is,
and subcategories are read off their parent's ids (_subcategory).

The bridge to the operad is build_comma: its objects are the k-white
configurations on a fixed tree and its arrows are k-tuples of unary
operations composing one object into another; it alone composes, once
per (tree, k), and the commas below are read off its ids.  It certifies
each composite by identity with one of its validated objects, not by a
second validation.  Bounding the complexity of the objects by a labelled
graph gives its full subcategories comma_below, which the acyclicity
suites run on; build_hat_comma has its
arrows between (configuration, tag) pairs whose tags are ordered; and
forgetting a distinguished white circle gives the deletion functor whose
fibers certify the contraction argument.

Nerves of loop-free categories are turned into integer chain complexes,
one chain per composable string of nonidentity arrows, so homology is
computed exactly; no string is held, only its last arrow and the column of
its faces.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .circled import relabel_whites, splice, white_addresses
from .homology import ChainComplex, HomologyResult, IntMatrix, homology
from .kgraph import (
    KElt,
    k_enumerate,
    k_iota,
    k_leq,
    kelt_delete_vertex,
    vertex_pairs,
)
from .operad_h import (
    _require_profile,
    complexity,
    compose_terms,
    identity_op,
    operations,
    reduce_term,
)


class CategoryError(ValueError):
    """Raised when a category, functor, or construction violates its laws."""


@dataclass(frozen=True)
class Arrow:
    """A morphism src -> dst with the label its construction gives it."""

    src: object
    dst: object
    label: object


def _outgoing(n: int, ends) -> list:
    """For each of n objects, the ids of the arrows whose end (one of src or
    dst, as given) it is."""
    out = [[] for _ in range(n)]
    for a, x in enumerate(ends):
        out[x].append(a)
    return out


def _first_outside(ids, n: int):
    """The position of the first id in ids outside 0..n-1, or None.  min and
    max scan the list in C; only a list holding such an id is walked here."""
    if not ids or (min(ids) >= 0 and max(ids) < n):
        return None
    return next(i for i, x in enumerate(ids) if not 0 <= x < n)


class FinCategory:
    """A finite thin category with verified composition.

    The core is integer.  Objects and arrows are numbered 0..n-1 in the
    order given, and their payloads, the tuples objects and arrows, are
    side tables: the payload views identities and table read them, a
    failure renders them, and no check hashes them.  Every categorical
    axiom is checked on the ids at construction time.

    _of_ids(objects, arrows, src, dst, ident) is the one constructor: src
    and dst give the id of each arrow's source and target object and ident
    the identity arrow id of each object; an id that was not found is -1.
    They are kept as _src, _dst and _ident.

    The category is thin, at most one arrow per hom-set, and stores no
    composition: _at, its hom index, maps each (x, y) with an arrow x -> y
    to that arrow's id, and g after f is _at[src f, dst g].

    identities and table read the payload maps back from the ids; table
    lists f in order, then each g composing after it, in the order of the
    arrows out of dst f.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a FinCategory is built by FinCategory._of_ids")

    @classmethod
    def _of_ids(cls, objects, arrows, src, dst, ident) -> "FinCategory":
        """The category on numbered payloads, checked by _verify."""
        C = cls.__new__(cls)
        C.objects, C.arrows = tuple(objects), tuple(arrows)
        C._src, C._dst, C._ident = src, dst, ident
        C._verify()
        return C

    @cached_property
    def _out(self) -> list:
        return _outgoing(len(self.objects), self._src)

    @cached_property
    def _oid(self) -> dict:
        return {x: n for n, x in enumerate(self.objects)}

    @cached_property
    def _aid(self) -> dict:
        return {a: n for n, a in enumerate(self.arrows)}

    @cached_property
    def _into(self) -> list:
        return _outgoing(len(self.objects), self._dst)

    def _homset(self, x: int, y: int):
        """The ids of the arrows x -> y: none or one, read off _at."""
        a = self._at.get((x, y))
        return () if a is None else (a,)

    def _composite(self, f: int, g: int) -> int:
        """The id of g after f, for arrow ids f and g that compose."""
        return self._at[self._src[f], self._dst[g]]

    def _triples(self):
        """(f, g, h) for each composable pair, h the id of g after f, in the
        order of table."""
        src, dst, at, out = self._src, self._dst, self._at, self._out
        for f, (s, t) in enumerate(zip(src, dst)):
            for g in out[t]:
                yield f, g, at[s, dst[g]]

    @property
    def identities(self) -> dict:
        return {x: self.arrows[e] for x, e in zip(self.objects, self._ident)}

    @property
    def table(self) -> "_Table":
        return _Table(self)

    def _verify(self):
        """The axioms on ids; payloads are read only to name a failure.

        An id out of range is rejected before it indexes a list: the endpoint
        lists by min and max in C and the identities as they are read.  The
        rest is _verify_thin.
        """
        objects, arrows = self.objects, self.arrows
        src, dst, ident = self._src, self._dst, self._ident
        n, m = len(objects), len(arrows)
        if not len(src) == len(dst) == m:
            raise CategoryError("endpoints must cover exactly the arrows")
        bad = [a for a in (_first_outside(src, n), _first_outside(dst, n))
               if a is not None]
        if bad:
            raise CategoryError(
                f"arrow endpoints outside the category: {arrows[min(bad)]}"
            )
        if len(ident) != n:
            raise CategoryError("identities must cover exactly the objects")
        for x, e in enumerate(ident):
            if not 0 <= e < m or src[e] != x or dst[e] != x:
                raise CategoryError(f"bad identity arrow at {objects[x]}")
        self._verify_thin()

    def _verify_thin(self):
        """At most one arrow per hom-set and closure under composition, both
        on up-set bitsets, then the hom index.

        up[x] has bit y set when there is an arrow x -> y, so the bits of
        all the up-sets count the hom-sets that have an arrow; fewer than
        the arrows means a second arrow with the same ends.  For every arrow
        a: x -> y, up[y] must lie inside up[x]: each g: y -> z then has an
        arrow x -> z, which is _at[x, z], the composite of a and g, and its
        ends are (src a, dst g) by construction.  The bitsets are dropped
        before _at is built, so the two are never held at once.

        That is all there is to check.  An identity x -> x is the one arrow
        of its hom-set, so f after the identity at src f and the identity at
        dst f after f both lie in the hom-set of f, whose one arrow is f: the
        unit laws hold.  h after (g after f) and (h after g) after f both run
        src f -> dst h, so they are that hom-set's one arrow: associativity
        holds.
        """
        src, dst, arrows = self._src, self._dst, self.arrows
        up = [0] * len(self.objects)
        for s, t in zip(src, dst):
            up[s] |= 1 << t
        if sum(map(int.bit_count, up)) < len(arrows):
            first = {}
            for a, key in enumerate(zip(src, dst)):
                b = first.setdefault(key, a)
                if b != a:
                    raise CategoryError(
                        f"two arrows share a source and a target:"
                        f" {arrows[b]} and {arrows[a]}"
                    )
        for f, (s, t) in enumerate(zip(src, dst)):
            if up[t] | up[s] != up[s]:  # as up[t] & ~up[s], with no negative int
                g = next(g for g in self._out[t] if not up[s] >> dst[g] & 1)
                raise CategoryError(
                    f"composite of {arrows[f]} then {arrows[g]} is not an arrow"
                )
        del up
        self._at = dict(zip(zip(src, dst), range(len(arrows))))


class _Table(Mapping):
    """The composition table of a FinCategory, read from its int core: the
    pairs (g, f) that compose, each mapped to g after f."""

    def __init__(self, C: FinCategory):
        self._C = C

    def __len__(self) -> int:
        # one entry per composable pair, counted without walking them
        C = self._C
        return sum(len(C._out[t]) for t in C._dst)

    def __iter__(self):
        arrows = self._C.arrows
        for f, g, _ in self._C._triples():
            yield arrows[g], arrows[f]

    def __getitem__(self, key):
        C = self._C
        try:
            g, f = key
            f, g = C._aid[f], C._aid[g]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        if C._dst[f] != C._src[g]:
            # the hom index of a thin category would answer any f and g
            raise KeyError(key)
        return C.arrows[C._composite(f, g)]

    def items(self):
        return _TableItems(self)


class _TableItems(ItemsView):
    def __iter__(self):
        arrows = self._mapping._C.arrows
        for f, g, h in self._mapping._C._triples():
            yield (arrows[g], arrows[f]), arrows[h]


class FinFunctor:
    """A functor between FinCategories, verified at construction time.

    _of_ids(dom, cod, omap, amap) is the one constructor: omap lists the
    codomain object id of each domain object and amap the codomain arrow id
    of each domain arrow, -1 for an image that was not found.  The payload
    maps object_map and arrow_map are read back from them.

    The codomain is thin, so the identity and composition laws are not
    walked: once every image has the right endpoints, the image of an
    identity and the codomain identity lie in one hom-set of one arrow, and
    so do both sides of each composition law.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a FinFunctor is built by FinFunctor._of_ids")

    @classmethod
    def _of_ids(cls, dom, cod, omap, amap) -> "FinFunctor":
        """The functor on id lists, checked by _verify."""
        F = cls.__new__(cls)
        F.dom, F.cod, F._omap, F._amap = dom, cod, omap, amap
        F._verify()
        return F

    def _verify(self):
        dom, cod, omap, amap = self.dom, self.cod, self._omap, self._amap
        if len(omap) != len(dom.objects):
            raise CategoryError("object map must cover exactly the domain objects")
        if len(amap) != len(dom.arrows):
            raise CategoryError("arrow map must cover exactly the domain arrows")
        x = _first_outside(omap, len(cod.objects))
        if x is not None:
            raise CategoryError(f"image of {dom.objects[x]} is not a codomain object")
        a = _first_outside(amap, len(cod.arrows))
        if a is not None:
            raise CategoryError(f"image of {dom.arrows[a]} is not a codomain arrow")
        for a, b in enumerate(amap):
            if cod._src[b] != omap[dom._src[a]] or cod._dst[b] != omap[dom._dst[a]]:
                raise CategoryError(f"functor breaks endpoints on {dom.arrows[a]}")

    @cached_property
    def object_map(self) -> dict:
        cod = self.cod.objects
        return {x: cod[y] for x, y in zip(self.dom.objects, self._omap)}

    @cached_property
    def arrow_map(self) -> dict:
        cod = self.cod.arrows
        return {a: cod[b] for a, b in zip(self.dom.arrows, self._amap)}


def _labelled(objects, src, dst, labels, payload, combine, unit) -> FinCategory:
    """The checked category whose arrow a runs between the object ids src[a]
    and dst[a] and carries payload(labels[a]).

    combine(g, f) is the label of g after f and unit(x) that of the identity
    at x.  The loop at x must carry unit(x); _of_ids rejects two arrows with
    one source and target and a composite without its arrow, and then the
    one arrow (src f, dst g) must carry combine(g, f) for every composable
    pair, each compared as it is met and none stored.
    """
    arrows = tuple(
        Arrow(objects[s], objects[t], payload(label))
        for s, t, label in zip(src, dst, labels)
    )
    ident = [-1] * len(objects)
    for a, (s, t) in enumerate(zip(src, dst)):
        if s == t and labels[a] == unit(s):
            ident[s] = a
    C = FinCategory._of_ids(objects, arrows, src, dst, ident)
    for f, g, h in C._triples():
        if labels[h] != combine(g, f):
            raise CategoryError(
                f"composite of {arrows[f]} then {arrows[g]} is not an arrow"
            )
    return C


# --- general constructions ----------------------------------------------------

def poset_category(elements, leq) -> FinCategory:
    """The thin category of a preorder, one arrow labelled None per x <= y;
    composition exists by transitivity, which FinCategory checks."""
    elements = tuple(elements)
    src, dst, ident = [], [], [-1] * len(elements)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            if leq(x, y):
                if i == j:
                    ident[i] = len(src)
                src.append(i)
                dst.append(j)
    for x, e in zip(elements, ident):
        if e < 0:
            raise CategoryError(f"order is not reflexive at {x}")
    if len(set(elements)) != len(elements):
        raise CategoryError("duplicate objects")
    arrows = tuple(Arrow(elements[s], elements[t], None) for s, t in zip(src, dst))
    return FinCategory._of_ids(elements, arrows, src, dst, ident)


def _subcategory(C: FinCategory, objs, keep_arrow):
    """The subcategory on the object ids objs and the arrows between them
    whose id passes keep_arrow; returns it with its arrows' ids in C.

    The arrows are read off the out-arrows of the kept objects and keep
    their order in C.

    Identities and composites are inherited from C, so keep_arrow must pass
    identities and be closed under composition; the subcategory's
    construction checks that closure on the kept objects' up-sets.
    """
    new_obj = [-1] * len(C.objects)
    for n, x in enumerate(objs):
        new_obj[x] = n
    src, dst = C._src, C._dst
    kept = sorted(
        a for x in objs for a in C._out[x]
        if new_obj[dst[a]] >= 0 and keep_arrow(a)
    )
    new_arr = [-1] * len(C.arrows)
    for n, a in enumerate(kept):
        new_arr[a] = n
    S = FinCategory._of_ids(
        tuple(C.objects[x] for x in objs),
        tuple(C.arrows[a] for a in kept),
        [new_obj[src[a]] for a in kept],
        [new_obj[dst[a]] for a in kept],
        [new_arr[C._ident[x]] for x in objs],
    )
    return S, kept


def find_terminal(C: FinCategory):
    """The terminal object if one exists, else None: the first object with
    as many arrows into it as there are objects, which C, being thin, has
    one from each object."""
    n = len(C.objects)
    for x, arrows in enumerate(C._into):
        if len(arrows) == n:
            return C.objects[x]
    return None


def _comma(F: FinFunctor, z: int, side: str):
    """The comma category under or over the codomain object id z, as
    fiber_inclusion describes it: returns the category, its object ids by
    (w, g) pair and the domain arrow id labelling each of its arrows."""
    A, B = F.dom, F.cod
    omap, amap, homset = F._omap, F._amap, B._homset
    under = side == "under"

    def legs(w):
        return homset(z, omap[w]) if under else homset(omap[w], z)

    pairs = [(w, g) for w in range(len(A.objects)) for g in legs(w)]
    pair_id = {p: n for n, p in enumerate(pairs)}
    src, dst, labels = [], [], []
    for m, (s, t) in enumerate(zip(A._src, A._dst)):
        fm = amap[m]
        for g in legs(s if under else t):
            if under:
                src.append(pair_id[(s, g)])
                dst.append(pair_id[(t, B._composite(g, fm))])
            else:
                src.append(pair_id[(s, B._composite(fm, g))])
                dst.append(pair_id[(t, g)])
            labels.append(m)
    K = _labelled(
        tuple((A.objects[w], B.arrows[g]) for w, g in pairs),
        src, dst, labels, A.arrows.__getitem__,
        lambda g, f: A._composite(labels[f], labels[g]),
        lambda n: A._ident[pairs[n][0]],
    )
    return K, pair_id, labels


def fiber_inclusion(F: FinFunctor, z, side: str) -> FinFunctor:
    """The inclusion x -> (x, id_z) of the strict fiber of F over z into the
    comma category z/F (side "under") or F/z (side "over").

    The strict fiber, the domain of the result, holds the x with F(x) == z
    and the arrows sent to id_z.  The comma is its codomain: objects are
    pairs (w, g) with g an arrow z -> F(w) under, F(w) -> z over, and an
    arrow (w, g) -> (w2, g2) is a domain arrow m: w -> w2 whose image makes
    the triangle with g and g2 commute; it is labelled by m.
    """
    try:
        z = F.cod._oid[z]
    except KeyError:
        raise CategoryError(f"{z} is not an object of the codomain") from None
    if side not in ("under", "over"):
        raise ValueError(f"side must be 'under' or 'over', not {side!r}")
    id_z = F.cod._ident[z]
    objs = [x for x, y in enumerate(F._omap) if y == z]
    fib, kept = _subcategory(F.dom, objs, lambda u: F._amap[u] == id_z)
    K, pair_id, labels = _comma(F, z, side)
    omap = [pair_id.get((x, id_z), -1) for x in objs]
    amap = [
        next((b for b in K._homset(omap[s], omap[t]) if labels[b] == u), -1)
        for s, t, u in zip(fib._src, fib._dst, kept)
    ]
    return FinFunctor._of_ids(fib, K, omap, amap)


def grothendieck(base: FinCategory, fibers, transitions) -> FinCategory:
    """The total category of a diagram of categories over a base.

    fibers maps each base object to a FinCategory and transitions maps each
    base arrow to a FinFunctor between the matching fibers.  Functoriality
    of the assignment (identities to identity functors, composites to
    composites) is verified before the total category is assembled.
    """
    fibers = dict(fibers)
    transitions = dict(transitions)
    if set(fibers) != set(base.objects):
        raise CategoryError("fibers must cover exactly the base objects")
    if set(transitions) != set(base.arrows):
        raise CategoryError("transitions must cover exactly the base arrows")
    fib = [fibers[b] for b in base.objects]
    trans = [transitions[a] for a in base.arrows]
    for a, T in enumerate(trans):
        if T.dom is not fib[base._src[a]] or T.cod is not fib[base._dst[a]]:
            raise CategoryError(f"transition along {base.arrows[a]} joins the wrong fibers")
    for b, e in enumerate(base._ident):
        T = trans[e]
        if T._omap != list(range(len(fib[b].objects))) or T._amap != list(
            range(len(fib[b].arrows))
        ):
            raise CategoryError(
                f"identity transition at {base.objects[b]} is not the identity"
            )
    for f, g, h in base._triples():
        Tf, Tg, Th = trans[f], trans[g], trans[h]
        if any(Th._omap[x] != Tg._omap[y] for x, y in enumerate(Tf._omap)) or any(
            Th._amap[u] != Tg._amap[v] for u, v in enumerate(Tf._amap)
        ):
            raise CategoryError(
                f"transitions are not functorial over"
                f" ({base.arrows[f]}, {base.arrows[g]})"
            )

    start = [0]
    for F in fib:
        start.append(start[-1] + len(F.objects))
    objects = tuple(
        (b, x) for b, F in zip(base.objects, fib) for x in F.objects
    )
    src, dst, labels = [], [], []
    for f, (s, t) in enumerate(zip(base._src, base._dst)):
        omap, target = trans[f]._omap, fib[t]
        for x in range(len(fib[s].objects)):
            for u in target._out[omap[x]]:
                src.append(start[s] + x)
                dst.append(start[t] + target._dst[u])
                labels.append((f, u))
    units = [(base._ident[b], e) for b, F in enumerate(fib) for e in F._ident]

    def combine(big, small):
        f, u = labels[small]
        g, v = labels[big]
        return (
            base._composite(f, g),
            fib[base._dst[g]]._composite(trans[g]._amap[u], v),
        )

    return _labelled(
        objects, src, dst, labels,
        lambda fu: (base.arrows[fu[0]], fib[base._dst[fu[0]]].arrows[fu[1]]),
        combine, units.__getitem__,
    )


def _matching_arrow(C: FinCategory, s: int, t: int, a: Arrow) -> int:
    """The id of the arrow s -> t of C equal to the payload a, or -1."""
    return next((b for b in C._homset(s, t) if C.arrows[b] == a), -1)


def _inclusion(dom: FinCategory, cod: FinCategory) -> FinFunctor:
    """The functor sending each object and arrow of dom to its equal in cod."""
    omap = [cod._oid.get(x, -1) for x in dom.objects]
    amap = [
        _matching_arrow(cod, omap[s], omap[t], a)
        for s, t, a in zip(dom._src, dom._dst, dom.arrows)
    ]
    return FinFunctor._of_ids(dom, cod, omap, amap)


# --- comma categories of the operad --------------------------------------------

def _point(x) -> FinCategory:
    """The category with the one object x and its identity, labelled ()."""
    return _labelled(
        (x,), [0], [0], [()], lambda label: label, lambda g, f: (), lambda n: ()
    )


# the operations on tree with k whites, validated once for every
# build_comma and comma read off them: the objects of build_comma(tree, k),
# and with k = 1 the unary arguments of any build_comma
_operations = lru_cache(maxsize=None)(operations)


@lru_cache(maxsize=None)
def _complexity_classes(tree, k: int):
    """(values, cls): the distinct complexities of _operations(tree, k) in
    order of first appearance, and for each operation the index of its own."""
    index, cls = {}, []
    for x in map(complexity, _operations(tree, k)):
        cls.append(index.setdefault(x, len(index)))
    return tuple(index), tuple(cls)


def _ids_below(tree, k: int, cell: KElt) -> list:
    """The ids of the configurations whose complexity is at most cell, in
    order; k_leq runs once per distinct complexity."""
    values, cls = _complexity_classes(tree, k)
    below = [k_leq(x, cell) for x in values]
    return [n for n, c in enumerate(cls) if below[c]]


@lru_cache(maxsize=None)
def build_comma(tree, k: int) -> FinCategory:
    """The category of k-white configurations on tree.

    Arrows o -> o2 are k-tuples of unary operations, one per white circle of
    o2, whose substitution into o2 yields o.  With k = 0 the category is
    terminal: the bare tree and its identity.  The only compose sweep of the
    commas: unary operations are numbered as they are met, arrows are told
    apart by id tuples, and each pair of unary ids is composed once.

    Each composite is made by compose_terms and certified by identity: its
    term must be one of the validated objects (or, for two unaries, one of
    the validated unary operations), and that operation's profile must be
    the one compose would require.  A validated operation equal to the term
    is what compose would build, so its term is not validated again.
    """
    if k < 0:
        raise ValueError("white count must be nonnegative")
    if k == 0:
        return _point(tree)
    ops = _operations(tree, k)
    objects = tuple(o.term for o in ops)
    oid = {o: n for n, o in enumerate(objects)}
    unary_ops, unary_id = [], {}

    @lru_cache(maxsize=None)
    def unaries(source) -> tuple:
        first = len(unary_ops)
        unary_ops.extend(_operations(source, 1))
        for n in range(first, len(unary_ops)):
            unary_id[unary_ops[n].term] = n
        return tuple(range(first, len(unary_ops)))

    src, dst, labels = [], [], []
    for t, op2 in enumerate(ops):
        for combo in product(*(unaries(s) for s in op2.sources)):
            args = tuple(unary_ops[p] for p in combo)
            term = compose_terms(op2, args)
            s = oid.get(term)
            if s is None:
                raise CategoryError(
                    f"composite {term} into {objects[t]} is not an object")
            _require_profile(ops[s], op2, args)
            src.append(s)
            dst.append(t)
            labels.append(combo)

    @lru_cache(maxsize=None)
    def composite(q: int, p: int) -> int:
        args = (unary_ops[p],)
        n = unary_id.get(compose_terms(unary_ops[q], args), -1)
        if n >= 0:
            _require_profile(unary_ops[n], unary_ops[q], args)
        return n

    def combine(g, f):
        return tuple(map(composite, labels[g], labels[f]))

    @lru_cache(maxsize=None)
    def identity_id(source) -> int:
        return unary_id.get(identity_op(source).term, -1)

    def unit(n):
        return tuple(map(identity_id, ops[n].sources))

    return _labelled(
        objects, src, dst, labels,
        lambda combo: tuple(unary_ops[p].term for p in combo), combine, unit,
    )


@lru_cache(maxsize=None)
def comma_below(tree, cell: KElt) -> FinCategory:
    """Configurations on tree whose complexity is bounded by the given cell.

    The full subcategory of build_comma(tree, cell.k) on them; if there are
    none, the empty category, and build_comma is not built.  The bare tree is
    the one configuration without whites, and the only arity-0 cell is below
    itself, so an arity-0 cell gives build_comma(tree, 0).
    """
    if cell.k == 0:
        return build_comma(tree, 0)
    ids = _ids_below(tree, cell.k, cell)
    if not ids:
        return _labelled((), [], [], [], None, None, None)
    return _subcategory(build_comma(tree, cell.k), ids, lambda a: True)[0]


@lru_cache(maxsize=None)
def build_hat_comma(tree, level: int = 2, k: int = 2) -> FinCategory:
    """The category of pairs (configuration, graph tag) below the filtration.

    Objects are pairs (o, kappa) with kappa an arity-k element of the given
    filtration stage and the complexity of o bounded by the shift of kappa.
    An arrow (o, kappa) -> (o2, kappa2) is an arrow o -> o2 of build_comma,
    available whenever kappa <= kappa2, and composes as there.  With k = 0
    the one object is the bare tree with the one arity-0 tag.
    """
    kappas = k_enumerate(level, k)
    if k == 0:
        return _point((tree, kappas[0]))
    ops = _operations(tree, k)
    tagged = [(n, kap) for kap in kappas for n in _ids_below(tree, k, k_iota(kap))]
    carrying = [[] for _ in ops]
    for x, (n, _) in enumerate(tagged):
        carrying[n].append(x)
    C = build_comma(tree, k)
    src, dst, base = [], [], []
    for t, (n2, kap2) in enumerate(tagged):
        for a in C._into[n2]:
            for s in carrying[C._src[a]]:
                if k_leq(tagged[s][1], kap2):
                    src.append(s)
                    dst.append(t)
                    base.append(a)
    return _labelled(
        tuple((ops[n].term, kap) for n, kap in tagged), src, dst, base,
        lambda a: C.arrows[a].label,
        lambda g, f: C._composite(base[f], base[g]),
        lambda x: C._ident[tagged[x][0]],
    )


def hat_comma_grothendieck(tree, level: int = 2, k: int = 2) -> FinCategory:
    """The Grothendieck total of the filtered comma diagram over the tag poset."""
    kappas = k_enumerate(level, k)
    base = poset_category(kappas, k_leq)
    fibers = {
        kap: comma_below(tree, k_iota(kap)) for kap in kappas
    }
    transitions = {a: _inclusion(fibers[a.src], fibers[a.dst]) for a in base.arrows}
    return grothendieck(base, fibers, transitions)


def hat_comma_isomorphism(tree, level: int = 2, k: int = 2) -> FinFunctor:
    """The canonical matching of the hat comma with its Grothendieck model.

    Returns the forward functor after checking that it is onto the objects
    and the arrows of the Grothendieck model; a failure raises
    CategoryError.  It is one-to-one by construction, so that is not
    checked: distinct hat objects and arrows look up distinct keys.
    """
    hat = build_hat_comma(tree, level, k)
    total = hat_comma_grothendieck(tree, level, k)
    omap = [total._oid.get((kap, o), -1) for (o, kap) in hat.objects]
    amap = []
    for a, s, t in zip(hat.arrows, hat._src, hat._dst):
        o, kap = a.src
        o2, kap2 = a.dst
        image = Arrow(
            (kap, o), (kap2, o2), (Arrow(kap, kap2, None), Arrow(o, o2, a.label))
        )
        b = _matching_arrow(total, omap[s], omap[t], image)
        if b < 0:
            raise CategoryError(f"no matching total arrow for {a}")
        amap.append(b)
    forward = FinFunctor._of_ids(hat, total, omap, amap)
    if set(omap) != set(range(len(total.objects))):
        raise CategoryError("object matching is not a bijection")
    if len(set(amap)) != len(total.arrows):
        raise CategoryError("arrow matching is not a bijection")
    return forward


# --- the deletion functor -------------------------------------------------------

def _delete_white(term, label):
    """Splice one white circle, restore validity, and renumber the rest."""
    addr = white_addresses(term)[label]
    reduced = reduce_term(splice(term, addr))
    survivors = sorted(white_addresses(reduced))
    return relabel_whites(reduced, {w: n for n, w in enumerate(survivors, start=1)})


def deletion_functor(tree, cell: KElt) -> FinFunctor:
    """Forget the white circle the cell ranks first, across comma_below(tree, cell).

    Objects lose that white circle (plus whatever circles become invalid)
    and arrows drop the matching unary component.  Requires every edge label
    of the cell to be at least one.
    """
    if cell.k < 2:
        raise ValueError("deletion needs at least two white circles")
    if any(cell.mu(i, j) < 1 for i, j in vertex_pairs(cell.k)):
        raise ValueError("deletion requires every edge label to be at least 1")
    lead = cell.perm.index(1) + 1
    dom = comma_below(tree, cell)
    cod = comma_below(tree, kelt_delete_vertex(cell, lead))
    omap = [cod._oid.get(_delete_white(o, lead), -1) for o in dom.objects]
    amap = []
    for a, s, t in zip(dom.arrows, dom._src, dom._dst):
        src, dst = omap[s], omap[t]
        b = -1
        if src >= 0 and dst >= 0:
            label = a.label[: lead - 1] + a.label[lead:]
            b = _matching_arrow(
                cod, src, dst, Arrow(cod.objects[src], cod.objects[dst], label))
        if b < 0:
            raise CategoryError(
                f"deleted image of {a.src} -> {a.dst} is not a codomain arrow"
            )
        amap.append(b)
    return FinFunctor._of_ids(dom, cod, omap, amap)


@dataclass(frozen=True)
class FiberAdjointReport:
    """Certificates that a fiber carries the homotopy type of its comma.

    fiber_terminal makes the fiber's nerve contractible; one approximation
    per coslice object certifies that the fiber inclusion admits a right
    adjoint, so both nerves are homotopy equivalent.
    """

    target: object
    fiber_terminal: object
    approximations: tuple

    @property
    def ok(self) -> bool:
        return self.fiber_terminal is not None and all(
            r is not None for _, r in self.approximations
        )


def fiber_adjoint_report(F: FinFunctor, target) -> FiberAdjointReport:
    """Terminal fiber object plus a universal approximation per coslice object.

    The approximation of a coslice object z is the terminal object of the
    comma category (inclusion / z): the closest fiber object mapping to z.
    Having one for every z certifies that the inclusion of the fiber into
    the coslice admits a right adjoint.  On the over side the analogous
    left adjoint to the inclusion into the slice need not exist, so the
    coslice is the side that carries the adjunction.
    """
    inclusion = fiber_inclusion(F, target, "under")
    terminal = find_terminal(inclusion.dom)
    approximations = tuple(
        (z, find_terminal(_comma(inclusion, n, "over")[0]))
        for n, z in enumerate(inclusion.cod.objects)
    )
    return FiberAdjointReport(target, terminal, approximations)


# --- nerves and homology ---------------------------------------------------------

def _require_loop_free(C: FinCategory):
    """Raise unless no two objects have arrows both ways, read off the hom
    index.  C is thin, so the one endomorphism of each object is its
    identity."""
    at = C._at
    for x, y in zip(C._src, C._dst):
        if x != y and (y, x) in at:
            raise CategoryError(
                f"not loop-free: arrows both ways between {C.objects[x]}"
                f" and {C.objects[y]}"
            )


def nerve(C: FinCategory, max_dim: int) -> ChainComplex:
    """The normalized nerve as an integer chain complex, up to max_dim.

    Requires the category to be loop-free, which guarantees finitely many
    nondegenerate simplices: the n-chains are the composable strings of n
    nonidentity arrows.  Degree 0 is the objects in order, degree 1 the
    nonidentity arrows in order, and each higher degree lists its strings
    in the order of the string without its last arrow, then of that last
    arrow among the arrows out of its source.

    No string is held.  Each boundary is stored as compressed columns: the
    column of an n-chain is the rows of its n+1 faces, appended to one flat
    list, with the same signs in every column.  An n-chain is known by its
    last arrow and its column, and that is enough to write the next
    boundary.  The children of an (n-1)-chain q are numbered from start[q]
    on, each at start[q] + place[g] for its last arrow g, so for an n-chain
    c with faces r_0..r_n and an arrow g out of its last target, the
    (n+1)-chain c g has the faces start[r_i] + place[g] for i < n (face i of
    c, then g), start[r_n] + place[h] for h the composite of c's last arrow
    and g, and c itself.  For n >= 2, place[g] is g's place among the
    arrows out of its source; the 1-chains are numbered in arrow order, so
    start is 0 on every object and place[g] is g's place among the
    nonidentity arrows.  Each level is dropped once the next boundary is
    written.  Loop-free: the objects of a chain are distinct, so its faces
    are distinct rows, which IntMatrix checks.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    _require_loop_free(C)
    src, dst, at = C._src, C._dst, C._at
    nonid = [a for a, x in enumerate(src) if C._ident[x] != a]
    nonid_from = [[] for _ in C.objects]
    place = [0] * len(src)
    pos = [0] * len(src)
    for r, a in enumerate(nonid):
        place[a] = r
        pos[a] = len(nonid_from[src[a]])
        nonid_from[src[a]].append(a)
    dims = [len(C.objects)]
    matrices = []
    rows = []
    for f in nonid:
        rows += (dst[f], src[f])
    last, start = nonid, [0] * len(C.objects)
    for n in range(1, max_dim + 1):
        dims.append(len(last))
        matrices.append(_face_columns(dims[n - 1], n + 1, rows))
        if n == max_dim:
            break
        faces, width = rows, n + 1
        # one int per n-chain, which every row naming it shares
        ids = list(range(len(last)))
        rows, children, first_child = [], [], []
        for j, f in zip(ids, last):
            first_child.append(len(children))
            out = nonid_from[dst[f]]
            if not out:
                continue
            base = [start[r] for r in faces[j * width:(j + 1) * width]]
            tail = base.pop()
            for g in out:
                p = place[g]
                rows += [ids[b + p] for b in base]
                rows += (ids[tail + place[at[src[f], dst[g]]]], j)
                children.append(g)
        last, start, place = children, first_child, pos
    return ChainComplex(tuple(dims), tuple(matrices))


def _face_columns(nrows: int, width: int, rows: list) -> IntMatrix:
    """The boundary whose columns are rows cut width at a time, each
    signed +1, -1, +1, ... in face order."""
    ncols = len(rows) // width
    signs = [(-1) ** i for i in range(width)]
    return IntMatrix._of_columns(
        nrows, ncols, range(0, len(rows) + 1, width), rows, signs * ncols
    )


def nerve_homology(C: FinCategory, max_dim: int = 3) -> HomologyResult:
    """Exact homology of the nerve in degrees 0..max_dim.

    Chains one dimension above max_dim are included so the top reported
    degree has its full boundary map.
    """
    h = homology(nerve(C, max_dim + 1))
    return HomologyResult(h.betti[: max_dim + 1], h.torsion[: max_dim + 1])


@dataclass(frozen=True)
class AcyclicityReport:
    """Whether a category's nerve looks like a point through a given degree."""

    object_count: int
    component_count: int
    reduced_betti: tuple
    torsion: tuple

    @property
    def acyclic(self) -> bool:
        return (
            self.object_count > 0
            and self.component_count == 1
            and all(b == 0 for b in self.reduced_betti)
            and all(not t for t in self.torsion)
        )


def acyclicity_report(C: FinCategory, max_dim: int = 3) -> AcyclicityReport:
    """Nonemptiness, connectivity, and reduced homology through max_dim."""
    if not C.objects:
        return AcyclicityReport(0, 0, (), ())
    h = nerve_homology(C, max_dim)
    reduced = (h.betti[0] - 1,) + h.betti[1:]
    return AcyclicityReport(len(C.objects), h.betti[0], reduced, h.torsion)
