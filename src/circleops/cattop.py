"""Finite categories built from circled-tree operations, and their homology.

A FinCategory is a finite category presented by an explicit composition
table; every categorical axiom is checked at construction time, so a value
of the type is itself a certificate.  On top of that sit the standard
constructions used by the verification suites: full subcategories, posets,
the comma categories z/F and F/z of a functor (comma, with side "under" or
"over"), its strict fiber over z (fiber) and the inclusion x -> (x, id_z)
of that fiber into either comma (fiber_inclusion), and the Grothendieck
total of a diagram of categories.

The bridge to the operad is build_comma: its objects are the k-white
configurations on a fixed tree and its arrows are k-tuples of unary
operations composing one object into another.  The tagged comma category
build_hat_comma has the same arrows between (configuration, tag) pairs
whose tags are ordered.  Bounding the complexity of the objects by a fixed
labelled graph gives the filtered subcategories the acyclicity suites run
on, and forgetting a distinguished white circle gives the deletion functor
whose fibers certify the contraction argument.

Nerves of loop-free categories are turned into integer chain complexes,
one chain per composable string of nonidentity arrows, so homology is
computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .circled import enumerate_configs, relabel_whites, splice, white_addresses
from .homology import ChainComplex, HomologyResult, homology, matrix_from_dict
from .kgraph import (
    KElt,
    k_enumerate,
    k_iota,
    k_leq,
    kelt_delete_vertex,
    vertex_pairs,
)
from .operad_h import HOperation, complexity, compose, identity_op, reduce_term


class CategoryError(ValueError):
    """Raised when a category, functor, or construction violates its laws."""


@dataclass(frozen=True)
class Arrow:
    """A morphism; parallel arrows are told apart by their label."""

    src: object
    dst: object
    label: object


class FinCategory:
    """A finite category with an explicit, verified composition table.

    identities maps each object to its identity arrow and table maps every
    composable pair (g, f) with f.dst == g.src to the composite g after f.
    """

    def __init__(self, objects, arrows, identities, table):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.identities = dict(identities)
        self.table = dict(table)
        self._by_src = {}
        self._by_dst = {}
        self._hom = {}
        for a in self.arrows:
            self._by_src.setdefault(a.src, []).append(a)
            self._by_dst.setdefault(a.dst, []).append(a)
            self._hom.setdefault((a.src, a.dst), []).append(a)
        self._verify()

    def identity(self, x) -> Arrow:
        return self.identities[x]

    def is_identity(self, a: Arrow) -> bool:
        return self.identities.get(a.src) == a

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        """The composite g after f."""
        try:
            return self.table[(g, f)]
        except KeyError:
            raise CategoryError(f"arrows do not compose: {f} then {g}") from None

    def hom(self, x, y) -> tuple:
        return tuple(self._hom.get((x, y), ()))

    def arrows_from(self, x) -> tuple:
        return tuple(self._by_src.get(x, ()))

    def arrows_to(self, x) -> tuple:
        return tuple(self._by_dst.get(x, ()))

    def nonidentity_arrows(self) -> tuple:
        return tuple(a for a in self.arrows if not self.is_identity(a))

    def _verify(self):
        objset = set(self.objects)
        if len(objset) != len(self.objects):
            raise CategoryError("duplicate objects")
        arrset = set(self.arrows)
        if len(arrset) != len(self.arrows):
            raise CategoryError("duplicate arrows")
        for a in self.arrows:
            if a.src not in objset or a.dst not in objset:
                raise CategoryError(f"arrow endpoints outside the category: {a}")
        if set(self.identities) != objset:
            raise CategoryError("identities must cover exactly the objects")
        for x, e in self.identities.items():
            if e not in arrset or e.src != x or e.dst != x:
                raise CategoryError(f"bad identity arrow at {x}")
        composable = sum(len(self._by_src.get(f.dst, ())) for f in self.arrows)
        if len(self.table) != composable:
            raise CategoryError(
                f"composition table has {len(self.table)} entries,"
                f" expected {composable}"
            )
        for (g, f), h in self.table.items():
            if f not in arrset or g not in arrset or h not in arrset:
                raise CategoryError("composition table mentions unknown arrows")
            if f.dst != g.src:
                raise CategoryError(f"table entry for non-composable pair ({f}, {g})")
            if h.src != f.src or h.dst != g.dst:
                raise CategoryError(f"composite of ({f}, {g}) has wrong endpoints")
        for f in self.arrows:
            if (
                self.table[(f, self.identities[f.src])] != f
                or self.table[(self.identities[f.dst], f)] != f
            ):
                raise CategoryError(f"unit law fails at {f}")
        for f in self.arrows:
            for g in self._by_src.get(f.dst, ()):
                gf = self.table[(g, f)]
                for h in self._by_src.get(g.dst, ()):
                    if self.table[(h, gf)] != self.table[(self.table[(h, g)], f)]:
                        raise CategoryError(
                            f"associativity fails on {f} then {g} then {h}"
                        )


class FinFunctor:
    """A functor between FinCategories, verified at construction time."""

    def __init__(self, dom: FinCategory, cod: FinCategory, object_map, arrow_map):
        self.dom = dom
        self.cod = cod
        self.object_map = dict(object_map)
        self.arrow_map = dict(arrow_map)
        if set(self.object_map) != set(dom.objects):
            raise CategoryError("object map must cover exactly the domain objects")
        if set(self.arrow_map) != set(dom.arrows):
            raise CategoryError("arrow map must cover exactly the domain arrows")
        cod_objects = set(cod.objects)
        cod_arrows = set(cod.arrows)
        for x, y in self.object_map.items():
            if y not in cod_objects:
                raise CategoryError(f"image of {x} is not a codomain object")
        for a, b in self.arrow_map.items():
            if b not in cod_arrows:
                raise CategoryError(f"image of {a} is not a codomain arrow")
            if b.src != self.object_map[a.src] or b.dst != self.object_map[a.dst]:
                raise CategoryError(f"functor breaks endpoints on {a}")
        for x in dom.objects:
            if self.arrow_map[dom.identity(x)] != cod.identity(self.object_map[x]):
                raise CategoryError(f"functor breaks the identity at {x}")
        for (g, f), h in dom.table.items():
            if self.arrow_map[h] != cod.compose(self.arrow_map[g], self.arrow_map[f]):
                raise CategoryError(f"functor breaks composition on ({f}, {g})")

    def obj(self, x):
        return self.object_map[x]

    def arr(self, a: Arrow) -> Arrow:
        return self.arrow_map[a]


def _table_from(arrows, combine) -> dict:
    """Composition table whose entries are found by label; raises if one is missing."""
    index = {}
    for a in arrows:
        key = (a.src, a.dst, a.label)
        if key in index:
            raise CategoryError(f"two arrows share source, target and label: {key}")
        index[key] = a
    by_src = {}
    for a in arrows:
        by_src.setdefault(a.src, []).append(a)
    table = {}
    for f in arrows:
        for g in by_src.get(f.dst, ()):
            h = index.get((f.src, g.dst, combine(g, f)))
            if h is None:
                raise CategoryError(f"composite of {f} then {g} is not an arrow")
            table[(g, f)] = h
    return table


# --- general constructions ----------------------------------------------------

def poset_category(elements, leq) -> FinCategory:
    """The thin category of a preorder; composition exists by transitivity."""
    elements = tuple(elements)
    arrows = tuple(
        Arrow(x, y, None) for x in elements for y in elements if leq(x, y)
    )
    identities = {}
    for x in elements:
        if not leq(x, x):
            raise CategoryError(f"order is not reflexive at {x}")
        identities[x] = Arrow(x, x, None)
    table = _table_from(arrows, lambda g, f: None)
    return FinCategory(elements, arrows, identities, table)


def _subcategory(C: FinCategory, keep_object, keep_arrow) -> FinCategory:
    """The subcategory of the objects and arrows that pass the two predicates.

    Identities and composites are inherited from C, so keep_arrow must pass
    identities and be closed under composition.
    """
    objs = tuple(x for x in C.objects if keep_object(x))
    keep = set(objs)
    arrows = tuple(
        a for a in C.arrows if a.src in keep and a.dst in keep and keep_arrow(a)
    )
    arrset = set(arrows)
    table = {
        (g, f): h for (g, f), h in C.table.items() if g in arrset and f in arrset
    }
    return FinCategory(objs, arrows, {x: C.identity(x) for x in objs}, table)


def full_subcategory(C: FinCategory, predicate) -> FinCategory:
    """The full subcategory on the objects satisfying the predicate."""
    return _subcategory(C, predicate, lambda a: True)


def identity_functor(C: FinCategory) -> FinFunctor:
    return FinFunctor(C, C, {x: x for x in C.objects}, {a: a for a in C.arrows})


def find_terminal(C: FinCategory):
    """The terminal object if one exists, else None."""
    for t in C.objects:
        if all(len(C.hom(x, t)) == 1 for x in C.objects):
            return t
    return None


def find_initial(C: FinCategory):
    """The initial object if one exists, else None."""
    for i in C.objects:
        if all(len(C.hom(i, x)) == 1 for x in C.objects):
            return i
    return None


def _codomain_identity(F: FinFunctor, z) -> Arrow:
    """id_z in F's codomain; raises CategoryError if z is not an object there."""
    try:
        return F.cod.identities[z]
    except KeyError:
        raise CategoryError(f"{z} is not an object of the codomain") from None


def comma(F: FinFunctor, z, side: str) -> FinCategory:
    """The comma category z/F (side "under") or F/z (side "over").

    Objects are pairs (w, g) with g an arrow z -> F(w) under, F(w) -> z over.
    An arrow (w, g) -> (w2, g2) is a domain arrow m: w -> w2 whose image
    makes the triangle with g and g2 commute; it is labelled by m.
    """
    if side not in ("under", "over"):
        raise ValueError(f"side must be 'under' or 'over', not {side!r}")
    A, B = F.dom, F.cod
    _codomain_identity(F, z)
    arrows = []
    if side == "under":
        objects = tuple((w, g) for w in A.objects for g in B.hom(z, F.obj(w)))
        for m in A.arrows:
            fm = F.arr(m)
            for g in B.hom(z, F.obj(m.src)):
                arrows.append(Arrow((m.src, g), (m.dst, B.compose(fm, g)), m))
    else:
        objects = tuple((w, g) for w in A.objects for g in B.hom(F.obj(w), z))
        for m in A.arrows:
            fm = F.arr(m)
            for g in B.hom(F.obj(m.dst), z):
                arrows.append(Arrow((m.src, B.compose(g, fm)), (m.dst, g), m))
    identities = {
        (w, g): Arrow((w, g), (w, g), A.identity(w)) for (w, g) in objects
    }
    table = _table_from(arrows, lambda g, f: A.compose(g.label, f.label))
    return FinCategory(objects, arrows, identities, table)


def fiber(F: FinFunctor, z) -> FinCategory:
    """The strict fiber over z: the x with F(x) == z and the arrows onto id_z."""
    id_z = _codomain_identity(F, z)
    return _subcategory(F.dom, lambda x: F.obj(x) == z, lambda u: F.arr(u) == id_z)


def fiber_inclusion(F: FinFunctor, z, side: str) -> FinFunctor:
    """The inclusion x -> (x, id_z) of fiber(F, z) into comma(F, z, side)."""
    fiber_cat = fiber(F, z)
    id_z = F.cod.identity(z)
    return FinFunctor(
        fiber_cat,
        comma(F, z, side),
        {x: (x, id_z) for x in fiber_cat.objects},
        {u: Arrow((u.src, id_z), (u.dst, id_z), u) for u in fiber_cat.arrows},
    )


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
    for a, T in transitions.items():
        if T.dom is not fibers[a.src] or T.cod is not fibers[a.dst]:
            raise CategoryError(f"transition along {a} joins the wrong fibers")
    for b in base.objects:
        T = transitions[base.identity(b)]
        fb = fibers[b]
        if any(T.obj(x) != x for x in fb.objects) or any(
            T.arr(u) != u for u in fb.arrows
        ):
            raise CategoryError(f"identity transition at {b} is not the identity")
    for (g, f), h in base.table.items():
        Tg, Tf, Th = transitions[g], transitions[f], transitions[h]
        fb = fibers[f.src]
        if any(Th.obj(x) != Tg.obj(Tf.obj(x)) for x in fb.objects) or any(
            Th.arr(u) != Tg.arr(Tf.arr(u)) for u in fb.arrows
        ):
            raise CategoryError(f"transitions are not functorial over ({f}, {g})")

    objects = tuple((b, x) for b in base.objects for x in fibers[b].objects)
    arrows = []
    for f in base.arrows:
        T = transitions[f]
        for x in fibers[f.src].objects:
            for u in fibers[f.dst].arrows_from(T.obj(x)):
                arrows.append(Arrow((f.src, x), (f.dst, u.dst), (f, u)))
    identities = {
        (b, x): Arrow((b, x), (b, x), (base.identity(b), fibers[b].identity(x)))
        for (b, x) in objects
    }

    def combine(big, small):
        f, u = small.label
        g, v = big.label
        return (base.compose(g, f), fibers[g.dst].compose(v, transitions[g].arr(u)))

    table = _table_from(arrows, combine)
    return FinCategory(objects, arrows, identities, table)


def grothendieck_projection(total: FinCategory, base: FinCategory) -> FinFunctor:
    """The projection of a Grothendieck total onto its base."""
    return FinFunctor(
        total,
        base,
        {pair: pair[0] for pair in total.objects},
        {a: a.label[0] for a in total.arrows},
    )


# --- comma categories of the operad --------------------------------------------

def _unary_comma(objects, config, related) -> FinCategory:
    """The category on objects whose arrows are tuples of unary operations.

    Each object x carries the configuration config(x).  An arrow x -> x2 is
    a tuple of unary operations, one per white circle of config(x2), whose
    substitution into config(x2) yields config(x), for every x with
    related(x, x2).  Only arrows with both ends in objects are built, which
    keeps filtered commas cheap.
    """
    opify = lru_cache(maxsize=None)(HOperation)
    unaries = lru_cache(maxsize=None)(lambda source: enumerate_configs(source, 1))
    carrying = {}
    for x in objects:
        carrying.setdefault(config(x), []).append(x)
    arrows = []
    for x2 in objects:
        op2 = opify(config(x2))
        for combo in product(*(unaries(s) for s in op2.sources)):
            src = compose(op2, tuple(opify(p) for p in combo)).term
            for x in carrying.get(src, ()):
                if related(x, x2):
                    arrows.append(Arrow(x, x2, combo))
    index = {(a.src, a.dst, a.label): a for a in arrows}
    identities = {}
    for x in objects:
        ids = tuple(identity_op(s).term for s in opify(config(x)).sources)
        identities[x] = index[(x, x, ids)]

    def combine(g, f):
        return tuple(
            compose(opify(q), (opify(p),)).term for q, p in zip(g.label, f.label)
        )

    table = _table_from(arrows, combine)
    return FinCategory(objects, arrows, identities, table)


def _comma_on_objects(objs) -> FinCategory:
    """The full subcategory of the comma category on the given configurations."""
    return _unary_comma(objs, lambda o: o, lambda o, o2: True)


@lru_cache(maxsize=None)
def build_comma(tree, k: int) -> FinCategory:
    """The category of k-white configurations on tree.

    Arrows o -> o2 are k-tuples of unary operations, one per white circle of
    o2, whose substitution into o2 yields o.  With k = 0 the category is
    terminal: the bare tree and its identity.
    """
    if k < 0:
        raise ValueError("white count must be nonnegative")
    if k == 0:
        ident = Arrow(tree, tree, ())
        return FinCategory((tree,), (ident,), {tree: ident}, {(ident, ident): ident})
    # every composite of a config with unaries is again a config, so no
    # arrow is lost to the endpoint filter
    return _comma_on_objects(enumerate_configs(tree, k))


@lru_cache(maxsize=None)
def _complexity_of(term) -> KElt:
    return complexity(HOperation(term))


@lru_cache(maxsize=None)
def comma_below(tree, cell: KElt) -> FinCategory:
    """Configurations on tree whose complexity is bounded by the given cell."""
    if cell.k == 0:
        return full_subcategory(
            build_comma(tree, 0), lambda o: k_leq(_complexity_of(o), cell)
        )
    keep = tuple(
        o for o in enumerate_configs(tree, cell.k)
        if k_leq(_complexity_of(o), cell)
    )
    return _comma_on_objects(keep)


@lru_cache(maxsize=None)
def build_hat_comma(tree, level: int = 2, k: int = 2) -> FinCategory:
    """The category of pairs (configuration, graph tag) below the filtration.

    Objects are pairs (o, kappa) with kappa an arity-k element of the given
    filtration stage and the complexity of o bounded by the shift of kappa.
    An arrow (o, kappa) -> (o2, kappa2) is a unary tuple composing o2 into o,
    available whenever kappa <= kappa2.
    """
    kappas = k_enumerate(level, k)
    objs = enumerate_configs(tree, k)
    objects = tuple(
        (o, kap)
        for kap in kappas
        for o in objs
        if k_leq(_complexity_of(o), k_iota(kap))
    )
    return _unary_comma(objects, lambda x: x[0], lambda x, x2: k_leq(x[1], x2[1]))


def hat_comma_grothendieck(tree, level: int = 2, k: int = 2) -> FinCategory:
    """The Grothendieck total of the filtered comma diagram over the tag poset."""
    kappas = k_enumerate(level, k)
    base = poset_category(kappas, k_leq)
    fibers = {
        kap: comma_below(tree, k_iota(kap)) for kap in kappas
    }
    transitions = {}
    for a in base.arrows:
        dom, cod = fibers[a.src], fibers[a.dst]
        transitions[a] = FinFunctor(
            dom,
            cod,
            {o: o for o in dom.objects},
            {u: u for u in dom.arrows},
        )
    return grothendieck(base, fibers, transitions)


def hat_comma_isomorphism(tree, level: int = 2, k: int = 2) -> FinFunctor:
    """The canonical matching of the hat comma with its Grothendieck model.

    Returns the forward functor after checking it is bijective on objects
    and arrows; a failure raises CategoryError.
    """
    hat = build_hat_comma(tree, level, k)
    total = hat_comma_grothendieck(tree, level, k)
    object_map = {(o, kap): (kap, o) for (o, kap) in hat.objects}
    total_arrows = set(total.arrows)
    arrow_map = {}
    for a in hat.arrows:
        o, kap = a.src
        o2, kap2 = a.dst
        image = Arrow(
            (kap, o), (kap2, o2), (Arrow(kap, kap2, None), Arrow(o, o2, a.label))
        )
        if image not in total_arrows:
            raise CategoryError(f"no matching total arrow for {a}")
        arrow_map[a] = image
    forward = FinFunctor(hat, total, object_map, arrow_map)
    if set(object_map.values()) != set(total.objects):
        raise CategoryError("object matching is not a bijection")
    if len(set(arrow_map.values())) != len(total.arrows):
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
    object_map = {o: _delete_white(o, lead) for o in dom.objects}
    index = {(a.src, a.dst, a.label): a for a in cod.arrows}
    arrow_map = {}
    for a in dom.arrows:
        label = a.label[: lead - 1] + a.label[lead:]
        key = (object_map[a.src], object_map[a.dst], label)
        if key not in index:
            raise CategoryError(
                f"deleted image of {a.src} -> {a.dst} is not a codomain arrow"
            )
        arrow_map[a] = index[key]
    return FinFunctor(dom, cod, object_map, arrow_map)


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
        (z, find_terminal(comma(inclusion, z, "over"))) for z in inclusion.cod.objects
    )
    return FiberAdjointReport(target, terminal, approximations)


# --- nerves and homology ---------------------------------------------------------

def _require_loop_free(C: FinCategory):
    pairs = set()
    for a in C.arrows:
        if C.is_identity(a):
            continue
        if a.src == a.dst:
            raise CategoryError(
                f"not loop-free: nonidentity endomorphism at {a.src}"
            )
        pairs.add((a.src, a.dst))
    for x, y in pairs:
        if (y, x) in pairs:
            raise CategoryError(f"not loop-free: arrows both ways between {x} and {y}")


def nerve(C: FinCategory, max_dim: int) -> ChainComplex:
    """The normalized nerve as an integer chain complex, up to max_dim.

    Requires the category to be loop-free, which guarantees finitely many
    nondegenerate simplices: the n-chains are the composable strings of n
    nonidentity arrows.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    _require_loop_free(C)
    nonid_from = {
        x: tuple(a for a in C.arrows_from(x) if not C.is_identity(a))
        for x in C.objects
    }
    levels = [tuple(C.objects)]
    current = [(a,) for a in C.arrows if not C.is_identity(a)]
    for _ in range(max_dim):
        levels.append(tuple(current))
        current = [
            chain + (g,) for chain in current for g in nonid_from[chain[-1].dst]
        ]
    levels = levels[: max_dim + 1]
    indexes = [{s: n for n, s in enumerate(level)} for level in levels]
    matrices = []
    for n in range(1, len(levels)):
        entries = {}
        below = indexes[n - 1]
        for col, chain in enumerate(levels[n]):
            if n == 1:
                f = chain[0]
                entries[(below[f.dst], col)] = entries.get((below[f.dst], col), 0) + 1
                entries[(below[f.src], col)] = entries.get((below[f.src], col), 0) - 1
                continue
            for i in range(n + 1):
                if i == 0:
                    face = chain[1:]
                elif i == n:
                    face = chain[:-1]
                else:
                    face = (
                        chain[: i - 1]
                        + (C.compose(chain[i], chain[i - 1]),)
                        + chain[i + 1 :]
                    )
                row = below[face]
                sign = -1 if i % 2 else 1
                entries[(row, col)] = entries.get((row, col), 0) + sign
        matrices.append(
            matrix_from_dict(len(levels[n - 1]), len(levels[n]), entries)
        )
    return ChainComplex(tuple(len(l) for l in levels), tuple(matrices))


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
