"""The operad of edge-labelled complete graphs with a vertex order.

An arity-k element is a complete graph on the vertices 1..k carrying a
nonnegative integer label on every edge together with a linear order of the
vertices.  Elements of the m-th filtration stage use labels below m.  The
partial order compares elements edgewise: an edge may either grow strictly
or keep both its label and its orientation, where the orientation of an edge
is which endpoint comes first in the vertex order.

Composition substitutes a graph into each vertex of an outer graph: edges
within a block keep the inner labels, edges across two blocks all inherit
the outer label of the corresponding outer edge, and the vertex order sorts
blocks by the outer order and members by the inner ones.  The shift map
raises every edge label by one and embeds each filtration stage in the next.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, permutations, product, repeat
from math import comb
from operator import lt


@dataclass(frozen=True)
class KElt:
    """A labelled complete graph on 1..k with a linear vertex order.

    labels runs over the vertex pairs (1,2), (1,3), ..., (k-1,k) in
    lexicographic order.  perm[i-1] is the position of vertex i in the
    vertex order, so i comes before j exactly when perm[i-1] < perm[j-1].

    The order is inclusion of down-sets.  On one edge, (a, s) sits below
    (b, t) when a < b or (a, s) == (b, t), which is exactly when the set of
    the pairs (m, o) with m < a, plus (a, s), lies inside that of (b, t);
    down caches those sets over all edges, so x <= y is x.down <= y.down.
    """

    k: int
    labels: tuple
    perm: tuple

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("arity must be nonnegative")
        if len(self.labels) != comb(self.k, 2):
            raise ValueError(
                f"expected {comb(self.k, 2)} edge labels for arity {self.k},"
                f" got {len(self.labels)}"
            )
        if any(not isinstance(l, int) or l < 0 for l in self.labels):
            raise ValueError("edge labels must be nonnegative integers")
        if sorted(self.perm) != list(range(1, self.k + 1)):
            raise ValueError(f"perm {self.perm} is not a permutation of 1..{self.k}")

    @cached_property
    def down(self) -> frozenset | None:
        """The down-set code, or None when a label reaches DOWN_LABELS.

        The pair (m, o) of edge e is the integer e + n * (2m + o), n the
        number of edges.  The set grows with the labels, hence the bound.
        Computed on first use and kept outside ==, hash and repr.
        """
        if self.labels and max(self.labels) >= DOWN_LABELS:
            return None
        n = len(self.labels)
        edges = map(_edge_codes, repeat(n), range(n), self.labels,
                    _orientations(self.perm))
        return frozenset(chain.from_iterable(edges))

    def mu(self, i: int, j: int) -> int:
        """Label of the edge between distinct vertices i and j."""
        return self.labels[pair_index(self.k, i, j)]

    def before(self, i: int, j: int) -> bool:
        """Whether vertex i comes before vertex j in the vertex order."""
        return self.perm[i - 1] < self.perm[j - 1]

    def __str__(self) -> str:
        return kelt_text(self)


def pair_index(k: int, i: int, j: int) -> int:
    """Index of the unordered pair {i, j} in lexicographic pair order."""
    if i == j or not (1 <= i <= k and 1 <= j <= k):
        raise ValueError(f"bad vertex pair ({i}, {j}) for arity {k}")
    if i > j:
        i, j = j, i
    return (i - 1) * (2 * k - i) // 2 + (j - i - 1)


def vertex_pairs(k: int):
    """The pairs (i, j) with i < j in the order the labels are stored."""
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            yield i, j


@lru_cache(maxsize=64)
def _pair_slots(k: int) -> tuple:
    """The 0-based first and second vertices of the pairs, in label order."""
    pairs = tuple(vertex_pairs(k))
    return tuple(i - 1 for i, _ in pairs), tuple(j - 1 for _, j in pairs)


def _orientations(perm):
    """An iterator of before(i, j) over the vertex pairs, in label order."""
    first, second = _pair_slots(len(perm))
    return map(lt, map(perm.__getitem__, first), map(perm.__getitem__, second))


# Labels below this get a down-set code, whose size grows with the labels;
# the stage posets and complexity bounds stay far below it.
DOWN_LABELS = 16


@lru_cache(maxsize=4096)
def _edge_codes(n: int, e: int, label: int, orientation: bool) -> tuple:
    """Codes of edge e of n with the given label and orientation: every
    lower label with both orientations, then the edge's own pair."""
    return (*range(e, e + 2 * label * n, n), e + (2 * label + orientation) * n)


K_UNIT = KElt(1, (), (1,))


# --- partial order ------------------------------------------------------------

def k_leq(x: KElt, y: KElt) -> bool:
    """Edgewise order: each edge grows strictly or keeps label and orientation.

    Per edge that is inclusion of down-sets (see KElt), so the order is one
    subset test of the cached codes; an element with a label at DOWN_LABELS
    or above has none and is compared edge by edge.
    """
    if x.k != y.k:
        raise ValueError(f"cannot compare arity {x.k} with arity {y.k}")
    dx, dy = x.down, y.down
    if dx is not None and dy is not None:
        return dx <= dy
    for a, b, s, t in zip(x.labels, y.labels, _orientations(x.perm),
                          _orientations(y.perm)):
        if a > b or (a == b and s != t):
            return False
    return True


def k_iota(x: KElt) -> KElt:
    """Shift every edge label up by one filtration stage."""
    return KElt(x.k, tuple(l + 1 for l in x.labels), x.perm)


# --- operad structure -----------------------------------------------------------

def k_compose(outer: KElt, inners) -> KElt:
    """Substitute the inner graphs into the vertices of the outer graph."""
    inners = tuple(inners)
    if len(inners) != outer.k:
        raise ValueError(
            f"outer arity {outer.k} needs {outer.k} inner elements,"
            f" got {len(inners)}"
        )
    sizes = [x.k for x in inners]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    n = offsets[-1]

    def owner(u: int):
        a = 1
        while u > offsets[a]:
            a += 1
        return a, u - offsets[a - 1]

    labels = []
    for u, v in vertex_pairs(n):
        (a, p), (b, q) = owner(u), owner(v)
        labels.append(inners[a - 1].mu(p, q) if a == b else outer.mu(a, b))

    # Block a lands where outer.perm puts it; its inner order picks the slot.
    block = block_perm(outer.perm, sizes)
    perm = tuple(
        block[offsets[a] + q - 1] for a, x in enumerate(inners) for q in x.perm
    )
    return KElt(n, tuple(labels), perm)


def kelt_relabel(x: KElt, sigma) -> KElt:
    """Rename vertex i to sigma(i), transporting labels and the order."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, x.k + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{x.k}")
    inv = perm_inverse(sigma)
    labels = tuple(x.mu(inv[i - 1], inv[j - 1]) for i, j in vertex_pairs(x.k))
    perm = tuple(x.perm[inv[i - 1] - 1] for i in range(1, x.k + 1))
    return KElt(x.k, labels, perm)


def block_perm(sigma, sizes) -> tuple:
    """The permutation moving consecutive blocks of the given sizes by sigma.

    Block i (size sizes[i-1]) keeps its internal order and lands where sigma
    sends it: the element at offset(i) + p maps to the p-th slot of the
    destination block.
    """
    sigma = tuple(sigma)
    sizes = tuple(sizes)
    if sorted(sigma) != list(range(1, len(sizes) + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{len(sizes)}")
    out = []
    for i in range(1, len(sizes) + 1):
        shift = sum(sizes[c - 1] for c in range(1, len(sizes) + 1)
                    if sigma[c - 1] < sigma[i - 1])
        out.extend(shift + p for p in range(1, sizes[i - 1] + 1))
    return tuple(out)


def kelt_delete_vertex(x: KElt, i: int) -> KElt:
    """The complete graph left after removing vertex i.

    Surviving vertices are renumbered 1..k-1 preserving their numeric order;
    labels restrict to the surviving pairs and the vertex order keeps the
    survivors' relative positions.
    """
    if not (1 <= i <= x.k):
        raise ValueError(f"no vertex {i} in an arity {x.k} element")
    if x.k == 1:
        raise ValueError("cannot delete the only vertex")
    keep = [v for v in range(1, x.k + 1) if v != i]
    labels = tuple(x.mu(keep[a - 1], keep[b - 1]) for a, b in vertex_pairs(x.k - 1))
    perm = tuple(
        1 + sum(1 for w in keep if x.perm[w - 1] < x.perm[v - 1]) for v in keep
    )
    return KElt(x.k - 1, labels, perm)


# --- permutations ----------------------------------------------------------------

def perm_inverse(a) -> tuple:
    out = [0] * len(a)
    for i, v in enumerate(a, start=1):
        out[v - 1] = i
    return tuple(out)


# --- enumeration -----------------------------------------------------------------

def k_enumerate(m: int, k: int):
    """All arity-k elements of the m-th filtration stage, in a fixed order.

    Labels run below m.
    """
    if m < 1:
        raise ValueError("filtration stage must be positive")
    if k < 0:
        raise ValueError("arity must be nonnegative")
    out = []
    for labels in product(range(m), repeat=comb(k, 2)):
        for perm in permutations(range(1, k + 1)):
            out.append(KElt(k, labels, perm))
    return tuple(out)


# --- codec -----------------------------------------------------------------------

def kelt_text(x: KElt) -> str:
    mus = " ".join(f"mu({i},{j})={x.mu(i, j)}" for i, j in vertex_pairs(x.k))
    order = " ".join(str(p) for p in x.perm)
    return f"{x.k}; {mus}; perm=[{order}]"


_MU_TOKEN = re.compile(r"mu\(([0-9]+),([0-9]+)\)=([0-9]+)$")
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(word: str) -> int:
    """int(word), which also reads '+', '_', other scripts' digits and
    leading zeros; the codecs read one text per value."""
    n = int(word)
    if not _INTEGER.fullmatch(word):
        raise ValueError(f"integer {word!r} must be ASCII digits 0-9")
    if str(n) != word:
        raise ValueError(f"integer {word!r} must be written {n}")
    return n


def parse_kelt(text: str) -> KElt:
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(f"expected 'k; mu...; perm=[...]', got {text!r}")
    k = _integer(parts[0].strip())
    seen = {}
    for token in parts[1].split():
        m = _MU_TOKEN.match(token)
        if not m:
            raise ValueError(f"bad edge label token {token!r}")
        i, j, v = map(_integer, m.groups())
        idx = pair_index(k, i, j)
        if idx in seen:
            raise ValueError(f"edge ({i},{j}) labelled twice")
        seen[idx] = v
    if len(seen) != comb(k, 2):
        raise ValueError(f"expected {comb(k, 2)} edge labels, got {len(seen)}")
    ptext = parts[2].strip()
    if not (ptext.startswith("perm=[") and ptext.endswith("]")):
        raise ValueError(f"bad vertex order {ptext!r}")
    perm = tuple(map(_integer, ptext[len("perm=["):-1].split()))
    labels = tuple(seen[i] for i in range(comb(k, 2)))
    return KElt(k, labels, perm)
