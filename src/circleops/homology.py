"""Exact integral homology of finite chain complexes.

Boundary matrices are sparse, stored as compressed columns (a pointer list
cutting one flat list of rows and one of values, as in Bauer's Ripser), and
live over Python's unbounded integers; ranks and torsion coefficients come
out of a pivoting Smith normal form reduction, so every reported group is
exact.  Floating point is never used.

A nerve's boundaries share one face layout, every column w rows signed
+1, -1, +1, ... in face order.  Only ``IntMatrix._of_faces`` builds it and
records w as ``width``, which the d-squared check and the Smith normal form
read for their fast paths; a matrix built from entries has width 0 and
takes the generic paths, which are exact.

Degree conventions: a complex stores ``dims[n]``, the rank of the free group
of n-chains, and ``boundaries[n]``, the matrix of the boundary map from
(n+1)-chains to n-chains.  Composites of consecutive boundaries are checked
to vanish at construction time, one column at a time, and exactly.  ``homology`` reduces
the boundaries one at a time and skips what the unit pivots of the boundary
reduced before have cleared: when the top chain group is larger than the one
below it, from d_1 up, skipping rows named by the pivots one degree down;
otherwise from the top degree down, skipping columns named by the pivots
one degree up.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, repeat
from math import gcd
from operator import eq, ne, sub


class HomologyError(ValueError):
    """Raised when a matrix, complex, or reduction is inconsistent."""


@dataclass(frozen=True, init=False, eq=False)
class IntMatrix:
    """A sparse integer matrix stored as compressed columns.

    Column j holds the rows ``rows[ptr[j]:ptr[j+1]]`` with the values
    ``vals[ptr[j]:ptr[j+1]]``, every value nonzero, every row inside the
    shape and none twice in one column.  ``IntMatrix(nrows, ncols, entries)``
    takes ((row, col), value) pairs strictly increasing in row-major order
    and records ``width`` 0, even for a nerve's shape; ``_of_faces`` takes
    the face rows of simplices and records their count w, every column then
    holding w rows signed +1, -1, +1, ... in face order.  Only a nonzero
    width opens the fast paths.  ``entries`` is derived, the pairs in
    row-major order, and is how two matrices compare and hash.
    """

    nrows: int
    ncols: int
    ptr: object
    rows: list
    vals: list
    width: int

    def __init__(self, nrows: int, ncols: int, entries):
        if nrows < 0 or ncols < 0:
            raise HomologyError("matrix dimensions must be nonnegative")
        col_rows = [[] for _ in range(ncols)]
        col_vals = [[] for _ in range(ncols)]
        last = (-1, -1)
        for pos, v in entries:
            i, j = pos
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise HomologyError(
                    f"entry ({i},{j}) outside a {nrows}x{ncols} matrix"
                )
            if v == 0:
                raise HomologyError(f"explicit zero stored at ({i},{j})")
            if pos <= last:
                if pos == last:
                    raise HomologyError(f"duplicate entry at ({i},{j})")
                raise HomologyError(f"entry ({i},{j}) out of row-major order")
            last = pos
            col_rows[j].append(i)
            col_vals[j].append(v)
        self._set(nrows, ncols, [0, *accumulate(map(len, col_rows))],
                  list(chain.from_iterable(col_rows)),
                  list(chain.from_iterable(col_vals)), 0)

    def _set(self, nrows, ncols, ptr, rows, vals, width):
        # frozen: the fields are written past __setattr__, once
        self.__dict__.update(nrows=nrows, ncols=ncols, ptr=ptr, rows=rows,
                             vals=vals, width=width)

    @classmethod
    def _of_faces(cls, nrows: int, width: int, rows: list) -> IntMatrix:
        """The boundary whose column j is ``rows[j*width:(j+1)*width]``,
        the row at place i signed (-1)^i, as face i of a simplex is.
        Place a of every column is the slice ``rows[a::width]``: a row
        repeats in a column only if two places agree there, and only then
        does a loop run over the columns to name the first duplicate.  A
        matrix with no columns has no pair of places to compare.
        """
        if nrows < 0:
            raise HomologyError("matrix dimensions must be nonnegative")
        if width < 1 or len(rows) % width:
            raise HomologyError(
                f"{len(rows)} rows do not fill columns of width {width}"
            )
        ncols = len(rows) // width
        if not (0 <= min(rows, default=0) and max(rows, default=-1) < nrows):
            i, k = next((i, k) for k, i in enumerate(rows) if not 0 <= i < nrows)
            raise HomologyError(
                f"entry ({i},{k // width}) outside a {nrows}x{ncols} matrix"
            )
        places = [rows[a::width] for a in range(width)]
        if ncols and any(any(map(eq, places[a], places[b]))
               for a in range(width) for b in range(a + 1, width)):
            for j in range(ncols):
                col = rows[j * width:(j + 1) * width]
                if len(set(col)) < width:
                    i = next(i for i in col if col.count(i) > 1)
                    raise HomologyError(f"duplicate entry at ({i},{j})")
        m = object.__new__(cls)
        m._set(nrows, ncols, range(0, len(rows) + 1, width), rows,
               [(-1) ** i for i in range(width)] * ncols, width)
        return m

    @property
    def entries(self) -> tuple:
        """The ((row, col), value) pairs in row-major order."""
        by_row = [[] for _ in range(self.nrows)]
        for pos, v in zip(zip(self.rows, _column_numbers(self.ptr)), self.vals):
            by_row[pos[0]].append((pos, v))
        return tuple(chain.from_iterable(by_row))

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return ((self.nrows, self.ncols, self.entries)
                == (other.nrows, other.ncols, other.entries))

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.entries))


def _column_numbers(ptr):
    """The column of every stored entry, in storage order: each column's
    number repeated down the column."""
    return chain.from_iterable(map(repeat, range(len(ptr) - 1), map(sub, ptr[1:], ptr)))


def matrix_from_dict(nrows: int, ncols: int, entries) -> IntMatrix:
    """Build an IntMatrix from any {(row, col): value} mapping, dropping zeros."""
    cleaned = tuple(sorted((pos, v) for pos, v in entries.items() if v != 0))
    return IntMatrix(nrows, ncols, cleaned)


def _composite_vanishes(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether a times b is zero.

    Column l of the product sums w times a's column j over b's entries w at
    (j, l).  When ``_of_faces`` built both, every term is a row with a
    sign: the row at place t of a's column j, signed by (-1)^t times
    (-1)^s for j at place s of b's column.  Place t of every column of a is
    one strided slice of a's rows, so the terms are read for all columns at
    once, and a column vanishes exactly when the rows met with + and those
    met with - are the same list once sorted.  Otherwise the sums go into
    one list indexed by row, one column of b at a time; when a column
    vanishes every slot it touched is back at zero, so the list is reused.
    A b with no entries gives the zero product before either path runs.
    """
    if not b.rows:
        return True
    if a.width and b.width:
        places = [a.rows[t::a.width] for t in range(a.width)]
        terms = ([], [])  # the + terms, then the - terms
        for s in range(b.width):
            js = b.rows[s::b.width]
            for t in range(a.width):
                terms[(s + t) % 2].append(map(places[t].__getitem__, js))
        if len(terms[0]) != len(terms[1]):
            return not b.ncols
        ups, downs = (map(sorted, zip(*t)) for t in terms)
        return not any(map(ne, ups, downs))
    aptr, arows, avals = a.ptr, a.rows, a.vals
    bptr, brows, bvals = b.ptr, b.rows, b.vals
    total = [0] * a.nrows
    for lo, hi in zip(bptr, bptr[1:]):
        for j, w in zip(brows[lo:hi], bvals[lo:hi]):
            for k in range(aptr[j], aptr[j + 1]):
                total[arows[k]] += avals[k] * w
        for j in brows[lo:hi]:
            for i in arows[aptr[j]:aptr[j + 1]]:
                if total[i]:
                    return False
    return True


def smith_invariants(m: IntMatrix) -> tuple:
    """The invariant factors d_1 | d_2 | ... | d_r of m, all positive.

    The length of the result is the rank of m.  The reduction runs in two
    phases.  The unit phase keeps a min-heap of columns keyed by their entry
    count (stale keys are skipped when popped and a column is pushed again
    whenever its count or values change).  It pops the sparsest column and,
    if that column holds a +-1, pivots on the one whose row is shortest:
    row operations clear the column, and since the pivot is a unit the
    column operations would only clear the pivot row, so the row and column
    are dropped whole and a 1 is recorded.  The phase ends when no +-1 is
    left.  The remainder, typically small for the near-unimodular matrices
    produced by nerves, goes through a Euclidean loop that pivots on a
    smallest entry with low fill, and gcd/lcm swaps on the resulting
    diagonal restore divisibility.  A matrix of faces of width 2, one +1
    and one -1 in every column as in a nerve's d_1, is the incidence
    matrix of a directed graph and skips both phases: a spanning forest of
    the graph gives its rank, and its factors are all 1.  ``homology``
    runs the same reduction with clearing.
    """
    return _smith_reduce(m, (), ())[0]


def _smith_reduce(m: IntMatrix, cleared_cols, cleared_rows) -> tuple:
    """Invariant factors of m without the columns in cleared_cols and the
    rows in cleared_rows, then the rows and the columns of the unit-phase
    pivots, each in pivot order.

    Only unit-phase pivots are reported: those are the ones ``homology``
    may clear with, pivot rows one degree down and pivot columns one degree
    up.  The row dicts and column sets are read straight off m's columns.
    The unit phase updates them inline, as it makes most of the entry
    updates.

    A matrix of faces of width 2, as nerve writes d_1, is the incidence
    matrix of a directed graph on the rows.  Without cleared rows it goes
    to ``_spanning_forest`` instead, which reports the edges of a spanning
    forest as its pivots; ``homology`` clears with them as with unit-phase
    pivots.
    """
    if m.width == 2 and not cleared_rows:
        return _spanning_forest(m, cleared_cols)
    cleared_cols = set(cleared_cols)
    cleared_rows = set(cleared_rows)
    rows: dict = {}
    cols: dict = {}
    for i, j, v in zip(m.rows, _column_numbers(m.ptr), m.vals):
        if j not in cleared_cols and i not in cleared_rows:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)

    pivot_rows = []
    pivot_cols = []
    heap = [(len(col), j) for j, col in cols.items()]
    heapify(heap)
    while heap:
        count, pj = heappop(heap)
        col = cols.get(pj)
        if col is None or len(col) != count:
            continue
        pi = best = None
        for i in col:
            row = rows[i]
            if row[pj] in (1, -1) and (best is None or (len(row), i) < best):
                pi, best = i, (len(row), i)
        if pi is None:
            continue
        prow = rows.pop(pi)
        p = prow[pj]
        col.discard(pi)
        for i in list(col):
            # row_i -= (row_i[pj] / p) * row_pi, and 1 / p == p
            row = rows[i]
            f = -row[pj] * p
            for j, v in prow.items():
                w = row.get(j, 0) + f * v
                if w:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = w
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
        for j in prow:
            c = cols[j]
            c.discard(pi)
            if c:
                heappush(heap, (len(c), j))
            else:
                del cols[j]
        pivot_rows.append(pi)
        pivot_cols.append(pj)

    def put(i, j, v):
        row = rows.setdefault(i, {})
        if v:
            row[j] = v
            cols.setdefault(j, set()).add(i)
        elif j in row:
            del row[j]
            cols[j].discard(i)
            if not row:
                del rows[i]
            if not cols[j]:
                del cols[j]

    def add_row(dst, src, factor):
        # row_dst += factor * row_src
        for j, v in list(rows[src].items()):
            put(dst, j, rows.get(dst, {}).get(j, 0) + factor * v)

    def add_col(dst, src, factor):
        # col_dst += factor * col_src
        for i in list(cols[src]):
            put(i, dst, rows[i].get(dst, 0) + factor * rows[i][src])

    diagonal = []
    while rows:
        best = None
        for i, row in rows.items():
            for j, v in row.items():
                key = (abs(v), (len(row) - 1) * (len(cols[j]) - 1))
                if best is None or key < best[0]:
                    best = (key, i, j)
            if best is not None and best[0] == (1, 0):
                break
        _, pi, pj = best
        while True:
            p = rows[pi][pj]
            bad = next((i for i in cols[pj] if i != pi and rows[i][pj] % p), None)
            if bad is not None:
                add_row(bad, pi, -(rows[bad][pj] // p))
                pi = bad  # remainder is strictly smaller, so this terminates
                continue
            bad = next((j for j in rows[pi] if j != pj and rows[pi][j] % p), None)
            if bad is not None:
                add_col(bad, pj, -(rows[pi][bad] // p))
                pj = bad
                continue
            break
        p = rows[pi][pj]
        for i in [i for i in cols[pj] if i != pi]:
            add_row(i, pi, -(rows[i][pj] // p))
        for j in [j for j in rows[pi] if j != pj]:
            add_col(j, pj, -(rows[pi][j] // p))
        diagonal.append(abs(p))
        put(pi, pj, 0)

    # A diagonal matrix is equivalent to the chain of its invariant factors;
    # gcd/lcm swaps repair any divisibility failures left by local pivoting.
    ones = len(pivot_rows) + diagonal.count(1)
    rest = [d for d in diagonal if d != 1]
    changed = True
    while changed:
        changed = False
        for a in range(len(rest)):
            for b in range(a + 1, len(rest)):
                if rest[b] % rest[a]:
                    g = gcd(rest[a], rest[b])
                    rest[a], rest[b] = g, rest[a] * rest[b] // g
                    changed = True
    return (1,) * ones + tuple(sorted(rest)), tuple(pivot_rows), tuple(pivot_cols)


def _spanning_forest(m: IntMatrix, cleared_cols) -> tuple:
    """``_smith_reduce`` of the incidence matrix m of a directed graph on
    its rows, without the columns in cleared_cols.

    One union-find over the rows takes the columns in order.  A column that
    joins two trees is a pivot: its pivot row is the root it absorbs.  A
    directed incidence matrix is totally unimodular (Schrijver 1986,
    section 19), so every invariant factor is 1 and the rank is the number
    of rows less the number of trees, the pivot count.  The pivot rows are
    every row of a tree but its last root, so the pivot block is the
    forest's incidence matrix without one row per tree, which is
    unimodular: what clearing needs of unit-phase pivots.
    """
    cleared = set(cleared_cols)
    parent = list(range(m.nrows))
    pivot_rows = []
    pivot_cols = []
    most = m.nrows - 1
    for j, a, b in zip(range(m.ncols), m.rows[::2], m.rows[1::2]):
        if j in cleared:
            continue
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            pivot_rows.append(a)
            pivot_cols.append(j)
            if len(pivot_cols) == most:
                break  # one tree spans every row
    return (1,) * len(pivot_cols), tuple(pivot_rows), tuple(pivot_cols)


@dataclass(frozen=True)
class ChainComplex:
    """dims[n] chain ranks plus boundary matrices dims[n] x dims[n+1]."""

    dims: tuple
    boundaries: tuple

    def __post_init__(self):
        if any(d < 0 for d in self.dims):
            raise HomologyError("chain ranks must be nonnegative")
        expected = max(len(self.dims) - 1, 0)
        if len(self.boundaries) != expected:
            raise HomologyError(
                f"expected {expected} boundary matrices, got {len(self.boundaries)}"
            )
        for n, b in enumerate(self.boundaries):
            if (b.nrows, b.ncols) != (self.dims[n], self.dims[n + 1]):
                raise HomologyError(
                    f"boundary {n + 1} has shape {b.nrows}x{b.ncols}, "
                    f"expected {self.dims[n]}x{self.dims[n + 1]}"
                )
        for n in range(len(self.boundaries) - 1):
            if not _composite_vanishes(self.boundaries[n], self.boundaries[n + 1]):
                raise HomologyError(
                    f"boundary composite from degree {n + 2} is nonzero"
                )

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * d for n, d in enumerate(self.dims))


@dataclass(frozen=True)
class HomologyResult:
    """Betti numbers and torsion invariant factors, per degree."""

    betti: tuple
    torsion: tuple

    def group(self, n: int) -> str:
        """Human-readable form of H_n, e.g. 'Z', 'Z^2 + Z/2', or '0'."""
        parts = []
        b = self.betti[n] if n < len(self.betti) else 0
        if b == 1:
            parts.append("Z")
        elif b > 1:
            parts.append(f"Z^{b}")
        factors = self.torsion[n] if n < len(self.torsion) else ()
        parts.extend(f"Z/{d}" for d in factors)
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return ", ".join(f"H{n}={self.group(n)}" for n in range(len(self.betti)))


def homology(cx: ChainComplex) -> HomologyResult:
    """Exact homology of the complex in every stored degree.

    The boundaries are reduced one at a time with clearing over the
    integers, and the chain ranks alone pick the direction.  When the top
    chain group is larger than the one below it, as in a nerve cut off below
    its full depth, the boundaries are reduced from d_1 up, and d_(n+1) is
    reduced without the rows of the n-chains named by d_n's unit-phase pivot
    columns (the cochain dual of the twist, after de Silva, Morozov and
    Vejdemo-Johansson).  Top down, no column of the top boundary is ever
    cleared, and when it is the widest its dependent rows are driven to zero
    through fill.  Otherwise the boundaries are reduced from the top degree
    down, and d_n is reduced without the columns of the n-chains named by
    d_(n+1)'s unit-phase pivot rows (Chen and Kerber's twist); on nerves
    taken to their full depth that is the faster of the two.

    Neither changes any invariant factor.  Take the rows R and columns C of
    one boundary's unit-phase pivots in pivot order.  The unit phase only
    adds pivot rows to rows not yet pivoted, so after its row operations the
    block on R x C is triangular with +-1 on the diagonal, and on the rows R
    those operations are unitriangular; so the block of the boundary itself
    is unimodular.  A graph boundary reduced by its spanning forest has no
    row operations at all: R is every vertex of a tree of the forest but one
    root per tree, and C is the forest's edges, so the block is the forest's
    incidence matrix without one row per tree, a block diagonal of reduced
    tree incidence matrices, each of determinant +-1.

    - Top down, with that block in d_(n+1): the boundaries of the chains C,
      together with the basis n-chains outside R, form a basis of C_n, and
      d_n kills the first group because d_n d_(n+1) = 0.  In that basis d_n
      is its columns outside R beside zero columns, a change of basis that
      keeps invariant factors.
    - Bottom up, with that block in d_n: since it is unimodular, the kernel
      K of d_n followed by the projection onto the coordinates R is a direct
      summand of C_n, with the span of the chains C as a complement.  So the
      projection onto the coordinates outside C maps K isomorphically onto
      the free group on the n-chains outside C.  The image of d_(n+1) lies
      in ker d_n, inside K, so d_(n+1) has the invariant factors of its rows
      outside C.

    The Euclidean phase also adds columns to columns, so none of its pivots,
    not even a +-1, sits on a block of the boundary itself, and none clears.

    The Euler characteristic computed from chain ranks must agree with the
    one computed from Betti numbers; a mismatch means the rank computations
    are inconsistent and is reported as an error rather than a result.
    """
    factors = [()] * len(cx.boundaries)
    cleared = ()
    if len(cx.dims) > 1 and cx.dims[-1] > cx.dims[-2]:
        for n, b in enumerate(cx.boundaries):
            factors[n], _, cleared = _smith_reduce(b, (), cleared)
    else:
        for n in reversed(range(len(cx.boundaries))):
            factors[n], cleared, _ = _smith_reduce(cx.boundaries[n], cleared, ())
    ranks = [len(f) for f in factors]
    betti = []
    torsion = []
    top = cx.top_degree
    for n in range(top + 1):
        rank_in = ranks[n - 1] if n >= 1 else 0
        rank_out = ranks[n] if n < top else 0
        b = cx.dims[n] - rank_in - rank_out
        if b < 0:
            raise HomologyError(f"negative Betti number in degree {n}")
        betti.append(b)
        if n < top:
            torsion.append(tuple(d for d in factors[n] if d > 1))
        else:
            torsion.append(())
    chi_chains = cx.euler_characteristic()
    chi_homology = sum((-1) ** n * b for n, b in enumerate(betti))
    if chi_chains != chi_homology:
        raise HomologyError(
            f"Euler characteristic mismatch: chains give {chi_chains}, "
            f"homology gives {chi_homology}"
        )
    return HomologyResult(tuple(betti), tuple(torsion))
