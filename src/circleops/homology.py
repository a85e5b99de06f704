"""Exact integral homology of finite chain complexes.

Boundary matrices are sparse and live over Python's unbounded integers; ranks
and torsion coefficients come out of a pivoting Smith normal form reduction,
so every reported group is exact.  Floating point is never used.

Degree conventions: a complex stores ``dims[n]``, the rank of the free group
of n-chains, and ``boundaries[n]``, the matrix of the boundary map from
(n+1)-chains to n-chains.  Composites of consecutive boundaries are checked
to vanish at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd


class HomologyError(ValueError):
    """Raised when a matrix, complex, or reduction is inconsistent."""


@dataclass(frozen=True)
class IntMatrix:
    """A sparse integer matrix stored as sorted ((row, col), value) pairs."""

    nrows: int
    ncols: int
    entries: tuple

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise HomologyError("matrix dimensions must be nonnegative")
        seen = set()
        for (i, j), v in self.entries:
            if not (0 <= i < self.nrows and 0 <= j < self.ncols):
                raise HomologyError(
                    f"entry ({i},{j}) outside a {self.nrows}x{self.ncols} matrix"
                )
            if v == 0:
                raise HomologyError(f"explicit zero stored at ({i},{j})")
            if (i, j) in seen:
                raise HomologyError(f"duplicate entry at ({i},{j})")
            seen.add((i, j))

    @property
    def is_zero(self) -> bool:
        return not self.entries


def matrix_from_dict(nrows: int, ncols: int, entries) -> IntMatrix:
    """Build an IntMatrix from any {(row, col): value} mapping, dropping zeros."""
    cleaned = tuple(sorted((pos, v) for pos, v in entries.items() if v != 0))
    return IntMatrix(nrows, ncols, cleaned)


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.ncols != b.nrows:
        raise HomologyError(f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    cols_of_a = {}
    for (i, j), v in a.entries:
        cols_of_a.setdefault(j, []).append((i, v))
    out = {}
    for (j, l), w in b.entries:
        for i, v in cols_of_a.get(j, ()):
            out[(i, l)] = out.get((i, l), 0) + v * w
    return matrix_from_dict(a.nrows, b.ncols, out)


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
    diagonal restore divisibility.
    """
    rows: dict = {}
    cols: dict = {}
    for (i, j), v in m.entries:
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, set()).add(i)

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

    units = 0
    heap = [(len(col), j) for j, col in cols.items()]
    heapify(heap)
    while heap:
        count, pj = heappop(heap)
        col = cols.get(pj)
        if col is None or len(col) != count:
            continue
        unit_rows = [i for i in col if rows[i][pj] in (1, -1)]
        if not unit_rows:
            continue
        pi = min(unit_rows, key=lambda i: (len(rows[i]), i))
        prow = rows[pi]
        p = prow[pj]
        for i in [i for i in col if i != pi]:
            add_row(i, pi, -rows[i][pj] * p)
        del rows[pi]
        for j in prow:
            cols[j].discard(pi)
            if cols[j]:
                heappush(heap, (len(cols[j]), j))
            else:
                del cols[j]
        units += 1

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
    ones = units + diagonal.count(1)
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
    return (1,) * ones + tuple(sorted(rest))


def matrix_rank(m: IntMatrix) -> int:
    return len(smith_invariants(m))


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
            if not matmul(self.boundaries[n], self.boundaries[n + 1]).is_zero:
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

    The Euler characteristic computed from chain ranks must agree with the
    one computed from Betti numbers; a mismatch means the rank computations
    are inconsistent and is reported as an error rather than a result.
    """
    factors = [smith_invariants(b) for b in cx.boundaries]
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
