"""Tests for exact chain-complex homology.

Smith normal form is checked against three independent oracles: ranks against
Gaussian elimination over exact rationals, invariant factors against the
gcd-of-minors characterization on small matrices, and known diagonals
scrambled by unimodular operations on larger ones.  Known complexes with
torsion pin the homology conventions.  Homology with clearing is checked
against the same groups read off each boundary's own Smith normal form, and
against seeded complexes whose homology is known by construction.  Graph
boundaries, which go to the spanning-forest path, are checked against
component counts from a breadth-first search and against the determinant of
their pivot block.  Every fast path taken by a face matrix is checked
against its twin built from entries, which takes the generic paths.
"""

import importlib
import random
import sys
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleops.cattop import nerve, poset_category
from circleops.homology import (
    ChainComplex,
    HomologyError,
    HomologyResult,
    IntMatrix,
    homology,
    matrix_from_dict,
    smith_invariants,
)
from circleops.kgraph import k_enumerate, k_leq, parse_kelt

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digests  # noqa: E402

# The package exports the function homology under the module's own name.
homology_module = importlib.import_module("circleops.homology")


def dense(m):
    out = [[0] * m.ncols for _ in range(m.nrows)]
    for (i, j), v in m.entries:
        out[i][j] = v
    return out


def dense_product(a, b):
    """The product of two matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def fraction_rank(m):
    """Rank by Gaussian elimination over Fraction; independent of the SNF code."""
    rows = [[Fraction(v) for v in row] for row in dense(m)]
    rank = 0
    for col in range(m.ncols):
        pivot = next((r for r in range(rank, m.nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(m.nrows):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def integer_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for c in range(len(rows)):
        if rows[0][c] == 0:
            continue
        minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
        total += (-1) ** c * rows[0][c] * integer_det(minor)
    return total


def minor_gcd_invariants(m):
    """Invariant factors via gcds of k x k minors; only usable for small m."""
    rows = dense(m)
    rank = fraction_rank(m)
    out = []
    previous = 1
    for size in range(1, rank + 1):
        g = 0
        for rs in combinations(range(m.nrows), size):
            for cs in combinations(range(m.ncols), size):
                sub = [[rows[r][c] for c in cs] for r in rs]
                g = gcd(g, integer_det(sub))
        out.append(g // previous)
        previous = g
    return tuple(out)


def small_matrices(max_side=4, max_abs=5):
    return st.integers(1, max_side).flatmap(
        lambda nr: st.integers(1, max_side).flatmap(
            lambda nc: st.lists(
                st.tuples(
                    st.integers(0, nr - 1),
                    st.integers(0, nc - 1),
                    st.integers(-max_abs, max_abs),
                ),
                max_size=nr * nc,
            ).map(
                lambda items: matrix_from_dict(
                    nr, nc, {(i, j): v for i, j, v in items}
                )
            )
        )
    )


# --- matrices -----------------------------------------------------------------


def test_matrix_validation():
    with pytest.raises(HomologyError, match=r"explicit zero stored at \(0,0\)"):
        IntMatrix(2, 2, (((0, 0), 0),))
    with pytest.raises(HomologyError,
                       match=r"entry \(2,0\) outside a 2x2 matrix"):
        IntMatrix(2, 2, (((2, 0), 1),))
    with pytest.raises(HomologyError, match=r"duplicate entry at \(0,0\)"):
        IntMatrix(2, 2, (((0, 0), 1), ((0, 0), 2)))
    # positions must be strictly increasing in row-major order
    with pytest.raises(HomologyError,
                       match=r"entry \(0,1\) out of row-major order"):
        IntMatrix(2, 2, (((1, 0), 1), ((0, 1), 1)))
    with pytest.raises(HomologyError,
                       match=r"entry \(1,0\) out of row-major order"):
        IntMatrix(2, 2, (((1, 1), 1), ((1, 0), 1)))
    assert IntMatrix(2, 2, (((0, 1), 1), ((1, 0), 1))).entries == (
        ((0, 1), 1), ((1, 0), 1))


def test_face_constructor_rejects_malformed_faces():
    of_faces = IntMatrix._of_faces
    m = of_faces(3, 2, [2, 0, 1, 2])
    # column j is rows[2j:2j+2] signed +1, -1; entries are row-major, and a
    # row may sit in two columns
    assert (m.ncols, m.width, m.vals) == (2, 2, [1, -1, 1, -1])
    assert m.entries == (((0, 0), -1), ((1, 1), 1), ((2, 0), 1), ((2, 1), -1))
    # the width stays out of equality: the twin built from entries has 0
    rebuilt = IntMatrix(3, 2, m.entries)
    assert rebuilt.width == 0 and m == rebuilt and hash(m) == hash(rebuilt)
    with pytest.raises(HomologyError, match=r"^duplicate entry at \(2,1\)$"):
        of_faces(3, 2, [2, 0, 2, 2])
    with pytest.raises(HomologyError,
                       match=r"^entry \(3,1\) outside a 3x2 matrix$"):
        of_faces(3, 2, [2, 0, 1, 3])
    with pytest.raises(HomologyError,
                       match=r"^entry \(-1,0\) outside a 3x2 matrix$"):
        of_faces(3, 2, [-1, 0, 1, 2])
    with pytest.raises(HomologyError, match="matrix dimensions must be nonnegative"):
        of_faces(-1, 2, [])
    for width, rows in ((0, []), (-1, [0]), (2, [0, 1, 2])):
        with pytest.raises(HomologyError, match=(
                f"^{len(rows)} rows do not fill columns of width {width}$")):
            of_faces(3, width, rows)
    # no simplices: no columns, and the width is kept
    empty = of_faces(0, 3, [])
    assert (empty.nrows, empty.ncols, empty.width, empty.entries) == (0, 0, 3, ())


def test_strided_face_check_names_the_first_duplicate():
    rows = list(range(30))
    rows[15], rows[17] = 4, 4  # places 0 and 2 of column 5
    rows[27], rows[28] = 9, 9  # places 0 and 1 of column 9
    with pytest.raises(HomologyError, match=r"^duplicate entry at \(4,5\)$"):
        IntMatrix._of_faces(30, 3, rows)
    rows[17], rows[28] = 17, 28
    m = IntMatrix._of_faces(30, 3, rows)
    assert m == IntMatrix(30, 10, m.entries)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_entries_round_trip(m):
    assert IntMatrix(m.nrows, m.ncols, m.entries).entries == m.entries
    dense_m = dense(m)
    assert all(dense_m[i][j] == v for (i, j), v in m.entries)
    assert sum(map(bool, sum(dense_m, []))) == len(m.entries)


def test_nerve_entries_round_trip():
    cx = nerve(poset_category(k_enumerate(2, 3), k_leq), 3)
    for b in cx.boundaries:
        rebuilt = IntMatrix(b.nrows, b.ncols, b.entries)
        assert rebuilt == b and rebuilt.entries == b.entries
        assert hash(rebuilt) == hash(b)


def faces(nrows, width, columns):
    """The boundary with these columns of face rows, as nerve writes it."""
    return IntMatrix._of_faces(nrows, width, [i for col in columns for i in col])


def twin(m):
    """m built from its entries: width 0, so only the generic paths."""
    return IntMatrix(m.nrows, m.ncols, m.entries)


def test_composite_vanishes_on_both_branches():
    vanishes = homology_module._composite_vanishes
    # +-1 branch: the edges 0 -> 1, 1 -> 2 and 0 -> 2 of a triangle, face 0
    # the target, and the triangle, whose faces are the edges 1 2, 0 2, 0 1
    d1 = faces(3, 2, [[1, 0], [2, 1], [2, 0]])
    assert vanishes(d1, faces(3, 3, [[1, 2, 0]]))
    assert not vanishes(d1, faces(3, 3, [[2, 1, 0]]))
    # more + terms than - terms in every column, unless there is no column
    assert not vanishes(faces(2, 1, [[0]]), faces(1, 1, [[0]]))
    assert vanishes(faces(2, 1, [[0]]), faces(1, 1, []))
    # general branch: a face matrix times one built from entries, where
    # e0 - e1 plus e1 - e0 is 0
    a = faces(2, 2, [[0, 1], [1, 0]])
    b = matrix_from_dict(2, 1, {(0, 0): 1, (1, 0): 1})
    assert b.width == 0 and vanishes(a, b)
    assert not vanishes(a, matrix_from_dict(2, 1, {(0, 0): 1}))
    # values other than +-1
    a = matrix_from_dict(1, 2, {(0, 0): 2, (0, 1): 1})
    assert vanishes(a, matrix_from_dict(2, 1, {(0, 0): 1, (1, 0): -2}))
    assert not vanishes(a, matrix_from_dict(2, 1, {(0, 0): 1, (1, 0): -1}))
    # +-1 values in columns of different widths
    a = matrix_from_dict(2, 2, {(0, 0): 1, (1, 0): -1, (1, 1): 1})
    assert not vanishes(a, matrix_from_dict(2, 1, {(0, 0): 1, (1, 0): 1}))
    assert vanishes(a, matrix_from_dict(2, 1, {}))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sign_branch_agrees_with_the_dense_product(data):
    nrows, mid, width, bwidth = (data.draw(st.integers(1, 4)) for _ in range(4))
    width, bwidth = min(width, nrows), min(bwidth, mid)
    ncols = data.draw(st.integers(0, 4))

    def columns(height, w, count):
        return [data.draw(st.permutations(range(height)))[:w] for _ in range(count)]

    a = faces(nrows, width, columns(nrows, width, mid))
    b = faces(mid, bwidth, columns(mid, bwidth, ncols))
    zero = not any(map(any, dense_product(dense(a), dense(b))))
    # every pairing of the face matrices and their twins: the +-1 branch,
    # the generic loop, and the loop on one of each
    vanishes = homology_module._composite_vanishes
    assert {vanishes(x, y) for x in (a, twin(a)) for y in (b, twin(b))} == {zero}


def test_a_nerve_boundary_beside_a_generic_one_is_checked():
    d1, d2 = nerve(poset_category(k_enumerate(2, 2), k_leq), 2).boundaries
    dims = (d1.nrows, d1.ncols, d2.ncols)
    assert homology(ChainComplex(dims, (d1, twin(d2)))) == homology(
        ChainComplex(dims, (d1, d2)))
    # the first arrow as a 2-chain's whole boundary
    bad = matrix_from_dict(d1.ncols, 1, {(0, 0): 1})
    with pytest.raises(HomologyError,
                       match="boundary composite from degree 2 is nonzero"):
        ChainComplex(dims[:2] + (1,), (d1, bad))


def test_smith_known_values():
    assert smith_invariants(matrix_from_dict(2, 2, {})) == ()
    eye = matrix_from_dict(3, 3, {(i, i): 1 for i in range(3)})
    assert smith_invariants(eye) == (1, 1, 1)
    m = matrix_from_dict(2, 2, {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8})
    assert smith_invariants(m) == (2, 4)
    diag = matrix_from_dict(2, 2, {(0, 0): 4, (1, 1): 6})
    assert smith_invariants(diag) == (2, 12)
    row = matrix_from_dict(1, 3, {(0, 0): 6, (0, 1): 10, (0, 2): 15})
    assert smith_invariants(row) == (1,)


@settings(max_examples=300)
@given(small_matrices())
def test_smith_matches_minor_gcds(m):
    assert smith_invariants(m) == minor_gcd_invariants(m)


@settings(max_examples=200)
@given(small_matrices(max_side=8, max_abs=9))
def test_rank_matches_fraction_elimination(m):
    factors = smith_invariants(m)
    assert len(factors) == fraction_rank(m)
    assert all(d > 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


def scrambled_diagonal(rng, factors, nrows, ncols, steps):
    """U * D * V with D = diag(factors) and U, V random unimodular products."""
    a = [[0] * ncols for _ in range(nrows)]
    for n, d in enumerate(factors):
        a[n][n] = d
    for _ in range(steps):
        c = rng.choice((-2, -1, 1, 2))
        s, t = rng.sample(range(nrows), 2)
        a[s] = [x + c * y for x, y in zip(a[s], a[t])]
        c = rng.choice((-2, -1, 1, 2))
        s, t = rng.sample(range(ncols), 2)
        for row in a:
            row[s] += c * row[t]
    rng.shuffle(a)
    order = list(range(ncols))
    rng.shuffle(order)
    sign = [rng.choice((-1, 1)) for _ in range(ncols)]
    return matrix_from_dict(nrows, ncols, {
        (i, j): sign[j] * row[order[j]] for i, row in enumerate(a) for j in range(ncols)
    })


FACTOR_CHAINS = (
    (1, 1, 1, 2, 6, 12),
    (1, 1, 1, 1, 1, 1, 1, 3, 3, 9),
    (1, 1, 2, 2, 4),
    (2, 4, 8),
    (1,) * 9 + (5,),
    (1,) * 12,
)


def test_smith_recovers_scrambled_diagonals():
    # Unit pivots fill in the matrix before the non-unit remainder is reached.
    rng = random.Random(20251018)
    for case in range(120):
        factors = FACTOR_CHAINS[case % len(FACTOR_CHAINS)]
        nrows = rng.randint(len(factors), 12)
        ncols = rng.randint(len(factors), 14)
        m = scrambled_diagonal(rng, factors, nrows, ncols, rng.randint(2, 3 * ncols))
        assert smith_invariants(m) == factors


# --- chain complexes -------------------------------------------------------------


def simplicial_complex(vertices, simplices):
    """Chain complex of an abstract simplicial complex given as vertex tuples."""
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
    top = max(by_dim)
    levels = [sorted(set(by_dim.get(n, []))) for n in range(top + 1)]
    indexes = [{s: i for i, s in enumerate(level)} for level in levels]
    mats = []
    for n in range(1, top + 1):
        entries = {}
        for col, s in enumerate(levels[n]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                entries[(indexes[n - 1][face], col)] = (-1) ** i
        mats.append(matrix_from_dict(len(levels[n - 1]), len(levels[n]), entries))
    return ChainComplex(tuple(len(l) for l in levels), tuple(mats))


def test_boundary_composites_that_cancel_pass():
    # each entry of d1 d2 is 1 - 1
    d1 = matrix_from_dict(1, 2, {(0, 0): 1, (0, 1): 1})
    d2 = matrix_from_dict(2, 1, {(0, 0): 1, (1, 0): -1})
    assert homology(ChainComplex((1, 2, 1), (d1, d2))).betti == (0, 0, 0)


def test_nonzero_composite_in_the_last_column_is_caught():
    d1 = matrix_from_dict(1, 2, {(0, 0): 1, (0, 1): 1})
    d2 = matrix_from_dict(2, 2, {(0, 0): 1, (1, 0): -1, (0, 1): 1, (1, 1): -1})
    d3 = matrix_from_dict(
        2, 3, {(0, 0): 1, (1, 0): -1, (0, 1): 2, (1, 1): -2, (0, 2): 1})
    assert dense_product(dense(d1), dense(d2)) == [[0, 0]]
    assert dense_product(dense(d2), dense(d3)) == [[0, 0, 1], [0, 0, -1]]
    with pytest.raises(HomologyError,
                       match="boundary composite from degree 3 is nonzero"):
        ChainComplex((1, 2, 2, 3), (d1, d2, d3))


def test_boundary_squared_is_checked():
    d1 = matrix_from_dict(1, 1, {(0, 0): 1})
    d2 = matrix_from_dict(1, 1, {(0, 0): 1})
    with pytest.raises(HomologyError):
        ChainComplex((1, 1, 1), (d1, d2))
    with pytest.raises(HomologyError):
        ChainComplex((2, 1), (matrix_from_dict(1, 1, {(0, 0): 1}),))


def test_circle_homology():
    cx = simplicial_complex(3, [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)])
    h = homology(cx)
    assert h.betti == (1, 1)
    assert h.torsion == ((), ())
    assert h.group(0) == "Z" and h.group(1) == "Z"


def test_two_sphere_homology():
    simplices = [
        s
        for size in (1, 2, 3)
        for s in combinations(range(4), size)
    ]
    h = homology(simplicial_complex(4, simplices))
    assert h.betti == (1, 0, 1)
    assert h.torsion == ((), (), ())


def test_solid_tetrahedron_is_acyclic():
    simplices = [s for size in (1, 2, 3, 4) for s in combinations(range(4), size)]
    h = homology(simplicial_complex(4, simplices))
    assert h.betti == (1, 0, 0, 0)


# One cell in each degree; the 2-cell wraps twice around the 1-cell.
PROJECTIVE_PLANE = ChainComplex(
    (1, 1, 1),
    (matrix_from_dict(1, 1, {}), matrix_from_dict(1, 1, {(0, 0): 2})),
)
# Cells: one vertex, loops a and b, one 2-cell glued along a b a b^-1.
KLEIN_BOTTLE = ChainComplex(
    (1, 2, 1),
    (matrix_from_dict(1, 2, {}), matrix_from_dict(2, 1, {(0, 0): 2})),
)
MOORE_SPACE_12 = ChainComplex(
    (1, 1, 1),
    (matrix_from_dict(1, 1, {}), matrix_from_dict(1, 1, {(0, 0): 12})),
)


def test_projective_plane_torsion():
    h = homology(PROJECTIVE_PLANE)
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())
    assert h.group(1) == "Z/2"


def test_klein_bottle_homology():
    h = homology(KLEIN_BOTTLE)
    assert h.betti == (1, 1, 0)
    assert h.torsion == ((), (2,), ())
    assert h.group(1) == "Z + Z/2"


def test_torus_homology():
    cx = ChainComplex(
        (1, 2, 1),
        (matrix_from_dict(1, 2, {}), matrix_from_dict(2, 1, {})),
    )
    h = homology(cx)
    assert h.betti == (1, 2, 1)
    assert h.torsion == ((), (), ())
    assert h.group(1) == "Z^2"


def test_moore_space_torsion():
    assert homology(MOORE_SPACE_12).torsion[1] == (12,)


def test_empty_complex():
    assert homology(ChainComplex((0,), ())).betti == (0,)
    assert homology(ChainComplex((2,), ())).betti == (2,)


@settings(max_examples=100)
@given(small_matrices(max_side=5, max_abs=4))
def test_euler_characteristic_agrees(m):
    # Any single matrix is a two-term complex; homology must balance chi.
    cx = ChainComplex((m.nrows, m.ncols), (m,))
    h = homology(cx)
    chi = m.nrows - m.ncols
    assert h.betti[0] - h.betti[1] == chi


# --- clearing -------------------------------------------------------------------


def uncleared_homology(cx):
    """Homology read off each boundary's own Smith normal form."""
    factors = [smith_invariants(b) for b in cx.boundaries]
    top = cx.top_degree
    betti, torsion = [], []
    for n in range(top + 1):
        rank_in = len(factors[n - 1]) if n else 0
        rank_out = len(factors[n]) if n < top else 0
        betti.append(cx.dims[n] - rank_in - rank_out)
        torsion.append(tuple(d for d in factors[n] if d > 1) if n < top else ())
    return HomologyResult(tuple(betti), tuple(torsion))


def random_unimodular(rng, size, steps):
    """A random unimodular matrix and its inverse, as lists of rows."""
    p = [[int(i == j) for j in range(size)] for i in range(size)]
    q = [row[:] for row in p]
    for _ in range(steps if size > 1 else 0):
        s, t = rng.sample(range(size), 2)
        c = rng.choice((-2, -1, 1, 2))
        # p <- (1 + c e_st) p and q <- q (1 - c e_st)
        p[s] = [a + c * b for a, b in zip(p[s], p[t])]
        for row in q:
            row[t] -= c * row[s]
    return p, q


def random_torsion_complex(rng, top_free=0):
    """A complex with known homology in random bases.

    It is a sum of free cells and pieces Z -> Z, each piece multiplying by
    its coefficient; the first piece's coefficient is 2, 3 or 4.  The top
    degree gets top_free more free cells.  Each chain group then gets a
    random unimodular change of basis.  Returns the complex, the free cell
    count of each degree, and the order of each degree's torsion.
    """
    top = rng.randint(1, 4)
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    free[top] += top_free
    dims = free[:]
    normal = [{} for _ in range(top)]
    for piece in range(rng.randint(1, 6)):
        n = rng.randint(1, top)
        d = rng.choice((2, 3, 4)) if piece == 0 else rng.choice((1, 1, -1, 2, 3, 6))
        normal[n - 1][(dims[n - 1], dims[n])] = d
        dims[n - 1] += 1
        dims[n] += 1
    bases = [random_unimodular(rng, d, rng.randint(0, 3 * d)) for d in dims]
    boundaries = []
    for n in range(1, top + 1):
        d = [[normal[n - 1].get((i, j), 0) for j in range(dims[n])]
             for i in range(dims[n - 1])]
        m = dense_product(dense_product(bases[n - 1][0], d), bases[n][1])
        boundaries.append(matrix_from_dict(dims[n - 1], dims[n], {
            (i, j): v for i, row in enumerate(m) for j, v in enumerate(row)}))
    torsion_order = [
        prod(abs(d) for (i, j), d in normal[n].items()) if n < top else 1
        for n in range(top + 1)
    ]
    return ChainComplex(tuple(dims), tuple(boundaries)), free, torsion_order


def torsion_complexes():
    yield "projective plane", PROJECTIVE_PLANE
    yield "Klein bottle", KLEIN_BOTTLE
    yield "Moore space", MOORE_SPACE_12
    for name, C, max_dim in digests.homology_categories():
        yield name, nerve(C, max_dim)


def test_clearing_matches_uncleared_reduction():
    for name, cx in torsion_complexes():
        assert homology(cx) == uncleared_homology(cx), name


def recording_reductions(monkeypatch):
    """Record every _smith_reduce call as (m, cleared_cols, cleared_rows,
    result) in the list returned.  smith_invariants goes through it too, so
    a reference computed while recording is recorded as well."""
    reduce = homology_module._smith_reduce
    calls = []

    def recording(m, cleared_cols, cleared_rows):
        out = reduce(m, cleared_cols, cleared_rows)
        calls.append((m, tuple(cleared_cols), tuple(cleared_rows), out))
        return out

    monkeypatch.setattr(homology_module, "_smith_reduce", recording)
    return calls


def reduction_branch(cx, calls):
    """The direction homology() took on cx, read off its recorded calls:
    "up" from d_1, "down" from the top boundary, or None when cx has fewer
    than two boundaries and the order shows nothing."""
    order = [m for m, _, _, _ in calls]
    if len(cx.boundaries) < 2:
        return None
    if order == list(cx.boundaries):
        return "up"
    assert order == list(reversed(cx.boundaries))
    return "down"


def seeded_torsion_complexes():
    """50 complexes at the first seed; 50 more at a second seed, each with
    four more free top cells, so that more of them reduce from d_1 up."""
    rng = random.Random(20261019)
    for _ in range(50):
        yield random_torsion_complex(rng)
    rng = random.Random(20261020)
    for _ in range(50):
        yield random_torsion_complex(rng, top_free=4)


def test_clearing_on_random_complexes_with_torsion(monkeypatch):
    calls = recording_reductions(monkeypatch)
    clearing = set()
    for cx, free, torsion_order in seeded_torsion_complexes():
        expected = uncleared_homology(cx)
        calls.clear()
        h = homology(cx)
        assert h == expected
        assert list(h.betti) == free
        assert [prod(t) for t in h.torsion] == torsion_order
        assert any(h.torsion)
        branch = reduction_branch(cx, calls)
        if branch is not None:
            assert (branch == "up") == (cx.dims[-1] > cx.dims[-2])
            if any(cols or rows for _, cols, rows, _ in calls):
                clearing.add(branch)
    # torsion is present on both branches, and both of them clear
    assert clearing == {"up", "down"}


def test_clearing_drops_one_column_per_unit_pivot_above(monkeypatch):
    cx = nerve(poset_category(k_enumerate(2, 3), k_leq), 3)
    assert cx.dims[-1] <= cx.dims[-2]
    expected = uncleared_homology(cx)
    calls = recording_reductions(monkeypatch)
    assert homology(cx) == expected
    assert [m for m, _, _, _ in calls] == list(reversed(cx.boundaries))
    assert calls[0][1] == ()
    assert all(rows == () for _, _, rows, _ in calls)
    for (_, _, _, (factors, pivot_rows, _)), (below, cleared, _, _) in zip(
            calls, calls[1:]):
        # d_n drops one column for each unit pivot of d_(n+1), and no other
        assert cleared == pivot_rows
        assert 0 < len(set(cleared)) == len(pivot_rows) <= factors.count(1)
        assert all(0 <= c < below.ncols for c in cleared)


def test_clearing_drops_one_row_per_unit_pivot_below(monkeypatch):
    top = parse_kelt(digests.DOWN_SET_TOP)
    down_set = [e for e in k_enumerate(3, 3) if k_leq(e, top)]
    calls = recording_reductions(monkeypatch)
    for elements in (k_enumerate(2, 3), down_set):
        cx = nerve(poset_category(elements, k_leq), 2)
        assert cx.dims[-1] > cx.dims[-2]
        expected = uncleared_homology(cx)
        calls.clear()
        assert homology(cx) == expected
        # d_1 comes first, with no rows cleared
        assert [m for m, _, _, _ in calls] == list(cx.boundaries)
        assert calls[0][2] == ()
        assert all(cols == () for _, cols, _, _ in calls)
        for (_, _, _, (factors, _, pivot_cols)), (above, _, cleared, _) in zip(
                calls, calls[1:]):
            # d_(n+1) drops one row for each unit pivot of d_n, and no other
            assert cleared == pivot_cols
            assert 0 < len(set(cleared)) == len(pivot_cols) <= factors.count(1)
            assert all(0 <= r < above.nrows for r in cleared)


def test_only_unit_phase_pivots_clear():
    reduce = homology_module._smith_reduce
    # gcd(2, 3) = 1 is found by the Euclidean phase, after a column operation
    assert reduce(matrix_from_dict(1, 2, {(0, 0): 2, (0, 1): 3}), (), ()) == (
        (1,), (), ())
    assert reduce(PROJECTIVE_PLANE.boundaries[1], (), ()) == ((2,), (), ())
    m = matrix_from_dict(1, 2, {(0, 0): 2, (0, 1): 1})
    assert reduce(m, (), ()) == ((1,), (0,), (1,))
    # a cleared column is not read
    assert reduce(m, (1,), ()) == ((2,), (), ())
    m = matrix_from_dict(2, 1, {(0, 0): 2, (1, 0): 1})
    assert reduce(m, (), ()) == ((1,), (1,), (0,))
    # a cleared row is not read
    assert reduce(m, (), (1,)) == ((2,), (), ())


# --- graph boundaries -------------------------------------------------------------


def bfs_components(nrows, edges):
    """Connected components of the graph on range(nrows) with these edges."""
    adjacent = [[] for _ in range(nrows)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen = [False] * nrows
    count = 0
    for s in range(nrows):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        queue = [s]
        for v in queue:
            for u in adjacent[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return count


def bareiss_det(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [row[:] for row in rows]
    n, sign, previous = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if n else 1


def pivot_block_is_unimodular(m, pivot_rows, pivot_cols):
    full = dense(m)
    return abs(bareiss_det([[full[i][j] for j in pivot_cols]
                            for i in pivot_rows])) == 1


def random_digraph(rng):
    """A loop-free directed graph on range(nrows), with its edges and some
    cleared columns.  Vertices fall into a few groups and edges stay inside
    one, so there are several components; some vertices get no edge.
    Parallel and opposite edges may repeat."""
    nrows = rng.randint(2, 16)
    group = [rng.randrange(rng.randint(1, 4)) for _ in range(nrows)]
    members = {}
    for v, g in enumerate(group):
        members.setdefault(g, []).append(v)
    pools = [vs for vs in members.values() if len(vs) > 1]
    if not pools:
        pools = [[0, 1]]
    edges = [tuple(rng.sample(rng.choice(pools), 2))
             for _ in range(rng.randint(1, 2 * nrows))]
    cleared = tuple(sorted(rng.sample(range(len(edges)),
                                      rng.randint(0, len(edges) // 3))))
    return nrows, edges, cleared


def test_graph_boundaries_reduce_by_a_spanning_forest(monkeypatch):
    forests = []
    spanning_forest = homology_module._spanning_forest

    def recording(m, cleared_cols):
        forests.append(m)
        return spanning_forest(m, cleared_cols)

    monkeypatch.setattr(homology_module, "_spanning_forest", recording)
    reduce = homology_module._smith_reduce
    rng = random.Random(20261021)
    isolated, forked, clearing = 0, 0, 0
    for _ in range(200):
        nrows, edges, cleared = random_digraph(rng)
        kept = [e for j, e in enumerate(edges) if j not in cleared]
        alone = len(set(range(nrows)) - set(chain(*kept)))
        components = bfs_components(nrows, kept)
        isolated += alone
        forked += components - alone > 1
        clearing += bool(cleared)
        rank = nrows - components
        # both sign orders: each edge's two rows as drawn, then swapped
        for columns in (edges, [e[::-1] for e in edges]):
            m = faces(nrows, 2, columns)
            forests.clear()
            factors, pivot_rows, pivot_cols = reduce(m, cleared, ())
            assert forests == [m]
            assert factors == (1,) * rank
            assert len(set(pivot_rows)) == len(set(pivot_cols)) == rank
            assert not set(pivot_cols) & set(cleared)
            assert pivot_block_is_unimodular(m, pivot_rows, pivot_cols)
            # the twin goes through the unit phase, to the same factors
            forests.clear()
            assert reduce(twin(m), cleared, ())[0] == factors
            assert forests == []
    # isolated vertices, two components with edges, and cleared columns
    # all occur
    assert isolated and forked and clearing


def test_graph_boundaries_off_the_forest_path(monkeypatch):
    def refuse(m, cleared_cols):
        raise AssertionError("took the forest path")

    monkeypatch.setattr(homology_module, "_spanning_forest", refuse)
    # every edge of a triangle signed +1 is not an incidence matrix
    triangle = matrix_from_dict(3, 3, {(0, 0): 1, (1, 0): 1, (1, 1): 1,
                                       (2, 1): 1, (0, 2): 1, (2, 2): 1})
    assert smith_invariants(triangle) == (1, 1, 2)
    # one -1 then one +1 in every column, built from entries: the path
    # 0 -> 1 -> 2 with the other sign order
    path = matrix_from_dict(3, 2, {(1, 0): -1, (0, 0): 1, (2, 1): -1, (1, 1): 1})
    assert smith_invariants(path) == (1, 1)
    # a face matrix built again from its entries
    assert smith_invariants(twin(faces(3, 2, [[1, 0], [2, 1]]))) == (1, 1)
    # the path 0 -> 1 -> 2 without rows 0 and 2 is row 1 alone, of rank 1
    path = faces(3, 2, [[1, 0], [2, 1]])
    reduce = homology_module._smith_reduce
    assert reduce(path, (), (0, 2)) == ((1,), (1,), (0,))
    assert reduce(path, (1,), (0,)) == ((1,), (1,), (0,))


def test_a_pivot_closing_a_cycle_fails_the_determinant_check():
    # 0 -> 1 -> 2 -> 0 and 2 -> 3: the forest takes columns 0, 1 and 3
    m = faces(4, 2, [[1, 0], [2, 1], [0, 2], [3, 2]])
    factors, pivot_rows, pivot_cols = homology_module._smith_reduce(m, (), ())
    assert factors == (1, 1, 1) and pivot_cols == (0, 1, 3)
    assert pivot_block_is_unimodular(m, pivot_rows, pivot_cols)
    # column 2 closes the cycle 0 1 2, so it is no forest edge
    assert not pivot_block_is_unimodular(m, pivot_rows, (0, 1, 2))
