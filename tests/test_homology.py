"""Tests for exact chain-complex homology.

Smith normal form is checked against three independent oracles: ranks against
Gaussian elimination over exact rationals, invariant factors against the
gcd-of-minors characterization on small matrices, and known diagonals
scrambled by unimodular operations on larger ones.  Known complexes with
torsion pin the homology conventions.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleops.homology import (
    ChainComplex,
    HomologyError,
    IntMatrix,
    homology,
    matmul,
    matrix_from_dict,
    matrix_rank,
    smith_invariants,
)


def dense(m):
    out = [[0] * m.ncols for _ in range(m.nrows)]
    for (i, j), v in m.entries:
        out[i][j] = v
    return out


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
    with pytest.raises(HomologyError):
        IntMatrix(2, 2, (((0, 0), 0),))
    with pytest.raises(HomologyError):
        IntMatrix(2, 2, (((2, 0), 1),))
    with pytest.raises(HomologyError):
        IntMatrix(2, 2, (((0, 0), 1), ((0, 0), 2)))


def test_matmul_example():
    a = matrix_from_dict(2, 2, {(0, 0): 1, (0, 1): 2, (1, 1): 3})
    b = matrix_from_dict(2, 1, {(0, 0): 4, (1, 0): -1})
    assert dense(matmul(a, b)) == [[2], [-3]]
    with pytest.raises(HomologyError):
        matmul(a, matrix_from_dict(3, 1, {}))


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
    assert matrix_rank(m) == len(factors)
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


def test_projective_plane_torsion():
    # One cell in each degree; the 2-cell wraps twice around the 1-cell.
    cx = ChainComplex(
        (1, 1, 1),
        (matrix_from_dict(1, 1, {}), matrix_from_dict(1, 1, {(0, 0): 2})),
    )
    h = homology(cx)
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())
    assert h.group(1) == "Z/2"


def test_klein_bottle_homology():
    # Cells: one vertex, loops a and b, one 2-cell glued along a b a b^-1.
    cx = ChainComplex(
        (1, 2, 1),
        (matrix_from_dict(1, 2, {}), matrix_from_dict(2, 1, {(0, 0): 2})),
    )
    h = homology(cx)
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
    cx = ChainComplex(
        (1, 1, 1),
        (matrix_from_dict(1, 1, {}), matrix_from_dict(1, 1, {(0, 0): 12})),
    )
    assert homology(cx).torsion[1] == (12,)


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
