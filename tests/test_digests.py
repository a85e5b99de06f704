"""Pinned digests of enumeration order, seeded sampling and homology.

The first two sha256 values were recorded before the term layer was
refactored; any change in the order `enumerate_configs` returns
configurations in, or in how `random_config` consumes its random stream,
changes them.  The third was recorded before the Smith normal form gained
its unit-pivot phase; invariant factors are unique, so it must never move.
"""

import hashlib
import random

from circleops.cattop import comma_below, nerve, poset_category
from circleops.circled import enumerate_configs, random_config
from circleops.homology import smith_invariants
from circleops.kgraph import k_enumerate, k_iota, k_leq, parse_kelt
from circleops.operad_h import HOperation, compose
from circleops.trees import enumerate_trees, parse_tree

ENUMERATION_SHA256 = (
    "da5599ee366328edc40cbcff95cf3a070ccddd6a8782d2c06b3bc4941d80b408"
)
COMPOSITION_SHA256 = (
    "64e1fa130a3c7097647c8e949096c36c7372422e8f95eac45fae2b90a2e9317f"
)
HOMOLOGY_SHA256 = (
    "9d01221328e1dacbad0f40bf1c3dcef845849f1844892967852ce5e2d19c4e10"
)

CORPUS = ["|", "(|)", "(| |)", "((|))", "((|) |)", "((|) (|))"]


def sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def enumeration_lines():
    for t in enumerate_trees(2, 2):
        for k in range(3):
            yield f"# {t} k={k}"
            yield from (str(c) for c in enumerate_configs(t, k))


def composition_lines(samples=150, seed=20250101):
    rng = random.Random(seed)
    trees = [parse_tree(t) for t in CORPUS]
    for i in range(samples):
        o = HOperation(random_config(rng, trees[i % len(trees)], 1 + i % 3))
        args = tuple(HOperation(random_config(rng, s, 1 + rng.randrange(2)))
                     for s in o.sources)
        yield " ; ".join([str(o), *(str(a) for a in args),
                          str(compose(o, args))])


def homology_categories():
    """(name, category, nerve max_dim): the stage posets and small commas."""
    for m, k in ((2, 3), (3, 2)):
        yield f"k_enumerate({m}, {k})", poset_category(k_enumerate(m, k), k_leq), 3
    top = parse_kelt("3; mu(1,2)=2 mu(1,3)=2 mu(2,3)=2; perm=[1 2 3]")
    below = [e for e in k_enumerate(3, 3) if k_leq(e, top)]
    yield "down-set", poset_category(below, k_leq), 2
    for t in ("|", "(|)", "(| |)"):
        for cell in (k_iota(c) for c in k_enumerate(2, 2)):
            yield f"{t} {cell}", comma_below(parse_tree(t), cell), 4


def homology_lines():
    for name, C, max_dim in homology_categories():
        for n, b in enumerate(nerve(C, max_dim).boundaries):
            yield f"{name} d{n + 1} {b.nrows}x{b.ncols} {smith_invariants(b)}"


def test_enumeration_order_is_pinned():
    assert sha256_lines(enumeration_lines()) == ENUMERATION_SHA256


def test_seeded_sampling_and_composition_are_pinned():
    assert sha256_lines(composition_lines()) == COMPOSITION_SHA256


def test_nerve_invariant_factors_are_pinned():
    assert sha256_lines(homology_lines()) == HOMOLOGY_SHA256
