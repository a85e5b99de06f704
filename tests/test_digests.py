"""Pinned digests of enumeration order, seeded sampling and homology.

The first two sha256 values were recorded before the term layer was
refactored; any change in the order `enumerate_configs` returns
configurations in, or in how `random_config` consumes its random stream,
changes them.  The third was recorded before the Smith normal form gained
its unit-pivot phase; invariant factors are unique, so it must never move.
The `CATTOP_SHA256` values were recorded before `FinCategory` was given its
integer core: the objects, arrows, identities and composition tables of the
categories, every entry of their nerve boundaries, and the deletion functors
and fiber reports, all as codec text in the order the library returns them.
`tools/digests.py` computes them and adds heavier sweeps.
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

from circleops.cattop import comma_below, nerve, poset_category
from circleops.circled import enumerate_configs, random_config
from circleops.homology import smith_invariants
from circleops.kgraph import k_enumerate, k_iota, k_leq, parse_kelt
from circleops.operad_h import HOperation, compose
from circleops.trees import enumerate_trees, parse_tree

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digests  # noqa: E402

ENUMERATION_SHA256 = (
    "da5599ee366328edc40cbcff95cf3a070ccddd6a8782d2c06b3bc4941d80b408"
)
COMPOSITION_SHA256 = (
    "64e1fa130a3c7097647c8e949096c36c7372422e8f95eac45fae2b90a2e9317f"
)
HOMOLOGY_SHA256 = (
    "9d01221328e1dacbad0f40bf1c3dcef845849f1844892967852ce5e2d19c4e10"
)

CATTOP_SHA256 = {
    "categories/comma_below":
        "f18aa28babf4a73fa9b062487fe5c2ed085b47990cfcdb65c0d4e84f69c724f3",
    "categories/poset":
        "22d1637efcf0679d29a48a832761511acc61e77ad32616ae6b460c6ec653d202",
    "categories/build_comma":
        "7ebbbc4ca41913e2e4e2965149be22fa61d60c6e7632eb08e5525798e75d4feb",
    "categories/hat_comma":
        "940bf2e4ef3221204eb4ce289c9f5cdd380a785f76223f90c2dbac2d8a11558d",
    "nerve/comma_below":
        "d28796446f9656cba3aac621e9c71f8a284294af27ad523923de80996baf2631",
    "nerve/poset":
        "3f7593980b09aa715a79d1945590089b73cfe30a1c87183732b7603eb952a560",
    "nerve/build_comma":
        "0aebcd6c32a0b21dcce76c9a6a690635863dea5d97f41387013bf4412f4e334a",
    "functors/deletion":
        "1ee536fbbcb7a8f6ec60a7710517fbf4ffdfc2318aedb59941887a050c58397a",
    "functors/fiber_inclusion":
        "bf4dddcbac685374f6dfe0d47e750ba60f532366918445aa6ae1d785d39e8f6c",
    "functors/fiber_adjoint_report":
        "64697e24737aba5faf902550d072234d61b1fe528d7b9b1672fff34c311ed879",
}

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


def test_every_light_digest_item_is_pinned():
    assert sorted(digests.LIGHT) == sorted(CATTOP_SHA256)


@pytest.mark.parametrize("name", sorted(CATTOP_SHA256))
def test_categories_nerves_and_functors_are_pinned(name):
    assert digests.sha256_lines(digests.LIGHT[name]()) == CATTOP_SHA256[name]
