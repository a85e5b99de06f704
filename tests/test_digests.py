"""Pinned digests of enumeration order and seeded sampling.

The two sha256 values were recorded before the term layer was refactored;
any change in the order `enumerate_configs` returns configurations in, or
in how `random_config` consumes its random stream, changes them.
"""

import hashlib
import random

from circleops.circled import enumerate_configs, random_config
from circleops.operad_h import HOperation, compose
from circleops.trees import enumerate_trees, parse_tree

ENUMERATION_SHA256 = (
    "da5599ee366328edc40cbcff95cf3a070ccddd6a8782d2c06b3bc4941d80b408"
)
COMPOSITION_SHA256 = (
    "64e1fa130a3c7097647c8e949096c36c7372422e8f95eac45fae2b90a2e9317f"
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


def test_enumeration_order_is_pinned():
    assert sha256_lines(enumeration_lines()) == ENUMERATION_SHA256


def test_seeded_sampling_and_composition_are_pinned():
    assert sha256_lines(composition_lines()) == COMPOSITION_SHA256
