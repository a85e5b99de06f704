"""Pinned digests of enumeration order, seeded sampling and homology.

The first two sha256 values were recorded before the term layer was
refactored; any change in the order `enumerate_configs` returns
configurations in, or in how `random_config` consumes its random stream,
changes them.  The third covers the invariant factors of every nerve
boundary of `digests.homology_categories()`; it was first recorded before
the Smith normal form gained its unit-pivot phase, and recorded again, with
the stage-3 poset at k=3 added, before homology gained clearing.  Invariant
factors are unique, so it must never move.
The `CATTOP_SHA256` values were recorded before `FinCategory` was given its
integer core: the objects, arrows and identities of the categories and the
composite of each composable pair (their `table` view), every entry of
their nerve boundaries, and the deletion functors and fiber reports, all as
codec text in the order the library returns them.
The `CLI_SHA256` values were recorded before the result cache was removed:
exit code, stdout and stderr of the README's CLI commands, of every `verify`
suite at two seeds in both formats, and of two usage errors.  The two arity
runs were recorded once the lemma with no white circles ran and a negative
arity was reported by name.  The `compose config`, `homology comma` and
`homology below` runs, one that parses its arguments and one with a bad
argument each, were recorded before the CLI's three argument parsers became
one.  The `--max-dim 1 homology kposet --m 2 --k 3` run, a nerve whose top
chain group is larger than the one below it, was recorded before
`homology` reduced such nerves from d_1 up.
The `TERM_SHA256` values were recorded before composition became one walk
per stage: both sides of each operad law on seeded operations, with and
without the uncovered-black rule, and the errors of rejected compositions.
The complexity value was recorded before complexity was read off one walk
of the underlying tree: the complexity of every small configuration and of
seeded draws with up to eight white circles.
The validity value was recorded before validation and the white profile
became one walk: the validity report and white profile of seeded
configurations, each also with one more circle put in unchecked.
The k=3 enumeration value was recorded before `enumerate_configs` built its
labellings from one text template per shape: every configuration with three
white circles on each of the five acceptance trees, 5,820 lines.
The `RENDER_SHA256` value was recorded before the clearance check stopped
scanning every pair of curve sides: 300 seeded drawings with 1 to 6 white
circles, each with its clearance violations and, when clear, its SVG.
`tools/digests.py` computes them and adds heavier sweeps.
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

from circleops.cattop import nerve
from circleops.circled import enumerate_configs, random_config, validate_config
from circleops.homology import smith_invariants
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
    "cd18a8de858aa1d637cb73b625c43ff437c9d1c5f573e3baf3479a138657a9e8"
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

TERM_SHA256 = {
    "terms/enumerate_configs k=3":
        "e72b5c288dc25b2782bf191b9dd754a86cf501cfa8a5f475810ce3cf6a134ae9",
    "terms/laws":
        "c9c3a47ff2b9f816dd9ab2dfb7b4255f12703bdf42c6215ccb3a55febbac0983",
    "terms/rejected":
        "766516dc9249bb441e66f143242b93a852478f7afd51982d470de31f3f92a4f9",
    "terms/complexity":
        "aaa62bdd3817bc9aef4d6081966ed6f35d6885a923d3ff8055f912153923a73d",
    "terms/validity":
        "d0ed9df7ff3e4fe5949bbf1edace6023ecde7245a69aec8050ff0301775b1e1f",
}

RENDER_SHA256 = {
    "render/drawings":
        "828c8c1241ac9f4886b431ea3f5268d6fbb65552b75c4fdb25646b3fb7ecb69c",
}

CLI_SHA256 = {
    "cli/enumerate trees --max-vertices 1 --max-leaves 2":
        "4449135168dbadb7b6d73a84b47f5f07c5efbd73a5563f6ea0326c412479d42a",
    "cli/enumerate configs --tree (| |) --k 2":
        "08edc3a251b0d1f7f643b75d38802207d88583dec5790a894e2a356defeadbf2",
    "cli/compose kgraph --outer 2; mu(1,2)=1; perm=[1 2]"
    " --inner 3; mu(1,2)=0 mu(1,3)=2 mu(2,3)=2; perm=[1 2 3]"
    " --inner 2; mu(1,2)=0; perm=[1 2]":
        "664c8e46cbb1ad501f686973a6b415338f1c4b0394d20f91accffaff7c210f20",
    "cli/--seed 7 verify axioms --samples 200":
        "9d0f003b865e7cfaad62c0b697e79d09fe1cffc6a0f5bdc09a51a4821d5e1dbd",
    "cli/verify lemma --tree (| |) --k 2":
        "f67fc2a8ceae9704c5be8e86228a236f4cd88d1c77a2e3d656b95e1955032a0b",
    "cli/homology kposet --m 3 --k 2":
        "31a9da47e1a556c7a827bf64b82fcb3b8b2c422e1c209f314e4e383ef0f78a4f",
    "cli/render --config {w1 (| |) / | |} --check --out -":
        "626924380c71cfa173044f6a8d25f1d2417e5030523d0ceb7ab525c618d80866",
    "cli/homology hat --tree (|)":
        "a1880196d24ccf9226964ec20340b073a6913109b0767bf16a5fa68e027c2390",
    "cli/--seed 0 --format text verify axioms":
        "9d0f003b865e7cfaad62c0b697e79d09fe1cffc6a0f5bdc09a51a4821d5e1dbd",
    "cli/--seed 0 --format records verify axioms":
        "f51b2e445cc0b9e2f6bbd3cffa0ca950da147228d9b3164e83c265bd03041182",
    "cli/--seed 7 --format text verify axioms":
        "9d0f003b865e7cfaad62c0b697e79d09fe1cffc6a0f5bdc09a51a4821d5e1dbd",
    "cli/--seed 7 --format records verify axioms":
        "53c3707ea2cf10125c87614553bddb5ff466e849068456ad9c2cfa13132b60a4",
    "cli/--seed 0 --format text verify inequality":
        "be414cfc68c063f77ade6485cb786ae0aaa6579b8724ecfc514790b7407bdf84",
    "cli/--seed 0 --format records verify inequality":
        "474f099298e218d33f70d067da67249e26831170522576bdfc7a14aa41aa1583",
    "cli/--seed 7 --format text verify inequality":
        "be414cfc68c063f77ade6485cb786ae0aaa6579b8724ecfc514790b7407bdf84",
    "cli/--seed 7 --format records verify inequality":
        "2799163439513c2e26b894ff1d9e0de5e26df9e1c11b2585c6e135e01b5e61ed",
    "cli/--seed 0 --format text verify lemma --tree (| |)":
        "f67fc2a8ceae9704c5be8e86228a236f4cd88d1c77a2e3d656b95e1955032a0b",
    "cli/--seed 0 --format records verify lemma --tree (| |)":
        "4f89bfe7d3dec9c4c9dde92f1b0043e734eebe77cbb66c6be2d19a748fe343a2",
    "cli/--seed 7 --format text verify lemma --tree (| |)":
        "f67fc2a8ceae9704c5be8e86228a236f4cd88d1c77a2e3d656b95e1955032a0b",
    "cli/--seed 7 --format records verify lemma --tree (| |)":
        "4f89bfe7d3dec9c4c9dde92f1b0043e734eebe77cbb66c6be2d19a748fe343a2",
    "cli/--seed 0 --format text verify remark-linear":
        "cf7f50fa75b598a7ca15d8a4572117bf0038d6bf7dd13e8f29324555b8437943",
    "cli/--seed 0 --format records verify remark-linear":
        "3741af241b502b28a296005d484f6b3b44109948fae635d5ec4c2b8670df3d71",
    "cli/--seed 7 --format text verify remark-linear":
        "cf7f50fa75b598a7ca15d8a4572117bf0038d6bf7dd13e8f29324555b8437943",
    "cli/--seed 7 --format records verify remark-linear":
        "3741af241b502b28a296005d484f6b3b44109948fae635d5ec4c2b8670df3d71",
    "cli/--seed 0 --format text verify grothendieck --tree (| |)":
        "ac5fed27cd1df7c86be9eef7d9c9d5641ec572eeaa901f41ef890517b8896fd8",
    "cli/--seed 0 --format records verify grothendieck --tree (| |)":
        "45022213bb2840d311660569c4b53e4c58d3e6ecc283be6e64ad759c1fb7e927",
    "cli/--seed 7 --format text verify grothendieck --tree (| |)":
        "ac5fed27cd1df7c86be9eef7d9c9d5641ec572eeaa901f41ef890517b8896fd8",
    "cli/--seed 7 --format records verify grothendieck --tree (| |)":
        "45022213bb2840d311660569c4b53e4c58d3e6ecc283be6e64ad759c1fb7e927",
    "cli/--seed 0 --format text verify cowedge":
        "58417b16bf0cf3ad073d4621938ea385fc16e300d00e7fe79046ee90a8de650e",
    "cli/--seed 0 --format records verify cowedge":
        "8234fa0992d979c60383d61e4752739343e7917ac391e7abef7320c446279a4f",
    "cli/--seed 7 --format text verify cowedge":
        "58417b16bf0cf3ad073d4621938ea385fc16e300d00e7fe79046ee90a8de650e",
    "cli/--seed 7 --format records verify cowedge":
        "542587532da06191022f899de04dcedb10b4183427246e4146a5761c75df420b",
    "cli/--seed 0 --format text verify proof-structure --tree (| |)":
        "332b95f86ed4e814e32f9a6dfa23c87551b9437c9f55bafc39a7a6bd09c27b4c",
    "cli/--seed 0 --format records verify proof-structure --tree (| |)":
        "380fafa998bb997ad4547eca7867405196fe3f38a50a10df02edd76e52f1d1d5",
    "cli/--seed 7 --format text verify proof-structure --tree (| |)":
        "332b95f86ed4e814e32f9a6dfa23c87551b9437c9f55bafc39a7a6bd09c27b4c",
    "cli/--seed 7 --format records verify proof-structure --tree (| |)":
        "380fafa998bb997ad4547eca7867405196fe3f38a50a10df02edd76e52f1d1d5",
    "cli/verify lemma --tree ((":
        "9101fa6231baf69389d530428e8bdbafa25069cd6a363c144ac1c72af946db3b",
    "cli/--max-dim -1 homology kposet --m 2 --k 2":
        "0bcf552b8985e333f8d85d3117a0022c5537ab496d1b0fd73f569cbd5f8ba08f",
    "cli/verify lemma --tree (|) --k 0":
        "c6601d47002d084186c3f64a65388d3e402989722df362cebd3705cc406072c3",
    "cli/enumerate kgraph --m 2 --k -1":
        "e739eb8774e3262874de00bf0ffaa9acf6acd1a393ac6925f6e0b9a19bad2d92",
    "cli/compose config --outer {w1 (| |) / | |}"
    " --inner ({w1 | / |} {w2 | / |})":
        "1d8f4a890b60a32d6bac4ba8153f3afe9828b0989547e4f13d49a948c9bcf60c",
    "cli/compose config --outer {w1 (| |) / | --inner {w1 | / |}":
        "9354916159734ce0266c4f2f187cee56eb3a2d883668530bcc2b012ca925c558",
    "cli/homology comma --tree (|) --k 2":
        "a1880196d24ccf9226964ec20340b073a6913109b0767bf16a5fa68e027c2390",
    "cli/homology comma --tree (| x) --k 2":
        "f89e551a5f8d65fb70c19cfb9c06839a8025700934963baade2258f290c933e7",
    "cli/homology below --tree (| |) --cell 2; mu(1,2)=1; perm=[1 2]":
        "7c7a38b493128a6507bc7c7710e23842195e24625536d57602c4977a34d36415",
    "cli/homology below --tree (| |) --cell 2; mu(1,2)=x; perm=[1 2]":
        "e907ccedea6f9b623009d076317ae6b616b0a9aac0152750df37e33cf85dfa41",
    "cli/--max-dim 1 homology kposet --m 2 --k 3":
        "a19745032f21777ab71abe0634b2b500466375a51a519967d8f2ecd3eacf0f18",
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


def homology_lines():
    for name, C, max_dim in digests.homology_categories():
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
    assert sorted(digests.TERM) == sorted(TERM_SHA256)
    assert sorted(digests.RENDER) == sorted(RENDER_SHA256)
    assert sorted(digests.CLI) == sorted(CLI_SHA256)


def test_validity_corpus_has_every_violation_code():
    codes = {code for c in digests.validity_configs()
             for _, code, _ in validate_config(c).violations}
    assert codes == {
        "white-label-nonpositive", "duplicate-white-label",
        "white-labels-not-contiguous", "black-around-small",
        "black-in-black", "black-outside-white",
    }


@pytest.mark.parametrize("name", sorted(CATTOP_SHA256))
def test_categories_nerves_and_functors_are_pinned(name):
    assert digests.sha256_lines(digests.LIGHT[name]()) == CATTOP_SHA256[name]


@pytest.mark.parametrize("name", sorted(TERM_SHA256))
def test_operad_laws_and_rejections_are_pinned(name):
    assert digests.sha256_lines(digests.TERM[name]()) == TERM_SHA256[name]


@pytest.mark.parametrize("name", sorted(RENDER_SHA256))
def test_drawings_and_clearance_are_pinned(name):
    assert digests.sha256_lines(digests.RENDER[name]()) == RENDER_SHA256[name]


@pytest.mark.parametrize("name", sorted(CLI_SHA256))
def test_cli_outputs_are_pinned(name):
    assert digests.sha256_lines(digests.CLI[name]()) == CLI_SHA256[name]
