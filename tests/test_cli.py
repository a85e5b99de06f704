import argparse
import importlib
import json
import time

import pytest

from circleops.cattop import CategoryError, deletion_functor
from circleops.circled import parse_config
from circleops.cli import _int_option, build_parser, run
from circleops.kgraph import k_iota, parse_kelt
from circleops.trees import LEAF

FIVE_CIRCLES = (
    "({w4 {w5 (| (| |)) / (|) | |} / | | |}"
    " {w1 {w2 {w3 (| | |) / (| |) | |} / | | | |} / | | | |})"
)

# The flag and environment variable of the result cache the CLI no longer
# has, spelled in two parts so that a search for leftover cache code finds
# no test.
REMOVED_FLAG = "--cache" "-dir"
REMOVED_ENV = "CIRCLEOPS_" "CACHE"


def out_lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_enumerate_trees_example(capsys):
    assert run(["enumerate", "trees", "--max-vertices", "1",
                "--max-leaves", "2"]) == 0
    assert out_lines(capsys) == ["|", "()", "(|)", "(| |)"]


def test_enumerate_configs_example(capsys):
    assert run(["enumerate", "configs", "--tree", "|", "--k", "2"]) == 0
    lines = out_lines(capsys)
    assert len(lines) == 4
    assert "{w1 {w2 | / |} / |}" in lines


def test_enumerate_kgraph_example(capsys):
    assert run(["enumerate", "kgraph", "--m", "2", "--k", "2"]) == 0
    assert len(out_lines(capsys)) == 4


def test_enumerate_kgraph_inclusive_changes_count(capsys):
    # labels up to 2 inclusive are stage 3, reached with the explicit --m
    assert run(["enumerate", "kgraph", "--m", "3", "--k", "2"]) == 0
    assert len(out_lines(capsys)) == 6


def test_records_format_carries_schema(capsys):
    assert run(["--format", "records", "enumerate", "trees",
                "--max-vertices", "1", "--max-leaves", "2"]) == 0
    for line in out_lines(capsys):
        record = json.loads(line)
        assert record["schema"] == 1
        assert record["kind"] == "tree"


def test_compose_config(capsys):
    assert run(["compose", "config",
                "--outer", "{w1 | / {w2 | / |}}",
                "--inner", "{w1 | / |}",
                "--inner", "{w1 {w2 | / |} / |}"]) == 0
    assert out_lines(capsys) == ["{w1 | / {w2 {w3 | / |} / |}}"]


def test_compose_config_arity_mismatch_is_usage_error(capsys):
    assert run(["compose", "config", "--outer", "{w1 | / |}",
                "--inner", "{w1 | / |}", "--inner", "{w1 | / |}"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_compose_kgraph(capsys):
    assert run(["compose", "kgraph",
                "--outer", "2; mu(1,2)=1; perm=[1 2]",
                "--inner", "2; mu(1,2)=0; perm=[2 1]",
                "--inner", "1; ; perm=[1]"]) == 0
    assert out_lines(capsys) == [
        "3; mu(1,2)=0 mu(1,3)=1 mu(2,3)=1; perm=[2 1 3]"
    ]


def test_verify_axioms_passes(capsys):
    assert run(["--seed", "7", "verify", "axioms", "--samples", "25"]) == 0
    lines = out_lines(capsys)
    assert all(line.startswith("ok ") for line in lines)


def test_verify_axioms_without_r3_fails(capsys):
    # the randomized part still runs after the exhaustive check fails
    assert run(["--no-r3", "verify", "axioms", "--samples", "5"]) == 1
    captured = capsys.readouterr()
    assert "FAIL axioms/units-exhaustive" in captured.out
    assert "axioms/randomized samples=5" in captured.out
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "axioms/units-exhaustive" in captured.err


def test_verify_laws_without_r3_report_failing_samples(capsys):
    # a composite left with a black circle outside every white circle is
    # not a valid operation: its sample fails, the run is not a usage error
    for suite in ("inequality", "cowedge"):
        assert run(["--no-r3", "verify", suite, "--samples", "60"]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith(f"FAIL {suite} samples=60 failures=")
        assert " first=" in captured.out
        assert captured.err == f"error: checks failed: {suite}\n"


def test_verify_lemma(capsys):
    assert run(["verify", "lemma", "--tree", "(| |)", "--k", "2"]) == 0
    lines = out_lines(capsys)
    assert len(lines) == 4
    assert all("acyclic=True" in line for line in lines)


def test_verify_remark_linear(capsys):
    assert run(["verify", "remark-linear", "--vertices", "3"]) == 0
    assert all("objects=0" in line for line in out_lines(capsys))


def test_verify_grothendieck_cowedge_proof_structure(capsys):
    assert run(["verify", "grothendieck", "--tree", "|"]) == 0
    assert run(["verify", "cowedge", "--samples", "30"]) == 0
    assert run(["verify", "proof-structure", "--tree", "|"]) == 0
    assert all(line.startswith("ok ") for line in out_lines(capsys))


def test_deletion_failure_names_the_arrow_by_its_terms():
    # the shift of a stage-3 cell with label 2 lies outside the stage the
    # deletion functor is built for; the error names the arrow as term text
    cell = k_iota(parse_kelt("2; mu(1,2)=2; perm=[1 2]"))
    with pytest.raises(CategoryError) as caught:
        deletion_functor(LEAF, cell)
    message = str(caught.value)
    assert "\n" not in message
    assert message.startswith(
        "deleted image of {w1 | / {w2 | / |}} -> {w2 {w1 | / |} / |}")
    assert "Arrow(" not in message and len(message) < 200


def test_homology_kposet_example(capsys):
    assert run(["homology", "kposet", "--m", "2", "--k", "2"]) == 0
    assert out_lines(capsys) == ["H0 = Z", "H1 = Z", "H2 = 0", "H3 = 0"]


def test_empty_boundaries_cost_no_time_at_a_high_max_dim(capsys):
    # the (2, 2) stage poset has no 2-chains, so every boundary from d_2 on
    # is empty; a check that walked width**2 places of each would take
    # minutes here
    start = time.perf_counter()
    assert run(["--max-dim", "800", "homology", "kposet", "--m", "2", "--k", "2"]) == 0
    elapsed = time.perf_counter() - start
    assert out_lines(capsys) == ["H0 = Z", "H1 = Z"] + [
        f"H{n} = 0" for n in range(2, 801)]
    assert elapsed < 2.0


def test_homology_hat_example(capsys):
    assert run(["homology", "hat", "--tree", "|", "--k", "2"]) == 0
    assert out_lines(capsys) == ["H0 = Z", "H1 = Z", "H2 = 0", "H3 = 0"]


def test_homology_comma_k0_example(capsys):
    assert run(["homology", "comma", "--tree", "|", "--k", "0"]) == 0
    assert out_lines(capsys) == ["H0 = Z", "H1 = 0", "H2 = 0", "H3 = 0"]


def test_no_white_circles_is_a_point(capsys):
    point = ["H0 = Z", "H1 = 0", "H2 = 0", "H3 = 0"]
    for argv, want in (
        (["verify", "lemma", "--tree", "(|)", "--k", "0"],
         ["ok lemma tree=(|) cell=[0; ; perm=[]] objects=1 acyclic=True"]),
        (["homology", "below", "--tree", "(|)", "--cell", "0; ; perm=[]"], point),
        (["homology", "hat", "--tree", "(|)", "--k", "0"], point),
    ):
        assert run(argv) == 0, argv
        captured = capsys.readouterr()
        assert (captured.out.splitlines(), captured.err) == (want, "")


def test_negative_arity_is_usage_error(capsys):
    for argv in (["enumerate", "kgraph", "--m", "2", "--k", "-1"],
                 ["homology", "kposet", "--m", "2", "--k", "-1"],
                 ["verify", "lemma", "--tree", "(|)", "--k", "-1"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: arity must be nonnegative\n"


def test_homology_below(capsys):
    assert run(["homology", "below", "--tree", "(|)",
                "--cell", "2; mu(1,2)=1; perm=[1 2]"]) == 0
    assert out_lines(capsys)[0] == "H0 = Z"


def test_bad_tree_is_usage_error(capsys):
    assert run(["homology", "comma", "--tree", "((", "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad tree")


def test_render_to_stdout_and_check(capsys):
    assert run(["render", "--config", FIVE_CIRCLES, "--check"]) == 0
    svg = capsys.readouterr().out
    assert svg.startswith('<?xml version="1.0"')
    assert svg.count("stroke-dasharray") == 5


def test_render_to_file(tmp_path, capsys):
    out = tmp_path / "drawing.svg"
    assert run(["render", "--config", "{w1 | / |}", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().endswith("</svg>\n")


def test_negative_max_dim_is_usage_error(capsys):
    for args in (["homology", "kposet", "--m", "2", "--k", "2"],
                 ["verify", "lemma", "--tree", "|"]):
        assert run(["--max-dim", "-1"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--max-dim" in captured.err


def test_negative_sample_and_vertex_counts_are_usage_errors(capsys):
    for argv, flag in ((["verify", "axioms", "--samples", "-1"], "--samples"),
                       (["verify", "inequality", "--samples", "-1"], "--samples"),
                       (["verify", "cowedge", "--samples", "-1"], "--samples"),
                       (["verify", "remark-linear", "--vertices", "-1"], "--vertices")):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be nonnegative, got -1\n"


def test_zero_samples_still_run(capsys):
    assert run(["verify", "axioms", "--samples", "0"]) == 0
    assert "samples=0 failures=0" in capsys.readouterr().out


def test_negative_tree_bounds_are_usage_errors(capsys):
    for argv, message in (
        (["--max-vertices", "-1", "--max-leaves", "2"],
         "max_vertices must be nonnegative, got -1"),
        (["--max-vertices", "2", "--max-leaves", "-1"],
         "max_leaves must be nonnegative, got -1"),
    ):
        assert run(["enumerate", "trees"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def integer_options(parser, path=()):
    """(subcommand path, option, type) for every option of parser and of its
    subcommands that converts its value."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from integer_options(sub, path + (name,))
        elif action.type is not None:
            yield path, action.option_strings[-1], action.type


def test_integer_options_read_ascii_digits_only(capsys):
    # int() also reads other scripts' digits, '+', '_', spaces and leading zeros
    options = list(integer_options(build_parser()))
    assert len(options) == 17
    for path, option, kind in options:
        assert kind is _int_option, option
        for word in ("١", "+1", "0_1", "01", " 1"):
            assert run([*path, option, word]) == 2, (path, option, word)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: argument {option}: invalid int value: {word!r}\n"


def test_usage_error_exit_code(capsys):
    assert run(["enumerate", "nonsense"]) == 2
    assert run([]) == 2
    capsys.readouterr()
    assert run(["--max-dim", "x", "homology", "kposet", "--m", "2", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument --max-dim: invalid int value: 'x'\n"
    # the flag and the subcommand of the removed result cache
    for args in ([REMOVED_FLAG, "d", "enumerate", "trees", "--max-vertices", "1",
                  "--max-leaves", "1"],
                 ["cache", "path"]):
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unknown_global_option_is_named(capsys):
    # the option, not its value taken for the subcommand, is reported
    for args, named in (
            ([REMOVED_FLAG, "d", "enumerate", "trees", "--max-vertices", "1",
              "--max-leaves", "1"], REMOVED_FLAG),
            ([REMOVED_FLAG + "=d", "enumerate", "trees", "--max-vertices", "1",
              "--max-leaves", "1"], REMOVED_FLAG + "=d"),
            (["--tree", "(|)", "verify", "lemma"], "--tree")):
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {named}\n"


def test_removed_cache_variable_is_ignored(tmp_path, capsys, monkeypatch):
    args = ["enumerate", "trees", "--max-vertices", "1", "--max-leaves", "1"]
    assert run(args) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv(REMOVED_ENV, str(tmp_path / "absent"))
    assert run(args) == 0
    assert capsys.readouterr().out == plain


def test_help_exits_zero(capsys):
    assert run(["-h"]) == 0
    assert run(["enumerate", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: circleops")


def assert_internal_failure(capsys, args, reason):
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert reason in captured.err


def test_compose_profile_check_failure_exits_1(capsys, monkeypatch):
    operad_h = importlib.import_module("circleops.operad_h")
    # a composite on the wrong tree trips the profile check in compose
    monkeypatch.setattr(operad_h, "reduce_term",
                        lambda term, r3=True: parse_config("{w1 (|) / |}"))
    assert_internal_failure(
        capsys, ["compose", "config", "--outer", "{w1 | / |}",
                 "--inner", "{w1 | / |}"],
        "composition changed the operation profile")


def test_enumeration_duplicate_check_failure_exits_1(capsys, monkeypatch):
    circled = importlib.import_module("circleops.circled")
    labellings = circled._all_labellings
    monkeypatch.setattr(circled, "_all_labellings",
                        lambda term, k: 2 * list(labellings(term, k)))
    assert_internal_failure(
        capsys, ["enumerate", "configs", "--tree", "(|)", "--k", "1"],
        "duplicate configuration")


def test_homology_check_failure_exits_1(capsys, monkeypatch):
    homology = importlib.import_module("circleops.homology")
    # too many pivots make a Betti number negative; homology() reaches
    # every boundary through _smith_reduce
    monkeypatch.setattr(homology, "_smith_reduce",
                        lambda m, cleared_cols, cleared_rows:
                        ((1,) * (m.nrows + 1), (), ()))
    assert_internal_failure(
        capsys, ["homology", "kposet", "--m", "2", "--k", "2"],
        "negative Betti number")


def nested(depth):
    return "(" * depth + ")" * depth


def test_nesting_limit_on_the_command_line(capsys):
    # 200 nested brackets still run; one more is a one-line parse error
    assert run(["render", "--config", nested(200), "--check"]) == 0
    deep_circle = "{w1 " + nested(199)[:199] + "|" + nested(199)[199:] + " / |}"
    assert run(["compose", "config", "--outer", deep_circle,
                "--inner", deep_circle]) == 0
    capsys.readouterr()
    for args in (["render", "--config", nested(201), "--check"],
                 ["render", "--config", nested(1500)],
                 ["compose", "config", "--outer", "{w1 " + deep_circle + " / |}",
                  "--inner", "{w1 | / |}"]):
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad configuration")
        assert captured.err.count("\n") == 1
        assert "nested deeper than 200" in captured.err


def test_too_deep_result_is_usage_error(capsys):
    # both inputs parse within the nesting limit, but the composite nests
    # deeper than the recursive term walkers reach
    chain = nested(99)[:99] + "|" + nested(99)[99:]
    outer = "(" * 100 + "{w1 " + chain + " / |}" + ")" * 100
    inner = chain
    for i in range(70, 0, -1):
        inner = f"{{w{i} {inner} / |}}"
    assert run(["compose", "config", "--outer", outer, "--inner", inner]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: term nested too deeply")
    assert captured.err.count("\n") == 1


def test_out_of_memory_is_usage_error(capsys, monkeypatch):
    # a nerve too large for the machine, simulated: nothing large is built
    def too_large(C, max_dim):
        raise MemoryError

    monkeypatch.setattr(importlib.import_module("circleops.cattop"), "nerve",
                        too_large)
    assert run(["homology", "kposet", "--m", "2", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: out of memory while running homology kposet: the input is"
        " too large for this machine\n"
    )


def test_seeded_runs_are_deterministic(capsys):
    args = ["--seed", "11", "--format", "records", "verify", "cowedge",
            "--samples", "20"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
