"""Command-line surface: subcommands, formats, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import splitrel
from splitrel import checks, counting, enumeration, families, graphs
from splitrel.cli import build_parser, main
from splitrel.families import balloon
from splitrel.graphs import to_json_dict


@pytest.fixture()
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(
        json.dumps({"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "terminals": [0, 1]})
    )
    return str(path)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_balloon_command(capsys, tmp_path):
    out_path = tmp_path / "g.json"
    code = main(["balloon", "9", "15", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc == to_json_dict(balloon(9, 15))


def test_long_pendant_balloon(capsys):
    code = main(["balloon", "2000", "2000"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["n"] == 2000


def test_two_terminal_balloon_and_text_format(capsys):
    code, out = run(capsys, "two-terminal-balloon", "4", "4", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "4 4"
    assert out.splitlines()[-1].startswith("T ")


def test_variant_command(capsys):
    code, out = run(capsys, "variant", "2", "7", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 7 and len(doc["edges"]) == 8


def test_threshold_command(capsys):
    code, out = run(capsys, "threshold", "6", "2")
    assert code == 0
    assert len(json.loads(out)["edges"]) == 12


def test_sr_coeffs_csv(capsys, k3_file):
    code, out = run(capsys, "sr-coeffs", k3_file)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "i,N_i,F_{m-i}"
    assert rows[2] == "1,2,2"  # N_1 = 2 for the triangle


def test_sr_coeffs_json(capsys, k3_file):
    code, out = run(capsys, "sr-coeffs", k3_file, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"m": 3, "counts": ["0", "2", "0", "0"]}


def test_sr_eval(capsys, k3_file):
    code, out = run(capsys, "sr-eval", k3_file, "1/2")
    assert code == 0
    assert json.loads(out)["value"] == "1/4"


@pytest.mark.parametrize(
    "p, value",
    [("0", "0"), ("1", "0"), ("1/3", "84946/1594323"), ("0.25", "1769967/134217728")],
)
def test_sr_eval_balloon_values(capsys, tmp_path, p, value):
    path = tmp_path / "g.json"
    assert main(["two-terminal-balloon", "9", "15", "--out", str(path)]) == 0
    code, out = run(capsys, "sr-eval", str(path), p)
    assert code == 0
    assert out == json.dumps({"p": p, "value": value}) + "\n"


def test_trees_and_t2(capsys, k3_file, tmp_path):
    code, out = run(capsys, "trees", k3_file)
    assert code == 0 and json.loads(out)["spanning_trees"] == "3"
    code, out = run(capsys, "t2", k3_file)
    assert code == 0 and json.loads(out)["two_tree_splits"] == "2"


def test_text_input(capsys, tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("3 3\n0 1\n0 2\n1 2\nT 0 2\n")
    code, out = run(capsys, "sr-eval", str(path), "1/2")
    assert code == 0 and json.loads(out)["value"] == "1/4"


def test_enumerate_command(capsys):
    code, out = run(capsys, "enumerate", "4", "4", "--two-terminal")
    assert code == 0
    assert json.loads(out)["count"] == 6


def test_refine_json_default(capsys):
    code, out = run(capsys, "refine", "4", "4")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "n", "m", "members", "signatures", "equivalence_classes", "chain_levels",
        "early_stop_level", "locally_most", "labeled_connected",
    ]
    assert (doc["n"], doc["m"]) == (4, 4)
    assert len(doc["members"]) == len(doc["signatures"]) == 6  # paw: 4 pairs, C4: 2


def test_refine_csv(capsys):
    code, out = run(capsys, "refine", "4", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("index,")


def test_locally_most(capsys):
    code, out = run(capsys, "locally-most", "4", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["class_size"] == 1


def test_uniform_check_winner_and_none(capsys):
    code, out = run(capsys, "uniform-check", "5", "7")
    assert code == 0 and out.startswith("WINNER")
    code, out = run(capsys, "uniform-check", "6", "8")
    assert code == 0 and out.startswith("NONE")
    doc = json.loads(out.split("\n", 1)[1])
    assert doc["verdict"] == "none" and "witness" in doc


def test_uniform_check_builds_no_ledger(capsys, monkeypatch):
    built = []
    real = enumeration.refine_chain

    def counted(n, m):
        built.append((n, m))
        return real(n, m)

    monkeypatch.setattr(enumeration, "refine_chain", counted)
    monkeypatch.setattr(checks, "refine_chain", counted, raising=False)
    code, out = run(capsys, "uniform-check", "6", "6")
    assert code == 0 and out.startswith("NONE")
    assert checks.check_thm3().status == "pass"
    assert built == []


def test_uniform_check_builds_only_the_printed_members(capsys, monkeypatch):
    # the command prints at most two members, and builds only those
    built = []
    real = enumeration.TwoTerminalGraph

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(enumeration, "TwoTerminalGraph", counted)
    for m, head, members in (("9", "NONE", 2), ("14", "WINNER", 1)):
        built.clear()
        code, out = run(capsys, "uniform-check", "7", m)
        assert code == 0 and out.startswith(head)
        assert len(built) == members, m
    built.clear()
    assert checks.check_thm3().status == "pass"
    assert len(built) == 6  # a rival and a candidate for each of m = 7, 8, 9


def test_uniform_check_output_pinned(capsys):
    # stdout of every class with 2 <= n <= 7, as recorded while the full
    # ledger still decided the command's verdict and candidate
    digest = hashlib.sha256()
    for n in range(2, 8):
        for m in range(n - 1, comb(n, 2) + 1):
            code, out = run(capsys, "uniform-check", str(n), str(m))
            assert code == 0, (n, m)
            digest.update(out.encode())
    assert digest.hexdigest() == "4f9ffa404cbb98813ad139a577b74d078ba69eb47e238eb68c1c01b8a2e80f44"


def test_uniform_check_n8_output_pinned(capsys):
    # stdout at n = 8 from a tree path to K_8, recorded while the command
    # still built its printed members in a second walk of the class
    digest = hashlib.sha256()
    for m in (7, 10, 14, 20, 28):
        code, out = run(capsys, "uniform-check", "8", str(m))
        assert code == 0, m
        digest.update(out.encode())
    assert digest.hexdigest() == "b7016a71f6124ef0ab8e8f1165d04218fde25ccfef685579cf73e03bb085abeb"


def test_uniform_check_and_thm3_walk_each_class_once(capsys, monkeypatch):
    walks = []
    real = enumeration._class_walk

    def counted(n, m):
        walks.append((n, m))
        return real(n, m)

    monkeypatch.setattr(enumeration, "_class_walk", counted)
    for m in ("9", "14"):
        walks.clear()
        code, _ = run(capsys, "uniform-check", "7", m)
        assert code == 0 and walks == [(7, int(m))]
    walks.clear()
    assert checks.check_thm3().status == "pass"
    assert walks == [(7, 7), (7, 8), (7, 9)]


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "bogdanowicz", "--max-n", "6")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out = run(capsys, "verify", "lemma15")
    assert code == 0  # discrepancy is reported, not a failure
    assert json.loads(out)["status"] == "discrepancy"


@pytest.mark.parametrize("target", ["skeleton_characterization", "closed_forms"])
def test_verify_reaches_every_claim_check(capsys, target):
    code, out = run(capsys, "verify", target, "--max-n", "6")
    assert code == 0
    doc = json.loads(out)
    assert (doc["claim"], doc["status"]) == (target, "pass")
    assert main(["verify", target, "--n", "6", "--m", "8"]) == 1


def test_verify_prop2_range(capsys):
    # any class of the theorem range with n >= 7; for m > n the subset
    # cross-check's n <= 16 guard refuses n = 17, and classes outside the
    # range are bad input
    code, out = run(capsys, "verify", "prop2", "--n", "10", "--m", "18")
    assert (code, json.loads(out)["status"]) == (0, "pass")
    assert main(["verify", "prop2", "--n", "17", "--m", "20"]) == 2
    assert "n=17" in capsys.readouterr().err
    assert main(["verify", "prop2", "--n", "6", "--m", "6"]) == 1
    assert main(["verify", "prop2", "--n", "7", "--m", "20"]) == 1


def test_verify_report_shape(capsys):
    code, out = run(capsys, "verify", "remark4")
    doc = json.loads(out)
    assert set(doc) == {"claim", "status", "details"}


def test_guard_exit_code(capsys, tmp_path):
    path = tmp_path / "p17.json"
    edges = [[i, i + 1] for i in range(16)]
    path.write_text(json.dumps({"n": 17, "edges": edges, "terminals": [0, 16]}))
    assert main(["sr-coeffs", str(path)]) == 2
    assert "n=17" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["closed_forms", "composition"])
def test_verify_refuses_max_n_above_the_coefficient_guard_first(capsys, monkeypatch, target):
    # a --max-n above the subset guard is refused before any balloon is
    # classified, with the guard's exit code and message
    def refuse(*args):
        raise AssertionError("classified a graph before the guard refused")

    monkeypatch.setattr(counting, "classify_subsets", refuse)
    monkeypatch.setattr(families, "classify_subsets", refuse)
    assert main(["verify", target, "--max-n", str(counting.COEFF_GUARD_N + 1)]) == 2
    assert capsys.readouterr().err == (
        "guard refusal: subset classification is meant for desk-scale graphs "
        "(n <= 16), got n=17\n"
    )


def test_verify_refuses_max_n_above_the_cut_guard_first(capsys, monkeypatch):
    # a --max-n above the cut-sweep guard is refused before any balloon is
    # built or swept, with the guard's exit code and message
    def refuse(*args):
        raise AssertionError("built or swept a balloon before the guard refused")

    monkeypatch.setattr(graphs, "_min_cuts", refuse)
    monkeypatch.setattr(checks, "balloon", refuse)
    assert main(["verify", "remark2", "--max-n", str(graphs.CUT_GUARD_N + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "guard refusal: minimum-cut sweep guarded to n <= 20, got n=21\n"


@pytest.mark.parametrize(
    "target", ["prop1", "prop3", "thm1", "thm2", "skeleton_characterization"]
)
def test_verify_refuses_max_n_above_the_enumeration_guard_first(capsys, monkeypatch, target):
    # a --max-n above the enumeration guard is refused before any class is
    # enumerated, with the guard's exit code and message
    def refuse(*args):
        raise AssertionError("enumerated a class before the guard refused")

    monkeypatch.setattr(enumeration, "_descent", refuse)
    monkeypatch.setattr(checks, "enumerate_graphs", refuse)
    monkeypatch.setattr(checks, "refine_chain", refuse)
    assert main(["verify", target, "--max-n", str(enumeration.ENUM_GUARD_N + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "guard refusal: class enumeration guarded to n <= 8, got n=9\n"


@pytest.mark.parametrize(
    "target, max_n",
    [
        # each range's first class: n = 4 for I, I0 and I1, n = 6 for the
        # nonexistence range
        ("prop1", 3),
        ("prop3", 3),
        ("prop3", 2),
        ("skeleton_characterization", 3),
        ("thm1", 3),
        ("thm2", 3),
        ("remark2", 3),
        ("remark3", 3),
        ("remark3", 0),
        ("remark4", 5),
        ("composition", 3),
        ("closed_forms", 3),
    ],
)
def test_verify_refuses_a_range_with_no_class(capsys, target, max_n):
    # a pass with nothing checked would be vacuous: exit 1, one line
    assert main(["verify", target, "--max-n", str(max_n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: no class with n <= {max_n} satisfies ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("max_n", [1, 0, -3])
def test_verify_bogdanowicz_refuses_a_range_with_no_threshold_graph(capsys, monkeypatch, max_n):
    # its exhaustive sweep starts at n = 2, so a lower --max-n would pass on
    # the fixed complete-graph specs alone: exit 1, one line, no work
    def refuse(*args):
        raise AssertionError("counted trees before the range was refused")

    monkeypatch.setattr(checks, "bogdanowicz_tree_count", refuse)
    assert main(["verify", "bogdanowicz", "--max-n", str(max_n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no threshold graph with 2 <= n <= {max_n}: nothing to check\n"


OUTPUT_ARGVS = [
    ("balloon", "6", "9"),
    ("balloon", "5", "7", "--format", "text"),
    ("two-terminal-balloon", "6", "9"),
    ("variant", "2", "7", "8"),
    ("threshold", "6", "2"),
    ("sr-coeffs", "{graph}"),
    ("sr-coeffs", "{graph}", "--format", "json"),
    ("sr-eval", "{graph}", "1/3"),
    ("trees", "{graph}"),
    ("t2", "{graph}"),
    ("enumerate", "4", "4", "--two-terminal"),
    ("refine", "4", "5"),
    ("refine", "4", "5", "--format", "csv"),
    ("locally-most", "5", "6"),
    ("uniform-check", "6", "8"),
    ("verify", "remark4"),
    ("mc-estimate", "{graph}", "1/2", "--trials", "2000", "--seed", "3"),
]


def test_output_cases_cover_every_subcommand():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in OUTPUT_ARGVS} == set(sub.choices)


@pytest.mark.parametrize("argv", OUTPUT_ARGVS, ids=" ".join)
def test_out_file_holds_the_stdout_text(capsys, tmp_path, k3_file, argv):
    # one output path: --out gets the text stdout shows, without the newline
    # that stdout appends to text that lacks one, and the same exit code
    argv = [a.format(graph=k3_file) for a in argv]
    code, out = run(capsys, *argv)
    path = tmp_path / "out"
    assert main(argv + ["--out", str(path)]) == code == 0
    assert capsys.readouterr() == ("", "")
    text = path.read_bytes().decode()  # csv rows end in \r\n
    assert out == (text if text.endswith("\n") else text + "\n")


def test_failed_verify_writes_its_report_and_exits_3(capsys, monkeypatch, tmp_path):
    failing = (lambda: checks.Report("remark4", "fail", {"failures": [1]}), [()])
    monkeypatch.setitem(checks.VERIFY_TARGETS, "remark4", failing)
    code, out = run(capsys, "verify", "remark4")
    assert code == 3 and json.loads(out)["status"] == "fail"
    path = tmp_path / "report.json"
    assert main(["verify", "remark4", "--out", str(path)]) == 3
    assert path.read_text() + "\n" == out


@pytest.mark.parametrize(
    "argv",
    [
        ("balloon", "5", "6", "--out", "{tmp}/missing-dir/out.json"),
        ("balloon", "5", "6", "--out", "{tmp}"),  # a directory
        ("trees", "{tmp}/missing.json"),
    ],
)
def test_unwritable_out_or_missing_graph_file_is_one_error_line(capsys, tmp_path, argv):
    # bad input, found while the command runs: exit 1, one line
    assert main([a.format(tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("two-terminal-balloon", "10", "20"),
        ("variant", "1", "10", "20"),
        ("two-terminal-balloon", "13", "20"),  # past the canonical guard
        ("variant", "1", "13", "20"),
    ],
)
def test_construction_needs_no_canonical_search(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == int(argv[-2]) and len(doc["edges"]) == 20


@pytest.mark.parametrize("command", ["enumerate", "refine", "uniform-check"])
def test_enumeration_needs_two_vertices(capsys, command):
    # bad input, not a size guard: exit 1
    assert main([command, "1", "0"]) == 1
    assert capsys.readouterr().err == "error: enumeration needs n >= 2\n"


@pytest.mark.parametrize(
    "argv", [("uniform-check", "7", "5"), ("refine", "7", "3"), ("locally-most", "7", "5")]
)
def test_empty_class_refusal(capsys, argv):
    # T_{n,m} with m < n - 1 holds no connected graph: exit 1, one line
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    m = argv[2]
    assert captured.out == ""
    assert captured.err == (
        f"error: T_{{7,{m}}} has no members: m = {m} is below n - 1 = 6, "
        "the fewest edges of a connected graph on 7 vertices\n"
    )


def test_import_loads_only_the_standard_library():
    # the README's "no runtime dependency": every top-level module that
    # importing the CLI adds is splitrel's own or the standard library's
    src = str(Path(splitrel.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import splitrel.cli; "
        "tops = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(tops - set(sys.stdlib_module_names) - {'splitrel'}))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_unknown_subcommand_exit_code(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["balloon", "not-a-number", "4"]) == 1
    assert main(["--help"]) == 0


def test_validation_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [2, 2]], "terminals": [0, 1]}))
    assert main(["sr-coeffs", str(path)]) == 1
    # plain graph where a two-terminal one is needed
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}))
    assert main(["t2", str(plain)]) == 1


K3 = '{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "terminals": [0, 1]}'


@pytest.mark.parametrize(
    "content, argv, field",
    [
        ('{"n": 3}', ["trees", "{path}"], "'edges'"),
        (K3, ["sr-eval", "{path}", "1/0"], "p:"),
        (K3.replace("[0, 1]}", "[0]}"), ["t2", "{path}"], "terminals:"),
        ("3 5\n0 1\n", ["trees", "{path}"], "header:"),
        (K3, ["sr-eval", "{path}", "2"], "p: must lie in [0, 1], got '2'"),
        (K3, ["verify", "thm3", "--n", "8"], "verify thm3 accepts no arguments; got --n"),
        (K3, ["verify", "thm1", "--n", "5"], "verify thm1 accepts no arguments | --n --m | --max-n; got --n"),
        (K3, ["verify", "remark2", "--n", "9", "--m", "3"], "got --n --m"),
        (K3, ["verify", "prop2", "--m", "8"], "verify prop2 accepts --n --m; got --m"),
        (K3, ["verify", "thm1", "--n", "5", "--m", "6", "--max-n", "7"], "got --n --m --max-n"),
        # JSON numbers that are not integers are refused, not truncated
        (
            '{"n": 3, "edges": [[0, 1], [1, 2.5]], "terminals": [0, 2]}',
            ["sr-coeffs", "{path}"],
            "edges[1]: expected an integer, got 2.5",
        ),
        (
            '{"n": 3, "edges": [[0, 1], [1, 2]], "terminals": [true, 2]}',
            ["sr-coeffs", "{path}"],
            "terminals: expected an integer, got True",
        ),
        # a negative seed would replay the stream of its absolute value
        (K3, ["mc-estimate", "{path}", "1/2", "--seed", "-4"], "seed must be nonnegative"),
    ],
)
def test_malformed_input_exit_code(capsys, tmp_path, content, argv, field):
    path = tmp_path / "graph"
    path.write_text(content)
    assert main([a.format(path=path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and field in err


def test_mc_estimate_deterministic(capsys, k3_file):
    code, out1 = run(capsys, "mc-estimate", k3_file, "1/2", "--trials", "30000", "--seed", "5")
    assert code == 0
    _, out2 = run(capsys, "mc-estimate", k3_file, "1/2", "--trials", "30000", "--seed", "5")
    assert out1 == out2
    # the exact output pins the random stream: block seeds, plane order, digit rule
    assert out1 == (
        '{"p": "1/2", "trials": 30000, "seed": 5, '
        '"estimate": 0.24753333333333333, "std_error": 0.002491723514773273}\n'
    )
