"""Command-line surface: subcommands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitrel
from splitrel import checks, enumeration
from splitrel.cli import main
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


def test_uniform_check_builds_one_ledger(capsys, monkeypatch):
    built = []
    real = enumeration.refine_chain

    def counted(n, m):
        built.append((n, m))
        return real(n, m)

    monkeypatch.setattr(enumeration, "refine_chain", counted)
    monkeypatch.setattr(checks, "refine_chain", counted)
    code, out = run(capsys, "uniform-check", "6", "6")
    assert code == 0 and out.startswith("NONE")
    assert built == [(6, 6)]
    built.clear()
    assert checks.check_thm3().status == "pass"
    assert built == [(7, 7), (7, 8), (7, 9)]


def test_uniform_check_deterministic_output(capsys):
    _, out1 = run(capsys, "uniform-check", "4", "5")
    _, out2 = run(capsys, "uniform-check", "4", "5")
    assert out1 == out2


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


def test_import_loads_no_numpy():
    src = str(Path(splitrel.__file__).resolve().parents[1])
    code = "import sys, splitrel.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
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
    # the exact output pins the random stream: block seeds, draw order, rejection
    assert out1 == (
        '{"p": "1/2", "trials": 30000, "seed": 5, '
        '"estimate": 0.25466666666666665, "std_error": 0.002515363165002591}\n'
    )
