import io
import contextlib
import json
from pathlib import Path

import pytest

from latticebox import cli
from latticebox.arith import parse_rational
from latticebox.cli import main
from latticebox.errors import InconsistencyError

CORPUS = Path(__file__).parent / "corpus"


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, buf.getvalue(), err.getvalue()


def corpus_cases():
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    return [(c["name"], c["argv"]) for c in manifest]


@pytest.mark.parametrize("name,argv", corpus_cases())
def test_corpus_case_matches_expected(name, argv):
    rc, out, _ = run_cli(argv)
    assert rc == 0
    expected = (CORPUS / "expected" / f"{name}.json").read_text()
    assert out == expected


def test_corpus_runs_are_byte_deterministic():
    for name, argv in corpus_cases():
        rc1, out1, _ = run_cli(argv)
        rc2, out2, _ = run_cli(argv)
        assert (rc1, out1) == (rc2, out2)


def test_feasibility_methods_agree_across_corpus():
    stems = sorted(
        {
            name.split("__")[0]
            for name, _ in corpus_cases()
            if name.endswith("__feasible_cert")
        }
    )
    assert stems
    for stem in stems:
        verdicts = []
        path = CORPUS / "instances" / f"{stem}.json"
        for method in ("cert", "recursive", "oracle"):
            rc, out, _ = run_cli(["feasible", str(path), "--method", method])
            assert rc == 0
            verdicts.append(json.loads(out)["feasible"])
        assert len(set(verdicts)) == 1


def test_certify_not_in_class_payload():
    rc, out, _ = run_cli(
        ["certify", str(CORPUS / "instances" / "lattice_no_chain.json")]
    )
    assert rc == 0
    assert json.loads(out) == {"in_class": False}


def test_certify_worked_example_payload():
    rc, out, _ = run_cli(
        ["certify", str(CORPUS / "instances" / "lattice_span_2408.json")]
    )
    data = json.loads(out)
    assert data["in_class"] is True
    assert data["chain_length"] == 2
    assert data["certificate"]["v"] == ["2", "4"]
    assert data["certificate"]["child"]["v"] == ["2"]


def test_qpsolve_not_in_span_payload():
    rc, out, _ = run_cli(
        ["qpsolve", str(CORPUS / "instances" / "qp_not_in_span.json")]
    )
    assert rc == 0
    data = json.loads(out)
    assert data == {
        "prime_set": [],
        "reason": "not-in-span",
        "solution": None,
        "solvable": False,
        "trace": None,
    }


def test_qpsolve_zero_length_family(tmp_path):
    # vectors of length 0: every point of the bounds solves the system, and
    # the answer is the simplex vertex, the lower corner, with no steps
    inst = tmp_path / "zero_length.json"
    inst.write_text(
        json.dumps(
            {"vectors": [[], []], "target": [], "lower": ["0", "1"], "upper": ["2", "3"]}
        )
    )
    rc, out, _ = run_cli(["qpsolve", str(inst)])
    assert rc == 0
    assert out == (
        '{\n  "prime_set": [],\n  "reason": null,\n'
        '  "solution": [\n    "0",\n    "1"\n  ],\n  "solvable": true,\n'
        '  "trace": {\n    "steps": []\n  }\n}\n'
    )

def test_qpsolve_fourteen_unit_vectors(tmp_path):
    # 3^14 box points, far past the oracle's cap: with an empty prime set
    # the answer is the integer vertex least by x_13, then x_12, down to x_0
    inst = tmp_path / "ones.json"
    inst.write_text(
        json.dumps(
            {
                "vectors": [["1"]] * 14,
                "target": ["7"],
                "lower": ["0"] * 14,
                "upper": ["2"] * 14,
            }
        )
    )
    rc, out, _ = run_cli(["qpsolve", str(inst)])
    assert rc == 0
    solution = ["2", "2", "2", "1"] + ["0"] * 10
    assert out == (
        '{\n  "prime_set": [],\n  "reason": null,\n  "solution": [\n'
        + ",\n".join(f'    "{x}"' for x in solution)
        + '\n  ],\n  "solvable": true,\n'
        '  "trace": {\n    "steps": []\n  }\n}\n'
    )


def test_exit_code_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, out, err = run_cli(["certify", str(bad)])
    assert rc == 1 and out == "" and err

    missing = tmp_path / "missing.json"
    rc, _, _ = run_cli(["certify", str(missing)])
    assert rc == 1

    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text(json.dumps({"ambient_dim": 2, "generators": [["1"]]}))
    rc, _, _ = run_cli(["certify", str(wrong_shape)])
    assert rc == 1

    empty_box = tmp_path / "ebox.json"
    empty_box.write_text(
        json.dumps(
            {
                "lattice": {"ambient_dim": 1, "generators": [["1"]]},
                "box": {"lower": ["2"], "upper": ["1"]},
            }
        )
    )
    rc, _, _ = run_cli(["solve", str(empty_box)])
    assert rc == 1


def test_deeply_nested_json_is_malformed(tmp_path):
    # json.loads raises RecursionError on nesting this deep
    deep = tmp_path / "deep.json"
    nested = "[" * 100_000 + "]" * 100_000
    deep.write_text(f'{{"ambient_dim": 1, "generators": {nested}}}')
    rc, out, err = run_cli(["certify", str(deep)])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "command,payload",
    [
        (
            "qpsolve",
            {"vectors": ["2", "3"], "target": "1", "lower": "00", "upper": "11"},
        ),
        (
            "solve",
            {
                "lattice": {"ambient_dim": 2, "generators": ["24", "08"]},
                "box": {"lower": "00", "upper": "48"},
            },
        ),
        ("circuits", {"vectors": "23"}),
    ],
)
def test_string_in_place_of_array_is_malformed(tmp_path, command, payload):
    # iterating a JSON string yields its characters, which would parse as
    # a vector of one-digit numbers
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli([command, str(path)])
    assert rc == 1 and out == "" and "JSON array" in err


@pytest.mark.parametrize("command", ["circuits", "qpsolve"])
@pytest.mark.parametrize(
    "vectors, shown",
    [("12", "'12'"), ({"a": ["1"]}, "{'a': ['1']}"), (None, "None")],
    ids=["string", "object", "null"],
)
def test_family_that_is_not_an_array_is_named_whole(tmp_path, command, vectors, shown):
    # the outer list of a family is checked before any vector is read, so
    # the message names the whole value, not its first character or key
    payload = {"vectors": vectors, "target": ["1"], "lower": ["0"], "upper": ["1"]}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli([command, str(path)])
    assert (rc, out) == (1, "")
    assert err == f"error: expected a JSON array, got {shown}\n"


@pytest.mark.parametrize("text", ["1_0", "\u0661\u0662"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize("command", ["certify", "qpsolve"])
def test_non_ascii_or_underscore_number_is_malformed(tmp_path, command, text):
    # int reads both strings on every Python, Fraction reads "1_0" only
    # from 3.11 on: neither is a plain decimal string
    if command == "certify":
        payload = {"ambient_dim": 2, "generators": [[text, "2"]]}
    else:
        payload = {"vectors": [[text]], "target": ["1"], "lower": ["0"], "upper": ["2"]}
    path = tmp_path / "number.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli([command, str(path)])
    assert rc == 1 and out == ""
    assert err.startswith("error: not a plain ASCII number")


@pytest.mark.parametrize("entry", ["1e5", "x", True], ids=["exponent", "letter", "bool"])
@pytest.mark.parametrize(
    "command, key",
    [
        ("qpsolve", "target"),
        ("qpsolve", "lower"),
        ("qpsolve", "upper"),
        ("circuits", "vectors"),
    ],
)
def test_bad_rational_entry_is_malformed(tmp_path, command, key, entry):
    # the command hands the entries on as read, and the solver's one parse
    # of each names the bad one
    payload = {
        "vectors": [["2"], ["3"]],
        "target": ["1"],
        "lower": ["0", "0"],
        "upper": ["1", "1"],
    }
    payload[key][-1] = [entry] if key == "vectors" else entry
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as parse_error:
        parse_rational(entry)
    rc, out, err = run_cli([command, str(path)])
    assert (rc, out) == (1, "")
    assert err == f"error: {parse_error.value}\n"


@pytest.mark.parametrize("command", ["no-such-command", "gen-corpus"])
def test_exit_code_usage_error(tmp_path, command):
    # the corpus instances are committed files: no command writes them
    rc, out, err = run_cli([command, str(tmp_path / "corpus")])
    assert rc == 1 and out == ""
    assert "invalid choice" in err
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "lattice_span_2408.json", "--seed", "3"],
        ["solve", "rank2_nested.json", "--method", "cert"],
        ["certs", "lattice_span_2408.json", "--method", "cert"],
        ["solve", "rank2_nested.json", "--cap", "5"],
    ],
    ids=["certify-seed", "solve-method", "certs-method", "solve-cap"],
)
def test_unsupported_flags_are_usage_errors(argv):
    # certify has no seed, and solve has one route: neither takes a flag
    # to choose another
    command, path, *flags = argv
    rc, out, err = run_cli([command, str(CORPUS / "instances" / path), *flags])
    assert rc == 1 and out == ""
    assert f"unrecognized arguments: {' '.join(flags)}" in err


def test_exit_code_resource_limit(tmp_path):
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps(
            {
                "lattice": {"ambient_dim": 2, "generators": [["1", "0"], ["0", "1"]]},
                "box": {"lower": ["0", "0"], "upper": ["2000", "2000"]},
            }
        )
    )
    rc, _, err = run_cli(["oracle", str(big), "--cap", "100"])
    assert rc == 2 and err

    # The first divisor of the 12 x 12 identity already breaks the cap.
    identity = tmp_path / "identity.json"
    identity.write_text(
        json.dumps(
            {
                "ambient_dim": 12,
                "generators": [[str(int(i == j)) for j in range(12)] for i in range(12)],
            }
        )
    )
    rc, out, err = run_cli(["certify", str(identity)])
    assert rc == 2 and out == ""
    assert "image dimension 66 exceeds cap 64" in err


def test_zero_lattice_rejected(tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"ambient_dim": 2, "generators": [["0", "0"]]}))
    rc, _, _ = run_cli(["certify", str(zero)])
    assert rc == 1

    # No generator: the echelon form stops before scanning 10^9 columns.
    zero.write_text(json.dumps({"ambient_dim": 10**9, "generators": []}))
    rc, out, err = run_cli(["certify", str(zero)])
    assert rc == 1 and out == ""
    assert "cannot certify the zero lattice" in err


def test_output_flag_writes_file(tmp_path):
    out_path = tmp_path / "result.json"
    rc, out, _ = run_cli(
        [
            "solve",
            str(CORPUS / "instances" / "rank1_mixed.json"),
            "--output",
            str(out_path),
        ]
    )
    assert rc == 0
    assert out_path.read_text() == out

    # A failed write is an input error, and leaves stdout empty.
    rc, out, err = run_cli(
        [
            "certify",
            str(CORPUS / "instances" / "lattice_span_2408.json"),
            "--output",
            str(tmp_path / "missing" / "x.json"),
        ]
    )
    assert rc == 1 and out == ""
    assert err.startswith("error: ")


def test_solve_methods_same_witness_validity():
    # solve (the divisor-chain recursion) and oracle (the scan) agree on
    # feasibility, and each witness is a lattice point in the box
    from latticebox.lattice import Lattice

    paths = sorted((CORPUS / "instances").glob("*.json"))
    boxes = [p for p in paths if "box" in json.loads(p.read_text())]
    assert boxes
    feasible = 0
    for path in boxes:
        data = json.loads(path.read_text())
        lo = [int(x) for x in data["box"]["lower"]]
        hi = [int(x) for x in data["box"]["upper"]]
        gens = [[int(x) for x in g] for g in data["lattice"]["generators"]]
        lat = Lattice(data["lattice"]["ambient_dim"], gens)
        payloads = []
        for command in ("solve", "oracle"):
            rc, out, _ = run_cli([command, str(path)])
            assert rc == 0
            payloads.append(json.loads(out))
        assert payloads[0]["feasible"] == payloads[1]["feasible"]
        for p in payloads:
            if p["feasible"]:
                w = [int(x) for x in p["witness"]]
                assert lat.member(w)
                assert all(a <= x <= b for a, x, b in zip(lo, w, hi))
        feasible += payloads[0]["feasible"]
    assert 0 < feasible < len(boxes)


def test_qpsolve_ignores_a_prime_set_key(tmp_path):
    # qpsolve always refines into the family's own circuit primes; a
    # "prime_set" key in the payload is read like any other unknown key
    base = json.loads((CORPUS / "instances" / "qp_two_three.json").read_text())
    base["prime_set"] = ["2", "3", "5"]
    path = tmp_path / "with_prime_set.json"
    path.write_text(json.dumps(base))
    rc, out, _ = run_cli(["qpsolve", str(path)])
    assert rc == 0
    assert out == (CORPUS / "expected" / "qp_two_three__qpsolve.json").read_text()


def test_exit_code_inconsistency(monkeypatch):
    def broken(lat):
        raise InconsistencyError("invariant broken")

    monkeypatch.setattr(cli, "certify", broken)
    rc, out, err = run_cli(
        ["certify", str(CORPUS / "instances" / "lattice_span_2408.json")]
    )
    assert rc == 3 and out == ""
    assert err == "error: invariant broken\n"


@pytest.mark.parametrize(
    "argv",
    [["certs"], ["solve"], ["feasible", "--method", "cert"]],
    ids=["certs", "solve", "feasible-cert"],
)
def test_no_chain_is_a_precondition_error(tmp_path, argv):
    path = CORPUS / "instances" / "lattice_no_chain.json"
    if argv[0] != "certs":
        box = {"lower": ["0", "0"], "upper": ["3", "3"]}
        instance = {"lattice": json.loads(path.read_text()), "box": box}
        path = tmp_path / "no_chain_box.json"
        path.write_text(json.dumps(instance))
    rc, out, err = run_cli([argv[0], str(path), *argv[1:]])
    assert rc == 1 and out == ""
    assert "admits no divisor chain" in err


def test_help_lists_the_commands_in_order():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    names = "certify,certs,feasible,solve,oracle,circuits,qpsolve"
    assert "{" + names + "}" in buf.getvalue()


@pytest.mark.parametrize(
    "command,instance",
    [
        ("certify", "lattice_span_2408.json"),
        ("certs", "lattice_span_2408.json"),
        ("feasible", "rank1_mixed.json"),
        ("solve", "rank1_mixed.json"),
        ("oracle", "rank1_mixed.json"),
        ("circuits", "family_two_three.json"),
        ("qpsolve", "qp_two_three.json"),
    ],
)
def test_every_command_takes_output(tmp_path, command, instance):
    out_path = tmp_path / "result.json"
    rc, out, _ = run_cli(
        [command, str(CORPUS / "instances" / instance), "--output", str(out_path)]
    )
    assert rc == 0 and out
    assert out_path.read_text() == out
