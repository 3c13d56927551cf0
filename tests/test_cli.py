import io
import contextlib
import json
from pathlib import Path

import pytest

from latticebox.cli import main

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


def test_gen_corpus_is_reproducible(tmp_path):
    rc, _, _ = run_cli(["gen-corpus", str(tmp_path / "again")])
    assert rc == 0
    ours = CORPUS / "instances"
    for path in sorted(ours.glob("*.json")):
        regen = tmp_path / "again" / path.name
        assert regen.read_text() == path.read_text()
    assert len(list((tmp_path / "again").glob("*.json"))) == len(
        list(ours.glob("*.json"))
    )


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
    # vectors of length 0: every point of the bounds solves the system, so
    # the integral fallback returns the lower corner
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
        '  "trace": {\n    "steps": [\n      {\n'
        '        "case": "integral_fallback"\n      }\n    ]\n  }\n}\n'
    )

def test_qpsolve_fourteen_unit_vectors(tmp_path):
    # 3^14 box points, far past the oracle's cap: the integral fallback
    # must still return the lexicographically first integer solution
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
    solution = ["0"] * 10 + ["1", "2", "2", "2"]
    assert out == (
        '{\n  "prime_set": [],\n  "reason": null,\n  "solution": [\n'
        + ",\n".join(f'    "{x}"' for x in solution)
        + '\n  ],\n  "solvable": true,\n'
        '  "trace": {\n    "steps": [\n      {\n'
        '        "case": "integral_fallback"\n      }\n    ]\n  }\n}\n'
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


def test_exit_code_usage_error():
    rc, _, err = run_cli(["no-such-command"])
    assert rc == 1 and err


def test_seed_flag_belongs_to_gen_corpus_only(tmp_path):
    path = CORPUS / "instances" / "lattice_span_2408.json"
    rc, out, err = run_cli(["certify", str(path), "--seed", "3"])
    assert rc == 1 and out == ""
    assert "unrecognized arguments: --seed 3" in err
    rc, _, _ = run_cli(["gen-corpus", str(tmp_path / "seeded"), "--seed", "3"])
    assert rc == 0


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
    path = CORPUS / "instances" / "rank2_nested.json"
    payloads = []
    for method in ("cert", "recursive", "oracle"):
        rc, out, _ = run_cli(["solve", str(path), "--method", method])
        assert rc == 0
        payloads.append(json.loads(out))
    assert all(p["feasible"] for p in payloads)
    data = json.loads(path.read_text())
    lo = [int(x) for x in data["box"]["lower"]]
    hi = [int(x) for x in data["box"]["upper"]]
    from latticebox.lattice import Lattice

    lat = Lattice(2, [[int(x) for x in g] for g in data["lattice"]["generators"]])
    for p in payloads:
        w = [int(x) for x in p["witness"]]
        assert lat.member(w)
        assert all(a <= x <= b for a, x, b in zip(lo, w, hi))


def test_qpsolve_supplied_prime_set(tmp_path):
    base = json.loads(
        (CORPUS / "instances" / "qp_two_three.json").read_text()
    )
    wide = tmp_path / "wide.json"
    base["prime_set"] = ["2", "3", "5"]
    wide.write_text(json.dumps(base))
    rc, out, _ = run_cli(["qpsolve", str(wide)])
    assert rc == 0
    data = json.loads(out)
    assert data["solvable"] is True and data["prime_set"] == ["2", "3", "5"]

    narrow = tmp_path / "narrow.json"
    base["prime_set"] = ["5"]
    narrow.write_text(json.dumps(base))
    rc, _, err = run_cli(["qpsolve", str(narrow)])
    assert rc == 1 and err

    # 2^89 - 1 is prime, but proving it by trial division would take about
    # 4·10^12 divisions; the factorization limit refuses it at once
    huge = tmp_path / "huge.json"
    base["prime_set"] = ["2", "3", "618970019642690137449562111"]
    huge.write_text(json.dumps(base))
    rc, out, err = run_cli(["qpsolve", str(huge)])
    assert rc == 2 and out == ""
    assert "error: factorize: |n| exceeds 1000000000000" in err

