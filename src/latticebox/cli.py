"""Command-line front end: JSON instances in, JSON results out.

Exit codes: 0 success, 1 malformed input or violated precondition,
2 resource limit exceeded, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import serialize
from .certificates import (
    DEFAULT_ORACLE_CAP,
    brute_force_solve,
    feasible_by_certificates,
    generate_certificates,
    solve_box,
)
from .chains import certify
from .circuits import circuits, prime_set_of_circuits
from .errors import (
    InconsistencyError,
    LatticeBoxError,
    PreconditionError,
    ResourceLimitError,
)
from .localized import near_integers_solve


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latticebox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to the JSON instance")
        p.add_argument("--output", help="also write the JSON result to this path")
        return p

    add("certify", "decide whether the lattice admits a divisor chain")
    add("certs", "emit the certificate expression set for a certified lattice")
    p = add("feasible", "decide whether the lattice meets the box")
    p.add_argument("--method", choices=("cert", "recursive", "oracle"), default="cert")
    add("solve", "a lattice point in the box, by the divisor-chain recursion")
    p = add("oracle", "brute-force scan of the box")
    p.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)
    add("circuits", "elementary relations and the prime set of a family")
    add("qpsolve", "restricted-denominator box solving")
    return parser


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _lattice_box(data):
    lat = serialize.lattice_from_json(data["lattice"])
    box = serialize.box_from_json(data["box"])
    return lat, box


def _need_chain(lat):
    chain = certify(lat)
    if chain is None:
        raise PreconditionError("lattice admits no divisor chain")
    return chain


def _cmd_certify(data) -> dict:
    lat = serialize.lattice_from_json(data)
    chain = certify(lat)
    if chain is None:
        return {"in_class": False}
    return {
        "in_class": True,
        "chain_length": chain.chain_length,
        "certificate": serialize.chain_to_json(chain),
    }


def _cmd_certs(data) -> dict:
    lat = serialize.lattice_from_json(data)
    chain = _need_chain(lat)
    return serialize.certset_to_json(generate_certificates(chain))


def _cmd_feasible(data, method: str) -> dict:
    lat, box = _lattice_box(data)
    if method == "oracle":
        verdict = brute_force_solve(lat, box) is not None
    else:
        chain = _need_chain(lat)
        if method == "cert":
            verdict = feasible_by_certificates(generate_certificates(chain), box)
        else:
            verdict = solve_box(chain, box) is not None
    return {"feasible": verdict}


def _cmd_solve(data) -> dict:
    lat, box = _lattice_box(data)
    return _witness_json(solve_box(_need_chain(lat), box))


def _cmd_oracle(data, cap: int) -> dict:
    lat, box = _lattice_box(data)
    return _witness_json(brute_force_solve(lat, box, cap=cap))


def _witness_json(witness) -> dict:
    if witness is None:
        return {"feasible": False}
    return {"feasible": True, "witness": [str(x) for x in witness]}


def _cmd_circuits(data) -> dict:
    vectors = [serialize.rationals_from_json(v) for v in data["vectors"]]
    found = circuits(vectors)
    return {
        "circuits": [serialize.circuit_to_json(c) for c in found],
        "prime_set": serialize.primes_to_json(prime_set_of_circuits(found)),
    }


def _cmd_qpsolve(data) -> dict:
    vectors = [serialize.rationals_from_json(v) for v in data["vectors"]]
    target = serialize.rationals_from_json(data["target"])
    lower = serialize.rationals_from_json(data["lower"])
    upper = serialize.rationals_from_json(data["upper"])
    result = near_integers_solve(vectors, target, lower, upper)
    return {
        "solvable": result.solvable,
        "reason": result.reason,
        "solution": (
            serialize.rationals_to_json(result.solution)
            if result.solution is not None
            else None
        ),
        "prime_set": serialize.primes_to_json(result.primes),
        "trace": (
            serialize.trace_to_json(result.trace)
            if result.trace is not None
            else None
        ),
    }


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        data = _load(args.input)
        if args.command == "certify":
            payload = _cmd_certify(data)
        elif args.command == "certs":
            payload = _cmd_certs(data)
        elif args.command == "feasible":
            payload = _cmd_feasible(data, args.method)
        elif args.command == "solve":
            payload = _cmd_solve(data)
        elif args.command == "oracle":
            payload = _cmd_oracle(data, args.cap)
        elif args.command == "circuits":
            payload = _cmd_circuits(data)
        else:
            payload = _cmd_qpsolve(data)
        text = serialize.dumps(payload)
        if args.output:
            Path(args.output).write_text(text)
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        OSError,
        json.JSONDecodeError,
        KeyError,
        TypeError,
        ValueError,
        ZeroDivisionError,
        LatticeBoxError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
