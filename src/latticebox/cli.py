"""Command-line front end: JSON instances in, JSON results out.

Exit codes: 0 success, 1 malformed input or violated precondition,
2 resource limit exceeded, 3 internal inconsistency.

One table, _COMMANDS, drives both build_parser and main. The exit-code
rule is main's one except clause: "error: ..." on stderr, then 3 for an
InconsistencyError, 2 for a ResourceLimitError and 1 for any other error.
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
    # --help shows the docstring's first two paragraphs, not its notes
    parser = _Parser(prog="latticebox", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to the JSON instance")
        p.add_argument("--output", help="also write the JSON result to this path")
    sub.choices["feasible"].add_argument(
        "--method", choices=("cert", "recursive", "oracle"), default="cert"
    )
    sub.choices["oracle"].add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)
    return parser


def _lattice_box(data):
    lat = serialize.lattice_from_json(data["lattice"])
    box = serialize.box_from_json(data["box"])
    return lat, box


def _need_chain(lat):
    chain = certify(lat)
    if chain is None:
        raise PreconditionError("lattice admits no divisor chain")
    return chain


def _cmd_certify(data, args) -> dict:
    lat = serialize.lattice_from_json(data)
    chain = certify(lat)
    if chain is None:
        return {"in_class": False}
    return {
        "in_class": True,
        "chain_length": chain.chain_length,
        "certificate": serialize.chain_to_json(chain),
    }


def _cmd_certs(data, args) -> dict:
    lat = serialize.lattice_from_json(data)
    chain = _need_chain(lat)
    return serialize.certset_to_json(generate_certificates(chain))


def _cmd_feasible(data, args) -> dict:
    lat, box = _lattice_box(data)
    if args.method == "oracle":
        verdict = brute_force_solve(lat, box) is not None
    else:
        chain = _need_chain(lat)
        if args.method == "cert":
            verdict = feasible_by_certificates(generate_certificates(chain), box)
        else:
            verdict = solve_box(chain, box) is not None
    return {"feasible": verdict}


def _cmd_solve(data, args) -> dict:
    lat, box = _lattice_box(data)
    return _witness_json(solve_box(_need_chain(lat), box))


def _cmd_oracle(data, args) -> dict:
    lat, box = _lattice_box(data)
    return _witness_json(brute_force_solve(lat, box, cap=args.cap))


def _witness_json(witness) -> dict:
    if witness is None:
        return {"feasible": False}
    return {"feasible": True, "witness": [str(x) for x in witness]}


def _vectors(data) -> list:
    """The "vectors" family, its outer list checked like every inner one."""
    return [serialize._array(v) for v in serialize._array(data["vectors"])]


def _cmd_circuits(data, args) -> dict:
    found = circuits(_vectors(data))
    return {
        "circuits": [serialize.circuit_to_json(c) for c in found],
        "prime_set": serialize.primes_to_json(prime_set_of_circuits(found)),
    }


def _cmd_qpsolve(data, args) -> dict:
    rest = (serialize._array(data[key]) for key in ("target", "lower", "upper"))
    result = near_integers_solve(_vectors(data), *rest)
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


_COMMANDS = {
    "certify": (_cmd_certify, "decide whether the lattice admits a divisor chain"),
    "certs": (_cmd_certs, "emit the certificate expression set for a certified lattice"),
    "feasible": (_cmd_feasible, "decide whether the lattice meets the box"),
    "solve": (_cmd_solve, "a lattice point in the box, by the divisor-chain recursion"),
    "oracle": (_cmd_oracle, "brute-force scan of the box"),
    "circuits": (_cmd_circuits, "elementary relations and the prime set of a family"),
    "qpsolve": (_cmd_qpsolve, "restricted-denominator box solving"),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler, _ = _COMMANDS[args.command]
        data = json.loads(Path(args.input).read_text())
        payload = handler(data, args)
        # the file is complete before stdout sees a byte: a failed write
        # leaves stdout empty
        if args.output:
            with open(args.output, "w") as out:
                serialize.dump(payload, out)
        serialize.dump(payload, sys.stdout)
    except (
        _UsageError,
        OSError,
        KeyError,
        TypeError,
        ValueError,
        RecursionError,
        ZeroDivisionError,
        LatticeBoxError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InconsistencyError):
            return 3
        return 2 if isinstance(exc, ResourceLimitError) else 1
    return 0


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
