"""JSON codecs for every external payload.

Data values (vector entries, bounds, coefficients, divisors, primes) are
serialized as decimal strings so arbitrary precision survives the JSON
round trip; structural numbers (dimensions, ranks, indices) stay plain
JSON integers. Indices in payloads are 1-based.
"""

from __future__ import annotations

import json

from .arith import PrimeSet, format_rational, parse_int, parse_rational
from .certificates import (
    Box,
    CeilDiv,
    CertificateSet,
    Diff,
    Expr,
    FloorDiv,
    Lower,
    Neg,
    Upper,
)
from .chains import ChainCertificate
from .circuits import Circuit
from .lattice import Lattice
from .localized import RefinementTrace


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _array(data) -> list:
    """data, checked to be a JSON array: a string would read per character."""
    if not isinstance(data, list):
        raise ValueError(f"expected a JSON array, got {data!r}")
    return data


def lattice_from_json(data) -> Lattice:
    n = parse_int(data["ambient_dim"])
    gens = [[parse_int(x) for x in _array(row)] for row in _array(data["generators"])]
    return Lattice(n, gens)


def box_from_json(data) -> Box:
    return Box.of(
        [parse_int(x) for x in _array(data["lower"])],
        [parse_int(x) for x in _array(data["upper"])],
    )


def expr_to_json(expr: Expr) -> dict:
    if isinstance(expr, Lower):
        return {"op": "a", "i": expr.i + 1}
    if isinstance(expr, Upper):
        return {"op": "b", "i": expr.i + 1}
    if isinstance(expr, Neg):
        return {"op": "neg", "arg": expr_to_json(expr.arg)}
    if isinstance(expr, FloorDiv):
        return {"op": "floordiv", "m": str(expr.m), "arg": expr_to_json(expr.arg)}
    if isinstance(expr, CeilDiv):
        return {"op": "ceildiv", "m": str(expr.m), "arg": expr_to_json(expr.arg)}
    if isinstance(expr, Diff):
        return {
            "op": "diff",
            "lhs": expr_to_json(expr.lhs),
            "rhs": expr_to_json(expr.rhs),
        }
    raise TypeError(f"not an expression node: {expr!r}")


def certset_to_json(certs: CertificateSet) -> dict:
    return {
        "n": certs.ambient_dim,
        "rank": certs.rank,
        "exprs": [expr_to_json(e) for e in certs.exprs],
    }


def chain_to_json(cert: ChainCertificate) -> dict:
    """A level is its divisor v, which fixes its image, and its child."""
    return {
        "v": [str(x) for x in cert.divisor.v],
        "child": chain_to_json(cert.child) if cert.child is not None else None,
    }


def circuit_to_json(circuit: Circuit) -> dict:
    return {
        "support": [i + 1 for i in circuit.support],
        "coeffs": [str(c) for c in circuit.coeffs],
    }


def primes_to_json(primes: PrimeSet) -> list[str]:
    return [str(p) for p in primes]


def trace_to_json(trace: RefinementTrace) -> dict:
    steps = []
    for s in trace.steps:
        entry: dict = {"case": s.case}
        if s.pivot is not None:
            entry["pivot"] = s.pivot + 1
        if s.clearing_factor is not None:
            entry["k"] = str(s.clearing_factor)
        if s.scaled_values is not None:
            entry["scaled_values"] = [format_rational(v) for v in s.scaled_values]
        if s.circuit is not None:
            entry["circuit"] = circuit_to_json(s.circuit)
        if s.shift is not None:
            entry["r"] = format_rational(s.shift)
        if s.pivot_value is not None:
            entry["pivot_value"] = format_rational(s.pivot_value)
        steps.append(entry)
    return {"steps": steps}


def rationals_from_json(data) -> list:
    return [parse_rational(x) for x in _array(data)]


def rationals_to_json(values) -> list[str]:
    return [format_rational(x) for x in values]
