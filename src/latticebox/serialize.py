"""JSON codecs for every external payload.

Data values (vector entries, bounds, coefficients, divisors, primes) are
serialized as decimal strings so arbitrary precision survives the JSON
round trip; structural numbers (dimensions, ranks, indices) stay plain
JSON integers. Indices in payloads are 1-based.

A certificate set is a DAG: a node shared by several expressions is
encoded from one dict, which the JSON text writes out in full at every
use. dump writes a result in batches as it is encoded, so neither the
tree nodes nor the whole text are ever held at once.
"""

from __future__ import annotations

import io
import json
from itertools import chain, islice

from .arith import PrimeSet, format_rational, parse_int
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


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)

# iterencode yields a few bytes per chunk; one write per chunk is slow on an
# unbuffered stream (PYTHONUNBUFFERED=1), one write per result holds it all
_BATCH = 8192


def dump(payload, stream) -> None:
    """Write dumps(payload) to stream, a batch of encoded chunks at a time.

    The final newline rides in the last batch, so a small result is one write.
    """
    chunks = chain(_ENCODER.iterencode(payload), "\n")
    while batch := "".join(islice(chunks, _BATCH)):
        stream.write(batch)


def dumps(payload) -> str:
    out = io.StringIO()
    dump(payload, out)
    return out.getvalue()


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


def _expr_json(expr: Expr, memo: dict) -> dict:
    """One dict per distinct node object, through memo: id(node) -> its dict.

    A shared node gives a shared dict; the memo is valid for one call only.
    """
    data = memo.get(id(expr))
    if data is not None:
        return data
    if isinstance(expr, Lower):
        data = {"op": "a", "i": expr.i + 1}
    elif isinstance(expr, Upper):
        data = {"op": "b", "i": expr.i + 1}
    elif isinstance(expr, Neg):
        data = {"op": "neg", "arg": _expr_json(expr.arg, memo)}
    elif isinstance(expr, FloorDiv):
        data = {"op": "floordiv", "m": str(expr.m), "arg": _expr_json(expr.arg, memo)}
    elif isinstance(expr, CeilDiv):
        data = {"op": "ceildiv", "m": str(expr.m), "arg": _expr_json(expr.arg, memo)}
    elif isinstance(expr, Diff):
        data = {
            "op": "diff",
            "lhs": _expr_json(expr.lhs, memo),
            "rhs": _expr_json(expr.rhs, memo),
        }
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    memo[id(expr)] = data
    return data


def certset_to_json(certs: CertificateSet) -> dict:
    memo: dict = {}
    return {
        "n": certs.ambient_dim,
        "rank": certs.rank,
        "exprs": [_expr_json(e, memo) for e in certs.exprs],
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


def rationals_to_json(values) -> list[str]:
    return [format_rational(x) for x in values]
