"""Reference evaluation of certificate expressions as full trees, for tests only.

The package computes each shared node once per box (certificates._evaluate);
this plain recursion on Python's floor division is the oracle the tests
compare it against.
"""

from latticebox.certificates import CeilDiv, Diff, FloorDiv, Lower, Neg, Upper


def tree_value(expr, a, b) -> int:
    """Value of expr at lower bounds a and upper bounds b, recomputing every use."""
    if isinstance(expr, Lower):
        return a[expr.i]
    if isinstance(expr, Upper):
        return b[expr.i]
    if isinstance(expr, Neg):
        return -tree_value(expr.arg, a, b)
    if isinstance(expr, FloorDiv):
        return tree_value(expr.arg, a, b) // expr.m
    if isinstance(expr, CeilDiv):
        return -(-tree_value(expr.arg, a, b) // expr.m)
    if isinstance(expr, Diff):
        return tree_value(expr.lhs, a, b) - tree_value(expr.rhs, a, b)
    raise TypeError(f"not an expression node: {expr!r}")
