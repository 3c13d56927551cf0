"""
Refining rational box solutions into restricted denominators
============================================================

The circuits of a vector family determine a prime set P; rationals whose
reduced denominators factor over P form a subring. Whenever a target in
the subring span has any rational solution inside ring-compatible bounds,
it also has a solution with every coordinate in the subring. This example
computes circuits and the prime set, solves a box system over the plain
rationals, and refines the solution, printing the audited trace.
"""

from fractions import Fraction

from latticebox import (
    QpBoxInstance,
    circuits,
    near_integers_solve,
    prime_set,
    rational_box_solve,
    refine_to_qp,
)

family = [(2,), (3,)]
print("circuits:", [(c.support, c.coeffs) for c in circuits(family)])
print("prime set:", list(prime_set(family)))

# any rational solution of 2*x1 + 3*x2 = 1 inside [0,1]^2 ...
x = rational_box_solve(family, (1,), (0, 0), (1, 1))
print("rational solution:", x)

# ... refines to denominators built from 2 and 3 only; start from a point
# chosen to force the circuit-perturbation step
inst = QpBoxInstance.build(family, (1,), (0, 0), (1, 1))
start = (Fraction(1, 5), Fraction(1, 5))
y, trace = refine_to_qp(inst, start)
print("refined from", start, "to", y)
for step in trace.steps:
    fields = {
        "pivot": step.pivot,
        "k": step.clearing_factor,
        "scaled": step.scaled_values,
        "circuit": step.circuit,
        "shift": step.shift,
    }
    shown = {k: v for k, v in fields.items() if v is not None}
    print(f"  {step.case}: {shown}")

# the full pipeline checks the ring span and solves over the rationals;
# the simplex vertex already has ring coordinates, so it is the answer,
# with an empty trace; infeasibility comes back with a reason
print(near_integers_solve([(2,)], (1,), (0,), (1,)))
result = near_integers_solve(family, (1,), (0, 0), (1, 1))
print("pipeline solution:", result.solution)
