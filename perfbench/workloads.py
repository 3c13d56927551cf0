"""The benchmark workloads: seeded inputs, the op, and its checks.

Every workload draws all of its inputs from a ``random.Random`` seeded by
the run's ``--seed``; the package only ever sees the generated inputs.
An op's output is checked outside the timed region, and every failed
check or unexpected exception is counted, never dropped.

Layers are reached through a namespace (``L``) of the package's public
functions, so the traced run can swap in spanned copies without touching
the package.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from math import ceil, floor, log2
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"

# Generator entries for every seeded lattice; zero is drawn twice as often
# as each other value so that lattices of rank below n are common.
GENERATOR_ENTRIES = (0, 0, 1, -1, 2)
REFERENCE = (4, [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
# Boxes with at most this many points are also decided by brute force.
ORACLE_CAP = 4096
OFFSET = 10**9


class Failure(Exception):
    """An op whose output fails its check."""


def library_layers(lb) -> SimpleNamespace:
    return SimpleNamespace(
        Lattice=lb.Lattice,
        certify=lb.certify,
        generate_certificates=lb.generate_certificates,
        feasible_by_certificates=lb.feasible_by_certificates,
        solve_box=lb.solve_box,
        brute_force_solve=lb.brute_force_solve,
        build=lb.QpBoxInstance.build,
        qp_solve_exact=lb.qp_solve_exact,
        rational_box_solve=lb.rational_box_solve,
        refine_to_qp=lb.refine_to_qp,
        near_integers_solve=lb.near_integers_solve,
    )


# Attribute of the layer namespace -> span name in the traced run.
LIBRARY_SPANS = {
    "Lattice": "lattice.Lattice",
    "certify": "chains.certify",
    "generate_certificates": "certificates.generate_certificates",
    "feasible_by_certificates": "certificates.feasible_by_certificates",
    "solve_box": "certificates.solve_box",
    "brute_force_solve": "certificates.brute_force_solve",
    "build": "localized.QpBoxInstance.build",
    "qp_solve_exact": "localized.qp_solve_exact",
    "rational_box_solve": "localized.rational_box_solve",
    "refine_to_qp": "localized.refine_to_qp",
}
CLI_COMMANDS = ("certify", "certs", "feasible", "solve", "oracle", "circuits", "qpsolve")
SPAN_NAMES = tuple(LIBRARY_SPANS.values()) + tuple(f"cli.{c}" for c in CLI_COMMANDS)

REFINE_CASES = ("case1", "case2", "independent", "base", "integral_fallback")
QP_REASONS = ("solved", "not-in-span", "no-rational-solution")
COUNT_NAMES = (
    "certificates.exprs",
    "certificates.tree_nodes",
    "certificates.distinct_nodes",
    "certificates.max_order",
    "chains.in_class",
    "chains.max_image_dim",
    "boxes.feasible",
    "boxes.infeasible",
    "boxes.oracle_checked",
    "circuits.count",
    "circuits.prime_set_size",
    *(f"localized.reason.{r}" for r in QP_REASONS),
    *(f"localized.case.{c}" for c in REFINE_CASES),
    "cli.stdout_bytes",
    *(f"certificates.reference_{k}" for k in ("exprs", "tree_nodes", "distinct_nodes")),
)


# --------------------------------------------------------------- counting


def certset_sizes(lb, certs) -> tuple[int, int, int, int]:
    """(expressions, tree nodes, distinct nodes, max order) of a set.

    Tree nodes count every occurrence; distinct nodes count structurally
    different subtrees, found by interning each node on its type and
    already-interned children.
    """
    tree: dict[int, int] = {}
    key_of: dict[int, int] = {}
    interned: dict[tuple, int] = {}

    def visit(node) -> tuple[int, int]:
        got = tree.get(id(node))
        if got is not None:
            return got, key_of[id(node)]
        size = 1
        parts: list = [type(node).__name__]
        for f in fields(node):
            value = getattr(node, f.name)
            if isinstance(value, lb.Expr):
                child_size, child_key = visit(value)
                size += child_size
                parts.append(("node", child_key))
            else:
                parts.append(value)
        key = interned.setdefault(tuple(parts), len(interned))
        tree[id(node)] = size
        key_of[id(node)] = key
        return size, key

    nodes = sum(visit(e)[0] for e in certs.exprs)
    order = max((lb.expr_order(e) for e in certs.exprs), default=0)
    return len(certs.exprs), nodes, len(interned), order


def tree_nodes(lb, certs) -> int:
    """Tree nodes of a certificate set, counting every occurrence."""
    sizes: dict[int, int] = {}

    def visit(node) -> int:
        size = sizes.get(id(node))
        if size is None:
            size = 1 + sum(
                visit(getattr(node, f.name))
                for f in fields(node)
                if isinstance(getattr(node, f.name), lb.Expr)
            )
            sizes[id(node)] = size
        return size

    return sum(visit(e) for e in certs.exprs)


def count_certset(lb, counts: Counter, certs) -> None:
    exprs, nodes, distinct, order = certset_sizes(lb, certs)
    counts["certificates.exprs"] += exprs
    counts["certificates.tree_nodes"] += nodes
    counts["certificates.distinct_nodes"] += distinct
    counts["certificates.max_order"] = max(counts["certificates.max_order"], order)


def max_image_dim(chain) -> int:
    """Largest ambient dimension along a divisor chain."""
    dim = 0
    while chain is not None:
        dim = max(dim, chain.lattice.ambient_dim)
        chain = chain.child
    return dim


def count_chain(counts: Counter, chain) -> None:
    counts["chains.in_class"] += 1
    dim = max(counts["chains.max_image_dim"], max_image_dim(chain))
    counts["chains.max_image_dim"] = dim


# ------------------------------------------------------- lattice workload


def draw_generators(rng: random.Random, n: int, k: int) -> list[list[int]]:
    return [[rng.choice(GENERATOR_ENTRIES) for _ in range(n)] for _ in range(k)]


def draw_box(rng: random.Random, rows, n: int, wide: bool):
    """A box near a lattice point whose coordinates reach about 10^9.

    The point is an integer combination of rows. Narrow boxes take widths
    0..3 and a small shift, so they are feasible or not depending on the
    lattice; wide boxes exceed the oracle cap.
    """
    coeffs = [rng.randint(-OFFSET, OFFSET) for _ in rows]
    point = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    lower = [x - rng.randint(0, 3) + (rng.random() < 0.25) for x in point]
    if wide:
        widths = [rng.randint(10, 10**4) for _ in range(n)]
    else:
        widths = [rng.choice((0, 1, 1, 2, 2, 3)) for _ in range(n)]
    return tuple(lower), tuple(lo + w for lo, w in zip(lower, widths))


def check_box(L, lat, box, verdict, witness, counts: Counter) -> None:
    """Certificate verdict, solve_box witness and oracle must agree."""
    if verdict != (witness is not None):
        raise Failure("certificate verdict differs from solve_box")
    if witness is not None:
        if not lat.member(witness):
            raise Failure("witness is not a lattice member")
        if not all(lo <= x <= hi for lo, x, hi in zip(box.lower, witness, box.upper)):
            raise Failure("witness is outside the box")
    counts["boxes.feasible" if verdict else "boxes.infeasible"] += 1
    if box.point_count() <= ORACLE_CAP:
        counts["boxes.oracle_checked"] += 1
        if (L.brute_force_solve(lat, box, ORACLE_CAP) is not None) != verdict:
            raise Failure("brute force disagrees with the certificate verdict")


class BoxReuse:
    """Compile each lattice once, then decide and solve many boxes."""

    name = "box_reuse"
    import_module = "latticebox"
    # The seeded lattices are those of a seeded pool whose certificate sets
    # (in tree nodes) lie nearest to a fixed ladder of sizes, so the cost
    # profile of their boxes hardly moves with the seed while the lattices
    # themselves differ.
    pool_size = 240
    ladder = tuple(round(32 * 2 ** (0.7 * k)) for k in range(12))
    # Pool lattices whose chain grows wider than this are skipped before
    # their sets are built: those sets run past the ladder, and building
    # one would set the process's peak memory.
    max_image_dim = 16
    # Three ops in four use the reference lattice, so the percentiles sit
    # inside one fixed lattice's distribution.
    reference_share = 3
    wide_every = 16
    trace_ops = 400

    def __init__(self, lb):
        self.lb = lb

    def generate(self, rng: random.Random):
        """The reference lattice, then one seeded in-class lattice of rank
        3-4 and n <= 6 per ladder rung."""
        lb = self.lb
        pool = []
        while len(pool) < self.pool_size:
            n = rng.randint(3, 6)
            gens = draw_generators(rng, n, rng.randint(3, min(4, n)))
            lat = lb.Lattice(n, gens)
            if lat.rank < 3:
                continue
            try:
                chain = lb.certify(lat)
            except lb.ResourceLimitError:
                continue
            if chain is not None and max_image_dim(chain) <= self.max_image_dim:
                nodes = tree_nodes(lb, lb.generate_certificates(chain))
                pool.append((nodes, n, gens))
        specs = [REFERENCE]
        for target in self.ladder:
            best = min(pool, key=lambda c: abs(log2(c[0] / target)))
            pool.remove(best)
            specs.append(best[1:])
        return specs

    def prepare(self, L, specs):
        """Once-per-lattice work: canonical basis, chain and certificate set."""
        out = []
        for n, gens in specs:
            lat = L.Lattice(n, gens)
            chain = L.certify(lat)
            out.append((lat, chain, L.generate_certificates(chain)))
        return out

    def inputs(self, rng: random.Random, prepared):
        seeded = len(prepared) - 1
        i = 0
        while True:
            if i % (self.reference_share + 1) < self.reference_share:
                index = 0
            else:
                index = 1 + (i // (self.reference_share + 1)) % seeded
            lat = prepared[index][0]
            wide = i % self.wide_every == self.wide_every - 1
            lower, upper = draw_box(rng, lat.basis, lat.ambient_dim, wide)
            yield index, self.lb.Box.of(lower, upper)
            i += 1

    def kind(self, inp):
        return inp[0]  # the lattice

    def run(self, L, prepared, inp):
        index, box = inp
        _, chain, certs = prepared[index]
        return L.feasible_by_certificates(certs, box), L.solve_box(chain, box)

    def check(self, L, prepared, inp, out, counts: Counter) -> None:
        index, box = inp
        check_box(L, prepared[index][0], box, out[0], out[1], counts)

    def count_setup(self, prepared, counts: Counter) -> None:
        for _, chain, certs in prepared:
            count_chain(counts, chain)
            count_certset(self.lb, counts, certs)
        exprs, nodes, distinct, _ = certset_sizes(self.lb, prepared[0][2])
        counts["certificates.reference_exprs"] = exprs
        counts["certificates.reference_tree_nodes"] = nodes
        counts["certificates.reference_distinct_nodes"] = distinct


# ----------------------------------------------------------- Q_P workload


class QpFlat:
    """near_integers_solve on the acceptance-suite construction.

    Entries in -4..4 and a hidden rational solution with denominators 1..6
    inside integer bounds, so a rational box solution always exists. Few
    equations and many unknowns: Fourier-Motzkin sees 1-4 free variables.
    """

    name = "qp_flat"
    import_module = "latticebox"
    # Round robin over the shapes (n, m). m = 5 and m = 6 with n = 3 appear
    # twice, so p50 lies inside the (3, 5) group and p90 inside the (3, 6)
    # group rather than on a boundary between shapes.
    shapes = ((2, 4), (3, 4), (2, 5), (3, 5), (3, 5), (2, 6), (3, 6), (3, 6))
    trace_ops = 400

    def __init__(self, lb):
        self.lb = lb

    def generate(self, rng: random.Random):
        return None

    def prepare(self, L, specs):
        return None

    def inputs(self, rng: random.Random, prepared):
        for k in itertools.count():
            n, m = self.shapes[k % len(self.shapes)]
            vecs = [
                tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
                for _ in range(m)
            ]
            hidden = [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(m)]
            target = [sum(hidden[i] * vecs[i][j] for i in range(m)) for j in range(n)]
            lower = [floor(h) - rng.randint(0, 2) for h in hidden]
            upper = [ceil(h) + rng.randint(0, 2) for h in hidden]
            yield vecs, target, lower, upper

    def kind(self, inp):
        vecs = inp[0]
        return len(vecs[0]), len(vecs)  # the shape (n, m)

    def run(self, L, prepared, inp):
        return L.near_integers_solve(*inp), None

    def run_staged(self, L, prepared, inp):
        """The four public stages of near_integers_solve, one by one."""
        inst = L.build(*inp)
        Result = self.lb.QpSolveResult
        if L.qp_solve_exact(inst.vectors, inst.target, inst.primes) is None:
            return Result(False, "not-in-span", None, None, inst.primes), inst
        x = L.rational_box_solve(inst.vectors, inst.target, inst.lower, inst.upper)
        if x is None:
            return Result(False, "no-rational-solution", None, None, inst.primes), inst
        y, trace = L.refine_to_qp(inst, x)
        return Result(True, None, y, trace, inst.primes), inst

    def check(self, L, prepared, inp, out, counts: Counter) -> None:
        vecs, target, lower, upper = inp
        result, inst = out
        counts[f"localized.reason.{result.reason or 'solved'}"] += 1
        counts["circuits.prime_set_size"] += len(result.primes)
        if inst is not None:
            counts["circuits.count"] += len(inst.family_circuits)
        if result.reason == "not-in-span":
            if self.lb.qp_solve_exact(vecs, target, result.primes) is not None:
                raise Failure("not-in-span, but qp_solve_exact finds a solution")
            return
        if not result.solvable:
            raise Failure(f"unsolvable ({result.reason}) despite a hidden solution")
        y = result.solution
        if len(y) != len(vecs):
            raise Failure("solution length differs from family size")
        for j in range(len(target)):
            if sum(y[i] * vecs[i][j] for i in range(len(vecs))) != target[j]:
                raise Failure("solution misses an equality")
        if not all(lo <= yi <= hi for lo, yi, hi in zip(lower, y, upper)):
            raise Failure("solution is outside the bounds")
        if not all(self.lb.in_qp(yi, result.primes) for yi in y):
            raise Failure("solution coordinate is outside Q_P")
        for step in result.trace.steps:
            counts[f"localized.case.{step.case}"] += 1

    def count_setup(self, prepared, counts: Counter) -> None:
        pass


# ---------------------------------------------------------- CLI workload


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class CliCorpus:
    """One latticebox process per command, as a user runs it."""

    name = "cli_corpus"
    import_module = "latticebox.cli"
    timeout_s = 120

    def __init__(self, lb, subset: int | None = None):
        self.lb = lb
        self.subset = subset
        self.env = cli_env()

    def generate(self, rng: random.Random):
        """(name, argv, expected stdout bytes or sha256) for every command."""
        corpus = ROOT / "tests" / "corpus"
        commands = []
        for case in json.loads((corpus / "manifest.json").read_text()):
            expected = (corpus / "expected" / f"{case['name']}.json").read_bytes()
            commands.append((case["name"], case["argv"], ("bytes", expected)))
        ref = json.loads((DATA / "reference.json").read_text())
        for name, entry in ref["cli"].items():
            argv = entry["argv"]
            if "sha256" in entry:
                expected = ("sha256", entry["sha256"])
            else:
                expected = ("bytes", entry["stdout"].encode())
            commands.append((f"reference__{name}", argv, expected))
        if self.subset is not None:
            commands = commands[: self.subset] + commands[-3:]
        return commands

    def prepare(self, L, commands):
        return commands

    def inputs(self, rng: random.Random, commands):
        while True:
            order = list(commands)
            rng.shuffle(order)
            yield from order

    def kind(self, inp):
        return inp[0]  # the command

    def run(self, L, commands, inp):
        _, argv, _ = inp
        return L.cli(argv)

    def check(self, L, commands, inp, out, counts: Counter) -> None:
        name, _, (kind, expected) = inp
        code, stdout = out
        if code != 0:
            raise Failure(f"{name}: exit code {code}")
        counts["cli.stdout_bytes"] += len(stdout)
        if kind == "sha256":
            if hashlib.sha256(stdout).hexdigest() != expected:
                raise Failure(f"{name}: stdout sha256 differs")
        elif stdout != expected:
            raise Failure(f"{name}: stdout differs from the pinned bytes")

    def count_setup(self, prepared, counts: Counter) -> None:
        pass

    def layers(self) -> SimpleNamespace:
        def cli(argv):
            done = subprocess.run(
                [sys.executable, "-m", "latticebox.cli", *argv],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                timeout=self.timeout_s,
            )
            return done.returncode, done.stdout

        return SimpleNamespace(cli=cli)

    def traced_layers(self, tracer, plain: SimpleNamespace) -> SimpleNamespace:
        def cli(argv):
            with tracer.span(f"cli.{argv[0]}"):
                return plain.cli(argv)

        return SimpleNamespace(cli=cli)


WORKLOADS = {
    w.name: w for w in (BoxReuse, QpFlat, CliCorpus)
}
