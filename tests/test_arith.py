import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from latticebox.arith import (
    PrimeSet,
    ceil_div,
    clear_column,
    echelon,
    eliminate,
    factorize,
    floor_div,
    format_rational,
    in_qp,
    is_prime,
    parse_int,
    parse_rational,
)
from latticebox.errors import ResourceLimitError
from rref_oracle import rref

F = Fraction


def test_floor_div_examples():
    assert floor_div(7, 2) == 3
    assert floor_div(7, -2) == -4
    assert floor_div(0, 5) == 0


def test_ceil_div_examples():
    assert ceil_div(7, 2) == 4
    assert ceil_div(7, -2) == -3
    assert ceil_div(6, 3) == 2


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        floor_div(1, 0)
    with pytest.raises(ZeroDivisionError):
        ceil_div(1, 0)


def test_floor_ceil_bounds_property():
    rng = random.Random(101)
    for _ in range(2000):
        a = rng.randint(-200, 200)
        m = rng.choice([x for x in range(-12, 13) if x != 0])
        f = floor_div(a, m)
        c = ceil_div(a, m)
        # defining property of floor/ceil, written sign-correctly
        s = 1 if m > 0 else -1
        assert 0 <= (a - m * f) * s < abs(m)
        assert 0 <= (m * c - a) * s < abs(m)
        assert c - f in (0, 1)
        assert (c == f) == (a % m == 0)
        assert c == -floor_div(-a, m)


def test_factorize_examples():
    assert factorize(12) == [2, 2, 3]
    assert factorize(-7) == [7]
    assert factorize(1) == []


def test_factorize_rejects_zero_and_huge():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ResourceLimitError):
        factorize(10**13)


def test_factorize_recombines():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 10**6)
        fs = factorize(n)
        prod = 1
        for p in fs:
            prod *= p
            assert sympy.isprime(p)
        assert prod == n
        assert fs == sorted(fs)


def test_prime_set_validation():
    ps = PrimeSet([5, 2, 3, 3])
    assert list(ps) == [2, 3, 5]
    assert 3 in ps and 7 not in ps
    with pytest.raises(ValueError):
        PrimeSet([4])
    assert not PrimeSet()
    assert PrimeSet([2]).smallest == 2
    # the check PrimeSet relies on, against an independent oracle
    for n in [*range(-2, 20_001), *range(10**12 - 24, 10**12 + 1)]:
        assert is_prime(n) == sympy.isprime(n), n
    with pytest.raises(ResourceLimitError):
        is_prime(10**12 + 39)
    # 2^89 - 1 is prime, but proving it by trial division would take about
    # 4·10^12 divisions; the factorization limit refuses it at once
    with pytest.raises(ResourceLimitError, match=r"exceeds 1000000000000"):
        PrimeSet([2, 3, 2**89 - 1])


@pytest.mark.parametrize(
    "primes", [[2.5, 3.9], ["5"], [Fraction(2)]], ids=["floats", "string", "fraction"]
)
def test_prime_set_refuses_non_integers(primes):
    # int() would truncate 2.5 and 3.9 to the primes 2 and 3
    with pytest.raises(TypeError):
        PrimeSet(primes)


def test_in_qp_examples():
    assert in_qp(Fraction(3, 4), PrimeSet([2]))
    assert not in_qp(Fraction(1, 3), PrimeSet([2]))
    assert in_qp(5, PrimeSet())


def test_in_qp_reads_its_argument_exactly():
    # Fraction(0.1) has denominator 2^55, which would put the float 0.1
    # in Z[1/2]; 1/10 is not there
    with pytest.raises(ValueError):
        in_qp(0.1, PrimeSet([2]))
    assert not in_qp("1/10", PrimeSet([2]))
    assert in_qp("1/4", PrimeSet([2]))


def test_in_qp_ring_closure():
    rng = random.Random(13)
    ps = PrimeSet([2, 5])
    members = []
    while len(members) < 40:
        num = rng.randint(-30, 30)
        den = 2 ** rng.randint(0, 3) * 5 ** rng.randint(0, 2)
        members.append(Fraction(num, den))
    for _ in range(300):
        x, y = rng.choice(members), rng.choice(members)
        assert in_qp(x + y, ps)
        assert in_qp(x * y, ps)


def test_coprime_part_examples():
    assert PrimeSet([2]).coprime_part(12) == 3
    assert PrimeSet([2, 3]).coprime_part(-5) == 5
    assert PrimeSet([2]).coprime_part(1) == 1
    assert PrimeSet().coprime_part(12) == 12


def _coprime_part_oracle(n, primes):
    # the per-prime loop that in_qp ran before the ring test
    # moved to gcds against the product of the set
    n = abs(n)
    for p in primes:
        while n % p == 0:
            n //= p
    return n


_FIRST_PRIMES = list(sympy.primerange(2, sympy.prime(10_000) + 1))
_PRIME_SETS = [
    PrimeSet(),
    PrimeSet([2]),
    PrimeSet([3, 7]),
    PrimeSet([2, 3, 5, 7, 11, 13]),
    PrimeSet([101, 104_723, 1_000_003]),
    PrimeSet(_FIRST_PRIMES),
]
# factors inside and outside every set above: small primes, the largest of
# the first 10,000, the next prime after them, and a prime near 10^6
_FACTORS = [2, 3, 5, 7, 11, 13, 17, 101, 104_723, 104_729, 104_743, 1_000_003]


@st.composite
def _integers_with_factors(draw):
    n = draw(st.integers(-50, 50))
    for p in draw(st.lists(st.sampled_from(_FACTORS), max_size=6)):
        n *= p
    return n


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.sampled_from(_PRIME_SETS),
    _integers_with_factors(),
    _integers_with_factors().filter(bool),
)
def test_ring_membership_matches_per_prime_loop(primes, a, d):
    x = Fraction(a, d)
    coprime = _coprime_part_oracle(x.denominator, primes)
    assert primes.coprime_part(d) == _coprime_part_oracle(d, primes)
    # a/d is in the ring iff d/gcd(a, d) is smooth over the set
    assert (a % primes.coprime_part(d) == 0) == (coprime == 1)
    assert in_qp(x, primes) == (coprime == 1)
    assert in_qp(a, primes)
    with pytest.raises(ValueError):
        primes.coprime_part(0)


def test_rational_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == -2
    assert parse_rational(5) == 5
    f = Fraction(3, 4)
    assert parse_rational(f) is f
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-8, 2)) == "-4"
    with pytest.raises(ValueError):
        parse_rational(None)
    # exponent notation would expand to every digit of the power
    for text in ("1e400", "2E-3", "1e30000000"):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)
    assert parse_rational(" -2 ") == -2
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-1.25") == Fraction(-5, 4)


def test_echelon_carries_right_hand_side():
    rows = [[F(0), F(2), F(4), F(6)], [F(1), F(1), F(1), F(2)], [F(1), F(2), F(3), F(5)]]
    mat, pivots = echelon(rows, 3)
    assert pivots == [0, 1]
    assert mat == [[1, 0, -1, -1], [0, 2, 4, 6], [0, 0, 0, 0]]
    assert rows[0] == [0, 2, 4, 6]  # input untouched
    # the last column is never a pivot, so an inconsistent row shows there
    mat, pivots = echelon([[F(1), F(1)], [F(0), F(1)]], 1)
    assert pivots == [0] and mat[1] == [0, 1]


def _random_matrix(rng):
    rows, width = rng.randint(0, 5), rng.randint(0, 6)
    mat = [
        [F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5))) for _ in range(width)]
        for _ in range(rows)
    ]
    if rows and rng.random() < 0.3:
        mat[rng.randrange(rows)] = [F(0)] * width
    if width and rng.random() < 0.3:
        col = rng.randrange(width)
        for row in mat:
            row[col] = F(0)
    if rows > 1 and rng.random() < 0.3:
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        mat[rng.randrange(rows)] = [c * x for x in mat[rng.randrange(rows)]]
    return mat, rng.randint(0, width)


def test_echelon_matches_fraction_rref():
    # pivot row r over its entry at pivots[r] is the rref row, and every
    # entry is an int
    rng = random.Random(1968)
    for _ in range(5000):
        mat, ncols = _random_matrix(rng)
        got, pivots = echelon(mat, ncols)
        want, want_pivots = rref(mat, ncols)
        assert pivots == want_pivots
        assert len(got) == len(mat)
        assert all(type(a) is int for row in got for a in row)
        for row, col, ref in zip(got, pivots, want):
            assert row[col] > 0
            assert [F(a, row[col]) for a in row] == ref
        for row in got[len(pivots):]:
            assert not any(row[:ncols])


def test_eliminate_keeps_row_sign():
    # a negative pivot entry must not flip the reduced row
    assert eliminate([2, 3, 1], [0, -2, 4], 1) == [2, 0, 7]
    rng = random.Random(1969)
    for _ in range(500):
        width = rng.randint(2, 6)
        col = rng.randrange(width)
        pivot_row = [rng.randint(-5, 5) for _ in range(width)]
        pivot_row[col] = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        # the other pivot columns: zero in the pivot row
        others = [c for c in range(width) if c != col and rng.random() < 0.5]
        for c in others:
            pivot_row[c] = 0
        row = [rng.randint(-5, 5) for _ in range(width)]
        out = eliminate(row, pivot_row, col)
        assert out[col] == 0
        for c in others:
            assert (out[c] > 0) == (row[c] > 0) and (out[c] < 0) == (row[c] < 0)


def test_clear_column_pivots_in_place():
    # the pivot entry ends positive, its column is 0 in every other row,
    # and neither the matrix's row space nor any row's span with the pivot
    # row changes
    def space(mat, width):
        return rref([[F(a) for a in row] for row in mat], width)

    rng = random.Random(1970)
    negative = 0
    for _ in range(3000):
        height, width = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(width)] for _ in range(height)]
        r, col = rng.randrange(height), rng.randrange(width)
        if rows[r][col] == 0:
            rows[r][col] = rng.choice((-3, -2, -1, 1, 2, 3))
        negative += rows[r][col] < 0
        before = [list(row) for row in rows]
        clear_column(rows, r, col)
        assert rows[r][col] > 0
        assert all(row[col] == 0 for i, row in enumerate(rows) if i != r)
        assert space(rows, width) == space(before, width)
        for old, new in zip(before, rows):
            # new lies in the span of old and the pivot row: no rank gain
            pair = [old, before[r]]
            assert space(pair + [new], width)[1] == space(pair, width)[1]
    assert negative > 1000


@pytest.mark.parametrize(
    "parse, value",
    [(parse_int, True), (parse_int, 1.5), (parse_rational, True)],
    ids=["int-bool", "int-float", "rational-bool"],
)
def test_parsers_refuse_bools_and_floats(parse, value):
    # True is an int to Python and 1.5 would truncate; neither is JSON input
    with pytest.raises(ValueError, match="not an integer|not a rational"):
        parse(value)
