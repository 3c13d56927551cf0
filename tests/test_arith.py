import random
from fractions import Fraction

import pytest

from latticebox.arith import (
    PrimeSet,
    ceil_div,
    factorize,
    floor_div,
    format_rational,
    in_qp,
    is_prime,
    p_part,
    parse_rational,
    rref,
)
from latticebox.errors import ResourceLimitError


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
            assert is_prime(p)
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


def test_in_qp_examples():
    assert in_qp(Fraction(3, 4), PrimeSet([2]))
    assert not in_qp(Fraction(1, 3), PrimeSet([2]))
    assert in_qp(5, PrimeSet())


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


def test_p_part_examples():
    assert p_part(Fraction(1, 12), PrimeSet([2])) == (4, 3)
    assert p_part(Fraction(1, 5), PrimeSet([2, 3])) == (1, 5)
    assert p_part(7, PrimeSet([2])) == (1, 1)


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


def test_rref_carries_right_hand_side():
    F = Fraction
    rows = [[F(0), F(2), F(4), F(6)], [F(1), F(1), F(1), F(2)], [F(1), F(2), F(3), F(5)]]
    mat, pivots = rref(rows, 3)
    assert pivots == [0, 1]
    assert mat == [[1, 0, -1, -1], [0, 1, 2, 3], [0, 0, 0, 0]]
    assert rows[0] == [0, 2, 4, 6]  # input untouched
    # the last column is never a pivot, so an inconsistent row shows there
    mat, pivots = rref([[F(1), F(1)], [F(0), F(1)]], 1)
    assert pivots == [0] and mat[1] == [0, 1]
