"""Tests for ground fields and the residue tower k(w_1,...,w_d)."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from monoval import coeff
from monoval.coeff import (
    CoeffError,
    GroundField,
    ParseError,
    Tower,
)

F5 = GroundField.prime(5)
Q = GroundField.rationals()


def test_ground_field_construction():
    assert F5.characteristic == 5
    assert Q.characteristic == 0
    assert str(F5) == "F5"
    assert str(Q) == "Q"
    with pytest.raises(CoeffError):
        GroundField.prime(6)
    with pytest.raises(CoeffError):
        GroundField.prime(1)
    GroundField.prime(2)
    GroundField.prime(97)


def test_towers_are_interned():
    assert Tower(F5, ("u3",)) is Tower(F5, ("u3",))
    assert Tower(F5, ("u3",)) is not Tower(F5, ("u3", "u4"))
    assert Tower(F5, ()) is not Tower(Q, ())


def test_unused_tower_leaves_the_cache():
    def build():
        tower = Tower(F5, ("cache_probe",))
        assert (tower.gen("cache_probe") + 1).tower is tower
        return weakref.ref(tower)

    ref = build()
    gc.collect()
    assert ref() is None
    assert (F5, ("cache_probe",)) not in coeff._TOWER_CACHE


def test_tower_stays_interned_while_an_element_lives():
    u = Tower(F5, ("u",)).gen("u")
    gc.collect()
    assert Tower(F5, ("u",)) is Tower(F5, ("u",))
    assert Tower(F5, ("u",)) is u.tower


def test_f5_inverse_example():
    t = Tower(F5, ())
    two = t.from_int(2)
    assert (two ** -1) == t.from_int(3)
    assert two * t.from_int(3) == t.one
    with pytest.raises(ZeroDivisionError):
        t.one / t.zero


def test_common_denominator_example():
    t = Tower(Q, ("w",))
    w = t.gen("w")
    assert w / (1 + w) + t.one / (1 + w) == t.one


def test_powers_example():
    t = Tower(F5, ("w",))
    w = t.gen("w")
    assert w ** 3 * w ** 3 == w ** 6
    assert str(w ** 6) == "w^6"


def test_canonical_form_is_stable():
    t = Tower(F5, ("u3",))
    u = t.gen("u3")
    a = (u ** 2 + 1) / (2 * u + 1)
    b = (u + 2) / t.from_int(2)
    # same element reached by different routes compares equal
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) == str(b)
    # monic denominator: scalar denominators are absorbed
    assert str(b) == "3*u3 + 1"


def test_membership_examples():
    t = Tower(F5, ("w",))
    assert t.from_int(3).is_in_subfield(frozenset())
    assert (t.gen("w") ** 3).is_in_subfield({"w"})
    assert not t.gen("w").is_in_subfield(frozenset())


def test_membership_after_cancellation():
    t = Tower(Q, ("w",))
    w = t.gen("w")
    x = (w ** 2 - 1) / (w - 1) - w  # reduces to 1
    assert x == t.one
    assert x.symbols_used() == frozenset()
    assert x.is_in_subfield(frozenset())


def test_membership_monotone():
    t = Tower(F5, ("u3", "u4"))
    x = t.gen("u3") + t.gen("u4")
    assert not x.is_in_subfield({"u3"})
    assert x.is_in_subfield({"u3", "u4"})
    assert x.is_in_subfield({"u3", "u4", "u5"})


def test_degree_in():
    t = Tower(F5, ("u", "v"))
    x = (t.gen("u") ** 2 + t.gen("v")) / (t.gen("v") ** 3 + 1)
    assert x.degree_in("u") == 2
    assert x.degree_in("v") == 3
    assert t.one.degree_in("u") == 0


def test_as_symbol_monomial():
    t = Tower(F5, ("u", "v"))
    u, v = t.gen("u"), t.gen("v")
    scalar, exps = (t.from_int(3) * u ** 6 / v).as_symbol_monomial()
    assert scalar == t.from_int(3)
    assert exps == {"u": 6, "v": -1}
    scalar, exps = t.from_int(2).as_symbol_monomial()
    assert scalar == t.from_int(2) and exps == {}
    assert (u + 1).as_symbol_monomial() is None


@pytest.mark.parametrize("ground", [F5, Q], ids=str)
def test_monomial_route_agrees_with_fraction_route(ground):
    # the left element of each pair is reached through a fraction-field
    # cancellation, the right one through scalar-monomial arithmetic
    # only (or, for u + 1, through a sum); both are one representation
    t = Tower(ground, ("u", "v"))
    u, v = t.gen("u"), t.gen("v")
    pairs = [
        ((u ** 2 + u) / (u + 1), u),
        (t.from_int(6) / t.from_int(3), t.from_int(2)),
        ((u ** 2 + u) / (2 * u + 2), u / 2),
        (3 * (u * v + u) / (v ** 3 + v ** 2), t.from_int(3) * u / v ** 2),
        ((u ** 2 * v + v) / (u ** 5 + u ** 3), v * u ** -3),
        ((u + 1) / (u + 1), t.one),
        ((u + v) - v - u, t.zero),
        ((u ** 2 - 1) / (u - 1), u + 1),
    ]
    for slow, fast in pairs:
        assert slow == fast
        assert hash(slow) == hash(fast)
        assert str(slow) == str(fast)
        assert slow.weight == fast.weight
        assert slow.symbols_used() == fast.symbols_used()
        assert slow.degree_in("u") == fast.degree_in("u")
        assert slow.degree_in("v") == fast.degree_in("v")
        assert slow.as_symbol_monomial() == fast.as_symbol_monomial()
        assert (slow.is_zero, slow.is_one) == (fast.is_zero, fast.is_one)
        assert t.parse(str(fast)) == slow
    assert str(3 * u / v ** 2) == "3*u/v^2"
    assert (3 * u / v ** 2).weight == 2
    assert (3 * u / v ** 2).degree_in("v") == 2
    assert t.zero.weight == 1 and t.zero.as_symbol_monomial() is None
    assert (u + 1).weight == 3 and (u + 1).as_symbol_monomial() is None


def _random_elem(rng, tower, depth=0):
    names = tower.symbols
    c = rng.randint(-4, 4)
    x = tower.from_int(c)
    for name in names:
        if rng.random() < 0.6:
            x = x + tower.gen(name) ** rng.randint(1, 3) * rng.randint(-3, 3)
    if depth < 1 and rng.random() < 0.35:
        d = _random_elem(rng, tower, depth + 1)
        if not d.is_zero:
            x = x / d
    return x


@pytest.mark.parametrize("ground", [F5, Q], ids=str)
def test_field_axioms_random(ground):
    rng = random.Random(493759)
    t = Tower(ground, ("u", "v"))
    for _ in range(260):
        a = _random_elem(rng, t)
        b = _random_elem(rng, t)
        c = _random_elem(rng, t)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == t.zero
        if not a.is_zero:
            assert a * (a ** -1) == t.one
        assert a + b == b + a
        assert a * b == b * a


@pytest.mark.parametrize("ground", [F5, Q], ids=str)
def test_str_parse_round_trip_random(ground):
    rng = random.Random(825461)
    t = Tower(ground, ("u3", "w1"))
    for _ in range(120):
        x = _random_elem(rng, t)
        assert t.parse(str(x)) == x


def test_parse_examples():
    t = Tower(F5, ("u3",))
    assert t.parse("3") == t.from_int(3)
    assert t.parse("u3^3") == t.gen("u3") ** 3
    assert t.parse("(u3+1)*(u3-1)") == t.gen("u3") ** 2 - 1
    assert t.parse("1/(1+u3) + u3/(1+u3)") == t.one
    assert t.parse("-u3^2") == -(t.gen("u3") ** 2)
    assert t.parse("u3^(-2)") == t.gen("u3") ** -2
    assert t.parse("2^10") == t.from_int(1024)

    tq = Tower(Q, ())
    assert tq.parse("3/2 - 1/2") == tq.from_int(1)


def test_parse_errors_carry_positions():
    t = Tower(F5, ("u3",))
    with pytest.raises(ParseError) as err:
        t.parse("u3 + u4")
    assert err.value.pos == 5
    with pytest.raises(ParseError):
        t.parse("")
    with pytest.raises(ParseError):
        t.parse("1 + ")
    with pytest.raises(ParseError):
        t.parse("(1 + 2")
    with pytest.raises(ParseError):
        t.parse("2 ? 3")
    with pytest.raises(ParseError):
        t.parse("1/0")
    with pytest.raises(ParseError):
        t.parse("u3^u3")


def test_cross_tower_operations_rejected():
    a = Tower(F5, ("u",)).gen("u")
    b = Tower(F5, ("v",)).gen("v")
    with pytest.raises(CoeffError):
        a + b


def test_characteristic_collapse():
    t = Tower(F5, ("w",))
    assert t.from_int(5).is_zero
    assert (t.gen("w") * 5).is_zero
    assert t.from_int(7) == t.from_int(2)


@pytest.mark.parametrize("ground", [Q, F5, GroundField.prime(7)], ids=str)
def test_from_fraction_is_the_quotient_of_ints(ground):
    t = Tower(ground, ("w",))
    args = [0, 1, -1, 3, -12, 7, Fraction(-9, 4), "10/6", "-35/14", "22/7",
            "0/9"]
    args += ["%d/%d" % (n, d) for n in range(-8, 9) for d in range(1, 9)]
    for arg in args:
        q = Fraction(arg)
        den = t.from_int(q.denominator)
        if den.is_zero:
            with pytest.raises(ZeroDivisionError):
                t.from_fraction(arg)
            continue
        got, want = t.from_fraction(arg), t.from_int(q.numerator) / den
        assert got == want, arg
        assert type(got.scalar) is type(want.scalar), arg


def _random_poly(rng, tower):
    u, v = tower.gen("u"), tower.gen("v")
    x = tower.zero
    for _ in range(rng.randint(1, 3)):
        x = x + rng.randint(-4, 4) * u ** rng.randint(0, 3) \
            * v ** rng.randint(0, 3)
    return x


def _random_fraction(rng, tower):
    """A reduced fraction that is not a scalar times a monomial."""
    while True:
        den = _random_poly(rng, tower)
        if den.is_zero:
            continue
        x = _random_poly(rng, tower) / den
        if x.scalar is None:
            return x


def _random_scalar_monomial(rng, tower):
    m = tower.from_int(rng.randint(-4, 4))
    for name in tower.symbols:
        m = m * tower.gen(name) ** rng.randint(-3, 3)
    return m


@pytest.mark.parametrize("ground", [F5, Q], ids=str)
def test_fraction_times_monomial_agrees_with_fraction_route(ground):
    # the product of a fraction and a scalar-monomial skips FracField;
    # it must land on the representation that sympy's cancellation
    # followed by the tower's normalization gives
    t = Tower(ground, ("u", "v"))
    u, v = t.gen("u"), t.gen("v")
    x = (u ** 2 + u * v) / (v ** 2 + v * u ** 3)
    assert x * (u ** -1 * v) == (u + v) / (v + u ** 3)
    assert str(x * (3 * v ** -2)) == "(3*u^2 + 3*u*v)/(u^3*v^3 + v^4)"
    rng = random.Random(606217)
    for _ in range(300):
        x = _random_fraction(rng, t)
        m = _random_scalar_monomial(rng, t)
        want = t._make(x.raw * m.raw)
        for got in (x * m, m * x):
            assert got == want
            assert hash(got) == hash(want)
            assert str(got) == str(want)
            assert got.weight == want.weight
            assert got.symbols_used() == want.symbols_used()


@pytest.mark.parametrize("ground", [F5, Q], ids=str)
def test_fraction_times_monomial_runs_no_gcd(ground, monkeypatch):
    from sympy.polys.rings import PolyElement

    rng = random.Random(70001)
    t = Tower(ground, ("u", "v"))
    pairs = [(_random_fraction(rng, t), _random_scalar_monomial(rng, t))
             for _ in range(100)]
    calls = []
    cancel = PolyElement.cancel

    def counting_cancel(f, g, *args, **kwargs):
        calls.append(1)
        return cancel(f, g, *args, **kwargs)

    monkeypatch.setattr(PolyElement, "cancel", counting_cancel)
    for x, m in pairs:
        x * m
        m * x
    assert not calls
    pairs[0][0] * pairs[1][0]
    assert calls


def _random_laurent(rng, tower, lo=1, hi=4):
    """A sum of `lo`..`hi` terms c * u^i * v^j with exponents -3..3."""
    x = tower.zero
    for _ in range(rng.randint(lo, hi)):
        m = tower.from_int(rng.randint(1, 9))
        for name in tower.symbols:
            m = m * tower.gen(name) ** rng.randint(-3, 3)
        x = x + m
    return x


def _assert_same(got, want):
    assert got == want
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert got.weight == want.weight
    assert got.symbols_used() == want.symbols_used()
    for name in got.tower.symbols:
        assert got.degree_in(name) == want.degree_in(name)


@pytest.mark.parametrize("ground", [F5, Q], ids=str)
def test_laurent_route_agrees_with_fraction_route(ground):
    # Laurent sums, products, powers and quotients by one-term elements
    # run on plain scalars; each must land on the representation that
    # sympy's FracField followed by the tower's normalization gives
    t = Tower(ground, ("u", "v"))
    rng = random.Random(818143)
    for _ in range(150):
        x = _random_laurent(rng, t)
        y = _random_laurent(rng, t)
        m = _random_laurent(rng, t, 1, 1)
        _assert_same(x + y, t._make(x.raw + y.raw))
        _assert_same(x - y, t._make(x.raw - y.raw))
        _assert_same(x * y, t._make(x.raw * y.raw))
        _assert_same(-x, t._make(-x.raw))
        if not m.is_zero:
            _assert_same(x / m, t._make(x.raw / m.raw))
        if x.is_zero:
            continue
        for e in (1, 2, 3, -1, -2, -3):
            _assert_same(x ** e, t._make(x.raw ** e))


@pytest.mark.parametrize("ground", [F5, Q], ids=str)
def test_laurent_arithmetic_runs_no_gcd(ground, monkeypatch):
    from sympy.polys.rings import PolyElement

    rng = random.Random(52711)
    t = Tower(ground, ("u", "v"))
    pairs = [(_random_laurent(rng, t), _random_laurent(rng, t))
             for _ in range(100)]
    monos = [_random_laurent(rng, t, 1, 1) for _ in range(100)]
    calls = []
    cancel = PolyElement.cancel

    def counting_cancel(f, g, *args, **kwargs):
        calls.append(1)
        return cancel(f, g, *args, **kwargs)

    monkeypatch.setattr(PolyElement, "cancel", counting_cancel)
    for (x, y), m in zip(pairs, monos):
        x + y
        x - y
        x * y
        x ** 3
        if not m.is_zero:
            x / m
    assert not calls
    x, y = pairs[0]
    (x + 1) / (y * y + 2)
    assert calls
