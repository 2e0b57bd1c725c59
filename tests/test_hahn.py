"""Stream tests: frozen end-to-end values for the worked
four-variable example, an independent truncated sparse-polynomial
oracle for add/mul, and seeded property loops for the valuation laws.
"""

import random

import pytest

from monoval import hahn
from monoval.coeff import GroundField, Tower
from monoval.errors import InconclusiveError
from monoval.hahn import (
    APFamily,
    Budget,
    FiniteTerms,
    HahnStream,
    NoLimitError,
    add,
    eval_poly,
    first_terms,
    inverse,
    leading_term,
    monomial_image,
    mul,
    neg,
    nu_t,
    scale,
    stream_pow,
    sub,
    subtract_segment_limit,
    term_mul,
)
from monoval.lexgroup import INFINITY, vadd

F5U = Tower(GroundField.prime(5), ("u3",))
Q2 = Tower(GroundField.rationals())

BIG = Budget(max_terms=2000)


def fam_int_i(tower):
    """Sum of i * t^(0,0,i): coefficient rule with e=1, r=1."""
    return APFamily((0, 0, 1), (0, 0, 1), tower.one, 1, tower.one, None)


def fam_u3_cubed(tower, start=(0, 0, 3)):
    """Sum of u3^(3i) * t^(start + (i-1)(0,0,3)): e=0, r=u3^3."""
    u3 = tower.gen("u3")
    return APFamily(tuple(start), (0, 0, 3), tower.one, 0, u3 ** 3, None)


def example_images(tower):
    """The four input streams of the worked example over F5(u3)."""
    u3 = tower.gen("u3")
    one = tower.one
    x1 = HahnStream.single((0, 0, 1), one)
    x2 = HahnStream((fam_int_i(tower),
                     FiniteTerms((((0, 1, 0), one),))))
    x3 = HahnStream.single((0, 0, 1), u3)
    x4 = HahnStream((fam_u3_cubed(tower),
                     FiniteTerms((((1, 0, 0), one),))))
    return [x1, x2, x3, x4]


# ---------------------------------------------------------------- nu_t

def test_nu_family_plus_term():
    s = HahnStream((fam_int_i(F5U), FiniteTerms((((0, 1, 0), F5U.one),))))
    assert nu_t(s) == (0, 0, 1)


def test_nu_empty_stream_is_infinite():
    assert nu_t(HahnStream(())) is INFINITY


def test_nu_single_u3_term():
    s = HahnStream.single((0, 0, 1), F5U.gen("u3"))
    assert nu_t(s) == (0, 0, 1)
    assert leading_term(s) == ((0, 0, 1), F5U.gen("u3"))


def test_nu_after_full_symbolic_cancellation():
    s = HahnStream((fam_int_i(F5U),))
    z = add(s, neg(s))
    assert z.is_structurally_zero
    assert nu_t(z) is INFINITY


# ---------------------------------------------------------- arithmetic

def test_single_term_product():
    a = HahnStream.single((0, 0, 1), Q2.one)
    b = HahnStream.single((1, 0, -2), Q2.one)
    p = mul(a, b)
    assert first_terms(p, 2) == [((1, 0, -1), Q2.one)]
    assert p.cert is INFINITY


def test_family_cancellation_leaves_term():
    s = HahnStream((fam_int_i(F5U), FiniteTerms((((0, 1, 0), F5U.one),))))
    d = sub(s, HahnStream((fam_int_i(F5U),)))
    assert first_terms(d, 3) == [((0, 1, 0), F5U.one)]


def test_add_merges_equal_exponents():
    a = HahnStream.single((0, 2), Q2.from_int(3))
    b = HahnStream((FiniteTerms((((0, 2), Q2.from_int(-3)),
                                 ((1, 0), Q2.one))),))
    s = add(a, b)
    assert first_terms(s, 5) == [((1, 0), Q2.one)]


def test_scale_and_neg():
    s = HahnStream((fam_int_i(F5U),))
    two = F5U.from_int(2)
    doubled = scale(s, two)
    assert first_terms(doubled, 3, BIG) == [
        ((0, 0, 1), two),
        ((0, 0, 2), F5U.from_int(4)),
        ((0, 0, 3), F5U.from_int(6)),
    ]
    assert scale(s, F5U.zero).is_structurally_zero
    back = add(doubled, neg(doubled))
    assert back.is_structurally_zero


def test_char5_skips_vanishing_family_coefficients():
    s = HahnStream((fam_int_i(F5U),))
    terms = first_terms(s, 6, BIG)
    exps = [t[0] for t in terms]
    assert exps == [(0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 0, 4),
                    (0, 0, 6), (0, 0, 7)]
    assert all(not c.is_zero for _, c in terms)


def test_bounded_family_expands_to_finite_terms():
    fam = APFamily((0, 1), (0, 1), Q2.one, 1, Q2.one, 4)
    s = HahnStream((fam,))
    assert len(s.segments) == 1
    assert isinstance(s.segments[0], FiniteTerms)
    assert first_terms(s, 10) == [
        ((0, 1), Q2.from_int(1)),
        ((0, 2), Q2.from_int(2)),
        ((0, 3), Q2.from_int(3)),
        ((0, 4), Q2.from_int(4)),
    ]


def test_family_advanced_matches_enumeration():
    fam = fam_int_i(Q2)
    head, tails = fam.advanced()
    assert head == ((0, 0, 1), Q2.one)
    rest = HahnStream(tuple(tails))
    want = first_terms(HahnStream((fam,)), 8, BIG)[1:]
    assert first_terms(rest, 7, BIG) == want


# ------------------------------------------------------ monomial_image

def test_monomial_image_pure_power():
    imgs = [HahnStream.single((0, 0, 1), Q2.one) for _ in range(4)]
    s = monomial_image((4, 0, 0, 0), imgs)
    assert first_terms(s, 2) == [((0, 0, 4), Q2.one)]


def test_monomial_image_identity_exponent():
    imgs = [HahnStream.single((0, 0, 1), Q2.one),
            HahnStream.single((0, 1, 0), Q2.one)]
    s = monomial_image((1, 0), imgs)
    assert first_terms(s, 2) == [((0, 0, 1), Q2.one)]


def test_monomial_image_negative_exponent_example():
    imgs = example_images(F5U)
    s = monomial_image((-2, 0, 0, 1), imgs)
    assert nu_t(s, BIG) == (0, 0, 1)
    u3 = F5U.gen("u3")
    assert first_terms(s, 3, BIG) == [
        ((0, 0, 1), u3 ** 3),
        ((0, 0, 4), u3 ** 6),
        ((0, 0, 7), u3 ** 9),
    ]


# ---------------------------------------------------- segment limits

def test_limit_step_on_second_variable_image():
    s = HahnStream((fam_int_i(F5U), FiniteTerms((((0, 1, 0), F5U.one),))))
    rest = subtract_segment_limit(s, fam_int_i(F5U))
    assert nu_t(rest) == (0, 1, 0)


def test_limit_step_on_fourth_variable_image():
    u3 = F5U.gen("u3")
    fam = fam_u3_cubed(F5U, start=(0, 0, 1))
    s = HahnStream((fam, FiniteTerms((((1, 0, -2), F5U.one),))))
    rest = subtract_segment_limit(s, fam)
    assert nu_t(rest) == (1, 0, -2)
    assert leading_term(rest) == ((1, 0, -2), F5U.one)


def test_limit_step_covering_whole_stream():
    fam = fam_int_i(F5U)
    s = HahnStream((fam,))
    rest = subtract_segment_limit(s, fam)
    assert rest.is_structurally_zero
    assert nu_t(rest) is INFINITY


def test_limit_step_rejects_absent_family():
    s = HahnStream((fam_int_i(F5U),))
    other = fam_u3_cubed(F5U)
    with pytest.raises(NoLimitError):
        subtract_segment_limit(s, other)


def test_limit_step_rejects_interleaved_segment():
    fam = fam_int_i(F5U)
    s = HahnStream((fam, FiniteTerms((((0, 0, 5), F5U.one),))))
    with pytest.raises(NoLimitError):
        subtract_segment_limit(s, fam)


def test_limit_step_rejects_bounded_family():
    fam = APFamily((0, 1), (0, 1), Q2.one, 1, Q2.one, 4)
    s = HahnStream((fam,))
    with pytest.raises(NoLimitError):
        subtract_segment_limit(s, fam)


# ------------------------------------------------------------ budgets

def test_term_budget_raises_inconclusive():
    s = HahnStream((fam_int_i(F5U),))
    tiny = Budget(max_terms=3)
    assert len(first_terms(s, 3, tiny)) == 3
    with pytest.raises(InconclusiveError,
                       match=r"term budget exhausted: 3 terms >= "
                             r"max_terms 3") as exc:
        first_terms(s, 4, tiny)
    assert exc.value.detail == {"budget": "max_terms", "used": 3,
                                "limit": 3}


def test_work_budget_names_its_counter():
    # the finite terms cancel the family's first 199 terms, so the
    # merge spins past 64 * max_terms candidates without a result
    one = F5U.one
    s = HahnStream((FiniteTerms(tuple(((0, i), -one)
                                      for i in range(1, 200))),
                    APFamily((0, 1), (0, 1), one, 0, one, None)))
    for _ in range(2):         # the second query stops without merging
        with pytest.raises(InconclusiveError,
                           match=r"enumeration work budget exhausted: "
                                 r"129 > 128 \(64 \* max_terms\)") as exc:
            nu_t(s, Budget(max_terms=2))
        assert exc.value.detail == {"budget": "work", "used": 129,
                                    "limit": 128}


def test_lex_ceiling_raises_inconclusive():
    s = HahnStream((fam_int_i(F5U),))
    capped = Budget(max_terms=50, lex_ceiling=(0, 0, 2))
    assert nu_t(s, capped) == (0, 0, 1)
    with pytest.raises(InconclusiveError, match="lex ceiling") as exc:
        first_terms(s, 4, capped)
    assert exc.value.detail == {"budget": "lex_ceiling", "used": (0, 0, 3),
                                "limit": (0, 0, 2)}


def test_cert_boundary_raises_inconclusive():
    s = HahnStream((fam_int_i(F5U),), cert=(0, 0, 4))
    assert first_terms(s, 3, BIG) == [
        ((0, 0, 1), F5U.one),
        ((0, 0, 2), F5U.from_int(2)),
        ((0, 0, 3), F5U.from_int(3)),
    ]
    with pytest.raises(InconclusiveError, match="certificate") as exc:
        first_terms(s, 4, BIG)
    assert exc.value.detail == {"budget": "certificate", "used": 3,
                                "limit": (0, 0, 4)}
    with pytest.raises(InconclusiveError):
        nu_t(HahnStream((fam_int_i(F5U),), cert=(0, 0, 1)))


# ----------------------------------------------------------- inverses

def test_inverse_single_term():
    u3 = F5U.gen("u3")
    s = HahnStream.single((0, 0, 2), u3)
    inv = inverse(s)
    assert first_terms(inv, 2) == [((0, 0, -2), u3 ** -1)]
    assert mul(s, inv).as_single_term() == ((0, 0, 0), F5U.one)


def test_inverse_binomial_is_exact_geometric_family():
    one = Q2.one
    s = HahnStream((FiniteTerms((((0, 0), one), ((0, 1), one))),))
    inv = inverse(s)
    assert inv.cert is INFINITY
    want = [((0, k), Q2.from_int((-1) ** k)) for k in range(6)]
    assert first_terms(inv, 6, BIG) == want
    prod = mul(s, inv, BIG)
    assert leading_term(prod, Budget(max_terms=500)) == ((0, 0), one)


def test_inverse_general_certified_prefix():
    one = Q2.one
    s = HahnStream((FiniteTerms((((0, 0), one), ((0, 1), one),
                                 ((0, 2), one))),))
    inv = inverse(s, Budget(max_terms=200))
    # 1/(1+z+z^2) = 1 - z + z^3 - z^4 + z^6 - ...
    want = {(0, 0): 1, (0, 1): -1, (0, 3): 1, (0, 4): -1, (0, 6): 1}
    got = dict(first_terms(inv, 5, BIG))
    assert got == {e: Q2.from_int(c) for e, c in want.items()}
    assert inv.cert is not INFINITY


def test_stream_pow_negative_single():
    s = HahnStream.single((0, 0, 1), Q2.from_int(2))
    p = stream_pow(s, -3)
    assert p.as_single_term() == ((0, 0, -3),
                                  Q2.one / Q2.from_int(8))


# ------------------------------------------- oracle and property loops

def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = vadd(ea, eb)
            c = out.get(e)
            c = ca * cb if c is None else c + ca * cb
            if c.is_zero:
                out.pop(e, None)
            else:
                out[e] = c
    return out


def _poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s.is_zero:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _random_coeff(rng, tower):
    while True:
        c = tower.from_int(rng.randint(-6, 6))
        if not c.is_zero:
            return c


def _family_expansion(fam, depth):
    """The first `depth` nonzero terms of the family's closed form
    c * r^i * i^e, expanded here rather than by the code under test,
    and the exponent of the next index: the bound below which they
    are complete."""
    def at(i):
        return tuple(s + (i - 1) * d for s, d in zip(fam.start, fam.step))

    tower = fam.c.tower
    terms = {}
    i = 1
    while len(terms) < depth:
        co = fam.c * fam.r ** i * tower.from_int(i) ** fam.e
        if not co.is_zero:
            terms[at(i)] = co
        i += 1
    return terms, at(i)


def _random_stream(rng, tower, rank=2, allow_family=True):
    """A random stream plus its exact expansion and the exponent bound
    below which the expansion is complete."""
    segs = []
    expansion = {}
    bound = INFINITY
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randint(-3, 4) for _ in range(rank))
        co = _random_coeff(rng, tower)
        expansion = _poly_add(expansion, {exp: co})
    segs.append(FiniteTerms(tuple(sorted(expansion.items()))))
    if allow_family and rng.random() < 0.35:
        start = tuple(rng.randint(-2, 3) for _ in range(rank))
        step = [0] * rank
        step[rng.randint(0, rank - 1)] = rng.randint(1, 2)
        fam = APFamily(start, tuple(step), _random_coeff(rng, tower),
                       rng.randint(0, 1), _random_coeff(rng, tower), None)
        segs.append(fam)
        terms, bound = _family_expansion(fam, 12)
        expansion = _poly_add(expansion, terms)
    return HahnStream(tuple(segs)), expansion, bound


def _terms_below(s, bound, budget):
    out = []
    k = 0
    while True:
        k += 1
        try:
            pref = first_terms(s, k, budget)
        except InconclusiveError:
            return out
        if bound is not INFINITY and pref and not (pref[-1][0] < bound):
            return [t for t in pref if t[0] < bound]
        out = list(pref)
        if len(pref) < k:
            return [t for t in out
                    if bound is INFINITY or t[0] < bound]


def _lmin(a, b):
    if a is INFINITY:
        return b
    if b is INFINITY:
        return a
    return min(a, b)


def test_addition_matches_sparse_oracle():
    rng = random.Random(314159)
    for _ in range(150):
        tower = F5U if rng.random() < 0.5 else Q2
        a, ea, ba = _random_stream(rng, tower)
        b, eb, bb = _random_stream(rng, tower)
        s = add(a, b)
        bound = _lmin(ba, bb)
        want = sorted((e, c) for e, c in _poly_add(ea, eb).items()
                      if bound is INFINITY or e < bound)
        assert _terms_below(s, bound, BIG) == want


def test_multiplication_matches_sparse_oracle():
    rng = random.Random(271828)
    for _ in range(120):
        tower = F5U if rng.random() < 0.5 else Q2
        a, ea, ba = _random_stream(rng, tower)
        b, eb, bb = _random_stream(rng, tower)
        if not ea or not eb:
            continue
        p = mul(a, b, Budget(max_terms=64))
        bound = INFINITY
        if ba is not INFINITY:
            bound = _lmin(bound, vadd(ba, min(eb)))
        if bb is not INFINITY:
            bound = _lmin(bound, vadd(bb, min(ea)))
        if p.cert is not INFINITY:
            bound = _lmin(bound, p.cert)
        want = sorted((e, c) for e, c in _poly_mul(ea, eb).items()
                      if bound is INFINITY or e < bound)
        assert _terms_below(p, bound, BIG) == want


def _product_with_family(finite, fam):
    """a * b for a finite stream a and a one-family stream b, checked
    term by term against the sparse oracle below the bound where the
    expansion of the family stops being complete."""
    eb, bb = _family_expansion(fam, 12)
    a = HahnStream((FiniteTerms(tuple(sorted(finite.items()))),))
    p = mul(a, HahnStream((fam,)), Budget(max_terms=64))
    bound = vadd(bb, min(finite))
    want = sorted((e, c) for e, c in _poly_mul(finite, eb).items()
                  if e < bound)
    assert _terms_below(p, bound, BIG) == want
    return p


def test_shifted_families_cancel_to_an_exact_end():
    # two shifted copies 2*4^i of one family cancel from their second
    # term on (2*4^(i+1) + 2*4^i = 0 mod 5); aligned, the product is a
    # single term and enumeration ends well inside a tiny work budget
    one = F5U.one
    fam = APFamily((-2, 3), (0, 1), F5U.from_int(2), 0, F5U.from_int(4),
                   None)
    p = _product_with_family({(-3, 1): one, (-3, 2): one}, fam)
    assert p.as_single_term() == ((-5, 4), F5U.from_int(3))
    assert first_terms(p, 2, Budget(max_terms=4)) == [
        ((-5, 4), F5U.from_int(3))]


def test_shifted_index_power_families_partly_cancel():
    # i*2^i minus 2 times its copy one step on: the i*2^i parts cancel
    # and 2^i is left, after the head term of the earlier copy
    two = F5U.from_int(2)
    fam = APFamily((0, 1), (0, 1), F5U.one, 1, two, None)
    p = _product_with_family({(0, 0): F5U.one, (0, 1): -two}, fam)
    assert p.segments == (FiniteTerms((((0, 1), two),)),
                          APFamily((0, 2), (0, 1), two, 0, two, None))


def test_families_two_steps_apart_partly_cancel_over_q():
    # 3*i*(1/2)^i minus 1/4 of its copy two steps on: the re-indexed
    # (j+2)*(1/2)^(j+2) leaves two head terms and a 3/2*(1/2)^j family
    half = Q2.from_fraction("1/2")
    three_halves = Q2.from_fraction("3/2")
    fam = APFamily((0, 0), (1, 0), Q2.from_int(3), 1, half, None)
    p = _product_with_family({(0, 0): Q2.one,
                              (2, 0): -Q2.from_fraction("1/4")}, fam)
    assert p.segments == (
        FiniteTerms((((0, 0), three_halves), ((1, 0), three_halves))),
        APFamily((2, 0), (1, 0), three_halves, 0, half, None))


def test_mul_by_a_factor_that_is_zero_below_its_certificate():
    one = Q2.one
    zero = HahnStream(())
    hidden = HahnStream((), (0, 5))
    pair = HahnStream((FiniteTerms((((1, 0), one), ((1, 1), one))),))
    family = HahnStream((FiniteTerms((((0, 0), one),)),
                         APFamily((0, 1), (0, 1), one, 0, Q2.from_int(2))))
    for other in (pair, hidden, family, HahnStream.single((3, 1), one)):
        for p in (mul(zero, other), mul(other, zero)):
            assert p.is_structurally_zero and p.cert is INFINITY
    for p in (mul(hidden, pair), mul(pair, hidden)):
        assert p.is_structurally_zero and p.cert == (1, 5)
    assert mul(hidden, HahnStream((), (2, 0))).cert == (2, 5)
    p = mul(HahnStream.single((3, 1), one), hidden)
    assert p.is_structurally_zero and p.cert == (3, 6)
    p = mul(family, hidden)
    assert p.is_structurally_zero and p.cert == (0, 5)


def test_family_box_certificate_counts_nonzero_terms():
    # over F5 the index rule i * 2^i vanishes at i = 5, 10, ...: the
    # 12th nonzero term is index 14, so the box of 12 terms a side is
    # certified below (0,15) + (1,0); with max_terms 5 the sixth product
    # exponent, (1,6), is the first one cut
    fa = APFamily((0, 1), (0, 1), F5U.one, 1, F5U.from_int(2))
    fb = APFamily((1, 0), (0, 2), F5U.from_int(3), 2, F5U.gen("u3"))
    a, b = HahnStream((fa,)), HahnStream((fb,))
    assert mul(a, b).cert == (1, 15)
    p = mul(a, b, Budget(max_terms=5))
    assert p.cert == (1, 6)
    assert len(first_terms(p, 5)) == 5


def test_heavy_ratio_family_is_cut_to_a_short_prefix(monkeypatch):
    # a ratio that is not a monomial quotient makes each further term
    # cost a growing gcd, so the product keeps 8 terms of the family
    # and is certified below the ninth; without that cut it stays exact
    qu = Tower(GroundField.rationals(), ("u",))
    u = qu.gen("u")
    fam = HahnStream((APFamily((0, 1), (0, 1), qu.one, 0,
                               (u + qu.one) / (u + qu.from_int(2))),))
    one_plus = HahnStream((FiniteTerms((((0, 0), qu.one),
                                        ((1, 0), qu.one))),))
    p = mul(fam, one_plus)
    assert p.cert == (0, 9)
    assert len(p.segments) == 1 and len(p.segments[0].terms) == 8
    monkeypatch.setattr(hahn, "_hostile", lambda seg: False)
    p = mul(fam, one_plus)
    assert p.cert is INFINITY
    assert [type(seg) for seg in p.segments] == [APFamily, APFamily]


def test_nu_of_product_is_sum_of_nus():
    rng = random.Random(161803)
    checked = 0
    while checked < 500:
        tower = F5U if rng.random() < 0.5 else Q2
        a, ea, _ = _random_stream(rng, tower, allow_family=rng.random() < 0.3)
        b, eb, _ = _random_stream(rng, tower, allow_family=rng.random() < 0.3)
        if not ea or not eb:
            continue
        na, nb = nu_t(a, BIG), nu_t(b, BIG)
        p = mul(a, b, Budget(max_terms=48))
        assert nu_t(p, BIG) == vadd(na, nb)
        checked += 1


def test_nu_of_sum_ultrametric():
    rng = random.Random(577215)
    for _ in range(300):
        tower = F5U if rng.random() < 0.5 else Q2
        a, ea, _ = _random_stream(rng, tower)
        b, eb, _ = _random_stream(rng, tower)
        if not ea or not eb:
            continue
        na, nb = nu_t(a, BIG), nu_t(b, BIG)
        s = add(a, b)
        ns = nu_t(s, BIG)
        if ns is not INFINITY:
            assert not (ns < _lmin(na, nb))
        if na != nb:
            assert ns == _lmin(na, nb)


def test_enumeration_strictly_increasing():
    rng = random.Random(141421)
    for _ in range(80):
        tower = F5U if rng.random() < 0.5 else Q2
        s, _, _ = _random_stream(rng, tower)
        terms = first_terms(s, 15, BIG)
        for t1, t2 in zip(terms, terms[1:]):
            assert t1[0] < t2[0]
        assert all(not c.is_zero for _, c in terms)


def test_inverse_roundtrip_certified_leading():
    rng = random.Random(662607)
    for _ in range(40):
        tower = F5U if rng.random() < 0.5 else Q2
        s, es, _ = _random_stream(rng, tower, allow_family=False)
        if not es:
            continue
        inv = inverse(s, Budget(max_terms=100))
        p = mul(s, inv, Budget(max_terms=400))
        rank = len(next(iter(es)))
        assert leading_term(p, BIG) == ((0,) * rank, tower.one)


def test_index_powers_congruent_mod_p_minus_1_are_one_family():
    # over F5, i^5 = i for every index i (both powers at least 1 and
    # equal mod 4), so these two families sum to exactly zero
    c, two = F5U.from_int(3), F5U.from_int(2)
    s = HahnStream((APFamily((0, 1), (0, 1), c, 5, two, None),
                    APFamily((0, 1), (0, 1), -c, 1, two, None)))
    assert s.is_structurally_zero
    assert first_terms(s, 1, Budget(max_terms=64)) == []
    # partners sum under the smaller power; a family without one keeps
    # its power, and i^0 is never a partner of i^4
    f5 = APFamily((0, 1), (0, 1), F5U.one, 5, two, None)
    f1 = APFamily((0, 1), (0, 1), two, 1, two, None)
    f4 = APFamily((0, 1), (0, 1), F5U.one, 4, two, None)
    f0 = APFamily((0, 1), (0, 1), F5U.one, 0, two, None)
    assert HahnStream((f5,)).segments == (f5,)
    assert HahnStream((f5, f1)).segments == (
        APFamily((0, 1), (0, 1), F5U.from_int(3), 1, two, None),)
    assert len(HahnStream((f4, f0)).segments) == 2
    for fams in ((f5, f1), (f5, f4, f0), (f1, f5.shifted((0, 2)))):
        expansion, bound = {}, INFINITY
        for fam in fams:
            terms, fbound = _family_expansion(fam, 10)
            expansion = _poly_add(expansion, terms)
            bound = _lmin(bound, fbound)
        want = sorted(t for t in expansion.items() if t[0] < bound)
        assert _terms_below(HahnStream(fams), bound, BIG) == want


def _fold(poly, image):
    """The add/scale fold that eval_poly replaces."""
    acc = HahnStream(())
    for exps, c in poly.items():
        acc = add(acc, scale(image(exps), c))
    return acc


def _nu_or_inconclusive(s):
    try:
        return nu_t(s, Budget(max_terms=64))
    except InconclusiveError:
        return "inconclusive"


def _assert_eval_poly_matches_fold(rng, images, tower, nvars, degree):
    cache = {}

    def image(exps):
        if exps not in cache:
            cache[exps] = monomial_image(exps, images, Budget(max_terms=64))
        return cache[exps]

    poly = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * nvars
        for _ in range(rng.randint(1, degree)):
            exps[rng.randrange(nvars)] += 1
        poly[tuple(exps)] = tower.from_int(rng.randint(-5, 5))
    got, want = eval_poly(poly, image), _fold(poly, image)
    assert got.segments == want.segments
    assert got.cert == want.cert
    assert _nu_or_inconclusive(got) == _nu_or_inconclusive(want)


def test_eval_poly_matches_add_scale_fold():
    rng = random.Random(55001)
    images = example_images(F5U)
    for _ in range(60):
        _assert_eval_poly_matches_fold(rng, images, F5U, 4, 3)
    for _ in range(60):
        tower = F5U if rng.random() < 0.5 else Q2
        a, _, _ = _random_stream(rng, tower)
        b, _, _ = _random_stream(rng, tower)
        _assert_eval_poly_matches_fold(rng, [a, b], tower, 2, 3)
