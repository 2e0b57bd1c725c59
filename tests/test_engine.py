"""Engine tests: frozen traces of the worked four-variable run
(preparation, both limit steps, the transcendental residue, final
assembly), the small two-variable flows, the error taxonomy, and the
recomposition property check.
"""

import random

import pytest

from monoval import engine, hahn
from monoval.cli import parse_spec
from monoval.coeff import GroundField, Tower
from monoval.engine import (
    CoordChange,
    EngineState,
    FamilyStep,
    Monoidal,
    TermStep,
    ValuationSpec,
    VerifyReport,
    monomialize,
    verify_monomial,
)
from monoval.errors import InconclusiveError, PurityError, StructureError
from monoval.hahn import (APFamily, Budget, FiniteTerms, HahnStream,
                          first_terms, nu_t)
from monoval.lexgroup import INFINITY, DimensionError, degree_L, lex_cmp

F5U = Tower(GroundField.prime(5), ("u3",))
Q = Tower(GroundField.rationals())
QU = Tower(GroundField.rationals(), ("u",))


def example_spec(max_steps=64):
    """The worked example: rank-3 valuation on k[[X1..X4]], k = F5,
    one transcendental residue u3 = X3/X1."""
    one = F5U.one
    u3 = F5U.gen("u3")
    x1 = HahnStream.single((0, 0, 1), one)
    x2 = HahnStream((APFamily((0, 0, 1), (0, 0, 1), one, 1, one, None),
                     FiniteTerms((((0, 1, 0), one),))))
    x3 = HahnStream.single((0, 0, 1), u3)
    x4 = HahnStream((APFamily((0, 0, 3), (0, 0, 3), one, 0, u3 ** 3, None),
                     FiniteTerms((((1, 0, 0), one),))))
    return ValuationSpec(tower=F5U, m=3, names=("X1", "X2", "X3", "X4"),
                         images=(x1, x2, x3, x4), symbols=("u3",),
                         max_steps=max_steps)


def two_var_spec(second_image, symbols=("u",), m=1, max_steps=64):
    return ValuationSpec(tower=QU, m=m, names=("X1", "X2"),
                         images=(HahnStream.single((1,), QU.one),
                                 second_image),
                         symbols=symbols, max_steps=max_steps)


# ------------------------------------------------------------ prepare

def test_prepare_example_one_monoidal():
    state = EngineState(example_spec())
    sb = state.prepare()
    assert list(state.log) == [Monoidal(3, 0, 2)]
    assert [nu_t(im) for im in state.images] == [(0, 0, 1)] * 4
    assert sb.basis == ((0, 0, 1),)


def test_prepare_already_basis_empty_log():
    imgs = tuple(HahnStream.single(tuple(int(k == i) for k in range(3)),
                                   Q.one) for i in range(3))
    spec = ValuationSpec(tower=Q, m=3, names=("X1", "X2", "X3"),
                         images=imgs)
    state = EngineState(spec)
    sb = state.prepare()
    assert len(state.log) == 0
    assert sb.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_prepare_2335_values_form_basis_of_z2():
    spec = ValuationSpec(tower=Q, m=2, names=("X1", "X2"),
                         images=(HahnStream.single((2, 3), Q.one),
                                 HahnStream.single((3, 5), Q.one)))
    state = EngineState(spec)
    sb = state.prepare()
    vals = [nu_t(im) for im in state.images]
    assert sorted(vals) == sorted(sb.basis)
    # (2,3) and (3,5) generate all of Z^2, so the basis must too
    assert sb.contains((1, 0)) and sb.contains((0, 1))
    for entry in state.log:
        assert isinstance(entry, Monoidal) and entry.q >= 1


def test_prepare_rejects_nonpositive_value():
    spec = ValuationSpec(tower=Q, m=1, names=("X1",),
                         images=(HahnStream.single((-1,), Q.one),))
    with pytest.raises(StructureError):
        EngineState(spec).prepare()


# ----------------------------------------------------------- discover

def test_discover_limit_step_hits_new_value():
    # variable X2: subtractions alpha_i = i align with the declared
    # family; the limit's remainder value (0,1,0) leaves the group
    state = EngineState(example_spec())
    state.prepare()
    assert state.discover(1) == "restart"
    cc = state.log[-1]
    assert isinstance(cc, CoordChange) and cc.j == 1
    assert cc.correction == (APFamily((1, 0, 0, 0), (1, 0, 0, 0),
                                      F5U.one, 1, F5U.one, None),)
    assert nu_t(state.images[1]) == (0, 1, 0)


def test_discover_residue_u3():
    state = EngineState(example_spec())
    state.prepare()
    state.discover(1)
    state.prepare()
    assert state.discover(2) == "settled"
    rec = state.settled[2]
    assert rec.kind == "residue"
    assert rec.symbol == "u3"
    assert rec.alpha == F5U.gen("u3")
    assert rec.denominator == (1, 0, 0, 0)
    assert rec.value == (0, 0, 1)
    assert rec.corrections == ()


def test_discover_second_limit_after_residue():
    state = EngineState(example_spec())
    state.prepare()
    state.discover(1)
    state.prepare()
    state.discover(2)
    assert state.discover(3) == "restart"
    cc = state.log[-1]
    assert isinstance(cc, CoordChange) and cc.j == 3
    u3 = F5U.gen("u3")
    assert cc.correction == (APFamily((1, 0, 0, 0), (3, 0, 0, 0),
                                      F5U.one, 0, u3 ** 3, None),)
    assert nu_t(state.images[3]) == (1, 0, -2)


def test_discover_finite_subtraction_then_residue():
    u = QU.gen("u")
    img = HahnStream((FiniteTerms((((1,), QU.one), ((2,), u))),))
    state = EngineState(two_var_spec(img))
    state.prepare()
    assert state.discover(1) == "settled"
    rec = state.settled[1]
    assert rec.symbol == "u" and rec.value == (2,)
    (step,) = rec.corrections
    assert isinstance(step, TermStep)
    assert step.alpha == QU.one and step.R == (1, 0) and step.B == (1,)


# -------------------------------------------------------- monomialize

def test_full_example_log_and_assembly():
    res = monomialize(example_spec())
    u3 = F5U.gen("u3")
    assert list(res.log) == [
        Monoidal(3, 0, 2),
        CoordChange(1, (APFamily((1, 0, 0, 0), (1, 0, 0, 0),
                                 F5U.one, 1, F5U.one, None),)),
        CoordChange(3, (APFamily((1, 0, 0, 0), (3, 0, 0, 0),
                                 F5U.one, 0, u3 ** 3, None),)),
    ]
    assert res.basis.basis == ((1, 0, -2), (0, 1, 0), (0, 0, 1))
    assert res.carriers == (3, 1, 0)
    assert res.final_L == ((0, 0, 1), (0, 1, 0), (0, 0, 1), (1, 0, 0))
    (r,) = res.residues
    assert r.symbol == "u3" and r.var == 2
    assert r.denominator == (1, 0, 0, 0) and r.alpha == u3
    kinds = [s.kind for s in res.settled]
    assert kinds == ["carrier", "carrier", "residue", "carrier"]


def test_full_example_psi_reproduces_the_input_series():
    spec = example_spec()
    res = monomialize(spec)
    for image, psi in zip(example_spec().images, res.psi):
        assert first_terms(psi, 10) == first_terms(image, 10)


def test_full_example_psi_chains_strictly_increase():
    res = monomialize(example_spec())
    for psi in res.psi:
        terms = first_terms(psi, 8)
        for a, b in zip(terms, terms[1:]):
            assert lex_cmp(a[0], b[0]) < 0


def test_monomialize_standard_basis_is_identity():
    imgs = tuple(HahnStream.single(tuple(int(k == i) for k in range(3)),
                                   Q.one) for i in range(3))
    spec = ValuationSpec(tower=Q, m=3, names=("X1", "X2", "X3"),
                         images=imgs)
    res = monomialize(spec)
    assert len(res.log) == 0
    assert res.residues == ()
    assert res.final_L == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_monomialize_immediate_residue():
    res = monomialize(two_var_spec(HahnStream.single((1,), QU.gen("u"))))
    assert len(res.log) == 0
    assert res.final_L == ((1,), (1,))
    (r,) = res.residues
    assert r.symbol == "u" and r.corrections == ()


def test_monomialize_subtraction_records_final_coordchange():
    u = QU.gen("u")
    img = HahnStream((FiniteTerms((((1,), QU.one), ((2,), u))),))
    res = monomialize(two_var_spec(img))
    assert list(res.log) == [
        CoordChange(1, (FiniteTerms((((1, 0), QU.one),)),))]
    assert res.final_L == ((1,), (2,))
    assert first_terms(res.psi[1], 3) == [((1,), QU.one), ((2,), u)]


def test_residue_count_matches_dimension():
    res = monomialize(example_spec())
    assert len(res.residues) == res.spec.n - res.spec.m == 1


# ------------------------------------------------------------- verify

def test_verify_final_variable_values():
    res = monomialize(example_spec())
    zetas = res.zetas
    assert [nu_t(z) for z in zetas] == list(res.final_L)
    # f = Z4 and f = Z1*Z3 from the worked example
    assert nu_t(zetas[3]) == (1, 0, 0)
    z1z3 = hahn.mul(zetas[0], zetas[2])
    assert nu_t(z1z3) == (0, 0, 2)
    assert degree_L((1, 0, 1, 0), res.final_L) == (0, 0, 2)


def test_verify_random_polynomials_over_f5():
    res = monomialize(example_spec())
    report = verify_monomial(res, degree=4, trials=200,
                             rng=random.Random(20240517))
    assert report.mismatches == ()
    assert report.checked >= 150
    assert report.ok


def test_verify_two_var_with_correction():
    u = QU.gen("u")
    img = HahnStream((FiniteTerms((((1,), QU.one), ((2,), u))),))
    res = monomialize(two_var_spec(img))
    report = verify_monomial(res, degree=3, trials=80,
                             rng=random.Random(7))
    assert report.mismatches == () and report.checked >= 50


def test_verify_rejects_out_of_range_arguments():
    res = monomialize(example_spec())
    with pytest.raises(ValueError, match="trials"):
        verify_monomial(res, trials=0)
    with pytest.raises(ValueError, match="degree"):
        verify_monomial(res, degree=0)


def test_verify_reports_a_wrong_final_value():
    res = monomialize(example_spec())
    final_L = list(res.final_L)
    assert final_L[1] == (0, 1, 0)
    final_L[1] = (0, 1, 1)
    report = verify_monomial(res.replace(final_L=tuple(final_L)),
                             rng=random.Random(1))
    assert not report.ok
    for bad in report.mismatches:
        assert bad["got"] != bad["expected"]
        assert any(exps[1] for exps in bad["poly"])


def test_verify_reports_images_whose_initial_forms_cancel(monkeypatch):
    # X1 and X3 share the value (0,0,1); with Z3's image replaced by
    # Z1's, f = X3 - X1 maps to zero, so its initial form cancels and
    # only the sum stream can tell its value
    res = monomialize(example_spec())
    assert res.final_L[0] == res.final_L[2]
    zetas = list(res.zetas)
    zetas[2] = zetas[0]
    bad_res = res.replace(zetas=tuple(zetas))
    streamed = []
    real_eval_poly = hahn.eval_poly

    def eval_poly(poly, image):
        streamed.append(poly)
        return real_eval_poly(poly, image)

    monkeypatch.setattr(hahn, "eval_poly", eval_poly)
    report = verify_monomial(bad_res, rng=random.Random(1))
    assert report.mismatches
    for bad in report.mismatches:
        assert bad["poly"] in streamed
        got = bad["got"]
        assert got is INFINITY or lex_cmp(got, bad["expected"]) > 0


# Specs shaped like the benchmark's family specs: a carrier, a limit
# family plus a term outside the carrier's group, a residue, and a
# family that needs a monoidal transformation first.
_FAMILY_SPECS = (
    """field prime 7
rank 3
vars X1 X2 X3 X4 X5
symbols u w
image X1 = terms[(0,0,1): 3]
image X2 = family[start=(0,0,1), step=(0,0,1), coeff=(2)*i^2*(5)^i, \
i=1..inf] + terms[(0,1,-1): 4]
image X3 = terms[(0,0,1): 6*u + 2]
image X4 = family[start=(0,0,2), step=(0,0,3), coeff=(4)*(3)^i*u^(2*i), \
i=1..inf] + terms[(1,0,2): 1]
image X5 = terms[(0,0,1): 5*w]
""",
    """field rationals
rank 3
vars X1 X2 X3 X4
symbols u
image X1 = terms[(0,0,1): 3/2]
image X2 = family[start=(0,0,1), step=(0,0,1), coeff=(2)*(-1)^i, \
i=1..inf] + terms[(0,1,0): 2]
image X3 = terms[(0,0,1): -1*u + 1/3]
image X4 = family[start=(0,0,2), step=(0,0,1), \
coeff=(-2/3)*i^1*(2/3)^i*u^(3*i), i=1..inf] + terms[(1,0,1): 3]
""",
    """field prime 5
rank 3
vars X1 X2 X3 X4
symbols u
image X1 = terms[(0,0,1): 2]
image X2 = family[start=(0,0,1), step=(0,0,1), coeff=(3)*i^1*(4)^i, \
i=1..inf] + terms[(0,1,2): 1]
image X3 = terms[(0,0,1): 2*u + 4]
image X4 = family[start=(0,0,3), step=(0,0,2), coeff=(1)*(2)^i, \
i=1..inf] + terms[(1,0,-2): 3]
""",
)


def _x1_for_x3(poly):
    """The polynomial with X1 substituted for X3."""
    out = {}
    for exps, c in poly.items():
        moved = (exps[0] + exps[2],) + exps[1:2] + (0,) + exps[3:]
        out[moved] = out.get(moved, c.tower.zero) + c
    return {e: c for e, c in out.items() if not c.is_zero}


def _packed(poly, columns):
    """poly {exps: c} in the sampler's form: each monomial's key, value
    and lead are the sums of its variables' columns, one add per
    occurrence of a variable, as the sampler adds them."""
    out = {}
    for exps, c in poly.items():
        key = value = lead = 0
        for a, (k, v, e) in zip(exps, columns):
            for _ in range(a):
                key += k
                value += v
                lead += e
        out[key] = (c, value, lead)
    return out


def test_leading_term_value_matches_the_sum_stream():
    # each result twice: as monomialized, and with Z3's image replaced
    # by Z1's (they share the value (0,0,1)), checked on f - f(X3 := X1),
    # which maps to zero there, so its initial form must cancel
    results = [monomialize(example_spec())]
    for text in _FAMILY_SPECS:
        results.append(monomialize(parse_spec(text).spec))
    rng = random.Random(20261018)
    decided = 0
    for res in results:
        budget = res.spec.budget
        tower = res.spec.tower
        n = res.spec.n
        zetas = list(res.zetas)
        zetas[2] = zetas[0]
        for images, cancel in ((res.zetas, False), (tuple(zetas), True)):
            leads = engine._image_leads(images, budget)
            assert leads is not None
            lead_exps = [e for e, _ in leads]
            # exponents 0..2 per variable: total degree at most 2n
            columns, width, base = engine._packing(res.final_L, lead_exps,
                                                   2 * n, None)

            def expand(key):
                return engine._exponents(key, base, n)

            for _ in range(60):
                poly = {}
                for _ in range(rng.randint(1, 4)):
                    exps = tuple(rng.randint(0, 2) for _ in range(n))
                    c = tower.from_int(rng.randint(1, 6))
                    poly[exps] = poly.get(exps, tower.zero) + c
                poly = {e: c for e, c in poly.items() if not c.is_zero}
                if cancel:
                    gone = _x1_for_x3(poly)
                    for exps, c in gone.items():
                        poly[exps] = poly.get(exps, tower.zero) - c
                    poly = {e: c for e, c in poly.items() if not c.is_zero}
                if not poly:
                    continue
                packed = _packed(poly, columns)
                assert [expand(key) for key in packed] == list(poly)
                for key, (_, value, lead) in packed.items():
                    exps = expand(key)
                    assert value == engine._pack(
                        degree_L(exps, res.final_L), width)
                    exp, lc = hahn.leading_term(
                        hahn.monomial_image(exps, images, budget), budget)
                    assert lead == engine._pack(exp, width)
                    assert lc == engine._lead_coefficient(tower.one, exps,
                                                          leads)
                value, lead = engine._least(packed, expand, leads)
                assert value == engine._pack(
                    min(degree_L(e, res.final_L) for e in poly), width)
                stream = hahn.eval_poly(
                    poly, lambda e: hahn.monomial_image(e, images, budget))
                if cancel:
                    assert lead is None and nu_t(stream, budget) is INFINITY
                elif lead is not None:
                    decided += 1
                    got = nu_t(stream, budget)
                    assert got == min(degree_L(e, lead_exps) for e in poly)
                    assert lead == engine._pack(got, width)
    assert decided >= 200


def _reference_verify(result, degree, trials, rng):
    """verify_monomial as first written, kept as the oracle for the
    fast loop: draws with rng.randint, builds each monomial's leading
    term as a product of powers, and takes nu_t of every sampled
    polynomial from its sum stream."""
    budget = result.spec.budget
    n = result.spec.n
    tower = result.spec.tower
    leads = [hahn.leading_term(z, budget) for z in result.zetas]
    images = {}

    def image(exps):
        if exps not in images:
            images[exps] = hahn.monomial_image(exps, result.zetas, budget)
        return images[exps]

    mismatches = []
    inconclusive = 0
    checked = 0
    for _ in range(trials):
        nmono = rng.randint(1, 4)
        poly = {}
        for _ in range(nmono):
            total = rng.randint(1, degree)
            exps = [0] * n
            for _ in range(total):
                exps[rng.randint(0, n - 1)] += 1
            c = tower.from_int(rng.randint(-5, 5))
            if c.is_zero:
                continue
            key = tuple(exps)
            s = c if key not in poly else poly[key] + c
            if s.is_zero:
                poly.pop(key, None)
            else:
                poly[key] = s
        if not poly:
            continue
        expect = min(degree_L(exps, result.final_L) for exps in poly)
        try:
            got = nu_t(hahn.eval_poly(poly, image), budget)
        except InconclusiveError:
            inconclusive += 1
            continue
        low = total = None
        for exps, c in poly.items():
            exp, lc = (0,) * result.spec.m, tower.one
            for a, (e, lc_i) in zip(exps, leads):
                exp = tuple(x + a * y for x, y in zip(exp, e))
                lc = lc * lc_i ** a
            if low is None or exp < low:
                low, total = exp, lc * c
            elif exp == low:
                total = total + lc * c
        if not total.is_zero:
            assert got == low
        checked += 1
        if got != expect:
            mismatches.append({"poly": poly, "expected": expect,
                               "got": got})
    return VerifyReport(checked=checked, mismatches=tuple(mismatches),
                        inconclusive=inconclusive)


def _assert_same_report(result, degree, trials, seed):
    """verify_monomial and the reference loop give equal reports, with
    the mismatches' polynomials in the same key order, and leave their
    rngs in the same state; returns the report."""
    fast_rng = random.Random(seed)
    ref_rng = random.Random(seed)
    report = verify_monomial(result, degree=degree, trials=trials,
                             rng=fast_rng)
    ref = _reference_verify(result, degree, trials, ref_rng)
    assert report == ref
    assert ([list(bad["poly"]) for bad in report.mismatches]
            == [list(bad["poly"]) for bad in ref.mismatches])
    assert fast_rng.getstate() == ref_rng.getstate()
    return report


def test_verify_matches_the_reference_loop():
    results = [monomialize(example_spec())]
    for text in _FAMILY_SPECS:
        results.append(monomialize(parse_spec(text).spec))
    for res in results:
        for seed in range(1, 6):
            for degree in range(1, 6):
                report = _assert_same_report(res, degree, 40, seed)
                assert report.checked and report.ok
    # failing results: a wrong final value, and Z3's image replaced by
    # Z1's, where the initial forms of f - f(X3 := X1) cancel
    res = results[0]
    final_L = list(res.final_L)
    final_L[1] = (0, 1, 1)
    zetas = list(res.zetas)
    zetas[2] = zetas[0]
    for bad_res in (res.replace(final_L=tuple(final_L)),
                    res.replace(zetas=tuple(zetas))):
        # the defaults and seed of the tests that report these results
        report = _assert_same_report(bad_res, 4, 200, 1)
        failed = len(report.mismatches)
        for seed in range(1, 4):
            for degree in (1, 2, 4):
                report = _assert_same_report(bad_res, degree, 40, seed)
                failed += len(report.mismatches)
        assert failed


def test_draw_replays_randint():
    # every k = 1..13 is drawn as the number of variables and as the
    # degree; the polynomials, their packed values and leads, and the
    # final rng state are those of drawing with randint
    tower = F5U
    consts = [None if c.is_zero else c
              for c in map(tower.from_int, range(-5, 6))]
    for seed in range(4):
        for n in range(1, 14):
            degree = 14 - n
            final_L = [(i, -i) for i in range(n)]
            lead_exps = [(-i, 2 * i) for i in range(n)]
            columns, width, base = engine._packing(final_L, lead_exps,
                                                   degree, None)
            ours = random.Random(seed)
            theirs = random.Random(seed)
            for poly in engine._sample_polys(ours, 30, n, degree, consts,
                                             columns):
                want = {}
                for _ in range(theirs.randint(1, 4)):
                    exps = [0] * n
                    for _ in range(theirs.randint(1, degree)):
                        exps[theirs.randint(0, n - 1)] += 1
                    c = tower.from_int(theirs.randint(-5, 5))
                    if c.is_zero:
                        continue
                    key = tuple(exps)
                    s = c if key not in want else want[key] + c
                    if s.is_zero:
                        want.pop(key, None)
                    else:
                        want[key] = s
                got = [(engine._exponents(key, base, n), c)
                       for key, (c, _, _) in poly.items()]
                assert got == list(want.items())
                for (exps, _), (_, value, lead) in zip(got, poly.values()):
                    assert value == engine._pack(degree_L(exps, final_L),
                                                 width)
                    assert lead == engine._pack(degree_L(exps, lead_exps),
                                                width)
            assert ours.getstate() == theirs.getstate()


def test_verify_packs_entries_beyond_the_degree():
    # final values and leading exponents with negative entries larger
    # than the degree, a ceiling that polynomials of degree 1500
    # exceed, and a wrong final value: every report equals the
    # reference loop's
    x1 = HahnStream.single((1, -9), Q.from_int(2))
    x2 = HahnStream.single((0, 7), Q.from_int(-3))
    res = monomialize(ValuationSpec(tower=Q, m=2, names=("X1", "X2"),
                                    images=(x1, x2)))
    assert res.final_L == ((1, -9), (0, 7))
    capped = res.replace(spec=res.spec.replace(
        budget=Budget(lex_ceiling=(300, 0))))
    wrong = ((1, -9), (0, 8))
    for r in (res, capped, res.replace(final_L=wrong),
              capped.replace(final_L=wrong)):
        for degree in (1, 1500):
            report = _assert_same_report(r, degree, 20, degree)
            assert report.ok == (r.final_L != wrong)
            if r.spec is capped.spec and degree == 1500:
                assert report.checked and report.inconclusive
            else:
                assert report.inconclusive == 0
    with pytest.raises(DimensionError):
        verify_monomial(res.replace(spec=res.spec.replace(
            budget=Budget(lex_ceiling=(1,)))))


def test_verify_at_a_large_degree():
    res = monomialize(example_spec())
    report = verify_monomial(res, degree=1500, trials=2,
                             rng=random.Random(3))
    assert report.checked == 2 and report.ok


# -------------------------------------------------------------- errors

def test_starved_run_reports_pseudo_convergent_prefix():
    # same example but the family is only listed up to i = 40, so the
    # engine must grind term by term and give up at max_steps
    one = F5U.one
    x2 = HahnStream((APFamily((0, 0, 1), (0, 0, 1), one, 1, one, 40),
                     FiniteTerms((((0, 1, 0), one),))))
    spec = ValuationSpec(tower=F5U, m=2, names=("X1", "X2"),
                         images=(HahnStream.single((0, 0, 1), one), x2),
                         max_steps=2)
    with pytest.raises(InconclusiveError) as exc:
        monomialize(spec)
    prefix = exc.value.detail["prefix"]
    assert len(prefix) == 2
    assert prefix == ((0, 0, 1), (0, 0, 2))
    for a, b in zip(prefix, prefix[1:]):
        assert lex_cmp(a, b) < 0


def test_max_steps_stop_names_its_budget():
    second = HahnStream((FiniteTerms((((1,), QU.one), ((2,), QU.gen("u")))),))
    with pytest.raises(InconclusiveError) as exc:
        monomialize(two_var_spec(second, max_steps=0))
    assert "max_steps 0" in str(exc.value)
    assert exc.value.detail == {"variable": "X2", "prefix": (),
                                "budget": "max_steps", "used": 0,
                                "limit": 0}


def test_no_leading_term_keeps_the_budget_that_stopped_it():
    second = HahnStream((FiniteTerms((((1,), QU.one), ((5,), QU.gen("u")))),))
    spec = two_var_spec(second).replace(budget=Budget(lex_ceiling=(3,)))
    with pytest.raises(InconclusiveError) as exc:
        monomialize(spec)
    assert "lex_ceiling (3,)" in str(exc.value)
    assert exc.value.detail == {"variable": "X2", "prefix": ((1,),),
                                "budget": "lex_ceiling", "used": (5,),
                                "limit": (3,)}


def test_purity_degree_two_coefficient():
    u = QU.gen("u")
    with pytest.raises(PurityError):
        monomialize(two_var_spec(HahnStream.single((1,), u * u)))


def test_purity_wrong_symbol():
    tower = Tower(GroundField.rationals(), ("u", "w"))
    spec = ValuationSpec(
        tower=tower, m=1, names=("X1", "X2"),
        images=(HahnStream.single((1,), tower.one),
                HahnStream.single((1,), tower.gen("w"))),
        symbols=("u",))
    with pytest.raises(PurityError):
        monomialize(spec)


def test_purity_vanishing_combination():
    img = HahnStream.single((1,), QU.from_int(3))
    spec = ValuationSpec(tower=QU, m=2, names=("X1", "X2"),
                         images=(HahnStream.single((1,), QU.one), img))
    with pytest.raises(PurityError):
        monomialize(spec)


def test_spec_requires_one_symbol_per_residue():
    with pytest.raises(StructureError):
        ValuationSpec(tower=QU, m=1, names=("X1", "X2"),
                      images=(HahnStream.single((1,), QU.one),
                              HahnStream.single((1,), QU.gen("u"))),
                      symbols=())


def test_spec_rejects_unknown_symbol():
    with pytest.raises(StructureError):
        ValuationSpec(tower=QU, m=1, names=("X1", "X2"),
                      images=(HahnStream.single((1,), QU.one),
                              HahnStream.single((1,), QU.gen("u"))),
                      symbols=("nope",))


# --------------------------------------------- synthetic random specs

def _random_monomializable_spec(rng, tower, n, m):
    """Forward construction: pick a value basis and transcendental
    slots, then present each variable as a unit times a monomial in
    hidden uniformizers so the run must rediscover the structure."""
    while True:
        rows = [[rng.randint(0, 2) for _ in range(m)] for _ in range(m)]
        for k in range(m):
            rows[k][k] = rng.randint(1, 2)
        det = _det(rows)
        if det != 0:
            break
    symbols = tower.symbols[:n - m]
    images = []
    for i in range(n):
        if i < m:
            exp = tuple(rows[i])
            co = tower.one
        else:
            base = rows[rng.randrange(m)]
            exp = tuple(base)
            co = tower.gen(symbols[i - m])
        extra = []
        if rng.random() < 0.5:
            bump = tuple(a + b for a, b in
                         zip(exp, rows[rng.randrange(m)]))
            extra.append((bump, tower.from_int(rng.randint(1, 4))))
        images.append(HahnStream((FiniteTerms(
            tuple([(exp, co)] + extra)),)))
    return ValuationSpec(tower=tower, m=m,
                         names=tuple("X%d" % (i + 1) for i in range(n)),
                         images=tuple(images), symbols=symbols)


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def test_random_specs_monomialize_and_verify():
    tower = Tower(GroundField.prime(5), ("u", "w"))
    rng = random.Random(808017)
    done = 0
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        m = rng.randint(max(1, n - 2), n)
        spec = _random_monomializable_spec(rng, tower, n, m)
        try:
            res = monomialize(spec)
        except PurityError:
            continue          # collision made a symbol slot algebraic
        report = verify_monomial(res, degree=3, trials=40, rng=rng)
        assert report.mismatches == ()
        done += 1
    assert done >= 25
