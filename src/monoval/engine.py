"""The end-to-end monomialization procedure.

Input: a valuation v = nu_t . phi presented by one stream per
variable.  The run proceeds in rounds:

1. *prepare* — echelon-reduce the tuple of leading values into a
   basis of the current value group; replay every recorded row
   operation as a monoidal substitution X_l -> Y_l * Y_i^q on the
   image streams; pick one carrier variable per basis row.
2. *discover* — for each non-carrier variable in index order, run
   the subtraction loop: express the current leading value B in the
   basis, divide coefficients to get the unique candidate alpha, and
   either subtract alpha * phi(Y^R) (finite step), remove a whole
   matching closed-form family at once (limit step), adjoin the next
   declared transcendental residue, or — when B falls outside the
   group — absorb the accumulated corrections, finite and limit steps
   in the order they were found, into one coordinate change and
   restart at 1 with the extended value group.

Across restarts either the group rank grows or the echelon pivot
tuple strictly improves; this is asserted and bounds the run.  The
final assembly composes the per-variable data back through the
monoidal log into the original variables: the images of the final
coordinates, the list of transcendental residues with
representatives, and final_L — the exponent data of the resulting
monomial valuation.  The result's psi is the input images as given.
"""

import random

from . import hahn
from .errors import (InconclusiveError, InternalError, PurityError,
                     StructureError)
from .hahn import (
    APFamily,
    DEFAULT_BUDGET,
    FiniteTerms,
    HahnStream,
    NoLimitError,
)
from .lexgroup import (
    INFINITY,
    DimensionError,
    NotInSubgroup,
    degree_L,
    echelon_reduce,
    is_lex_positive,
    lex_cmp,
    solve_in_basis,
    vadd,
    vscale,
)
from .record import Record


# --------------------------------------------------------------- log


class Monoidal(Record):
    """X_l = Y_l * Y_i**q (variables by 0-based index, q >= 1)."""
    __slots__ = ("l", "i", "q")

    def __init__(self, l, i, q):
        self._init(l, i, q)


class CoordChange(Record):
    """X_j = Z_j + the sum of `correction`, a tuple of summands in the
    order the run found them: a FiniteTerms of one term alpha * Z**R
    per finite step, an APFamily (exponents start + (i-1)*step over
    the variables) per limit step."""
    __slots__ = ("j", "correction")

    def __init__(self, j, correction):
        self._init(j, correction)


# ------------------------------------------------------------- input


class ValuationSpec(Record):
    """A rank-m valuation on k((X_1..X_n)) centered in k[[X]],
    presented by the images phi(X_i) and the declared transcendental
    residue symbols in their intended discovery order."""

    __slots__ = ("tower", "m", "names", "images", "symbols", "max_steps",
                 "budget")

    def __init__(self, tower, m, names, images, symbols=(), max_steps=64,
                 budget=DEFAULT_BUDGET):
        if m < 1:
            raise StructureError("rank m must be at least 1")
        if len(images) != len(names):
            raise StructureError("need exactly one image per variable")
        if len(names) - m != len(symbols):
            raise StructureError(
                "maximal dimension requires %d declared residue symbols, "
                "got %d" % (len(names) - m, len(symbols)))
        for s in symbols:
            if s not in tower.symbols:
                raise StructureError("symbol %r missing from the "
                                     "coefficient tower" % (s,))
        self._init(tower, m, names, images, symbols, max_steps, budget)

    @property
    def n(self):
        return len(self.names)


# ----------------------------------------------------------- results


class TermStep(Record):
    """One finite subtraction: alpha * Y^R cancelled the value B."""
    __slots__ = ("alpha", "R", "B")

    def __init__(self, alpha, R, B):
        self._init(alpha, R, B)


class FamilyStep(Record):
    """One limit step: the whole family, in closed form `yfam` over
    the variables, removed at once starting at value B."""
    __slots__ = ("yfam", "B")

    def __init__(self, yfam, B):
        self._init(yfam, B)


class SettledVar(Record):
    """Final record for one variable: a basis carrier or a
    transcendental residue, with the corrections spent on it.  `kind`
    is "carrier" or "residue"; a residue has its `symbol`, its
    trailing coefficient `alpha` and the `denominator` R_B of its
    representative."""
    __slots__ = ("var", "kind", "value", "corrections", "symbol", "alpha",
                 "denominator")

    def __init__(self, var, kind, value, corrections=(), symbol=None,
                 alpha=None, denominator=None):
        self._init(var, kind, value, corrections, symbol, alpha, denominator)


class MonomializationResult(Record):
    """`log` holds Monoidal and CoordChange entries, `settled` one
    SettledVar per variable, `residues` the settled residues in index
    order, `psi` the input images, `zetas` the images of the final
    coordinates Z_i."""
    __slots__ = ("spec", "basis", "carriers", "log", "settled", "residues",
                 "final_L", "psi", "zetas")

    def __init__(self, spec, basis, carriers, log, settled, residues,
                 final_L, psi, zetas):
        self._init(spec, basis, carriers, log, settled, residues, final_L,
                   psi, zetas)


class VerifyReport(Record):
    __slots__ = ("checked", "mismatches", "inconclusive")

    def __init__(self, checked, mismatches, inconclusive):
        self._init(checked, mismatches, inconclusive)

    @property
    def ok(self):
        return not self.mismatches


# ------------------------------------------------------- run state


def _fuse_heads(s):
    """Absorb exact cancellations between the finite part and family
    heads: a finite term that negates a family's first coefficient at
    its first exponent advances the family instead.  Keeps the
    symbolic head of the stream aligned with its numeric head so
    limit detection can see isolated families."""
    changed = True
    while changed:
        changed = False
        finite = {}
        fams = []
        for seg in s.segments:
            if isinstance(seg, FiniteTerms):
                finite.update(seg.terms)
            else:
                fams.append(seg)
        for k, f in enumerate(fams):
            h = f.exponent(1)
            co = finite.get(h)
            if co is None or not (co + f.coeff(1)).is_zero:
                continue
            del finite[h]
            _, tails = f.advanced()
            segs = []
            if finite:
                segs.append(FiniteTerms(tuple(sorted(finite.items()))))
            segs.extend(fams[:k] + fams[k + 1:])
            segs.extend(tails)
            s = HahnStream(tuple(segs), s.cert)
            changed = True
            break
    return s


class EngineState:
    """Mutable state of one monomialization run.  A run owns its
    state exclusively; distinct runs share nothing mutable."""

    def __init__(self, spec):
        self.spec = spec
        self.tower = spec.tower
        self.m = spec.m
        self.n = spec.n
        self.budget = spec.budget
        self.images = list(spec.images)
        self.log = []
        self.settled = {}
        self.adjoined = []
        self.sb = None
        self.carriers = []
        self._remainders = {}
        # composition of the original variables as monomials in the
        # current ones: orig X_i = prod of current Y_l ** expr[i][l]
        self.orig_expr = [[1 if a == b else 0 for b in range(self.n)]
                          for a in range(self.n)]

    # -- values ------------------------------------------------------

    def value_of(self, j):
        v = hahn.nu_t(self.images[j], self.budget)
        if v is INFINITY:
            raise StructureError(
                "image of %s is zero; phi is not injective on "
                "coordinates" % self.spec.names[j])
        return v

    def values(self):
        return [self.value_of(j) for j in range(self.n)]

    # -- prepare -----------------------------------------------------

    def prepare(self):
        """Echelon-reduce current values, replay the row operations as
        monoidal substitutions, reassign carriers, and (after the
        first round) assert the finiteness-lemma progress measure."""
        prev = self.sb
        vals = self.values()
        for j, row in enumerate(vals):
            if not is_lex_positive(row):
                raise StructureError(
                    "value %r of %s is not positive: the valuation is "
                    "not centered in the power series ring"
                    % (row, self.spec.names[j]))
        # settled variables are frozen: their values already lie in the
        # span of the carrier values, so reducing only the active rows
        # loses nothing and never rewrites a finished variable
        active = [j for j in range(self.n) if j not in self.settled]
        sb, ops = echelon_reduce([vals[j] for j in active])
        for op in ops:
            self._apply_monoidal(active[op.l], active[op.i], -op.q)
        self.sb = sb
        self._assign_carriers()
        if prev is not None:
            self._assert_progress(prev, sb)
        return sb

    def _apply_monoidal(self, l, i, q):
        """X_l = Y_l * Y_i**q: divide image l by image i, q times."""
        if q < 1:
            raise InternalError("monoidal with q=%d" % q)
        factor = hahn.stream_pow(self.images[i], -q, self.budget)
        self.images[l] = hahn.mul(self.images[l], factor, self.budget)
        for row in self.orig_expr:
            if row[l]:
                row[i] += q * row[l]
        self.log.append(Monoidal(l, i, q))

    def _assign_carriers(self):
        carriers = []
        taken = set()
        vals = self.values()
        for row in self.sb.basis:
            pick = None
            for j in range(self.n):
                if j in taken or j in self.settled:
                    continue
                if vals[j] == row:
                    pick = j
                    break
            if pick is None:
                raise InternalError(
                    "no free variable carries the basis value %r" % (row,))
            carriers.append(pick)
            taken.add(pick)
        self.carriers = carriers

    def _assert_progress(self, prev, cur):
        if cur.rank > prev.rank:
            return
        if cur.rank < prev.rank:
            raise InternalError("value group rank dropped from %d to %d"
                                % (prev.rank, cur.rank))
        if cur.pivot_cols != prev.pivot_cols:
            raise InternalError(
                "pivot columns moved %r -> %r at equal rank"
                % (prev.pivot_cols, cur.pivot_cols))
        if not all(q <= p for q, p in zip(cur.pivots, prev.pivots)) or \
                not any(q < p for q, p in zip(cur.pivots, prev.pivots)):
            raise InternalError(
                "restart made no progress: pivots %r -> %r"
                % (prev.pivots, cur.pivots))

    # -- discovery ---------------------------------------------------

    def discover(self, j):
        """Run the subtraction loop on variable j.  Returns "settled"
        or "restart" (after emitting the coordinate change)."""
        name = self.spec.names[j]
        working = self.images[j]
        corrections = []
        subtracted = []        # values of performed finite steps
        prev_B = None

        while True:
            working = _fuse_heads(working)
            try:
                lead = hahn.leading_term(working, self.budget)
            except InconclusiveError as exc:
                # keep the stop's budget/used/limit next to the prefix
                raise InconclusiveError(
                    "no certified leading term for %s after %d "
                    "subtractions: %s" % (name, len(subtracted), exc),
                    detail=dict(exc.detail or {}, variable=name,
                                prefix=tuple(subtracted))) from exc
            if lead is None:
                raise PurityError(
                    "%s minus its corrections has value infinity: the "
                    "valuation vanishes on a coordinate relation and "
                    "is not of maximal dimension" % name)
            B, lc = lead
            if prev_B is not None and not lex_cmp(prev_B, B) < 0:
                raise InternalError(
                    "leading values of %s did not increase (%r then %r)"
                    % (name, prev_B, B))
            prev_B = B

            try:
                R = solve_in_basis(B, self.sb, self.n,
                                   tuple(self.carriers))
            except NotInSubgroup:
                self._log_coordchange(j, corrections)
                self.images[j] = working
                return "restart"

            gY = hahn.monomial_image(R, self.images, self.budget)
            gl = hahn.leading_term(gY, self.budget)
            if gl is None or gl[0] != B:
                raise InternalError(
                    "phi(Y^%r) has value %r, expected %r"
                    % (R, gl and gl[0], B))
            alpha = lc / gl[1]

            if not alpha.is_in_subfield(self.adjoined):
                self._settle_residue(j, B, lc, alpha, R,
                                     corrections, working)
                return "settled"

            lim = self._match_limit_family(working, B, lc)
            if lim is not None:
                step, working = lim
                corrections.append(step)
                continue

            if len(subtracted) >= self.spec.max_steps:
                raise InconclusiveError(
                    "%s: no family matched after %d subtractions "
                    "(max_steps %d)"
                    % (name, len(subtracted), self.spec.max_steps),
                    detail={"variable": name, "prefix": tuple(subtracted),
                            "budget": "max_steps", "used": len(subtracted),
                            "limit": self.spec.max_steps})
            piece = hahn.scale(gY, alpha)
            working = hahn.sub(working, piece)
            corrections.append(TermStep(alpha, R, B))
            subtracted.append(B)

    def _match_limit_family(self, working, B, lc):
        """If the head of `working` is an isolated infinite family
        whose coefficient quotients against the carrier images stay in
        the adjoined subfield, remove the whole family at once and
        return (FamilyStep, remainder)."""
        fam = None
        for seg in working.segments:
            if isinstance(seg, APFamily) and seg.count is None and \
                    seg.exponent(1) == B:
                fam = seg
                break
        if fam is None:
            return None
        if fam.coeff(1) != lc:
            return None           # the head mixes other contributions
        carrier_coeffs = []
        for c in self.carriers:
            single = self.images[c].as_single_term()
            if single is None:
                return None       # carrier tails: no closed quotient
            carrier_coeffs.append(single[1])
        try:
            R_start = solve_in_basis(fam.start, self.sb, self.n,
                                     tuple(self.carriers))
            R_step = solve_in_basis(fam.step, self.sb, self.n,
                                    tuple(self.carriers))
        except NotInSubgroup:
            return None           # a later family value leaves the group
        c_start = self.tower.one
        c_step = self.tower.one
        for pos, c in zip(self.carriers, carrier_coeffs):
            if R_start[pos]:
                c_start = c_start * c ** R_start[pos]
            if R_step[pos]:
                c_step = c_step * c ** R_step[pos]
        # alpha_i = fam.c * i^e * r^i / (c_start * c_step^(i-1))
        #         = (fam.c * c_step / c_start) * i^e * (r / c_step)^i
        c_y = fam.c * c_step / c_start
        r_y = fam.r / c_step
        if not (c_y.is_in_subfield(self.adjoined)
                and r_y.is_in_subfield(self.adjoined)):
            return None
        if not is_lex_positive(R_step):
            return None           # not representable as a Y-family
        yfam = APFamily(R_start, R_step, c_y, fam.e, r_y, None)
        try:
            remainder = hahn.subtract_segment_limit(working, fam)
        except NoLimitError:
            return None
        return FamilyStep(yfam, B), remainder

    def _settle_residue(self, j, B, lc, alpha, R, corrections, working):
        name = self.spec.names[j]
        fresh = alpha.symbols_used() - set(self.adjoined)
        if len(self.adjoined) >= len(self.spec.symbols):
            raise PurityError(
                "%s needs a new transcendental residue but all %d "
                "declared symbols are already adjoined: the valuation "
                "does not have maximal dimension as presented"
                % (name, len(self.spec.symbols)))
        expected = self.spec.symbols[len(self.adjoined)]
        if fresh != {expected}:
            raise PurityError(
                "%s: residue coefficient %s involves %s, expected "
                "exactly the declared symbol %s"
                % (name, alpha, ", ".join(sorted(fresh)) or "no symbol",
                   expected))
        if alpha.degree_in(expected) > 1:
            raise PurityError(
                "%s: residue coefficient %s is not a degree-one "
                "quotient in %s; the residue field extension is not "
                "purely the declared one" % (name, alpha, expected))
        for step in corrections:
            if isinstance(step, TermStep) and \
                    not lex_cmp(step.B, B) < 0:
                raise InternalError(
                    "correction chain of %s is not increasing" % name)
        self.adjoined.append(expected)
        self.settled[j] = SettledVar(
            var=j, kind="residue", value=B,
            corrections=tuple(corrections), symbol=expected,
            alpha=alpha, denominator=R)
        # the remainder stream (alpha t^B + its tail) is the image of
        # the final variable Z_j; keep it for assembly
        self._remainders[j] = working

    def _log_coordchange(self, j, corrections):
        for i, row in enumerate(self.orig_expr):
            if i != j and row[j]:
                raise InternalError(
                    "%s needs a coordinate change but is a monoidal "
                    "partner of %s" % (self.spec.names[j], self.spec.names[i]))
        self.log.append(CoordChange(j, tuple(
            FiniteTerms(((step.R, step.alpha),))
            if isinstance(step, TermStep) else step.yfam
            for step in corrections)))

    # -- main loop ---------------------------------------------------

    def run(self):
        self.prepare()
        while True:
            j = self._next_unsettled()
            if j is None:
                break
            outcome = self.discover(j)
            if outcome == "restart":
                self.prepare()
        if self.sb.rank != self.m:
            raise PurityError(
                "attainable values generate a group of rank %d, not "
                "the declared rank %d: the valuation does not have "
                "rank m as presented" % (self.sb.rank, self.m))
        for k, c in enumerate(self.carriers):
            self.settled[c] = SettledVar(var=c, kind="carrier",
                                         value=self.sb.basis[k])
            self._remainders[c] = self.images[c]
        return self._assemble()

    def _next_unsettled(self):
        for j in range(self.n):
            if j not in self.settled and j not in self.carriers:
                return j
        return None

    # -- assembly ----------------------------------------------------

    def _assemble(self):
        # final coordinate changes for residues with corrections
        for j in range(self.n):
            rec = self.settled[j]
            if rec.kind == "residue" and rec.corrections:
                self._log_coordchange(j, rec.corrections)

        final_L = []
        zetas = []
        for i in range(self.n):
            row = self.orig_expr[i]
            if row[i] < 1:
                raise InternalError(
                    "composition lost variable %s" % self.spec.names[i])
            # one copy of the variable itself carries its corrections;
            # everything else in the row (including surplus powers of
            # itself picked up through partner rewrites) is a monomial
            # cofactor in the current variables
            partners = tuple(e - 1 if l == i else e
                             for l, e in enumerate(row))
            shift = None
            for l, e in enumerate(partners):
                if not e:
                    continue
                part = vscale(e, self.settled[l].value)
                shift = part if shift is None else vadd(shift, part)
            B = self.settled[i].value
            final_L.append(B if shift is None else vadd(B, shift))
            zeta = self._remainders[i]
            if any(partners):
                zeta = hahn.mul(zeta, hahn.monomial_image(
                    partners, self.images, self.budget), self.budget)
            zetas.append(zeta)

        settled = tuple(self.settled[j] for j in range(self.n))
        residues = tuple(rec for rec in settled if rec.kind == "residue")
        if len(residues) != self.n - self.m:
            raise InternalError("%d residues for dimension %d"
                                % (len(residues), self.n - self.m))
        return MonomializationResult(
            spec=self.spec, basis=self.sb,
            carriers=tuple(self.carriers),
            log=tuple(self.log),
            settled=settled, residues=residues,
            final_L=tuple(final_L), psi=self.spec.images, zetas=tuple(zetas))


# ------------------------------------------------------- public ops


def monomialize(spec):
    """Full run; returns a MonomializationResult."""
    return EngineState(spec).run()


def _image_leads(zetas, budget):
    """The leading term (exponent, coefficient) of each final image,
    or None when an image is zero or its leading term is inconclusive."""
    leads = []
    for z in zetas:
        try:
            lead = hahn.leading_term(z, budget)
        except InconclusiveError:
            return None
        if lead is None:
            return None
        leads.append(lead)
    return leads


def _pack(vec, width):
    """vec as the integer sum of vec[j] * width^(m-1-j).  Packing is
    linear, and for components below width / 2 in absolute value the
    integers' order and equality are the vectors' lex order and
    equality: the difference of two such vectors has digits below
    width, so its first nonzero digit outweighs all later ones."""
    packed = 0
    for x in vec:
        packed = packed * width + x
    return packed


def _packing(final_L, lead_exps, degree, ceiling):
    """(columns, width, base) for sampling monomials of degree at most
    `degree`: columns[i] = (base^i, final_L[i] and lead_exps[i] packed
    at `width`), so the sums of a monomial's columns are its exponent
    key, its value and its lead; width also covers the ceiling, which
    leads are compared with."""
    summed = list(final_L) + list(lead_exps)
    fixed = [] if ceiling is None else [ceiling]
    m = len(final_L[0])
    for vec in summed + fixed:
        if len(vec) != m:
            raise DimensionError("rank mismatch: %d vs %d" % (len(vec), m))
    bound = max([degree * abs(x) for vec in summed for x in vec]
                + [abs(x) for vec in fixed for x in vec])
    width = 2 * bound + 1
    base = degree + 1
    columns = [(base ** i, _pack(L, width), _pack(e, width))
               for i, (L, e) in enumerate(zip(final_L, lead_exps))]
    return columns, width, base


def _exponents(key, base, n):
    """The exponent tuple (a_0, ..., a_{n-1}) of key = sum a_i * base^i."""
    exps = []
    for _ in range(n):
        key, a = divmod(key, base)
        exps.append(a)
    return tuple(exps)


def _sample_polys(rng, trials, n, degree, consts, columns):
    """Yield the `trials` polynomials that drawing with rng.randint
    samples, draw for draw, leaving rng in the same state: randint(0,
    k - 1) draws k.bit_length() bits and rejects values >= k (CPython's
    _randbelow_with_getrandbits).  A polynomial is {key: (coefficient,
    value, lead)}; key, value and lead are the sums of the columns of
    the monomial's variables, drawn with repetition.  consts[i] is the
    constant that randint(-5, 5) == i - 5 gives, None for zero."""
    getrandbits = rng.getrandbits
    bits_n = n.bit_length()
    bits_d = degree.bit_length()
    for _ in range(trials):
        poly = {}
        nmono = getrandbits(3)
        while nmono >= 4:
            nmono = getrandbits(3)
        for _ in range(nmono + 1):
            total = getrandbits(bits_d)
            while total >= degree:
                total = getrandbits(bits_d)
            key = value = lead = 0
            for _ in range(total + 1):
                i = getrandbits(bits_n)
                while i >= n:
                    i = getrandbits(bits_n)
                k, v, e = columns[i]
                key += k
                value += v
                lead += e
            c = getrandbits(4)
            while c >= 11:
                c = getrandbits(4)
            c = consts[c]
            if c is None:
                continue
            if key in poly:
                c = poly[key][0] + c
                if c.is_zero:
                    del poly[key]
                    continue
            poly[key] = (c, value, lead)
        yield poly


def _lead_coefficient(c, exps, leads):
    """The leading coefficient of c times the product of the images
    raised to exps, from their leading terms `leads`: exponents are
    lex-ordered and coefficients form a field, so it is c times the
    product of theirs."""
    for a, (_, lc) in zip(exps, leads):
        if a:
            c = c * (lc if a == 1 else lc ** a)
    return c


def _least(poly, expand, leads):
    """(least value, least lead) of a sampled polynomial, packed.  The
    least lead is nu_t of the polynomial at the images whose leading
    terms are `leads`, unless the coefficients that reach it sum to
    zero (the initial form vanishes); then it is None.  A lone term at
    the least lead is a product of nonzero field elements, so
    coefficients are multiplied only on a tie."""
    value = low = None
    for key, (_, v, lead) in poly.items():
        if value is None or v < value:
            value = v
        if low is None or lead < low:
            low, tie = lead, [key]
        elif lead == low:
            tie.append(key)
    if len(tie) > 1:
        terms = [_lead_coefficient(poly[key][0], expand(key), leads)
                 for key in tie]
        if sum(terms[1:], terms[0]).is_zero:
            return value, None
    return value, low


def verify_monomial(result, degree=4, trials=200, rng=None,
                    budget=None):
    """Recomposition check: for random polynomials f in the final
    variables, nu_t of f evaluated at the final images must equal the
    monomial value min over monomials of sum a_i * final_L_i.

    nu_t(f) is read off the images' leading terms when the initial
    form of f does not vanish at their leading coefficients; only
    when it does (or a leading term is inconclusive) is f evaluated
    as a stream.  The polynomials are those that drawing with
    rng.randint would sample, and rng ends in the same state.  Each
    monomial's exponents, value and leading exponent are kept as
    packed integers while it is drawn, so a vector add is an integer
    add and a lex comparison an integer comparison."""
    if trials < 1:
        raise ValueError("trials must be at least 1, got %r" % (trials,))
    if degree < 1:
        raise ValueError("degree must be at least 1, got %r" % (degree,))
    budget = budget or result.spec.budget
    n, m = result.spec.n, result.spec.m
    tower = result.spec.tower
    rng = rng or random.Random(97)
    final_L = result.final_L
    leads = _image_leads(result.zetas, budget)
    # without leading terms every polynomial takes the stream path
    lead_exps = [e for e, _ in leads] if leads else [(0,) * m] * n
    ceiling = budget.lex_ceiling
    columns, width, base = _packing(final_L, lead_exps, degree, ceiling)
    top = None if ceiling is None else _pack(ceiling, width)

    def expand(key):
        return _exponents(key, base, n)

    consts = [None if c.is_zero else c
              for c in map(tower.from_int, range(-5, 6))]

    mono_cache = {}

    def mono_image(exps):
        cached = mono_cache.get(exps)
        if cached is None:
            try:
                cached = hahn.monomial_image(exps, result.zetas, budget)
            except InconclusiveError as exc:
                cached = exc
            mono_cache[exps] = cached
        if isinstance(cached, InconclusiveError):
            raise cached
        return cached

    mismatches = []
    inconclusive = 0
    checked = 0
    for poly in _sample_polys(rng, trials, n, degree, consts, columns):
        if not poly:
            continue
        got = None
        if leads is not None:
            expect, got = _least(poly, expand, leads)
            if got is not None and top is not None and got > top:
                got = None
        if got is not None:
            checked += 1
            if got == expect:
                continue
        plain = {expand(key): c for key, (c, _, _) in poly.items()}
        if got is not None:
            got = min(degree_L(a, lead_exps) for a in plain)
        else:
            try:
                got = hahn.nu_t(hahn.eval_poly(plain, mono_image), budget)
            except InconclusiveError:
                inconclusive += 1
                continue
            checked += 1
        expect = min(degree_L(a, final_L) for a in plain)
        if got != expect:
            mismatches.append({"poly": plain, "expected": expect,
                               "got": got})
    return VerifyReport(checked=checked, mismatches=tuple(mismatches),
                        inconclusive=inconclusive)
