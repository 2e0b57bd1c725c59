"""Generalized power series streams with exponents in Z^m (lex order).

A stream is a finite list of closed-form segments:

* ``FiniteTerms``: finitely many (exponent, coefficient) pairs;
* ``APFamily``: the infinite (or index-bounded) sum of
  ``c * i^e * r^i * t^(start + (i-1)*step)`` for i = 1, 2, ...,
  with step >_lex 0 so the support stays well ordered.

This class of segments is the smallest one closed under the
operations the monomialization procedure needs: it covers both
tails of the worked four-variable example (coefficient rules ``i``
and ``u3^(3*i)``), survives scalar multiplication and monomial
shifts unchanged, and a family with its head removed is again a sum
of at most e+1 families (binomial re-indexing).  The same
re-indexing aligns families that are shifted copies of one another
when a stream is built, so copies that cancel leave an exact zero.

Enumeration merges segments lazily in increasing lex order, summing
coefficients of equal exponents and skipping terms that vanish (in
characteristic p the family rule kills indices divisible by p).
Each stream carries ``cert``, an exclusive lex bound below which its
term data is trustworthy; products of two infinite families and
geometric inversions are certified only up to a computable bound,
and every query past a budget or certification horizon raises
InconclusiveError rather than guessing.
"""

import heapq
from itertools import islice
from math import comb

from .errors import InconclusiveError
from .lexgroup import (
    INFINITY,
    is_lex_positive,
    lex_cmp,
    lex_min,
    vadd,
    vscale,
    vsub,
)
from .record import Record


class NoLimitError(ValueError):
    """The requested family does not sit isolated at the head of the
    stream, so no limit step applies."""


class Budget(Record):
    """Enumeration limits: max_terms per stream, a total work bound
    (raw candidate terms processed) and an optional global lex
    ceiling."""

    __slots__ = ("max_terms", "lex_ceiling")

    def __init__(self, max_terms=256, lex_ceiling=None):
        self._init(max_terms, lex_ceiling)

    @property
    def work(self):
        return self.max_terms * 64


DEFAULT_BUDGET = Budget()


class FiniteTerms(Record):
    """Strictly increasing (exponent, coefficient) pairs, coefficients
    nonzero.  Built through canonicalization only."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self._init(terms)

    def first_exponent(self):
        return self.terms[0][0]


class APFamily(Record):
    """Sum over i of  c * i^e * r^i  at exponent start + (i-1)*step.

    count is None for an infinite family, else the last index N.
    """

    __slots__ = ("start", "step", "c", "e", "r", "count")

    def __init__(self, start, step, c, e=0, r=None, count=None):
        if not is_lex_positive(step):
            raise ValueError("family step %r must be lex-positive"
                             % (step,))
        if e < 0:
            raise ValueError("negative index power")
        if count is not None and count < 1:
            raise ValueError("empty index range")
        if len(start) != len(step):
            raise ValueError("start and step rank differ")
        self._init(start, step, c, e, r, count)

    def exponent(self, i):
        return vadd(self.start, vscale(i - 1, self.step))

    def coeff(self, i):
        tower = self.c.tower
        out = self.c * (self.r ** i)
        if self.e:
            out = out * (tower.from_int(i) ** self.e)
        return out

    def first_exponent(self):
        return self.start

    def head_coeff(self):
        return self.coeff(1)

    def scaled(self, beta):
        return self.replace(c=self.c * beta)

    def shifted(self, exp):
        return self.replace(start=vadd(self.start, exp))

    def advanced(self):
        """Head term plus the rest as a list of families: re-index
        i -> i+1 and expand (i+1)^e binomially."""
        head = (self.exponent(1), self.head_coeff())
        tail_count = None if self.count is None else self.count - 1
        tails = []
        if tail_count is None or tail_count >= 1:
            base = self.c * self.r
            for k in range(self.e + 1):
                ck = base * comb(self.e, k)
                tails.append(APFamily(vadd(self.start, self.step), self.step,
                                      ck, k, self.r, tail_count))
        return head, tails


_EXPAND_LIMIT = 100000


def _canonical(segments):
    """Merge finite parts, expand bounded families, align infinite
    families that run in one lane (see `_align`) and sum those that
    then share (start, step, e, r), drop zero coefficients, and order
    segments deterministically."""
    finite = {}
    fams = []

    def add_finite(exp, co):
        if exp in finite:
            s = finite[exp] + co
            if s.is_zero:
                del finite[exp]
            else:
                finite[exp] = s
        elif not co.is_zero:
            finite[exp] = co

    for seg in segments:
        if isinstance(seg, FiniteTerms):
            for exp, co in seg.terms:
                add_finite(tuple(exp), co)
        elif isinstance(seg, APFamily):
            if seg.c.is_zero or seg.r is None or seg.r.is_zero:
                continue
            if seg.count is not None:
                if seg.count > _EXPAND_LIMIT:
                    raise ValueError("bounded family too large to expand")
                for i in range(1, seg.count + 1):
                    add_finite(seg.exponent(i), seg.coeff(i))
            else:
                fams.append(seg)
        else:
            raise TypeError("unknown segment %r" % (seg,))

    out = []
    merged = _align(fams, add_finite)
    if finite:
        out.append(FiniteTerms(tuple(sorted(finite.items()))))
    for (start, step, e, r), c in merged.items():
        if not c.is_zero:
            out.append(APFamily(start, step, c, e, r, None))
    out.sort(key=_segment_sort_key)
    return tuple(out)


def _align(fams, add_finite):
    """Sum infinite families by (start, step, e, r) after re-indexing
    each to the latest start of its lane.

    Two families with equal step and ratio r whose starts differ by a
    whole number K of steps run in one lane.  The earlier one's first
    K terms go to `add_finite`; its rest starts at the later start,
    where (j+K)^e expands binomially into families with index powers
    0..e.  Shifted copies of one family that cancel from some index on
    so sum to an exactly zero tail, which enumeration sees as the end
    of the stream instead of an endless run of vanishing terms.
    Members more than _EXPAND_LIMIT steps behind the latest start of
    their lane are left where they are.

    Over F_p, i^e = i^e' for every index i when e = e' (mod p-1) and
    both are at least 1, so such families of one lane are one sequence
    and are summed under the smallest of their powers; a family with
    no such partner keeps its power."""
    lanes = {}
    for f in fams:
        p = next(k for k, d in enumerate(f.step) if d)
        q = f.start[p] // f.step[p]
        base = vsub(f.start, vscale(q, f.step))
        lanes.setdefault((base, f.step, f.r), []).append((q, f))
    merged = {}
    for (base, step, r), members in lanes.items():
        top = max(q for q, _ in members)
        for q, f in members:
            K = top - q
            if K > _EXPAND_LIMIT:
                K = 0
            for i in range(1, K + 1):
                add_finite(f.exponent(i), f.coeff(i))
            start = f.exponent(K + 1)
            c = f.c * r ** K
            for k in range(f.e + 1):
                n = comb(f.e, k) * K ** (f.e - k)
                if n:
                    key = (start, step, k, r)
                    ck = c * n
                    merged[key] = merged[key] + ck if key in merged else ck

    prime = fams[0].r.tower.ground.p if fams else None
    if prime is None or len(merged) < 2:
        return merged

    def power_class(key):
        start, step, e, r = key
        if e:
            e = 1 + (e - 1) % (prime - 1)
        return start, step, r, e

    low = {}
    for key in merged:
        cls = power_class(key)
        low[cls] = min(low.get(cls, key[2]), key[2])
    folded = {}
    for key, c in merged.items():
        start, step, _, r = key
        key = (start, step, low[power_class(key)], r)
        folded[key] = folded[key] + c if key in folded else c
    return folded


def _segment_sort_key(seg):
    if isinstance(seg, FiniteTerms):
        return (seg.first_exponent(), 0, (), 0, "")
    return (seg.start, 1, seg.step, seg.e, str(seg.r))


def _finite_iter(seg):
    return iter(seg.terms)


def _family_iter(seg):
    i = 1
    rpow = seg.r
    exp = tuple(seg.start)
    while seg.count is None or i <= seg.count:
        co = seg.c * rpow
        if seg.e:
            co = co * (seg.c.tower.from_int(i) ** seg.e)
        if not co.is_zero:
            yield exp, co
        i += 1
        rpow = rpow * seg.r
        exp = vadd(exp, seg.step)


def _work_exhausted(used, limit):
    return InconclusiveError(
        "enumeration work budget exhausted: %d > %d (64 * max_terms)"
        % (used, limit),
        detail={"budget": "work", "used": used, "limit": limit})


class HahnStream:
    """Canonical segment list plus a memoized enumeration prefix.

    A stream memoizes internally and is confined to one thread at a
    time; the segment data itself is immutable.
    """

    __slots__ = ("segments", "cert", "_prefix", "_iter", "_done",
                 "_cert_blocked", "_work", "_work_limit", "_blown")

    def __init__(self, segments=(), cert=INFINITY):
        self.segments = _canonical(segments)
        self.cert = cert
        self._prefix = []
        self._iter = None
        self._done = False
        self._cert_blocked = False
        self._work = 0
        self._work_limit = None
        self._blown = False

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def single(cls, exp, coeff):
        if coeff.is_zero:
            return cls(())
        return cls((FiniteTerms(((tuple(exp), coeff),)),))

    @property
    def is_structurally_zero(self):
        return not self.segments

    def structural_min(self):
        """Smallest exponent any segment could emit (a lower bound for
        nu_t); for a stream with no segments, its certificate, where
        its hidden terms would start (INFINITY for an exact zero)."""
        if not self.segments:
            return self.cert
        return min(seg.first_exponent() for seg in self.segments)

    def as_single_term(self):
        """(exp, coeff) when the stream is exactly one certain term."""
        if (self.cert is INFINITY and len(self.segments) == 1
                and isinstance(self.segments[0], FiniteTerms)
                and len(self.segments[0].terms) == 1):
            return self.segments[0].terms[0]
        return None

    def _tick(self):
        """Charge one unit of enumeration work; aborts the merge when
        the caller's budget runs out mid-stride (long cancellation
        plateaus would otherwise spin between yields)."""
        self._work += 1
        if self._work_limit is not None and self._work > self._work_limit:
            self._blown = True
            raise _work_exhausted(self._work, self._work_limit)

    def _merge(self):
        heap = []
        seq = 0
        for seg in self.segments:
            it = _finite_iter(seg) if isinstance(seg, FiniteTerms) \
                else _family_iter(seg)
            first = next(it, None)
            self._tick()
            if first is not None:
                heap.append((first[0], seq, first[1], it))
                seq += 1
        heapq.heapify(heap)
        last = None
        while heap:
            exp, _, co, it = heapq.heappop(heap)
            self._tick()
            total = co
            while heap and heap[0][0] == exp:
                _, _, co2, it2 = heapq.heappop(heap)
                self._tick()
                total = total + co2
                nxt = next(it2, None)
                if nxt is not None:
                    heapq.heappush(heap, (nxt[0], seq, nxt[1], it2))
                    seq += 1
            nxt = next(it, None)
            if nxt is not None:
                heapq.heappush(heap, (nxt[0], seq, nxt[1], it))
                seq += 1
            if total.is_zero:
                continue
            if self.cert is not INFINITY and lex_cmp(exp, self.cert) >= 0:
                self._cert_blocked = True
                return
            assert last is None or lex_cmp(last, exp) < 0
            last = exp
            yield exp, total

    def _ensure(self, k, budget):
        """Extend the memoized prefix to k terms if possible.  Returns
        True when k terms are available, False when the stream ended
        before k terms; raises InconclusiveError on any budget or
        certification stop."""
        while len(self._prefix) < k:
            if self._done:
                return False
            if self._cert_blocked:
                raise InconclusiveError(
                    "certificate exhausted: next term lies at or beyond "
                    "%r, after %d certified terms"
                    % (self.cert, len(self._prefix)),
                    detail={"budget": "certificate",
                            "used": len(self._prefix),
                            "limit": self.cert})
            if len(self._prefix) >= budget.max_terms:
                raise InconclusiveError(
                    "term budget exhausted: %d terms >= max_terms %d"
                    % (len(self._prefix), budget.max_terms),
                    detail={"budget": "max_terms",
                            "used": len(self._prefix),
                            "limit": budget.max_terms})
            if self._blown:
                raise _work_exhausted(self._work, self._work_limit)
            if self._work > budget.work:
                raise _work_exhausted(self._work, budget.work)
            if self._iter is None:
                self._iter = self._merge()
            self._work_limit = budget.work
            term = next(self._iter, None)
            if term is None:
                if not self._cert_blocked:
                    self._done = True
                continue
            self._prefix.append(term)
        return True

    def __repr__(self):
        parts = []
        for seg in self.segments[:4]:
            if isinstance(seg, FiniteTerms):
                parts.append("terms<%d>" % len(seg.terms))
            else:
                parts.append("family@%r" % (seg.start,))
        if len(self.segments) > 4:
            parts.append("...")
        cert = "" if self.cert is INFINITY else " cert<%r" % (self.cert,)
        return "<stream %s%s>" % (" + ".join(parts) or "0", cert)


def _guard_ceiling(terms, budget):
    if budget.lex_ceiling is None:
        return
    for exp, _ in terms:
        if lex_cmp(exp, budget.lex_ceiling) > 0:
            raise InconclusiveError(
                "lex ceiling exceeded: term %r > lex_ceiling %r"
                % (exp, budget.lex_ceiling),
                detail={"budget": "lex_ceiling", "used": exp,
                        "limit": budget.lex_ceiling})


def nu_t(s, budget=DEFAULT_BUDGET):
    """Exponent of the first nonzero term; INFINITY when the stream
    provably has none."""
    if s._ensure(1, budget):
        _guard_ceiling(s._prefix[:1], budget)
        return s._prefix[0][0]
    return INFINITY


def leading_term(s, budget=DEFAULT_BUDGET):
    """(exponent, coefficient) of the first term, or None when the
    stream is provably zero."""
    if s._ensure(1, budget):
        _guard_ceiling(s._prefix[:1], budget)
        return s._prefix[0]
    return None


def first_terms(s, k, budget=DEFAULT_BUDGET):
    """The first k enumerated terms (fewer when the stream ends)."""
    have = s._ensure(k, budget)
    out = list(s._prefix[:k] if have else s._prefix)
    _guard_ceiling(out, budget)
    return out


def add(a, b):
    return HahnStream(a.segments + b.segments, lex_min(a.cert, b.cert))


def neg(a):
    segs = []
    for seg in a.segments:
        if isinstance(seg, FiniteTerms):
            segs.append(FiniteTerms(tuple((e, -c) for e, c in seg.terms)))
        else:
            segs.append(seg.replace(c=-seg.c))
    return HahnStream(tuple(segs), a.cert)


def sub(a, b):
    return add(a, neg(b))


def _scaled(segments, beta):
    """The segments times the nonzero coefficient beta."""
    segs = []
    for seg in segments:
        if isinstance(seg, FiniteTerms):
            segs.append(FiniteTerms(tuple((e, c * beta) for e, c in seg.terms)))
        else:
            segs.append(seg.scaled(beta))
    return segs


def scale(a, beta):
    if beta.is_zero:
        return HahnStream(())
    return HahnStream(tuple(_scaled(a.segments, beta)), a.cert)


def eval_poly(poly, image):
    """The polynomial {exponent tuple: coefficient} evaluated at
    streams: the sum of c * image(exps), built as one stream, so it is
    canonicalized once rather than once per monomial.  Every monomial's
    image is computed, in the polynomial's order, even when its
    coefficient is zero; the certificate is the least among the images
    that enter the sum."""
    segs = []
    cert = INFINITY
    for exps, c in poly.items():
        part = image(exps)
        if not c.is_zero:
            segs.extend(_scaled(part.segments, c))
            cert = lex_min(cert, part.cert)
    return HahnStream(tuple(segs), cert)


def _shifted_cert(cert, exp):
    return cert if cert is INFINITY else vadd(cert, exp)


def _term_segments(segments, coeff, exp):
    """The segments times the nonzero single term coeff * t^exp."""
    segs = []
    for seg in segments:
        if isinstance(seg, FiniteTerms):
            segs.append(FiniteTerms(tuple((vadd(e, exp), c * coeff)
                                          for e, c in seg.terms)))
        else:
            segs.append(seg.scaled(coeff).shifted(exp))
    return segs


def term_mul(a, coeff, exp):
    """Multiply by the single term coeff * t^exp."""
    if coeff.is_zero:
        return HahnStream(())
    return HahnStream(tuple(_term_segments(a.segments, coeff, exp)),
                      _shifted_cert(a.cert, exp))


_BOX = 12
_HOSTILE_WEIGHT = 16
_HOSTILE_KEEP = 8
_INV_DEPTH = 16


def _family_box(fa, fb, budget):
    """Products of the first k nonzero terms of two infinite families,
    unsummed, and their certificate: the least exponent that a later
    term of either family can reach in the product."""
    k = min(budget.max_terms, _BOX)
    ta = list(islice(_family_iter(fa), k))
    tb = list(islice(_family_iter(fb), k))
    prods = tuple((vadd(ea, eb), ca * cb) for ea, ca in ta for eb, cb in tb)
    cert = lex_min(vadd(vadd(ta[-1][0], fa.step), fb.start),
                   vadd(vadd(tb[-1][0], fb.step), fa.start))
    return prods, cert


def _hostile(seg):
    """An unbounded family is cheap to enumerate only when its ratio
    is a monomial quotient (so r^i never gains terms) and its scale
    coefficient stays small.  Anything else pays a growing polynomial
    gcd per term."""
    return (isinstance(seg, APFamily) and seg.count is None
            and (seg.r.weight > 2 or seg.c.weight > _HOSTILE_WEIGHT))


def _expand_hostile(stream, budget):
    """Replace families whose closed-form coefficients have grown into
    large rational functions with short certified prefixes.  Computing
    c * r^i for such a family costs a large polynomial gcd per term,
    so enumerating or boxing it deeply is never worth the exactness."""
    segs = []
    cert = stream.cert
    changed = False
    for seg in stream.segments:
        if _hostile(seg):
            changed = True
            terms = []
            for i in range(1, _HOSTILE_KEEP + 1):
                co = seg.coeff(i)
                if not co.is_zero:
                    terms.append((seg.exponent(i), co))
            if terms:
                segs.append(FiniteTerms(tuple(terms)))
            cert = lex_min(cert, seg.exponent(_HOSTILE_KEEP + 1))
        else:
            segs.append(seg)
    if not changed:
        return stream
    return HahnStream(tuple(segs), cert)


def _compact(segments, cert, budget):
    """The stream of the segments, certified below cert, cut to a
    bounded representation; the only place a product or an inverse is
    cut.  Hostile families become short prefixes, the structure at or
    past the certificate is shed (it is untrusted anyway), and the
    finite part keeps max_terms terms, the certificate dropping to the
    first term cut off."""
    stream = _expand_hostile(HahnStream(segments, cert), budget)
    cert = stream.cert
    segs = []
    changed = False
    for seg in stream.segments:
        if isinstance(seg, FiniteTerms):
            terms = seg.terms if stream.cert is INFINITY else tuple(
                t for t in seg.terms if lex_cmp(t[0], stream.cert) < 0)
            if len(terms) > budget.max_terms:
                cert = terms[budget.max_terms][0]
                terms = terms[:budget.max_terms]
            if len(terms) < len(seg.terms):
                changed = True
                seg = FiniteTerms(terms) if terms else None
        elif stream.cert is not INFINITY and \
                lex_cmp(seg.start, stream.cert) >= 0:
            changed = True
            seg = None
        if seg is not None:
            segs.append(seg)
    return HahnStream(tuple(segs), cert) if changed else stream


def mul(a, b, budget=DEFAULT_BUDGET):
    """Product stream.  Exact whenever at most one factor carries
    infinite families; family-by-family parts are certified up to
    their index-box bound, and the hidden terms of a factor beyond its
    certificate cap the product's certificate."""
    sa = a.as_single_term()
    if sa is not None:
        return term_mul(b, sa[1], sa[0])
    sb = b.as_single_term()
    if sb is not None:
        return term_mul(a, sb[1], sb[0])
    low_a, low_b = a.structural_min(), b.structural_min()
    if a.is_structurally_zero or b.is_structurally_zero:
        # zero below its certificate: the product is zero below the sum
        # of where each side can start; an exact zero kills it outright
        if low_a is INFINITY or low_b is INFINITY:
            return HahnStream(())
        return HahnStream((), vadd(low_a, low_b))

    cert = lex_min(_shifted_cert(a.cert, low_b), _shifted_cert(b.cert, low_a))
    segs = []
    fam_a = []
    for seg in a.segments:
        if isinstance(seg, FiniteTerms):
            for exp, co in seg.terms:
                segs.extend(_term_segments(b.segments, co, exp))
        else:
            fam_a.append(seg)
    for seg in b.segments if fam_a else ():
        if isinstance(seg, FiniteTerms):
            for exp, co in seg.terms:
                segs.extend(_term_segments(fam_a, co, exp))
        else:
            for fa in fam_a:
                prods, box_cert = _family_box(fa, seg, budget)
                segs.append(FiniteTerms(prods))
                cert = lex_min(cert, box_cert)
    return _compact(segs, cert, budget)


def inverse(s, budget=DEFAULT_BUDGET):
    """Multiplicative inverse via the certified leading term.

    Exact closed forms for a single term (monomial shift) and a
    binomial (geometric family); otherwise a geometric expansion of
    depth _INV_DEPTH, certified up to (depth+1) * nu(tail/lead).
    """
    lead = leading_term(s, budget)
    if lead is None:
        raise ZeroDivisionError("inverse of the zero stream")
    A, c = lead
    negA = vscale(-1, A)
    cinv = c ** -1

    single = s.as_single_term()
    if single is not None:
        return HahnStream.single(negA, cinv)

    # binomial fast path: exactly lead + one more certain term
    if s.cert is INFINITY and len(s.segments) == 1 and \
            isinstance(s.segments[0], FiniteTerms) and \
            len(s.segments[0].terms) == 2:
        (e1, c1), (e2, c2) = s.segments[0].terms
        ratio = -(c2 / c1)
        d = vsub(e2, e1)
        geo = APFamily(vadd(negA, d), d, cinv, 0, ratio, None)
        return HahnStream((FiniteTerms(((negA, cinv),)), geo))

    # general: s = c t^A (1 + rho), invert the unit by geometric sums.
    # The expansion only has to be certified deep enough, not wide, so
    # it runs under a tight term cap of its own.
    tight = budget if budget.max_terms <= 64 else \
        budget.replace(max_terms=64)
    if any(isinstance(seg, APFamily) for seg in s.segments):
        # working from a certified finite prefix keeps every power in
        # the expansion finite, so no family boxes pile up below
        s = _flatten(s, tight)
    rho = _compact(_term_segments(s.segments + (FiniteTerms(((A, -c),)),),
                                  cinv, negA),
                   _shifted_cert(s.cert, negA), tight)
    v_rho = nu_t(rho, budget)
    if v_rho is INFINITY:
        return HahnStream.single(negA, cinv)
    if not is_lex_positive(v_rho):
        raise InconclusiveError("tail does not shrink: nu %r" % (v_rho,))
    power = HahnStream.single((0,) * len(A), c.tower.one)
    segs = list(power.segments)
    cert = vscale(_INV_DEPTH + 1, v_rho)
    neg_rho = neg(rho)
    for _ in range(_INV_DEPTH):
        power = mul(power, neg_rho, tight)
        segs.extend(power.segments)
        cert = lex_min(cert, power.cert)
        if power.is_structurally_zero:
            # anything further lies at or past power.cert
            break
    return _compact(_term_segments(segs, cinv, negA), vadd(cert, negA),
                    budget)


def _flatten(s, budget):
    """Certified finite prefix of a stream, as plain terms.  The last
    enumerated exponent becomes the new certificate, so the result is
    trustworthy exactly as far as it is explicit.  Keeps the geometric
    expansion below finite even when the tail carries families."""
    s = _expand_hostile(s, budget)
    want = min(budget.max_terms, 24)
    terms = []
    exhausted = False
    while len(terms) < want:
        try:
            nxt = first_terms(s, len(terms) + 1, budget)
        except InconclusiveError:
            break
        if len(nxt) <= len(terms):
            terms = nxt
            exhausted = True
            break
        terms = nxt
    if exhausted:
        return HahnStream((FiniteTerms(tuple(terms)),) if terms else (),
                          s.cert)
    if not terms:
        raise InconclusiveError("no certified prefix to flatten")
    cut = terms[-1][0]
    return HahnStream((FiniteTerms(tuple(terms[:-1])),)
                      if len(terms) > 1 else (), cut)


def stream_pow(s, k, budget=DEFAULT_BUDGET):
    """Integer power; negative k inverts first."""
    if k == 0:
        term = s.as_single_term()
        tower = term[1].tower if term else _any_tower(s)
        return HahnStream.single((0,) * _rank(s), tower.one)
    single = s.as_single_term()
    if single is not None:
        exp, co = single
        return HahnStream.single(vscale(k, exp), co ** k)
    if k < 0:
        return stream_pow(inverse(s, budget), -k, budget)
    result = None
    base = s
    while True:
        if k & 1:
            result = base if result is None else mul(result, base, budget)
        k >>= 1
        if not k:
            break
        base = mul(base, base, budget)
    return result


def _rank(s):
    for seg in s.segments:
        return len(seg.first_exponent())
    raise ValueError("rank of an empty stream is undetermined")


def _any_tower(s):
    for seg in s.segments:
        if isinstance(seg, FiniteTerms):
            return seg.terms[0][1].tower
        return seg.c.tower
    raise ValueError("empty stream has no coefficient tower")


def monomial_image(R, images, budget=DEFAULT_BUDGET):
    """phi(Y^R): product over l of images[l] ** R[l].

    Negative exponents invert streams, which requires certified
    leading terms.
    """
    if len(R) != len(images):
        raise ValueError("exponent tuple and image list lengths differ")
    result = None
    for r_l, img in zip(R, images):
        if not r_l:
            continue
        factor = stream_pow(img, r_l, budget)
        result = factor if result is None else mul(result, factor, budget)
    if result is None:
        if not images:
            raise ValueError("empty image list")
        tower = _any_tower(images[0])
        return HahnStream.single((0,) * _rank(images[0]), tower.one)
    return result


def subtract_segment_limit(s, family):
    """Remove an entire infinite family that forms the current head of
    the stream: its first term is the stream's leading term and every
    other segment lies above all of the family's (unbounded) support.

    Raises NoLimitError when the family is not present or not
    isolated, InconclusiveError when certification cannot see the
    family's head.
    """
    if family.count is not None:
        raise NoLimitError("only infinite families can be taken as limits")
    matches = [seg for seg in s.segments if seg == family]
    if not matches:
        raise NoLimitError("family %r is not a segment of the stream"
                           % (family,))
    head = family.exponent(1)
    if s.cert is not INFINITY and lex_cmp(head, s.cert) >= 0:
        raise InconclusiveError(
            "certificate exhausted: family head %r >= certificate %r"
            % (head, s.cert),
            detail={"budget": "certificate", "used": head,
                    "limit": s.cert})
    p = next(k for k, d in enumerate(family.step) if d)
    for seg in s.segments:
        if seg == family:
            continue
        first = seg.first_exponent()
        if not first[:p] > family.start[:p]:
            raise NoLimitError(
                "segment starting at %r interleaves with the family"
                % (first,))
    rest = tuple(seg for seg in s.segments if seg != family)
    return HahnStream(rest, s.cert)
