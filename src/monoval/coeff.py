"""Exact coefficient fields for the residue tower.

The ground field k is either Q or a prime field F_p.  A ground scalar
is a plain Python number: over F_p an `int` in [0, p), over Q an `int`
when it is integral and a `fractions.Fraction` otherwise (`==` and
`hash` agree across the two types, and each value has one form).

Residues live in a rational function field k(w_1,...,w_d) ("tower").
An element takes exactly one of two forms:

* a Laurent polynomial: a tuple of (exponent tuple, nonzero scalar)
  pairs in descending lex order of the exponents, which is sympy's
  term order; zero is `()`.  Every element whose reduced denominator
  is a monomial has this form;
* a reduced fraction: sympy's FracElement whose denominator, not a
  monomial, has leading coefficient (lex order on the symbols) 1.

Equal elements therefore have identical representations, and
syntactic equality is field equality.

Arithmetic takes one of three routes:

* Laurent with Laurent: sums, products, positive powers and quotients
  by a one-term element stay Laurent polynomials and run on the
  scalars directly;
* fraction times a one-term element: the reduced numerator and
  denominator are shifted by monomials read off their exponent
  minima, without a polynomial gcd (see `TowerElem._times_mono`);
* everything else (a sum with a fraction, a product of a fraction and
  a multi-term element, a quotient by a multi-term element): sympy's
  FracField, which cancels by a gcd.

sympy is imported only on the first use of the last route, of
`TowerElem.raw` or of `GroundField.domain`, so a run whose
coefficients all have monomial denominators never loads it.

Subfield membership is the symbol-subset test: under the engine's
standing purity assumption the adjoined symbols are algebraically
independent transcendentals, so an element lies in the subfield
generated by a set of symbols iff its reduced form mentions only
those symbols.
"""

import re
import weakref
from fractions import Fraction
from operator import add, sub

from .record import Record


class CoeffError(ValueError):
    """Invalid coefficient-field construction or operation."""


class ParseError(CoeffError):
    """Malformed input; `pos` is a 0-based offset into the expression,
    or None when the error is not about a position in one."""

    def __init__(self, message, pos=None):
        self.pos = pos
        super().__init__(message if pos is None
                         else "%s (at offset %d)" % (message, pos))


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class GroundField(Record):
    """Q (p is None) or the prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and not _is_prime(p):
            raise CoeffError("%r is not prime" % (p,))
        self._init(p)

    @classmethod
    def rationals(cls):
        return cls(None)

    @classmethod
    def prime(cls, p):
        return cls(p)

    @property
    def characteristic(self):
        return 0 if self.p is None else self.p

    def domain(self):
        """The matching sympy ground domain (imports sympy)."""
        from sympy.polys.domains import GF, QQ

        return QQ if self.p is None else GF(self.p)

    def __str__(self):
        return "Q" if self.p is None else "F%d" % self.p


# ----------------------------------------------------------- scalars
# `red` brings the result of ring arithmetic on scalars back to
# canonical form: `p.__rmod__` over F_p, `_norm` over Q.


def _norm(q):
    """A rational scalar in canonical form: integral values as int."""
    if type(q) is Fraction and q.denominator == 1:
        return q.numerator
    return q


def _inv(c, p):
    return pow(c, -1, p) if p else _norm(Fraction(1, c))


def _pow(c, e, p):
    if p:
        return pow(c, e, p)
    return c ** e if e >= 0 else _norm(Fraction(1, c) ** -e)


# ------------------------------------------------- Laurent polynomials
# A tuple of (exponent tuple, nonzero scalar) in descending lex order.


def _add_terms(a, b, red):
    if not b:
        return a
    if not a:
        return b
    acc = dict(a)
    for e, c in b:
        s = red(acc.get(e, 0) + c)
        if s:
            acc[e] = s
        else:
            del acc[e]
    # exponent tuples are distinct, so the scalars are never compared
    return tuple(sorted(acc.items(), reverse=True))


def _mul_terms(a, b, red):
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        # a shift keeps the lex order, and a field has no zero divisors
        (eb, cb), = b
        if len(a) == 1:
            (ea, ca), = a
            return ((tuple(map(add, ea, eb)), red(ca * cb)),)
        return tuple((tuple(map(add, e, eb)), red(c * cb)) for e, c in a)
    acc = {}
    for ea, ca in a:
        for eb, cb in b:
            e = tuple(map(add, ea, eb))
            acc[e] = acc.get(e, 0) + ca * cb
    return tuple(sorted((item for item in zip(acc, map(red, acc.values()))
                         if item[1]), reverse=True))


def _pow_terms(a, e, red):
    """a ** e for e >= 1, by repeated squaring."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else _mul_terms(out, a, red)
        e >>= 1
        if not e:
            return out
        a = _mul_terms(a, a, red)


# towers stay interned only while something refers to them
_TOWER_CACHE = weakref.WeakValueDictionary()


class Tower:
    """Interned context k(w_1,...,w_d); symbols ordered as declared."""

    __slots__ = ("ground", "symbols", "_p", "_red", "_field", "_by_name",
                 "_no_exps", "_zero", "_one", "__weakref__")

    def __new__(cls, ground, symbols=()):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise CoeffError("duplicate symbols in %r" % (symbols,))
        key = (ground, symbols)
        cached = _TOWER_CACHE.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self.ground = ground
        self.symbols = symbols
        self._p = ground.p
        self._red = ground.p.__rmod__ if ground.p else _norm
        self._field = None
        self._by_name = {name: k for k, name in enumerate(symbols)}
        self._no_exps = (0,) * len(symbols)
        self._zero = TowerElem(self, ())
        self._one = TowerElem(self, ((self._no_exps, 1),))
        _TOWER_CACHE[key] = self
        return self

    def _fracfield(self):
        """sympy's FracField over this tower, built on first use."""
        if self._field is None:
            from sympy.polys.fields import FracField

            self._field = FracField(list(self.symbols), self.ground.domain())
        return self._field

    def _to_domain(self, c):
        dom = self._fracfield().domain
        return dom(c) if self._p else dom(c.numerator, c.denominator)

    def _from_domain(self, c):
        if self._p:
            return int(c) % self._p
        n, d = int(c.numerator), int(c.denominator)
        return n if d == 1 else Fraction(n, d)

    def _mono(self, scalar, exps):
        """Scalar times the Laurent monomial with exponent tuple
        `exps`."""
        return TowerElem(self, ((exps, scalar),) if scalar else ())

    def _make(self, frac):
        """Wrap a raw FracElement in canonical form: the Laurent
        polynomial when the denominator is a monomial, else the reduced
        fraction with a monic denominator."""
        num, den = frac.numer, frac.denom
        if len(den) == 1:
            (dexp, dc), = den.items()
            return TowerElem(self, tuple(
                (tuple(map(sub, e, dexp)), self._from_domain(c / dc))
                for e, c in num.terms()))
        lc = den.LC
        if lc != den.ring.domain.one:
            frac = frac.field.raw_new(num.quo_ground(lc), den.quo_ground(lc))
        return TowerElem(self, None, frac)

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def from_int(self, n):
        return self._mono(n % self._p if self._p else n, self._no_exps)

    def from_fraction(self, q):
        q, p = Fraction(q), self._p
        if not p:
            return self._mono(_norm(q), self._no_exps)
        if not q.denominator % p:
            raise ZeroDivisionError("division by zero in %s" % (self,))
        return self.from_int(q.numerator * _inv(q.denominator, p))

    def gen(self, name):
        try:
            k = self._by_name[name]
        except KeyError:
            raise CoeffError("unknown symbol %r in %s" % (name, self)) from None
        exps = list(self._no_exps)
        exps[k] = 1
        return TowerElem(self, ((tuple(exps), 1),))

    def parse(self, text):
        """Parse +, -, *, /, ^, parentheses, integers and declared
        symbols into a TowerElem."""
        return _Parser(self, text).parse()

    def __repr__(self):
        return "Tower(%s; %s)" % (self.ground, ", ".join(self.symbols) or "-")


class TowerElem:
    """Canonical element of a Tower.  Immutable; equality and hashing
    are representation equality (sound because construction always
    normalizes).

    A Laurent polynomial (zero included) is held as `_terms`, with
    `_frac` None; any other element holds its reduced FracElement in
    `_frac`, with `_terms` None.  Every route to a value whose reduced
    denominator is a monomial ends in the first form, so the two forms
    never describe the same element."""

    __slots__ = ("tower", "_terms", "_frac")

    def __init__(self, tower, terms, frac=None):
        self.tower = tower
        self._terms = terms
        self._frac = frac

    @property
    def scalar(self):
        """The ground scalar of a zero (0) or one-term element; None
        for any other element."""
        terms = self._terms
        if terms is None or len(terms) > 1:
            return None
        return terms[0][1] if terms else 0

    def _parts(self):
        """Numerator and denominator of the reduced form as lists of
        (exponent tuple, ground scalar), in sympy's term order."""
        terms = self._terms
        if terms is None:
            plain = self.tower._from_domain
            return ([(e, plain(c)) for e, c in self._frac.numer.terms()],
                    [(e, plain(c)) for e, c in self._frac.denom.terms()])
        if not terms:
            return [], [(self.tower._no_exps, 1)]
        shift = tuple(max(0, -min(col)) for col in zip(*(e for e, _ in terms)))
        return ([(tuple(map(add, e, shift)), c) for e, c in terms],
                [(shift, 1)])

    @property
    def raw(self):
        """The element as a sympy FracElement (built on demand for a
        Laurent polynomial)."""
        if self._terms is None:
            return self._frac
        tower = self.tower
        field = tower._fracfield()
        return field.raw_new(
            *(field.ring({e: tower._to_domain(c) for e, c in part})
              for part in self._parts()))

    def _coerce(self, other):
        if isinstance(other, TowerElem):
            if other.tower is not self.tower:
                raise CoeffError("elements of different towers")
            return other
        if isinstance(other, int):
            return self.tower.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if a is not None and b is not None:
            return TowerElem(self.tower, _add_terms(a, b, self.tower._red))
        if b == ():
            return self
        if a == ():
            return other
        return self.tower._make(self.raw + other.raw)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if a is not None:
            if b is not None:
                return TowerElem(self.tower, _mul_terms(a, b, self.tower._red))
            if len(a) <= 1:
                return other._times_mono(a)
        elif b is not None and len(b) <= 1:
            return self._times_mono(b)
        return self.tower._make(self.raw * other.raw)

    __rmul__ = __mul__

    def _times_mono(self, mono):
        """Product of this fraction num/den with `mono`, the terms of a
        zero or one-term Laurent polynomial s * x^P / x^N, reduced
        without a polynomial gcd: since num and den are coprime, the only common factors
        are the monomials g1 = gcd(x^P, den) and g2 = gcd(x^N, num),
        read off the exponent minima.  The result is
        (s * num/g2 * x^P/g1) / (den/g1 * x^N/g2); dividing or
        multiplying by monomials keeps the denominator monic and not a
        monomial."""
        if not mono:
            return self.tower._zero
        (exps, s), = mono
        num, den = self._frac.numer, self._frac.denom
        num_shift, den_shift = [], []
        for e, n_min, d_min in zip(exps, map(min, zip(*num)),
                                   map(min, zip(*den))):
            if e > 0:
                g1 = min(e, d_min)
                num_shift.append(e - g1)
                den_shift.append(-g1)
            else:
                g2 = min(-e, n_min)
                num_shift.append(-g2)
                den_shift.append(-e - g2)
        frac = self._frac.field.raw_new(
            _times_monomial(num, num_shift).mul_ground(
                self.tower._to_domain(s)),
            _times_monomial(den, den_shift))
        return TowerElem(self.tower, None, frac)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero in %s" % (self.tower,))
        b = other._terms
        if b is not None and len(b) == 1:
            (eb, cb), = b
            inverse = ((tuple(-x for x in eb), _inv(cb, self.tower._p)),)
            a = self._terms
            if a is not None:
                return TowerElem(self.tower,
                                 _mul_terms(a, inverse, self.tower._red))
            return self._times_mono(inverse)
        return self.tower._make(self.raw / other.raw)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        terms = self._terms
        if terms is None:
            return self.tower._make(-self.raw)
        red = self.tower._red
        return TowerElem(self.tower, tuple((e, red(-c)) for e, c in terms))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return self.tower.one
        if e < 0 and self.is_zero:
            raise ZeroDivisionError("0 to a negative power")
        terms = self._terms
        if terms == ():
            return self
        if terms is not None:
            if len(terms) == 1:
                (exps, c), = terms
                return TowerElem(self.tower, ((tuple(x * e for x in exps),
                                               _pow(c, e, self.tower._p)),))
            if e > 0:
                return TowerElem(self.tower,
                                 _pow_terms(terms, e, self.tower._red))
        return self.tower._make(self.raw ** e)

    def __bool__(self):
        return not self.is_zero

    @property
    def is_zero(self):
        return self._terms == ()

    @property
    def is_one(self):
        return self._terms == self.tower._one._terms

    @property
    def weight(self):
        """Representation size: total monomial count of numerator and
        denominator.  A proxy for how expensive arithmetic with this
        element is."""
        if self._terms is not None:
            return len(self._terms) + 1
        return len(self._frac.numer) + len(self._frac.denom)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.tower.from_int(other)
        if not isinstance(other, TowerElem):
            return NotImplemented
        if self.tower is not other.tower:
            return False
        if self._terms is not None:
            return self._terms == other._terms
        return other._terms is None and self._frac == other._frac

    def __hash__(self):
        if self._terms is not None:
            return hash((id(self.tower), self._terms))
        return hash((id(self.tower), self._frac))

    def symbols_used(self):
        """Names of the tower symbols appearing in the reduced form."""
        num, den = self._parts()
        return frozenset(name for exps, _ in num + den
                         for name, e in zip(self.tower.symbols, exps) if e)

    def degree_in(self, name):
        """Largest exponent of `name` in numerator or denominator."""
        try:
            k = self.tower.symbols.index(name)
        except ValueError:
            raise CoeffError("unknown symbol %r" % (name,)) from None
        num, den = self._parts()
        return max(exps[k] for exps, _ in num + den)

    def is_in_subfield(self, allowed):
        return self.symbols_used() <= frozenset(allowed)

    def as_symbol_monomial(self):
        """If this element is a scalar times a Laurent monomial in the
        symbols, return (scalar: TowerElem over no symbols needed,
        {name: exponent}); otherwise None.  Used to rewrite residue
        coefficients as monomials in the residue variables."""
        terms = self._terms
        if terms is None or len(terms) != 1:
            return None
        (exps, c), = terms
        return self.tower._mono(c, self.tower._no_exps), {
            name: e for name, e in zip(self.tower.symbols, exps) if e}

    def __str__(self):
        num, den = self._parts()
        if den == [(self.tower._no_exps, 1)]:
            return _poly_str(num, self.tower)
        num_s = _poly_str(num, self.tower)
        den_s = _poly_str(den, self.tower)
        if len(num) > 1:
            num_s = "(%s)" % num_s
        if not _is_atom(den):
            den_s = "(%s)" % den_s
        return "%s/%s" % (num_s, den_s)

    def __repr__(self):
        return "<%s in %r>" % (self, self.tower)


def _times_monomial(poly, shift):
    """`poly` times the Laurent monomial with exponents `shift`, which
    the caller guarantees leaves every exponent nonnegative."""
    if not any(shift):
        return poly
    return poly.new([(tuple(map(add, exps, shift)), c)
                     for exps, c in poly.items()])


def split_trailing(elem, tower):
    """`elem`, an element of k(w, x) whose tower lists the symbols w of
    `tower` first and then x, as the Laurent polynomial in x that it
    equals: {x exponents: coefficient in `tower`}.  None when it is no
    such polynomial, that is when its reduced denominator is not
    x^s * D(w)."""
    k = len(tower.symbols)
    num, den = elem._parts()
    shift = den[0][0][k:]
    if any(e[k:] != shift for e, _ in den):
        return None

    def poly(terms):
        return TowerElem(tower, tuple(sorted(terms, reverse=True)))

    denom = poly((e[:k], c) for e, c in den)
    groups = {}
    for e, c in num:
        groups.setdefault(tuple(map(sub, e[k:], shift)), []).append(
            (e[:k], c))
    return {x: poly(terms) / denom for x, terms in groups.items()}


def _monomial_str(exps, tower):
    parts = []
    for k, e in enumerate(exps):
        if e == 0:
            continue
        name = tower.symbols[k]
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts)


def _poly_str(terms, tower):
    """`terms` hold plain scalars; over F_p they are never negative."""
    if not terms:
        return "0"
    pieces = []
    for exps, c in terms:
        mono = _monomial_str(exps, tower)
        neg = c < 0
        if neg:
            c = -c
        cs = str(c)
        if mono and cs == "1":
            body = mono
        elif mono:
            body = "%s*%s" % (cs, mono)
        else:
            body = cs
        pieces.append((neg, body))
    out = []
    for k, (neg, body) in enumerate(pieces):
        if k == 0:
            out.append("-" + body if neg else body)
        else:
            out.append(" - " + body if neg else " + " + body)
    return "".join(out)


def _is_atom(terms):
    """Single integer, or single symbol power with unit coefficient."""
    if len(terms) != 1:
        return False
    exps, c = terms[0]
    nz = [e for e in exps if e]
    if not nz:
        return True
    return len(nz) == 1 and c == 1


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([-+*/^()]))")


def tokenize(text):
    """Token list [(kind, value, pos)]; kinds: int, name, op."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0],
                             len(text) - len(stripped))
        if m.group(1):
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent: expr > term > factor > atom, with ^ binding
    tightest and taking an integer exponent."""

    def __init__(self, tower, text):
        self.tower = tower
        self.text = text
        self.tokens = tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.k += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError("expected %r" % op, tok[2])

    def parse(self):
        if not self.tokens:
            raise ParseError("empty expression", 0)
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError("trailing input %r" % (tok[1],), tok[2])
        return value

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if tok[1] == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.take()
                rhs = self.factor()
                if tok[1] == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero:
                        raise ParseError("division by zero", tok[2])
                    value = value / rhs
            else:
                return value

    def factor(self):
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.take()
            return -self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.take()
            e = self.exponent()
            if base.is_zero and e < 0:
                raise ParseError("0 to a negative power", tok[2])
            return base ** e
        return base

    def exponent(self):
        tok = self.take()
        if tok[0] == "int":
            return tok[1]
        if tok[0] == "op" and tok[1] == "-":
            inner = self.take()
            if inner[0] != "int":
                raise ParseError("expected integer exponent", inner[2])
            return -inner[1]
        if tok[0] == "op" and tok[1] == "(":
            sign = 1
            nxt = self.take()
            if nxt[0] == "op" and nxt[1] == "-":
                sign = -1
                nxt = self.take()
            if nxt[0] != "int":
                raise ParseError("expected integer exponent", nxt[2])
            self.expect_op(")")
            return sign * nxt[1]
        raise ParseError("expected integer exponent", tok[2])

    def atom(self):
        tok = self.take()
        if tok[0] == "int":
            return self.tower.from_int(tok[1])
        if tok[0] == "name":
            try:
                return self.tower.gen(tok[1])
            except CoeffError:
                raise ParseError("unknown symbol %r" % tok[1], tok[2]) from None
        if tok[0] == "op" and tok[1] == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError("unexpected token %r" % (tok[1],), tok[2])
