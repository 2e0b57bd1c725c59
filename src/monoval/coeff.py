"""Exact coefficient fields for the residue tower.

The ground field k is either Q or a prime field F_p.  Residues live in
a rational function field k(w_1,...,w_d) ("tower").  A ground scalar
times a Laurent monomial in the symbols is held as the scalar and an
exponent tuple.  Every other element is represented on top of sympy's
sparse multivariate FracField with one extra canonical convention: the
denominator's leading coefficient (lex order on the symbols) is always
1.  Either way equal elements have identical representations and
syntactic equality is field equality.

Products take one of three routes:

* monomial x monomial: multiply the scalars, add the exponents;
* fraction x monomial: shift the reduced numerator and denominator by
  monomials read off their exponent minima, without a polynomial gcd
  (see `TowerElem._times_mono`);
* fraction x fraction: sympy's FracField product, which cancels by a
  gcd.

Only the last, and sums that make a real polynomial, pay for a gcd.

Subfield membership is the symbol-subset test: under the engine's
standing purity assumption the adjoined symbols are algebraically
independent transcendentals, so an element lies in the subfield
generated by a set of symbols iff its reduced form mentions only
those symbols.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from sympy.polys.domains import GF, QQ
from sympy.polys.fields import FracField


class CoeffError(ValueError):
    """Invalid coefficient-field construction or operation."""


class ParseError(CoeffError):
    """Malformed coefficient expression; `pos` is a 0-based offset."""

    def __init__(self, message, pos):
        self.pos = pos
        super().__init__("%s (at offset %d)" % (message, pos))


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class GroundField:
    """Q (p is None) or the prime field F_p."""

    p: object = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise CoeffError("%r is not prime" % (self.p,))

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
        return QQ if self.p is None else GF(self.p)

    def __str__(self):
        return "Q" if self.p is None else "F%d" % self.p


_TOWER_CACHE = {}


class Tower:
    """Interned context k(w_1,...,w_d); symbols ordered as declared."""

    __slots__ = ("ground", "symbols", "_field", "_by_name", "_dom",
                 "_no_exps", "_zero", "_one")

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
        self._field = FracField(list(symbols), ground.domain())
        self._dom = self._field.domain
        self._by_name = {name: k for k, name in enumerate(symbols)}
        self._no_exps = (0,) * len(symbols)
        self._zero = TowerElem(self, self._dom.zero, self._no_exps)
        self._one = TowerElem(self, self._dom.one, self._no_exps)
        _TOWER_CACHE[key] = self
        return self

    def _mono(self, scalar, exps):
        """Scalar (a ground-domain element) times the Laurent monomial
        with exponent tuple `exps`."""
        if not scalar:
            return self._zero
        return TowerElem(self, scalar, exps)

    def _make(self, frac):
        """Wrap a raw FracElement in canonical form: the scalar-monomial
        form when it is one, else the reduced fraction with a monic
        denominator."""
        num, den = frac.numer, frac.denom
        if len(den) == 1 and len(num) <= 1:
            if not num:
                return self._zero
            (nexp, nc), = num.items()
            (dexp, dc), = den.items()
            return self._mono(nc / dc, tuple(map(sub, nexp, dexp)))
        lc = den.LC
        if lc != self._dom.one:
            frac = self._field.raw_new(num.quo_ground(lc), den.quo_ground(lc))
        return TowerElem(self, None, None, frac)

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def from_int(self, n):
        return self._mono(self._dom(n), self._no_exps)

    def from_fraction(self, q):
        q = Fraction(q)
        return self.from_int(q.numerator) / self.from_int(q.denominator)

    def gen(self, name):
        try:
            k = self._by_name[name]
        except KeyError:
            raise CoeffError("unknown symbol %r in %s" % (name, self)) from None
        exps = list(self._no_exps)
        exps[k] = 1
        return TowerElem(self, self._dom.one, tuple(exps))

    def extend(self, name):
        """Adjoin a fresh symbol, returning the extended tower."""
        if name in self._by_name:
            raise CoeffError("symbol %r already present" % (name,))
        return Tower(self.ground, self.symbols + (name,))

    def lift(self, elem):
        """Re-express an element of a sub-tower (same ground field,
        symbol subset) in this tower."""
        if elem.tower is self:
            return elem
        if elem.tower.ground != self.ground:
            raise CoeffError("ground fields differ")
        if not set(elem.tower.symbols) <= set(self.symbols):
            raise CoeffError("not a sub-tower")
        if elem.scalar is not None:
            exps = dict(zip(elem.tower.symbols, elem.exps))
            return self._mono(elem.scalar, tuple(exps.get(name, 0)
                                                 for name in self.symbols))
        return self._make(self._field.from_expr(elem.raw.as_expr()))

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

    An element that is a ground scalar times a Laurent monomial in the
    symbols (zero included) is held as `scalar` (a ground-domain
    element) and `exps` (one exponent per symbol); products, powers
    and quotients of such elements never call FracField.  Any other
    element holds its reduced FracElement, with `scalar` and `exps`
    None.  Every route to a scalar-monomial value ends in the first
    form, so the two forms never describe the same element."""

    __slots__ = ("tower", "scalar", "exps", "_frac")

    def __init__(self, tower, scalar, exps, frac=None):
        self.tower = tower
        self.scalar = scalar
        self.exps = exps
        self._frac = frac

    def _parts(self):
        """Numerator and denominator of the reduced form as lists of
        (exponent tuple, ground coefficient), in sympy's term order."""
        if self.scalar is None:
            return self._frac.numer.terms(), self._frac.denom.terms()
        one = self.tower._dom.one
        if not self.scalar:
            return [], [(self.exps, one)]
        num = tuple(e if e > 0 else 0 for e in self.exps)
        den = tuple(-e if e < 0 else 0 for e in self.exps)
        return [(num, self.scalar)], [(den, one)]

    @property
    def raw(self):
        """The element as a sympy FracElement (built on demand for the
        scalar-monomial form)."""
        if self.scalar is None:
            return self._frac
        ring = self.tower._field.ring
        num, den = self._parts()
        return self.tower._field.raw_new(ring(dict(num)), ring(dict(den)))

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
        if self.scalar is not None and other.scalar is not None:
            if not other.scalar:
                return self
            if not self.scalar:
                return other
            if self.exps == other.exps:
                return self.tower._mono(self.scalar + other.scalar, self.exps)
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
        if self.scalar is not None:
            if other.scalar is not None:
                return self.tower._mono(self.scalar * other.scalar,
                                        tuple(map(add, self.exps, other.exps)))
            return other._times_mono(self)
        if other.scalar is not None:
            return self._times_mono(other)
        return self.tower._make(self.raw * other.raw)

    __rmul__ = __mul__

    def _times_mono(self, mono):
        """Product of this fraction num/den with the scalar-monomial
        s * x^P / x^N, reduced without a polynomial gcd: since num and
        den are coprime, the only common factors are the monomials
        g1 = gcd(x^P, den) and g2 = gcd(x^N, num), read off the
        exponent minima.  The result is (s * num/g2 * x^P/g1) /
        (den/g1 * x^N/g2); dividing or multiplying by monomials keeps
        the denominator monic, and a fraction times a unit of the
        monomial group is never a scalar-monomial."""
        if not mono.scalar:
            return self.tower._zero
        num, den = self._frac.numer, self._frac.denom
        num_shift, den_shift = [], []
        for e, n_min, d_min in zip(mono.exps, map(min, zip(*num)),
                                   map(min, zip(*den))):
            if e > 0:
                g1 = min(e, d_min)
                num_shift.append(e - g1)
                den_shift.append(-g1)
            else:
                g2 = min(-e, n_min)
                num_shift.append(-g2)
                den_shift.append(-e - g2)
        frac = self.tower._field.raw_new(
            _times_monomial(num, num_shift).mul_ground(mono.scalar),
            _times_monomial(den, den_shift))
        return TowerElem(self.tower, None, None, frac)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero in %s" % (self.tower,))
        if self.scalar is not None and other.scalar is not None:
            return self.tower._mono(self.scalar / other.scalar,
                                    tuple(map(sub, self.exps, other.exps)))
        return self.tower._make(self.raw / other.raw)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        if self.scalar is not None:
            return self.tower._mono(-self.scalar, self.exps)
        return self.tower._make(-self.raw)

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return self.tower.one
        if e < 0 and self.is_zero:
            raise ZeroDivisionError("0 to a negative power")
        if self.scalar is not None:
            return self.tower._mono(self.scalar ** e,
                                    tuple(x * e for x in self.exps))
        return self.tower._make(self.raw ** e)

    def __bool__(self):
        return not self.is_zero

    @property
    def is_zero(self):
        return self.scalar is not None and not self.scalar

    @property
    def is_one(self):
        return (self.scalar is not None and self.scalar == self.tower._dom.one
                and not any(self.exps))

    @property
    def weight(self):
        """Representation size: total monomial count of numerator and
        denominator.  A proxy for how expensive arithmetic with this
        element is."""
        num, den = self._parts()
        return len(num) + len(den)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.tower.from_int(other)
        if not isinstance(other, TowerElem):
            return NotImplemented
        if self.tower is not other.tower:
            return False
        if self.scalar is None:
            return other.scalar is None and self._frac == other._frac
        return (other.scalar is not None and self.scalar == other.scalar
                and self.exps == other.exps)

    def __hash__(self):
        if self.scalar is not None:
            return hash((id(self.tower), self.scalar, self.exps))
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
        if self.scalar is None or not self.scalar:
            return None
        scalar = self.tower._mono(self.scalar, self.tower._no_exps)
        return scalar, {name: e for name, e in zip(self.tower.symbols,
                                                   self.exps) if e}

    def __str__(self):
        num, den = self._parts()
        if den == [(self.tower._no_exps, self.tower._dom.one)]:
            return _poly_str(num, self.tower)
        num_s = _poly_str(num, self.tower)
        den_s = _poly_str(den, self.tower)
        if len(num) > 1:
            num_s = "(%s)" % num_s
        if not _is_atom(den, self.tower):
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


def is_in_subfield(x, allowed):
    """True iff every symbol of x's reduced form lies in `allowed`."""
    return x.is_in_subfield(allowed)


def _coeff_str(c, tower):
    dom = tower._field.domain
    if dom.is_FF:
        return str(int(c) % tower.ground.p)
    return str(c)


def _is_negative(c, tower):
    if tower._field.domain.is_FF:
        return False
    return c < 0


def _monomial_str(exps, tower):
    parts = []
    for k, e in enumerate(exps):
        if e == 0:
            continue
        name = tower.symbols[k]
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts)


def _poly_str(terms, tower):
    if not terms:
        return "0"
    pieces = []
    for exps, c in terms:
        mono = _monomial_str(exps, tower)
        neg = _is_negative(c, tower)
        if neg:
            c = -c
        cs = _coeff_str(c, tower)
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


def _is_atom(terms, tower):
    """Single integer, or single symbol power with unit coefficient."""
    if len(terms) != 1:
        return False
    exps, c = terms[0]
    nz = [e for e in exps if e]
    if not nz:
        return True
    return len(nz) == 1 and c == tower._field.domain.one


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
