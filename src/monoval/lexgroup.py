"""Exact arithmetic on Z^m under the lexicographic order.

Value vectors are plain tuples of Python integers compared
lexicographically (which is exactly how Python compares equal-length
tuples).  The module provides:

* vector helpers and L-degrees of monomial exponents,
* the echelon algorithm that turns a list of positive value vectors
  into a basis of the subgroup they generate, logging every row
  operation (each ``AddRow(l, i, -q)`` is readable as ``q`` monoidal
  transformations ``X_l -> Y_l * Y_i``),
* ``solve_in_basis``, expressing a vector in an echelon basis with
  integer (possibly negative) coordinates.

All functions are pure and all returned containers are immutable.
"""

import operator

from .record import Record


class DimensionError(ValueError):
    """Operands live in value groups of different ranks."""


class NotInSubgroup(ValueError):
    """A vector is not an integer combination of the given basis."""

    def __init__(self, vector):
        self.vector = tuple(vector)
        super().__init__("%r is not in the subgroup" % (self.vector,))


class _Infinity(object):
    """Value of the zero series: larger than every vector."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "infinity"

    def __reduce__(self):
        return (_Infinity, ())


#: Singleton returned by valuations of the zero element.
INFINITY = _Infinity()


def lex_cmp(a, b):
    """Compare two vectors lexicographically: -1, 0 or 1."""
    if len(a) != len(b):
        raise DimensionError("rank mismatch: %d vs %d" % (len(a), len(b)))
    if a == b:
        return 0
    return -1 if a < b else 1


def lex_min(a, b):
    """Lexicographic minimum; either argument may be INFINITY."""
    if a is INFINITY:
        return b
    if b is INFINITY:
        return a
    return a if lex_cmp(a, b) <= 0 else b


def is_lex_positive(a):
    """True iff the first nonzero coordinate is positive."""
    for c in a:
        if c:
            return c > 0
    return False


def vadd(a, b):
    if len(a) != len(b):
        raise DimensionError("rank mismatch: %d vs %d" % (len(a), len(b)))
    return tuple(map(operator.add, a, b))


def vsub(a, b):
    if len(a) != len(b):
        raise DimensionError("rank mismatch: %d vs %d" % (len(a), len(b)))
    return tuple(map(operator.sub, a, b))


def vscale(c, a):
    return tuple([c * x for x in a])


def degree_L(A, L):
    """L-degree of the monomial X^A: sum of A[i] * L[i] in Z^m.

    A is an exponent tuple of length n (entries may be negative for
    Laurent monomials), L a list of n value vectors.
    """
    if len(A) != len(L):
        raise DimensionError(
            "exponent length %d does not match %d values" % (len(A), len(L)))
    if not L:
        raise DimensionError("empty value list")
    m = len(L[0])
    total = [0] * m
    for a, B in zip(A, L):
        if len(B) != m:
            raise DimensionError("ragged value list")
        if a:
            for k in range(m):
                total[k] += a * B[k]
    return tuple(total)


class AddRow(Record):
    """Row operation F_{l,i}(q): row l += q * row i.

    Indices are 0-based variable indices, stable across reorderings.
    A negative q = -q_l reads as q_l monoidal transformations
    X_l -> Y_l * Y_i (the image of X_l gets divided by the image of
    X_i, q_l times).
    """
    __slots__ = ("l", "i", "q")

    def __init__(self, l, i, q):
        self._init(l, i, q)


def replay_rowops(rows, ops):
    """Apply a row-operation log to a list of vectors (by variable
    index) and return the transformed list."""
    out = list(rows)
    for op in ops:
        if isinstance(op, AddRow):
            out[op.l] = vadd(out[op.l], vscale(op.q, out[op.i]))
        else:
            raise TypeError("unknown row operation %r" % (op,))
    return out


class SubgroupBasis(Record):
    """Echelon basis of a subgroup of Z^m.

    basis[k] has its first nonzero entry (the pivot, equal to
    pivots[k] > 0) in column pivot_cols[k]; pivot columns strictly
    increase, so basis[0] is the lex-largest basis vector.
    """
    __slots__ = ("basis", "pivots", "pivot_cols")

    def __init__(self, basis, pivots, pivot_cols):
        self._init(basis, pivots, pivot_cols)

    @property
    def rank(self):
        return len(self.basis)

    def contains(self, A):
        try:
            self.solve(A)
        except NotInSubgroup:
            return False
        return True

    def solve(self, A):
        """Integer coordinates of A in this basis (top pivot first).

        Raises NotInSubgroup when A is not an integer combination.
        """
        rem = list(A)
        coords = []
        for row, piv, col in zip(self.basis, self.pivots, self.pivot_cols):
            q, r = divmod(rem[col], piv)
            if r:
                raise NotInSubgroup(A)
            if q:
                for k in range(len(rem)):
                    rem[k] -= q * row[k]
            coords.append(q)
        if any(rem):
            raise NotInSubgroup(A)
        return tuple(coords)


def solve_in_basis(A, sb, n, positions=None):
    """Exponent tuple R_A of length n with degree placed at carrier
    positions: sum of R_A[positions[k]] * basis[k] equals A.

    positions defaults to 0..rank-1.  Entries may be negative
    (Laurent monomials in the quotient field).
    """
    coords = sb.solve(A)
    if positions is None:
        positions = tuple(range(sb.rank))
    if len(positions) != sb.rank:
        raise DimensionError("need one carrier position per basis row")
    R = [0] * n
    for k, q in enumerate(coords):
        R[positions[k]] = q
    return tuple(R)


_MAX_PASSES_PER_ROW = 10000


def echelon_reduce(rows):
    """Echelon basis of the subgroup generated by positive vectors.

    Implements the staircase algorithm on the matrix whose rows are
    the given vectors, sorted ascending before every pass.  With the
    block of rows sharing the current pivot column, each lower row
    A_l against the pivot row A_i with quotient q_l = a_l // a_i and
    remainder r_l:

    * r_l != 0:  F_{l,i}(-q_l)                       (Euclidean step)
    * r_l == 0 and A_l - q_l A_i >_lex 0:  F_{l,i}(-q_l)   (row
      leaves the block and raises a step)
    * r_l == 0 otherwise:  F_{l,i}(1 - q_l), keeping the row in the
      block one multiple above the pivot

    until every row of the block equals the pivot row; the block is
    then final and the rows above it are processed the same way on
    later columns.  Returns the basis (pivot columns strictly
    increasing) and the log of AddRow operations by variable index.

    Raises ValueError on rows that are not strictly positive.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        raise ValueError("no rows given")
    m = len(rows[0])
    for r in rows:
        if len(r) != m:
            raise DimensionError("ragged rows")
        if not is_lex_positive(r):
            raise ValueError("row %r is not lexicographically positive" % (r,))

    work = sorted(((r, idx) for idx, r in enumerate(rows)),
                  key=lambda pair: pair[0])
    ops = []
    basis_rows = []
    bound = len(work)
    budget = _MAX_PASSES_PER_ROW * len(rows)

    while bound > 0:
        sub = work[:bound]
        j = next(c for c in range(m) if any(vec[c] for vec, _ in sub))
        i = next(idx for idx in range(bound) if sub[idx][0][j])
        pivot_vec, pivot_var = work[i]
        if all(work[l][0] == pivot_vec for l in range(i + 1, bound)):
            basis_rows.append((pivot_vec, j))
            bound = i
            continue
        budget -= 1
        if budget < 0:
            raise RuntimeError("echelon pass budget exhausted")
        p = pivot_vec[j]
        for l in range(i + 1, bound):
            vec_l, var_l = work[l]
            q, r = divmod(vec_l[j], p)
            if r:
                work[l] = (vsub(vec_l, vscale(q, pivot_vec)), var_l)
                ops.append(AddRow(var_l, pivot_var, -q))
            else:
                cand = vsub(vec_l, vscale(q, pivot_vec))
                if is_lex_positive(cand):
                    work[l] = (cand, var_l)
                    ops.append(AddRow(var_l, pivot_var, -q))
                elif q != 1:
                    work[l] = (vadd(cand, pivot_vec), var_l)
                    ops.append(AddRow(var_l, pivot_var, 1 - q))
                # q == 1 with cand <= 0 forces cand == 0 under the
                # ascending sort: the rows are equal, nothing to do
        work[:bound] = sorted(work[:bound], key=lambda pair: pair[0])

    basis = tuple(vec for vec, _ in basis_rows)
    pivots = tuple(vec[col] for vec, col in basis_rows)
    pivot_cols = tuple(col for _, col in basis_rows)
    return SubgroupBasis(basis, pivots, pivot_cols), ops
