"""Seeded inputs, the timed operation and its independent check, for
each benchmark workload.

Imported only by the worker process, after `src/` is on `sys.path`.
Every generator here is built from monoval's public API; nothing is
imported from `tests/`.  Expected values come from oracles that do not
reuse the code under test: exact integer/Fraction expansions for
streams, sympy matrices for lattices, and closed forms of the
generator parameters for the family specs.

A workload yields its inputs in *blocks* of fixed composition.  A
timed run processes the whole number of blocks that ends nearest the
run time, so every run sees the same mix of input classes; the block
layout of each workload says why.  `tail_ops` fixes the tail
percentile at the one that leaves ten samples beyond it in that many
ops, so the tail means the same whether a run holds one block or
several.
"""

import heapq
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from sympy import Matrix

from monoval import cli, engine, hahn
from monoval.coeff import GroundField, Tower
from monoval.errors import InconclusiveError
from monoval.hahn import APFamily, Budget, FiniteTerms, HahnStream
from monoval.lexgroup import INFINITY, vadd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPECS = os.path.join(ROOT, "src", "monoval", "specs")
GOLDEN = os.path.join(ROOT, "tests", "golden", "example_f5_monomialize.json")


def _rng(seed, *salt):
    """Independent deterministic stream per (seed, purpose, index);
    string seeds hash the same way in every interpreter."""
    return random.Random("-".join(str(x) for x in (seed,) + salt))


def _lmin(a, b):
    if a is INFINITY:
        return b
    if b is INFINITY:
        return a
    return min(a, b)


# ------------------------------------------------------- cli_shipped


def _spec(name):
    return os.path.join(SPECS, name + ".vspec")


def _cli_commands(verify_seed):
    """The five shipped-spec commands: (label, argv, check)."""
    with open(GOLDEN, "rb") as handle:
        golden = handle.read()

    def json_ok(code, out, err):
        return code == 0 and out == golden

    def verify_ok(code, out, err):
        return code == 0 and out.startswith(b"checked ")

    def value_ok(code, out, err):
        return code == 0 and out == b"(0,0,2)\n"

    def starved_ok(code, out, err):
        lines = err.decode().splitlines()
        if code != 3 or "pseudo-convergent prefix:" not in lines:
            return False
        prefix = lines[lines.index("pseudo-convergent prefix:") + 1:]
        return prefix == ["  (0,0,1)", "  (0,0,2)"]

    def purity_ok(code, out, err):
        return code == 4 and err.startswith(b"purity/dimension error:")

    return [
        ("monomialize_json", ["monomialize", "--json", _spec("example_f5")],
         json_ok),
        ("verify", ["verify", _spec("example_f5"), "--seed",
                    str(verify_seed)], verify_ok),
        ("value", ["value", _spec("example_f5"), "X2 - X1"], value_ok),
        ("starved", ["monomialize", _spec("example_starved")], starved_ok),
        ("purity", ["monomialize", _spec("purity_quadratic")], purity_ok),
    ]


class CliShipped:
    """One `python -m monoval.cli` process per op, one at a time.

    A block is `cycles` passes over the five commands, each pass in a
    seeded order, so each run holds the commands in equal shares; a
    block is short, so a run stops close to its run time.  The seed
    also picks the sampling seed of each `verify`.
    """

    name = "cli_shipped"
    cycles = 2
    trace_blocks = 3
    tail_ops = 30

    def block(self, seed, index):
        rng = _rng(seed, "cli", index)
        ops = []
        for _ in range(self.cycles):
            cycle = _cli_commands(rng.randint(0, 10 ** 6))
            rng.shuffle(cycle)
            ops += cycle
        return ops

    def warmup_input(self, seed):
        return None

    def run_op(self, op, launcher=("-m", "monoval.cli")):
        """`launcher` is what runs the CLI in the child interpreter; a
        traced run passes one that installs the tracer first."""
        label, argv, _ = op
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, *launcher, *argv], cwd=ROOT,
                              env=env, capture_output=True, timeout=120)
        return {"kind": label}, (proc.returncode, proc.stdout, proc.stderr)

    def check(self, op, out):
        code, stdout, stderr = out
        # -X importtime lines of a traced child are not CLI output
        stderr = b"\n".join(line for line in stderr.split(b"\n")
                            if not line.startswith(b"import time:"))
        return op[2](code, stdout, stderr)


# -------------------------------------------------- synthetic_corpus


def _f5uw():
    return Tower(GroundField.prime(5), ("u", "w"))    # towers are interned


def planted_spec(shape_rng, value_rng, tower):
    """Forward construction as in the c6 acceptance test: pick a value
    basis and transcendental slots, then present each variable as a
    unit times a monomial in hidden uniformizers.

    Returns the spec and the planted value rows (an m x m integer
    matrix of nonzero determinant) whose lattice the run must recover.
    Structure draws (n, m, rows, slots, bumps) come from `shape_rng`,
    the bump coefficients from `value_rng`.
    """
    n = shape_rng.choice((2, 3, 4))
    m = shape_rng.randint(max(1, n - 2), min(3, n))
    while True:
        rows = [[shape_rng.randint(0, 2) for _ in range(m)]
                for _ in range(m)]
        for k in range(m):
            rows[k][k] = shape_rng.randint(1, 2)
        if Matrix(rows).det() != 0:
            break
    symbols = tower.symbols[:n - m]
    images = []
    for i in range(n):
        if i < m:
            exp = tuple(rows[i])
            co = tower.one
        else:
            exp = tuple(rows[shape_rng.randrange(m)])
            co = tower.gen(symbols[i - m])
        extra = []
        if shape_rng.random() < 0.5:
            bump = tuple(a + b for a, b in
                         zip(exp, rows[shape_rng.randrange(m)]))
            extra.append((bump, tower.from_int(value_rng.randint(1, 4))))
        images.append(HahnStream((FiniteTerms(tuple([(exp, co)] + extra)),)))
    spec = engine.ValuationSpec(
        tower=tower, m=m, names=tuple("X%d" % (i + 1) for i in range(n)),
        images=tuple(images), symbols=symbols)
    return spec, rows


def same_lattice(a_rows, b_rows):
    """Two square integer matrices of full rank generate the same row
    lattice iff each is an integer matrix times the other."""
    a, b = Matrix(a_rows), Matrix(b_rows)
    if a.shape != b.shape or a.det() == 0 or b.det() == 0:
        return False
    return all(x.is_integer for x in a * b.inv()) and \
        all(x.is_integer for x in b * a.inv())


class SyntheticCorpus:
    """One forward-constructed spec with finite images: monomialize,
    then verify_monomial on 200 random polynomials.

    The cost of a spec is bimodal in its structure: when a monoidal
    transformation divides by a two-term image, verification builds
    geometric families and eager family boxes and takes seconds instead
    of tens of milliseconds.  Free structural draws would put a
    different number of slow specs into each run, so every block holds
    the structures of the same `per_block` catalogue entries (drawn by
    the c6 rules from a fixed salt, independent of the seed; 8 of them
    slow) while the seed draws, per block, their coefficients and the
    sampled polynomials.
    """

    name = "synthetic_corpus"
    per_block = 30
    trace_blocks = 1
    tail_ops = 30

    def block(self, seed, index):
        tower = _f5uw()
        out = []
        for k in range(self.per_block):
            spec, rows = planted_spec(
                _rng("synthetic-shape", k),
                _rng(seed, "synthetic-values", index, k), tower)
            out.append((spec, rows,
                        _rng(seed, "synthetic-verify", index, k)))
        return out

    def warmup_input(self, seed):
        spec, rows = planted_spec(_rng("synthetic-warmup-shape"),
                                  _rng(seed, "synthetic-warmup"), _f5uw())
        return (spec, rows, _rng(seed, "synthetic-warmup-verify"))

    def run_op(self, op):
        spec, _, rng = op
        t0 = time.perf_counter()
        res = engine.monomialize(spec)
        t1 = time.perf_counter()
        report = engine.verify_monomial(res, degree=3, trials=200, rng=rng)
        t2 = time.perf_counter()
        return {"monomialize_s": t1 - t0, "verify_s": t2 - t1}, (res, report)

    def check(self, op, out):
        spec, rows, _ = op
        res, report = out
        return (same_lattice(rows, [list(r) for r in res.basis.basis])
                and len(res.residues) == spec.n - spec.m
                and report.mismatches == () and report.checked >= 150)


# ------------------------------------------------------ family_specs


_FIELDS = (("prime 5", 5), ("prime 7", 7), ("rationals", None))


def _ground(rng, p):
    """A nonzero ground constant as spec text."""
    if p is None:
        num = rng.choice((-3, -2, -1, 1, 2, 3))
        den = rng.choice((1, 1, 2, 3))
        return str(num) if den == 1 else "%d/%d" % (num, den)
    return str(rng.randint(1, p - 1))


def _family_coeff(c, e, r, u_power=0):
    """Coefficient text c*i^e*r^i, with r times u^u_power; each factor
    stays in the grammar's closed form `(x)^i` or `u^(k*i)`."""
    parts = ["(%s)" % c]
    if e:
        parts.append("i^%d" % e)
    parts.append("(%s)^i" % r)
    if u_power == 1:
        parts.append("u^i")
    elif u_power > 1:
        parts.append("u^(%d*i)" % u_power)
    return "*".join(parts)


def family_spec_text(rng):
    """An example_f5-shaped spec, rank 3, whose images carry infinite
    c*i^e*r^i families, and the final monomial values its parameters
    give in closed form.

    X1 is the carrier t^(0,0,1).  X2 and X4 are a family of values in
    the carrier's group plus one explicit term outside it, so each is
    settled by one limit step and a coordinate change, and its final
    value is that explicit term's exponent.  X4's family starts at a
    multiple of X1's value, which forces a monoidal transformation
    first, and its ratio may be a power of u (adjoined by X3 before X4
    is reached).  X3 (and X5 when n = 5) are residues.
    """
    field, p = rng.choice(_FIELDS)
    n = rng.choice((4, 5))
    symbols = ["u", "w"][:n - 3]
    j2 = rng.randint(-1, 2)
    j4 = rng.randint(-2, 2)
    start4 = rng.randint(2, 3)
    step4 = rng.randint(1, 3)
    u_power = rng.randint(1, 3) if rng.random() < 0.6 else 0
    lines = [
        "field %s" % field,
        "rank 3",
        "vars %s" % " ".join("X%d" % (i + 1) for i in range(n)),
        "symbols %s" % " ".join(symbols),
        "image X1 = terms[(0,0,1): %s]" % _ground(rng, p),
        "image X2 = family[start=(0,0,1), step=(0,0,1), coeff=%s, "
        "i=1..inf] + terms[(0,1,%d): %s]"
        % (_family_coeff(_ground(rng, p), rng.randint(0, 2),
                         _ground(rng, p)), j2, _ground(rng, p)),
        "image X3 = terms[(0,0,1): %s*u + %s]"
        % (_ground(rng, p), _ground(rng, p)),
        "image X4 = family[start=(0,0,%d), step=(0,0,%d), coeff=%s, "
        "i=1..inf] + terms[(1,0,%d): %s]"
        % (start4, step4, _family_coeff(_ground(rng, p), rng.randint(0, 1),
                                         _ground(rng, p), u_power),
           j4, _ground(rng, p)),
    ]
    final_L = [(0, 0, 1), (0, 1, j2), (0, 0, 1), (1, 0, j4)]
    if n == 5:
        lines.append("image X5 = terms[(0,0,1): %s*w]" % _ground(rng, p))
        final_L.append((0, 0, 1))
    return "\n".join(lines) + "\n", tuple(final_L)


class FamilySpecs:
    """One family-carrying spec, parsed from text: monomialize, then
    verify_monomial on 200 random polynomials.  The only workload that
    drives discovery through limit steps and coordinate changes outside
    the CLI.  A block is ten specs."""

    name = "family_specs"
    trace_blocks = 10
    per_block = 10
    tail_ops = 100

    def block(self, seed, index):
        out = []
        for k in range(self.per_block):
            rng = _rng(seed, "family", index, k)
            text, final_L = family_spec_text(rng)
            out.append((cli.parse_spec(text).spec, final_L,
                        _rng(seed, "family-verify", index, k)))
        return out

    def warmup_input(self, seed):
        text, final_L = family_spec_text(_rng(seed, "family-warmup"))
        return (cli.parse_spec(text).spec, final_L,
                _rng(seed, "family-warmup-verify"))

    def run_op(self, op):
        spec, _, rng = op
        t0 = time.perf_counter()
        res = engine.monomialize(spec)
        t1 = time.perf_counter()
        report = engine.verify_monomial(res, degree=4, trials=200, rng=rng)
        t2 = time.perf_counter()
        return {"monomialize_s": t1 - t0, "verify_s": t2 - t1}, (res, report)

    def check(self, op, out):
        _, final_L, _ = op
        res, report = out
        return (res.final_L == final_L and report.mismatches == ()
                and report.checked >= 150)


# ------------------------------------------------------ stream_arith


_DEPTH = 12
_WIDE = Budget(max_terms=2000)
_MUL_BUDGET = Budget(max_terms=64)
_SPIN_LIMIT = 2000


class _Ground:
    """Exact shadow arithmetic for ground constants: integers mod p,
    or Fractions over Q.  The oracle runs on these, never on
    TowerElem."""

    def __init__(self, p):
        self.p = p

    def norm(self, x):
        return x % self.p if self.p else Fraction(x)

    def power(self, r, i):
        return pow(r, i, self.p) if self.p else r ** i

    def to_elem(self, tower, x):
        return tower.from_int(x) if self.p else tower.from_fraction(x)


def _sparse_add(a, b, g):
    out = dict(a)
    for e, c in b.items():
        s = g.norm(out.get(e, 0) + c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _sparse_mul(a, b, g):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = vadd(ea, eb)
            out[e] = g.norm(out.get(e, 0) + ca * cb)
    return {e: c for e, c in out.items() if c}


def _random_const(rng, g):
    while True:
        c = g.norm(rng.randint(-6, 6))
        if c:
            return c


class Shadow:
    """A generated stream as exact data: finite terms, the family
    (start, step, c, e, r) or None, the family's first _DEPTH nonzero
    terms, the whole expansion and the bound below which it is
    complete.  `stream` builds the HahnStream it stands for."""

    def __init__(self, finite, fam, prefix, bound, g):
        self.g = g
        self.finite = finite
        self.fam = fam
        self.prefix = prefix
        self.bound = bound
        self.expansion = _sparse_add(finite, prefix, g)

    def stream(self, tower):
        g = self.g
        segs = [FiniteTerms(tuple((e, g.to_elem(tower, c))
                                  for e, c in sorted(self.finite.items())))]
        if self.fam is not None:
            start, step, c, e, r = self.fam
            segs.append(APFamily(start, step, g.to_elem(tower, c), e,
                                 g.to_elem(tower, r), None))
        return HahnStream(tuple(segs))


def random_stream(rng, g, rank=2):
    """A c5-distributed stream: 1-4 finite terms, and with probability
    0.35 an infinite family c*i^e*r^i with random ground c and r."""
    finite = {}
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randint(-3, 4) for _ in range(rank))
        finite = _sparse_add(finite, {exp: _random_const(rng, g)}, g)
    fam, prefix, bound = None, {}, INFINITY
    if rng.random() < 0.35:
        start = tuple(rng.randint(-2, 3) for _ in range(rank))
        step = [0] * rank
        step[rng.randint(0, rank - 1)] = rng.randint(1, 2)
        step = tuple(step)
        c, e, r = _random_const(rng, g), rng.randint(0, 1), \
            _random_const(rng, g)
        fam = (start, step, c, e, r)
        i = 1
        while len(prefix) < _DEPTH:
            co = g.norm(c * g.power(r, i) * i ** e)
            if co:
                prefix[_at(start, step, i)] = co
            i += 1
        bound = _at(start, step, i)
    return Shadow(finite, fam, prefix, bound, g)


def _at(start, step, i):
    return vadd(start, tuple(x * (i - 1) for x in step))


def merge_spins(finite, fams, bound, g):
    """Model, in exact shadow arithmetic, a lex-order merge of the
    segments as a term-by-term enumerator meets them: True when more
    than _SPIN_LIMIT merge steps pass without a nonzero term at or past
    `bound` and without the stream ending.  That happens when families
    that start at different exponents cancel from some index on;
    enumeration then runs into its work budget."""
    merged = {}
    for start, step, c, e, r in fams:
        # families equal up to their scale are one segment
        key = (start, step, e, r)
        merged[key] = g.norm(merged.get(key, 0) + c)
    fams = [(start, step, c, e, r)
            for (start, step, e, r), c in merged.items() if c]
    heap = [(e, 0, k, 0) for k, e in enumerate(finite)]
    heap += [(fam[0], 1, k, 1) for k, fam in enumerate(fams)]
    heapq.heapify(heap)
    steps = 0
    while heap:
        exp = heap[0][0]
        total = 0
        while heap and heap[0][0] == exp:
            _, kind, k, i = heapq.heappop(heap)
            steps += 1
            if kind == 0:
                total += finite[exp]
                continue
            start, step, c, e, r = fams[k]
            total += c * g.power(r, i) * i ** e
            heapq.heappush(heap, (_at(start, step, i + 1), 1, k, i + 1))
        if g.norm(total) and bound is not INFINITY and not exp < bound:
            return False
        if steps > _SPIN_LIMIT:
            return True
    return False


def product_bound(a, b):
    """Bound below which the expansions of a and b determine a * b."""
    bound = INFINITY
    if a.bound is not INFINITY:
        bound = _lmin(bound, vadd(a.bound, min(b.expansion)))
    if b.bound is not INFINITY:
        bound = _lmin(bound, vadd(b.bound, min(a.expansion)))
    return bound


def spin_count(a, b, g):
    """How many of the two enumerations of an op, a + b and a * b up
    to the bounds the op uses, spin (see `merge_spins`)."""
    fams = [s.fam for s in (a, b) if s.fam is not None]
    if not fams:
        return 0            # finite streams end
    spins = merge_spins(_sparse_add(a.finite, b.finite, g), fams,
                        _lmin(a.bound, b.bound), g)
    finite = _sparse_mul(a.finite, b.finite, g)
    bound = product_bound(a, b)
    if len(fams) == 2:
        # two families multiply into the products of their prefixes,
        # complete below where a first omitted index could land
        finite = _sparse_add(finite, _sparse_mul(a.prefix, b.prefix, g), g)
        bound = _lmin(bound, _lmin(vadd(a.bound, b.fam[0]),
                                   vadd(b.bound, a.fam[0])))
    shifted = []
    for fam, terms in ((a.fam, b.finite), (b.fam, a.finite)):
        if fam is not None:
            start, step, c, e, r = fam
            shifted += [(vadd(start, exp), step, g.norm(c * co), e, r)
                        for exp, co in terms.items()]
    return spins + merge_spins(finite, shifted, bound, g)


def terms_below(s, bound, budget):
    """Enumerate term by term until the next term reaches `bound`, the
    stream ends, or a budget stops enumeration."""
    out = []
    k = 0
    while True:
        k += 1
        try:
            pref = hahn.first_terms(s, k, budget)
        except InconclusiveError:
            return out
        if bound is not INFINITY and pref and not (pref[-1][0] < bound):
            return [t for t in pref if t[0] < bound]
        out = list(pref)
        if len(pref) < k:
            return [t for t in out if bound is INFINITY or t[0] < bound]


class StreamArith:
    """One random stream pair from the c5 distribution (F5(u3) or Q):
    add, mul, and enumeration of both up to the certified bound,
    checked term by term against an exact sparse-polynomial oracle.

    The cost of a pair depends on its class: the field, the families
    of the two streams (a pair without one takes under a millisecond,
    with one several milliseconds, and the index power e = 1 doubles
    the cost per term), and whether an enumeration spins
    (`merge_spins`; about one pair in 450, costing some 10 s over F5
    with e = 0, twice that over Q or with e = 1).  A block therefore
    holds exactly `MIX[class]` pairs of each class, drawn from the
    seed, in a seeded order.  The non-spinning shares are those of the
    c5 draw for 800 pairs (either field half the time, a family in 35%
    of streams, e = 0 or 1 evenly), except that pairs without a family
    get half their share: at their full 42% the median would sit on the
    edge between them and the pairs with a family, where it moves with
    every draw.  One pair spins.  Pairs of a class not in MIX (spinning
    over Q, twice, or with e = 1 or two families) are drawn and
    dropped: each would change a block's cost by a whole spin."""

    name = "stream_arith"
    # (field p or None for Q, sorted index powers e of the families,
    # spinning enumerations) -> pairs per block
    MIX = {(5, (), 0): 84, (5, (0,), 0): 91, (5, (1,), 0): 91,
           (5, (0, 0), 0): 12, (5, (0, 1), 0): 24, (5, (1, 1), 0): 12,
           (None, (), 0): 84, (None, (0,), 0): 91, (None, (1,), 0): 91,
           (None, (0, 0), 0): 12, (None, (0, 1), 0): 25,
           (None, (1, 1), 0): 12,
           (5, (0,), 1): 1}
    trace_blocks = 1
    tail_ops = 630

    def _pair(self, rng):
        """Shadows of a c5 pair over F5(u3) or Q and its spin count."""
        while True:
            g = _Ground(5 if rng.random() < 0.5 else None)
            a = random_stream(rng, g)
            b = random_stream(rng, g)
            if a.expansion and b.expansion:
                return {"g": g, "a": a, "b": b, "spins": spin_count(a, b, g)}

    @staticmethod
    def _materialize(pair):
        g = pair["g"]
        tower = Tower(GroundField.prime(5), ("u3",)) if g.p \
            else Tower(GroundField.rationals())
        return dict(pair, tower=tower, sa=pair["a"].stream(tower),
                    sb=pair["b"].stream(tower))

    def block(self, seed, index):
        rng = _rng(seed, "stream", index)
        picked = {k: [] for k in self.MIX}
        missing = sum(self.MIX.values())
        while missing:
            pair = self._pair(rng)
            powers = tuple(sorted(s.fam[3] for s in (pair["a"], pair["b"])
                                  if s.fam is not None))
            key = (pair["g"].p, powers, pair["spins"])
            if len(picked.get(key, ())) < self.MIX.get(key, 0):
                picked[key].append(pair)
                missing -= 1
        ops = [self._materialize(p) for k in self.MIX for p in picked[k]]
        rng.shuffle(ops)
        return ops

    def warmup_input(self, seed):
        rng = _rng(seed, "stream-warmup")
        while True:
            pair = self._pair(rng)
            if not pair["spins"]:
                return self._materialize(pair)

    def run_op(self, op):
        a, b = op["a"], op["b"]
        s = hahn.add(op["sa"], op["sb"])
        s_terms = terms_below(s, _lmin(a.bound, b.bound), _WIDE)
        p = hahn.mul(op["sa"], op["sb"], _MUL_BUDGET)
        pbound = _lmin(p.cert, product_bound(a, b))
        p_terms = terms_below(p, pbound, _WIDE)
        return {"spins": op["spins"]}, (s_terms, p_terms, pbound)

    def check(self, op, out):
        s_terms, p_terms, pbound = out
        g, tower, a, b = op["g"], op["tower"], op["a"], op["b"]

        def want(expansion, limit):
            return [(e, g.to_elem(tower, c))
                    for e, c in sorted(expansion.items())
                    if limit is INFINITY or e < limit]

        return (s_terms == want(_sparse_add(a.expansion, b.expansion, g),
                                _lmin(a.bound, b.bound))
                and p_terms == want(_sparse_mul(a.expansion, b.expansion,
                                                g), pbound))


WORKLOADS = {w.name: w for w in (CliShipped(), SyntheticCorpus(),
                                  FamilySpecs(), StreamArith())}
