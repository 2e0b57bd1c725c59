"""Command-line front end: textual valuation specs in, reports out.

Spec file format (canonical form; the serializer reproduces it byte
for byte):

    field prime 5
    rank 3
    vars X1 X2 X3 X4
    symbols u3
    image X1 = terms[(0,0,1): 1]
    image X2 = family[start=(0,0,1), step=(0,0,1), coeff=i, i=1..inf] + terms[(0,1,0): 1]
    image X3 = terms[(0,0,1): u3]
    image X4 = family[start=(0,0,3), step=(0,0,3), coeff=u3^(3*i), i=1..inf] + terms[(1,0,0): 1]

Sections: `field` (rationals | prime p), `rank` m, `vars` (variable
names in order), `symbols` (transcendental residue symbols in
discovery order, none of them a variable name; omitted when none),
`budgets` (any of max_steps >= 0, max_terms >= 1, trunc_degree >= 1,
lex_ceiling; omitted when absent; trunc_degree only sets the degree of
the polynomials `verify` samples), then one `image` line per variable.
Blank lines and `#` comments are accepted on input and dropped by the
serializer, so canonical files carry neither.

A stream is ` + `-joined segments.  `terms[(0,1,0): 1, ...]` lists
explicit exponent/coefficient pairs.  `family[start=..., step=...,
coeff=..., i=1..inf]` is the closed form sum over i of coeff(i) at
exponent start+(i-1)*step; the coefficient grammar admits exactly
c*i^e*r^i with c and r coefficient-field expressions, and `i=1..N`
bounds the index range.

Commands: basis, value, monomialize, verify.  `value` takes any
expression in the variables and symbols, in the coefficient grammar,
whose reduced form is a Laurent polynomial in the variables: so
`(X1^2 - X2^2)/(X1 - X2)` but not `X1/(X1 + X2)`.  The budget flags
obey the ranges above, and `verify --trials` must be at least 1.  Exit
codes: 0 success, 1 verification failure, 2 parse error (a budget out
of range included), 3 inconclusive (standard error names the budget
and the flag that raises it), 4 purity or dimension error, 5
internal error (a fault of the program, not of the input).
"""

import argparse
import json
import random
import sys

from . import hahn
from .coeff import (CoeffError, GroundField, ParseError, Tower,
                    split_trailing)
from .engine import (
    CoordChange,
    Monoidal,
    ValuationSpec,
    monomialize,
    verify_monomial,
)
from .errors import InconclusiveError, InternalError, StructureError
from .hahn import APFamily, Budget, FiniteTerms, HahnStream
from .lexgroup import INFINITY, DimensionError, echelon_reduce
from .record import Record


# ------------------------------------------------------- text helpers


def _split_top(text, sep):
    """Split on `sep` at bracket depth zero, stripping the pieces."""
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ParseError("unbalanced brackets")
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _vec_text(vec):
    return "(%s)" % ",".join(str(x) for x in vec)


def _parse_vec(text, rank=None):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError("expected an exponent tuple, got %r" % text)
    try:
        vec = tuple(int(p.strip()) for p in text[1:-1].split(","))
    except ValueError:
        raise ParseError("non-integer entry in %r" % text) from None
    if rank is not None and len(vec) != rank:
        raise ParseError("tuple %r does not have %d entries"
                         % (text, rank))
    return vec


# --------------------------------------------------- segment grammar


def parse_stream(text, tower, rank):
    """One ` + `-joined list of terms[...]/family[...] segments."""
    text = text.strip()
    if text == "terms[]":
        return HahnStream(())
    segs = []
    for part in _split_top(text, "+"):
        if part.startswith("terms[") and part.endswith("]"):
            segs.append(_parse_terms(part[6:-1], tower, rank))
        elif part.startswith("family[") and part.endswith("]"):
            segs.append(_parse_family(part[7:-1], tower, rank))
        else:
            raise ParseError("expected terms[...] or family[...], got %r"
                             % part)
    return HahnStream(tuple(segs))


def _parse_terms(body, tower, rank):
    pairs = []
    for item in _split_top(body, ","):
        if not item:
            raise ParseError("empty entry in terms[...]")
        exp_text, _, coeff_text = item.partition(":")
        if not coeff_text:
            raise ParseError("missing ': coefficient' in %r" % item)
        exp = _parse_vec(exp_text, rank)
        co = tower.parse(coeff_text.strip())
        if co.is_zero:
            raise ParseError("zero coefficient at %r" % (exp,))
        pairs.append((exp, co))
    pairs.sort(key=lambda t: t[0])
    for a, b in zip(pairs, pairs[1:]):
        if a[0] == b[0]:
            raise ParseError("duplicate exponent %r" % (a[0],))
    return FiniteTerms(tuple(pairs))


def _parse_family(body, tower, rank):
    fields = {}
    order = []
    for item in _split_top(body, ","):
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not value or key in fields:
            raise ParseError("bad family item %r" % item)
        fields[key] = value
        order.append(key)
    if order != ["start", "step", "coeff", "i"]:
        raise ParseError(
            "family needs start=, step=, coeff=, i=..; got %s"
            % ", ".join(order))
    start = _parse_vec(fields["start"], rank)
    step = _parse_vec(fields["step"], rank)
    c, e, r = _parse_family_coeff(fields["coeff"], tower)
    lo, _, hi = fields["i"].partition("..")
    if lo.strip() != "1" or not hi:
        raise ParseError("family range must be i=1..N or i=1..inf")
    hi = hi.strip()
    if hi == "inf":
        count = None
    else:
        try:
            count = int(hi)
        except ValueError:
            raise ParseError("bad family bound %r" % hi) from None
    try:
        return APFamily(start, step, c, e, r, count)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_family_coeff(text, tower):
    """Decompose the closed-form grammar c*i^e*r^i into (c, e, r)."""
    c = tower.one
    e = 0
    r = tower.one
    for factor in _split_top(text, "*"):
        if not factor:
            raise ParseError("empty factor in %r" % text)
        if factor == "i":
            e += 1
            continue
        base, caret, exp_text = _split_last_power(factor)
        if caret and base == "i":
            try:
                e += int(exp_text)
            except ValueError:
                raise ParseError("bad index power %r" % factor) from None
            continue
        if caret and exp_text == "i":
            r = r * tower.parse(base)
            continue
        if caret and exp_text.startswith("(") and exp_text.endswith(")"):
            inner = exp_text[1:-1]
            mult, star, tail = inner.partition("*")
            if star and tail.strip() == "i":
                try:
                    k = int(mult)
                except ValueError:
                    raise ParseError("bad ratio power %r" % factor) from None
                r = r * tower.parse(base) ** k
                continue
        c = c * tower.parse(factor)
    return c, e, r


def _split_last_power(factor):
    """(base, "^", exponent) split at the last `^` outside parentheses,
    so that `(3*u3^2)^i` has the base `(3*u3^2)`; (factor, "", "")
    when there is none."""
    depth = 0
    for k in range(len(factor) - 1, -1, -1):
        ch = factor[k]
        if ch == ")":
            depth += 1
        elif ch == "(":
            depth -= 1
        elif ch == "^" and depth == 0:
            return factor[:k].strip(), "^", factor[k + 1:].strip()
    return factor, "", ""


def format_stream(stream):
    """Canonical text for a stream's segments (certificates are not
    part of the grammar and are reported separately)."""
    parts = []
    for seg in stream.segments:
        if isinstance(seg, FiniteTerms):
            inner = ", ".join("%s: %s" % (_vec_text(exp), co)
                              for exp, co in seg.terms)
            parts.append("terms[%s]" % inner)
        else:
            parts.append("family[start=%s, step=%s, coeff=%s, i=1..%s]"
                         % (_vec_text(seg.start), _vec_text(seg.step),
                            _family_coeff_text(seg.c, seg.e, seg.r),
                            "inf" if seg.count is None else seg.count))
    return " + ".join(parts) if parts else "terms[]"


def _family_coeff_text(c, e, r):
    factors = []
    if not c.is_one:
        text = str(c)
        if "+" in text or "-" in text[1:]:
            text = "(%s)" % text
        factors.append(text)
    if e == 1:
        factors.append("i")
    elif e > 1:
        factors.append("i^%d" % e)
    if not r.is_one:
        factors.append(_ratio_text(r))
    return "*".join(factors) if factors else "1"


def _ratio_text(r):
    mono = r.as_symbol_monomial()
    if mono is not None:
        scalar, exps = mono
        if scalar.is_one and len(exps) == 1:
            (name, k), = exps.items()
            if k == 1:
                return "%s^i" % name
            if k > 1:
                return "%s^(%d*i)" % (name, k)
    return "(%s)^i" % r


# ------------------------------------------------------- spec files


_BUDGET_KEYS = ("max_steps", "max_terms", "trunc_degree", "lex_ceiling")
# least accepted value of each integer budget, in a spec or on the
# command line (`trials` only on the command line)
_BUDGET_MIN = {"max_steps": 0, "max_terms": 1, "trunc_degree": 1,
               "trials": 1}


def _check_budget(key, value):
    if value < _BUDGET_MIN[key]:
        raise ParseError("%s must be at least %d, got %d"
                         % (key, _BUDGET_MIN[key], value))
    return value


class SpecDoc(Record):
    """A parsed spec file: the engine input plus the presentation
    details (which budget keys the file stated, the verification
    sample degree) needed to reproduce it."""

    __slots__ = ("spec", "budget_keys", "trunc_degree")

    def __init__(self, spec, budget_keys=(), trunc_degree=None):
        self._init(spec, budget_keys, trunc_degree)


def parse_spec(text):
    sections = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "image":
            head, _, stream_text = rest.partition("=")
            name, stream_text = head.strip(), stream_text.strip()
            if not name or not stream_text:
                raise ParseError("line %d: image needs '<var> = <stream>'"
                                 % lineno)
            images = sections.setdefault("image", {})
            if name in images:
                raise ParseError("line %d: duplicate image for %s"
                                 % (lineno, name))
            images[name] = stream_text
        elif key in ("field", "rank", "vars", "symbols", "budgets"):
            if key in sections:
                raise ParseError("line %d: duplicate %s section"
                                 % (lineno, key))
            sections[key] = rest
        else:
            raise ParseError("line %d: unknown section %r" % (lineno, key))

    for required in ("field", "rank", "vars"):
        if required not in sections:
            raise ParseError("missing %s section" % required)

    field_text = sections["field"]
    if field_text == "rationals":
        ground = GroundField.rationals()
    elif field_text.startswith("prime "):
        try:
            ground = GroundField.prime(int(field_text[6:]))
        except (ValueError, CoeffError) as exc:
            raise ParseError("bad field: %s" % exc) from None
    else:
        raise ParseError("field must be 'rationals' or 'prime p', got %r"
                         % field_text)
    try:
        m = int(sections["rank"])
    except ValueError:
        raise ParseError("rank must be an integer") from None
    names = tuple(sections["vars"].split())
    if len(set(names)) != len(names) or not names:
        raise ParseError("vars must list distinct names")
    symbols = tuple(sections.get("symbols", "").split())
    for name in symbols:
        if name in names:
            raise ParseError("symbol %r is also a variable" % name)

    budgets = {}
    for item in sections.get("budgets", "").split():
        bkey, eq, value = item.partition("=")
        if not eq or bkey not in _BUDGET_KEYS:
            raise ParseError("bad budget item %r (known keys: %s)"
                             % (item, ", ".join(_BUDGET_KEYS)))
        if bkey in budgets:
            raise ParseError("duplicate budget key %r" % bkey)
        if bkey == "lex_ceiling":
            budgets[bkey] = _parse_vec(value, m)
        else:
            try:
                value = int(value)
            except ValueError:
                raise ParseError("budget %s needs an integer" % bkey) from None
            budgets[bkey] = _check_budget(bkey, value)

    tower = Tower(ground, symbols)
    image_texts = sections.get("image", {})
    for name in image_texts:
        if name not in names:
            raise ParseError("image for undeclared variable %r" % name)
    images = []
    for name in names:
        if name not in image_texts:
            raise ParseError("missing image for %s" % name)
        images.append(parse_stream(image_texts[name], tower, m))

    budget = Budget(max_terms=budgets.get("max_terms",
                                          hahn.DEFAULT_BUDGET.max_terms),
                    lex_ceiling=budgets.get("lex_ceiling"))
    spec = ValuationSpec(tower=tower, m=m, names=names,
                         images=tuple(images), symbols=symbols,
                         max_steps=budgets.get("max_steps", 64),
                         budget=budget)
    return SpecDoc(spec=spec,
                   budget_keys=tuple(k for k in _BUDGET_KEYS
                                     if k in budgets),
                   trunc_degree=budgets.get("trunc_degree"))


def serialize_spec(doc):
    spec = doc.spec
    ground = spec.tower.ground
    lines = ["field %s" % ("rationals" if ground.p is None
                           else "prime %d" % ground.p),
             "rank %d" % spec.m,
             "vars %s" % " ".join(spec.names)]
    if spec.symbols:
        lines.append("symbols %s" % " ".join(spec.symbols))
    if doc.budget_keys:
        values = {"max_steps": spec.max_steps,
                  "max_terms": spec.budget.max_terms,
                  "trunc_degree": doc.trunc_degree,
                  "lex_ceiling": spec.budget.lex_ceiling}
        items = []
        for key in _BUDGET_KEYS:
            if key in doc.budget_keys:
                value = values[key]
                items.append("%s=%s" % (key, _vec_text(value)
                                        if key == "lex_ceiling"
                                        else value))
        lines.append("budgets %s" % " ".join(items))
    for name, image in zip(spec.names, spec.images):
        lines.append("image %s = %s" % (name, format_stream(image)))
    return "\n".join(lines) + "\n"


def load_spec(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec(handle.read())


# --------------------------------------- polynomial value expressions


def parse_poly(text, tower, names):
    """{exponent tuple: coefficient} for an expression in the spec's
    variables and symbols whose reduced form is a Laurent polynomial in
    the variables; it is parsed as an element of k(symbols, variables)."""
    poly = split_trailing(
        Tower(tower.ground, tower.symbols + tuple(names)).parse(text), tower)
    if poly is None:
        raise ParseError("%r is not a Laurent polynomial in %s"
                         % (text, " ".join(names)))
    return poly


def _monomial_text(names, exps):
    parts = []
    for k, e in enumerate(exps):
        if e:
            parts.append(names[k] if e == 1 else "%s^%d" % (names[k], e))
    return "*".join(parts) or "1"


def _poly_text(names, poly):
    if not poly:
        return "0"
    pieces = []
    for exps in sorted(poly):
        co = poly[exps]
        mono = _monomial_text(names, exps)
        co_text = str(co)
        if mono == "1":
            pieces.append(co_text)
        elif co.is_one:
            pieces.append(mono)
        else:
            if "+" in co_text or "-" in co_text[1:] or "/" in co_text:
                co_text = "(%s)" % co_text
            pieces.append("%s*%s" % (co_text, mono))
    return " + ".join(pieces)


def _representative_text(names, var, denominator):
    num = [names[var]]
    den = []
    for k, e in enumerate(denominator):
        if e > 0:
            den.append(names[k] if e == 1 else "%s^%d" % (names[k], e))
        elif e < 0:
            num.append(names[k] if e == -1 else "%s^%d" % (names[k], -e))
    num_text = "*".join(num)
    if not den:
        return num_text
    den_text = "*".join(den)
    if len(den) > 1:
        den_text = "(%s)" % den_text
    return "%s/%s" % (num_text, den_text)


# ----------------------------------------------------------- reports


def _field_text(ground):
    return "rationals" if ground.p is None else "prime %d" % ground.p


def _monoidal_reading(names, entry):
    return "%s -> Y%d*Y%d%s" % (names[entry.l], entry.l + 1, entry.i + 1,
                                "^%d" % entry.q if entry.q != 1 else "")


def _log_entry_json(names, entry):
    if isinstance(entry, Monoidal):
        return {"kind": "monoidal", "var": names[entry.l],
                "partner": names[entry.i], "q": entry.q,
                "reading": _monoidal_reading(names, entry)}
    if isinstance(entry, CoordChange):
        # the finite summands in step order, then the families
        fams = [s for s in entry.correction if isinstance(s, APFamily)]
        return {"kind": "coordinate_change", "var": names[entry.j],
                "terms": [{"alpha": str(alpha), "R": list(R)}
                          for s in entry.correction
                          if isinstance(s, FiniteTerms)
                          for R, alpha in s.terms],
                "tail": format_stream(HahnStream(tuple(fams))) if fams
                else None}
    raise TypeError("unknown log entry %r" % (entry,))


def _log_entry_text(names, entry):
    if isinstance(entry, Monoidal):
        return "monoidal %s" % _monoidal_reading(names, entry)
    correction = " + ".join(
        format_stream(HahnStream((s,))) if isinstance(s, APFamily)
        else " + ".join(
            "%s*Y^%s" % (alpha, _vec_text(R)) for R, alpha in s.terms)
        for s in entry.correction)
    return "coordinate change %s = Z + %s" % (names[entry.j], correction)


def _result_json(doc, result):
    spec = doc.spec
    names = spec.names
    return {
        "field": _field_text(spec.tower.ground),
        "rank": spec.m,
        "vars": list(names),
        "symbols": list(spec.symbols),
        "log": [_log_entry_json(names, entry) for entry in result.log],
        "basis": {"rows": [list(row) for row in result.basis.basis],
                  "pivots": list(result.basis.pivots),
                  "pivot_cols": list(result.basis.pivot_cols)},
        "carriers": [names[k] for k in result.carriers],
        "settled": [{"var": names[s.var], "kind": s.kind,
                     "value": list(s.value), "symbol": s.symbol}
                    for s in result.settled],
        "residues": [{"symbol": r.symbol, "var": names[r.var],
                      "representative": _representative_text(
                          names, r.var, r.denominator),
                      "denominator": list(r.denominator),
                      "alpha": None if r.alpha is None else str(r.alpha)}
                     for r in result.residues],
        "final_L": [list(v) for v in result.final_L],
        # psi is the parsed input images, which carry no certificate
        "psi": [{"stream": format_stream(s), "cert": None}
                for s in result.psi],
    }


def _print_result_text(doc, result, out):
    spec = doc.spec
    names = spec.names
    ground = spec.tower.ground
    out.write("field %s, rank %d, variables %s\n"
              % (ground, spec.m, " ".join(names)))
    out.write("transform log:\n")
    if result.log:
        for entry in result.log:
            out.write("  %s\n" % _log_entry_text(names, entry))
    else:
        out.write("  (empty)\n")
    out.write("value group basis:\n")
    for row, carrier in zip(result.basis.basis, result.carriers):
        out.write("  %s  carried by %s\n" % (_vec_text(row),
                                             names[carrier]))
    out.write("psi:\n")
    for name, stream in zip(names, result.psi):
        out.write("  %s -> %s\n" % (name, format_stream(stream)))
    out.write("residues (%d):\n" % len(result.residues))
    for rec in result.residues:
        out.write("  %s -> %s\n"
                  % (_representative_text(names, rec.var, rec.denominator),
                     rec.alpha))
    out.write("final monomial values:\n")
    for name, value in zip(names, result.final_L):
        out.write("  %s -> %s\n" % (name, _vec_text(value)))


# ---------------------------------------------------------- commands


def _apply_overrides(doc, args):
    for key in _BUDGET_MIN:
        value = getattr(args, key, None)
        if value is not None:
            _check_budget(key, value)
    spec = doc.spec
    budget = spec.budget
    if args.max_terms is not None:
        budget = budget.replace(max_terms=args.max_terms)
    if args.lex_ceiling is not None:
        budget = budget.replace(
            lex_ceiling=_parse_vec(args.lex_ceiling, spec.m))
    if budget is not spec.budget:
        spec = spec.replace(budget=budget)
    if args.max_steps is not None:
        spec = spec.replace(max_steps=args.max_steps)
    trunc = doc.trunc_degree
    if args.trunc_degree is not None:
        trunc = args.trunc_degree
    return doc.replace(spec=spec, trunc_degree=trunc)


def _image_value(spec, k):
    v = hahn.nu_t(spec.images[k], spec.budget)
    if v is INFINITY:
        raise StructureError("image of %s is zero; values must be "
                             "lex-positive" % spec.names[k])
    return v


def cmd_basis(args):
    doc = _apply_overrides(load_spec(args.spec), args)
    spec = doc.spec
    values = [_image_value(spec, k) for k in range(spec.n)]
    sb, ops = echelon_reduce(values)
    readings = [_monoidal_reading(spec.names,
                                  Monoidal(op.l, op.i, -op.q))
                for op in ops]
    if args.json:
        print(json.dumps({
            "values": [list(v) for v in values],
            "basis": {"rows": [list(r) for r in sb.basis],
                      "pivots": list(sb.pivots),
                      "pivot_cols": list(sb.pivot_cols)},
            "ops": [{"var": spec.names[op.l], "partner": spec.names[op.i],
                     "q": -op.q, "reading": reading}
                    for op, reading in zip(ops, readings)],
            "already_basis": not ops,
        }, indent=2))
        return 0
    print("values:")
    for name, v in zip(spec.names, values):
        print("  %s -> %s" % (name, _vec_text(v)))
    print("basis (pivot columns %s):"
          % ",".join(str(c) for c in sb.pivot_cols))
    for row in sb.basis:
        print("  %s" % _vec_text(row))
    if ops:
        print("row operations:")
        for reading in readings:
            print("  %s" % reading)
    else:
        print("already a basis")
    return 0


def cmd_value(args):
    doc = _apply_overrides(load_spec(args.spec), args)
    spec = doc.spec
    poly = parse_poly(args.expr, spec.tower, spec.names)
    try:
        # a zero image has no inverse
        for k in range(spec.n):
            if any(exps[k] < 0 for exps in poly):
                _image_value(spec, k)
        total = hahn.eval_poly(poly, lambda exps: hahn.monomial_image(
            exps, spec.images, spec.budget))
        value = hahn.nu_t(total, spec.budget)
    except InconclusiveError as exc:
        if args.json:
            print(json.dumps({"expr": args.expr, "value": "inconclusive",
                              "reason": str(exc)}, indent=2))
        else:
            print("inconclusive")
            print("  %s" % exc, file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps({"expr": args.expr,
                          "value": "infinity" if value is INFINITY
                          else list(value)}, indent=2))
    else:
        print("infinity" if value is INFINITY else _vec_text(value))
    return 0


def cmd_monomialize(args):
    doc = _apply_overrides(load_spec(args.spec), args)
    result = monomialize(doc.spec)
    if args.json:
        print(json.dumps(_result_json(doc, result), indent=2))
    else:
        _print_result_text(doc, result, sys.stdout)
    return 0


def cmd_verify(args):
    doc = _apply_overrides(load_spec(args.spec), args)
    result = monomialize(doc.spec)
    rng = random.Random(args.seed)
    degree = doc.trunc_degree if doc.trunc_degree is not None else 4

    def vec_or_inf(v):
        return "infinity" if v is INFINITY else list(v)

    report = verify_monomial(result, degree=degree, trials=args.trials,
                             rng=rng, budget=doc.spec.budget)
    names = doc.spec.names
    mismatches = [{"poly": _poly_text(names, mm["poly"]),
                   "expected": vec_or_inf(mm["expected"]),
                   "got": vec_or_inf(mm["got"])}
                  for mm in report.mismatches]
    if args.json:
        print(json.dumps({"checked": report.checked,
                          "mismatches": mismatches,
                          "inconclusive": report.inconclusive,
                          "ok": report.ok}, indent=2))
    else:
        print("checked %d polynomials: %d mismatches, %d inconclusive"
              % (report.checked, len(mismatches), report.inconclusive))
        for mm in mismatches:
            print("  %s: expected %s, got %s"
                  % (mm["poly"], mm["expected"], mm["got"]))
    return 0 if report.ok else 1


# --------------------------------------------------------------- main


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="monoval",
        description="Constructive monomialization of rank-m discrete "
                    "valuations presented by generalized power series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="valuation spec file")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--max-steps", type=int, default=None,
                       help="finite subtractions per variable before a "
                            "family match is required")
        p.add_argument("--max-terms", type=int, default=None,
                       help="stream enumeration term budget")
        p.add_argument("--trunc-degree", type=int, default=None,
                       help="degree of the random polynomials that "
                            "verify samples (sets nothing else)")
        p.add_argument("--lex-ceiling", default=None, metavar="(a,..)",
                       help="reject terms above this exponent")

    p = sub.add_parser("basis",
                       help="echelon basis of the leading-value rows")
    common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("value", help="valuation of a polynomial")
    common(p)
    p.add_argument("expr", help="polynomial in the spec variables")
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("monomialize", help="run the full procedure")
    common(p)
    p.set_defaults(func=cmd_monomialize)

    p = sub.add_parser("verify",
                       help="monomialize, then spot-check the result")
    common(p)
    p.add_argument("--trials", type=int, default=200,
                   help="number of random polynomials")
    p.add_argument("--seed", type=int, default=97, help="sampling seed")
    p.set_defaults(func=cmd_verify)
    return parser


# the flag that raises each budget an InconclusiveError can name; the
# work budget is 64 * max_terms, and a stream's certificate is fixed by
# its spec
_BUDGET_FLAGS = {"max_steps": "--max-steps", "max_terms": "--max-terms",
                 "work": "--max-terms", "lex_ceiling": "--lex-ceiling"}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CoeffError as exc:
        print("coefficient error: %s" % exc, file=sys.stderr)
        return 2
    except InconclusiveError as exc:
        print("inconclusive: %s" % exc, file=sys.stderr)
        detail = exc.detail if isinstance(exc.detail, dict) else {}
        budget = detail.get("budget")
        if budget is not None:
            flag = _BUDGET_FLAGS.get(budget)
            print("budget %s: %s" % (budget, "raise it with " + flag
                                     if flag else "no flag reaches it"),
                  file=sys.stderr)
        prefix = detail.get("prefix")
        if prefix:
            print("pseudo-convergent prefix:", file=sys.stderr)
            for v in prefix:
                print("  %s" % _vec_text(v), file=sys.stderr)
        return 3
    except (StructureError, DimensionError) as exc:
        print("purity/dimension error: %s" % exc, file=sys.stderr)
        return 4
    except InternalError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
