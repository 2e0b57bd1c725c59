"""Outcome test on a seeded rank-2 fuzz corpus.

Each seed draws one spec over Q from `random.Random(seed)`: rank 2,
variables X1 X2 X3, one residue symbol u.

- X1 = t^(0,1).
- X2 = t^(1,0), plus one random segment in 30% of the specs.
- X3 is 1-4 random segments plus a term u*t^(a,b) with a in 2..3 and
  b in 0..3.

A random segment starts at (0..2, 1..3).  Half of them are one finite
term with coefficient 1, 2, -1 or 3; the other half are an infinite
family c*r^i with c in {1, 2, -1}, r in {1, 2, 3} and step (0,1) or
(0,2).  Only X3 carries u, so every spec has maximal dimension: a
purity error (exit 4) or an internal error (exit 5) is a fault of the
program, and an inconclusive stop (exit 3) is the only other honest
outcome.  Exit 4 still happens on the seeds of one known defect.

Run as a script, it prints the outcome counts as a Markdown table:

    PYTHONPATH=src python tests/test_rank2_fuzz.py
"""

import random
from collections import Counter

from monoval.cli import parse_spec
from monoval.engine import monomialize, verify_monomial
from monoval.errors import InconclusiveError, InternalError, StructureError
from monoval.lexgroup import DimensionError

SEEDS = range(300)

# the CLI's exit code for each way a run can stop
_EXIT = ((InconclusiveError, 3), ((StructureError, DimensionError), 4),
         (InternalError, 5))


def _segment(rng):
    start = "(%d,%d)" % (rng.randint(0, 2), rng.randint(1, 3))
    if rng.random() < 0.5:
        return "terms[%s: %d]" % (start, rng.choice((1, 2, -1, 3)))
    return ("family[start=%s, step=%s, coeff=%d*(%d)^i, i=1..inf]"
            % (start, rng.choice(("(0,1)", "(0,2)")), rng.choice((1, 2, -1)),
               rng.choice((1, 2, 3))))


def fuzz_spec_text(seed):
    """The spec file text of one fuzz seed."""
    rng = random.Random(seed)
    x2 = ["terms[(1,0): 1]"]
    if rng.random() < 0.3:
        x2.append(_segment(rng))
    x3 = [_segment(rng) for _ in range(rng.randint(1, 4))]
    x3.append("terms[(%d,%d): u]" % (rng.randint(2, 3), rng.randint(0, 3)))
    return ("field rationals\nrank 2\nvars X1 X2 X3\nsymbols u\n"
            "image X1 = terms[(0,1): 1]\n"
            "image X2 = %s\nimage X3 = %s\n"
            % (" + ".join(x2), " + ".join(x3)))


def outcome(seed):
    """(exit code, message): the message is the error text of a failed
    run, or the number of mismatches `verify` found after a clean one."""
    spec = parse_spec(fuzz_spec_text(seed)).spec
    try:
        result = monomialize(spec)
    except Exception as exc:
        for kinds, code in _EXIT:
            if isinstance(exc, kinds):
                return code, str(exc)
        raise
    report = verify_monomial(result, degree=3, trials=40)
    return 0, len(report.mismatches)


def outcomes():
    return {seed: outcome(seed) for seed in SEEDS}


# Floor and ceiling of the outcome counts: later changes may only
# raise the first and lower the second.
EXIT_0_FLOOR = 220
EXIT_3_CEILING = 74
# A known defect, not a verdict on these inputs: dividing X3 by an X2
# that carries a second segment truncates the quotient under a
# certificate, the truncated X3 runs out below that certificate before
# its u term, and the run reads the empty rest as value infinity.
KNOWN_EXIT_4 = {100, 137, 154, 245, 260, 294}


def test_rank2_fuzz_outcomes():
    got = outcomes()
    codes = Counter(code for code, _ in got.values())
    assert {msg for code, msg in got.values() if code == 0} == {0}
    assert codes[5] == 0
    assert codes[0] >= EXIT_0_FLOOR
    assert codes[3] <= EXIT_3_CEILING
    assert {seed for seed, (code, _) in got.items() if code == 4} \
        <= KNOWN_EXIT_4


def main():
    codes = Counter(code for code, _ in outcomes().values())
    print("Rank-2 fuzz outcomes, %d seeds:\n" % len(SEEDS))
    print("| exit 0 | exit 3 | exit 4 | exit 5 |")
    print("|---|---|---|---|")
    print("| %d | %d | %d | %d |" % tuple(codes[k] for k in (0, 3, 4, 5)))


if __name__ == "__main__":
    main()
