"""Per-layer tracing from outside the program.

`Tracer.install` replaces monoval's public functions and methods, by
`setattr`, with wrappers that time each call and record a span (name,
start, end, parent span, op id).  A layer's self time is its spans'
duration minus the time of the wrapped calls made inside them.

Two traps are handled here: `TowerElem.__radd__`/`__rmul__` are
aliases bound to the original functions, so they are wrapped on their
own; and `engine`/`cli` import some functions by name, so those names
are replaced in the importing module as well.

Coefficient operations run hundreds of thousands of times per run, so
they are aggregated (calls, self time) but not stored as single spans;
every other wrapped call is kept as a span in memory until `dump`.
"""

import json
import time
from array import array

class Tracer:
    def __init__(self):
        self.stats = {}            # name -> [calls, incl_s, self_s]
        self.counts = {}           # counter name -> int
        self.op = -1
        self._names = []
        self._name_ids = {}
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("l")
        self._span_op = array("l")
        self._stack = []           # [child_s, span index or -1]
        self._undo = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, keep=True, observe=None):
        """`observe(args, result)` runs after each call to update
        counters; it is not part of the call's timing."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self._names):
            self._names.append(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = -1
            if keep:
                span = len(self._span_start)
                self._span_name.append(name_id)
                self._span_start.append(0.0)
                self._span_end.append(0.0)
                self._span_parent.append(self._enclosing())
                self._span_op.append(self.op)
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if keep:
                    self._span_start[span] = start
                    self._span_end[span] = end
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _enclosing(self):
        for frame in reversed(self._stack):
            if frame[1] >= 0:
                return frame[1]
        return -1

    def patch(self, owner, attr, name, keep=True, observe=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, keep, observe))
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self):
        from monoval import cli, coeff, engine, hahn, lexgroup
        from monoval.hahn import APFamily

        elem = coeff.TowerElem

        def heavy(args, result):
            other = args[1]
            if args[0].weight > 2 or (isinstance(other, elem)
                                      and other.weight > 2):
                self.count("coeff.mul.heavy")

        for attr in ("__mul__", "__rmul__"):
            self.patch(elem, attr, "coeff.mul", keep=False, observe=heavy)
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__neg__"):
            self.patch(elem, attr, "coeff.add", keep=False)
        for attr in ("__truediv__", "__rtruediv__"):
            self.patch(elem, attr, "coeff.div", keep=False)
        self.patch(elem, "__pow__", "coeff.pow", keep=False)

        def infinite_family(stream):
            return any(isinstance(seg, APFamily) and seg.count is None
                       for seg in stream.segments)

        def fam_x_fam(args, result):
            if infinite_family(args[0]) and infinite_family(args[1]):
                self.count("hahn.mul.fam_x_fam")

        self.patch(hahn, "mul", "hahn.mul", observe=fam_x_fam)
        self.patch(hahn, "inverse", "hahn.inverse")
        self.patch(hahn, "monomial_image", "hahn.monomial_image")
        for attr in ("add", "sub", "scale", "term_mul"):
            self.patch(hahn, attr, "hahn.build")

        def one_term(args, result):
            self.count("hahn.enumerate.terms",
                       0 if result is None or result is lexgroup.INFINITY
                       else 1)

        def many_terms(args, result):
            self.count("hahn.enumerate.terms", len(result))

        self.patch(hahn, "nu_t", "hahn.enumerate", observe=one_term)
        self.patch(hahn, "leading_term", "hahn.enumerate", observe=one_term)
        self.patch(hahn, "first_terms", "hahn.enumerate", observe=many_terms)
        self.patch(hahn, "subtract_segment_limit",
                   "hahn.subtract_segment_limit",
                   observe=lambda args, result: self.count(
                       "engine.limit_steps"))

        def restart(args, result):
            if result == "restart":
                self.count("engine.restarts")

        self.patch(engine.EngineState, "prepare", "engine.prepare")
        self.patch(engine.EngineState, "discover", "engine.discover",
                   observe=restart)
        for module in (engine, cli):
            self.patch(module, "monomialize", "engine.monomialize")
            self.patch(module, "verify_monomial", "engine.verify_monomial")
        for module in (lexgroup, engine, cli):
            self.patch(module, "echelon_reduce", "lexgroup.echelon_reduce")
        self.patch(cli, "main", "cli.main")

    def spans(self):
        """Spans as (name, start_s, end_s, parent, op) rows."""
        return [(self._names[n], s, e, p, o) for n, s, e, p, o in zip(
            self._span_name, self._span_start, self._span_end,
            self._span_parent, self._span_op)]

    def summary(self):
        return {"stats": self.stats, "counts": self.counts}

    def dump(self, path, offset=0):
        """Write the spans as JSON lines; parent and span indices are
        shifted by `offset` so several tracers can share one file."""
        with open(path, "a", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans():
                handle.write(json.dumps(
                    [name, start, end, parent + offset if parent >= 0
                     else -1, op]) + "\n")
        return len(self._span_start)


def merge(into, summary):
    """Add one tracer summary (possibly from another process) into a
    running total of the same shape."""
    for name, (calls, incl, own) in summary["stats"].items():
        row = into["stats"].setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += incl
        row[2] += own
    for name, n in summary["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + n
    return into


def layer_metrics(summary):
    """The per-layer metrics of one traced run, from merged stats."""
    stats, counts = summary["stats"], summary["counts"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    mul_calls = calls("coeff.mul")
    return {
        "coeff.mul.calls": (mul_calls, "count"),
        "coeff.mul.self_s": (own("coeff.mul"), "s"),
        "coeff.mul.heavy_frac": (counts.get("coeff.mul.heavy", 0)
                                 / mul_calls if mul_calls else 0.0, "frac"),
        "coeff.add.calls": (calls("coeff.add"), "count"),
        "coeff.add.self_s": (own("coeff.add"), "s"),
        "coeff.pow.self_s": (own("coeff.pow"), "s"),
        "coeff.div.self_s": (own("coeff.div"), "s"),
        "hahn.mul.calls": (calls("hahn.mul"), "count"),
        "hahn.mul.self_s": (own("hahn.mul"), "s"),
        "hahn.mul.fam_x_fam.calls": (counts.get("hahn.mul.fam_x_fam", 0),
                                     "count"),
        "hahn.inverse.self_s": (own("hahn.inverse"), "s"),
        "hahn.monomial_image.self_s": (own("hahn.monomial_image"), "s"),
        "hahn.build.self_s": (own("hahn.build"), "s"),
        "hahn.enumerate.self_s": (own("hahn.enumerate"), "s"),
        "hahn.enumerate.terms": (counts.get("hahn.enumerate.terms", 0),
                                 "count"),
        "engine.monomialize.incl_s": (incl("engine.monomialize"), "s"),
        "engine.prepare.incl_s": (incl("engine.prepare"), "s"),
        "engine.discover.incl_s": (incl("engine.discover"), "s"),
        "engine.assemble_s": (incl("engine.monomialize")
                              - incl("engine.prepare")
                              - incl("engine.discover"), "s"),
        "engine.restarts": (counts.get("engine.restarts", 0), "count"),
        "engine.limit_steps": (counts.get("engine.limit_steps", 0),
                               "count"),
        "engine.verify_monomial.incl_s": (incl("engine.verify_monomial"),
                                          "s"),
        "engine.verify_monomial.self_s": (own("engine.verify_monomial"),
                                          "s"),
        "lexgroup.echelon_reduce.calls": (calls("lexgroup.echelon_reduce"),
                                          "count"),
        "lexgroup.echelon_reduce.self_s": (own("lexgroup.echelon_reduce"),
                                           "s"),
        "cli.main.incl_s": (incl("cli.main"), "s"),
    }


def parse_importtime(stderr):
    """Cumulative import seconds of sympy and monoval from the
    `-X importtime` lines of one interpreter's stderr."""
    out = {"sympy": 0.0, "monoval": 0.0}
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in out:
            try:
                out[name] = max(out[name], int(parts[1]) / 1e6)
            except ValueError:
                pass
    return out
