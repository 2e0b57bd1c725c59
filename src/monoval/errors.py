"""Error types shared by the stream, engine and CLI layers.

Three failure families matter to callers (and map to distinct CLI exit
codes): budget-limited answers that refuse to guess (inconclusive),
inputs that violate the structural assumptions of the procedure
(purity of residues, declared rank/dimension), and broken invariants
of the procedure itself, which say nothing about the input.
"""


class InconclusiveError(Exception):
    """A budget (truncation degree, term count, step count, work
    limit) was exhausted before the answer could be certified.

    `detail` optionally carries structured data, e.g. the
    pseudo-convergent prefix accumulated before a step budget ran out.
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class StructureError(Exception):
    """The input is not a valuation this procedure applies to: the
    declared rank/dimension cannot be realized."""


class PurityError(StructureError):
    """A residue fell outside the pure-transcendental tower: it is
    neither in the current subfield nor a fresh Moebius-independent
    transcendental."""


class InternalError(Exception):
    """An invariant of the procedure failed, or the run reached a case
    it cannot represent yet: a fault of the program, not a verdict on
    the input, so deliberately not a StructureError."""
