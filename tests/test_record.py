"""Value semantics of the package's records: field-wise equality and
hash, the `Name(field=value, ...)` repr, immutability, `replace`."""

import pytest

from monoval.engine import Monoidal
from monoval.hahn import APFamily, Budget
from monoval.lexgroup import AddRow


def test_records_compare_and_hash_by_their_fields():
    assert Monoidal(3, 0, 2) == Monoidal(l=3, i=0, q=2)
    assert Monoidal(3, 0, 2) != Monoidal(3, 0, 1)
    # same fields, other class: not equal
    assert Monoidal(3, 0, 2) != AddRow(3, 0, 2)
    assert hash(Monoidal(3, 0, 2)) == hash((3, 0, 2))
    assert hash(Budget(max_terms=8)) == hash((8, None))
    assert len({Budget(), Budget(256, None), Budget(64)}) == 2
    assert repr(Budget(lex_ceiling=(3,))) == \
        "Budget(max_terms=256, lex_ceiling=(3,))"


def test_records_are_immutable():
    b = Budget()
    with pytest.raises(AttributeError):
        b.max_terms = 1
    with pytest.raises(AttributeError):
        del b.max_terms
    with pytest.raises(AttributeError):
        b.extra = 1
    assert b.max_terms == 256


def test_replace_changes_fields_and_reruns_the_checks():
    b = Budget(max_terms=8, lex_ceiling=(4,))
    assert b.replace(max_terms=64) == Budget(64, (4,))
    assert b == Budget(8, (4,))
    with pytest.raises(TypeError):
        b.replace(depth=3)
    fam = APFamily((1, 0), (0, 1), 1)
    with pytest.raises(ValueError, match="must be lex-positive"):
        fam.replace(step=(0, -1))

