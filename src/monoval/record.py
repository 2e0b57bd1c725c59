"""Immutable value records.

A record class lists its fields, in constructor order, in `__slots__`
and stores them from its own `__init__` through `_init`.  The base
class gives field-wise equality and hashing, a `Name(field=value, ...)`
repr, and `replace(**changes)`.  Instances refuse attribute assignment.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)
        # the tuple of fields, also for a single field
        cls._key = staticmethod(get if len(cls.__slots__) > 1
                                else lambda rec: (get(rec),))

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self.__slots__, self._key(self))))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def replace(self, **changes):
        """A copy with the named fields changed."""
        fields = {f: getattr(self, f) for f in self.__slots__}
        fields.update(changes)
        return type(self)(**fields)
