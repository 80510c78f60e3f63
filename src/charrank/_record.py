"""The bases of the package's value classes.

A subclass lists its fields, in constructor order, as ``__match_args__``
and sets them in ``__init__``.  A ``Record`` compares equal field by field
to instances of its own class only, has no hash and shows as
``Name(field=value, ...)``.  A ``Frozen`` record also hashes as the tuple
of its fields and refuses every assignment and deletion, so its
``__init__`` sets the fields with ``_assign``.  That is what ``@dataclass``
and ``@dataclass(frozen=True)`` generate, written out once because
importing ``dataclasses``, and ``inspect`` with it, took a third of a
command's import time.  Copies and pickles restore the instance
dictionary directly, so they need no hook.
"""


class Record:
    __match_args__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self):
        shown = zip(self.__match_args__, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in shown)})"


class Frozen(Record):
    def _assign(self, *values):
        """Set the fields, in ``__match_args__`` order, to ``values``."""
        vars(self).update(zip(self.__match_args__, values))

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
