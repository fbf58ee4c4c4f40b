"""Value behaviour shared by chatpulse's record types.

A record class lists its fields in ``__slots__`` and sets them in its own
``__init__``, whose signature is the record's: its fields in ``__slots__``
order, with their defaults. Records of one class are equal when their field
values are, and ``repr`` writes ``Name(field=value, ...)``. A :class:`Record`
can be assigned to and is unhashable; a :class:`FrozenRecord` hashes by its
field values and refuses assignment with ``AttributeError``. Nothing is
generated when a class is created: every command imports these classes, so
they cost no more at start-up than plain classes.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in self.__slots__]
        )
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def _fill(self, *values) -> None:
        """Set the fields, in ``__slots__`` order, from ``__init__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    # pickle and copy would restore the slots by assignment, which is refused
    def __reduce__(self):
        return type(self), self._values()
