"""Value behaviour shared by chatpulse's record types.

A record class lists its fields in ``_fields``, which defaults to its
``__slots__``, and sets them in its own ``__init__``, whose signature is the
record's: its fields in ``_fields`` order, with their defaults. A class that
keeps a private slot beside its fields names them in ``_fields``. Records of
one class are equal when their field values are, ``repr`` writes
``Name(field=value, ...)``, and pickle and copy rebuild a record from its
fields through ``__init__``. A :class:`Record` can be assigned to and is
unhashable; a :class:`FrozenRecord` hashes by its field values and refuses
assignment with ``AttributeError``. Nothing is generated when a class is
created: every command imports these classes, so they cost no more at
start-up than plain classes.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    @property
    def _fields(self) -> tuple[str, ...]:
        return self.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in self._fields]
        )
        return f"{type(self).__qualname__}({fields})"

    # pickle and copy would restore every slot by assignment, which a frozen
    # record refuses and which would carry a private slot along
    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def _fill(self, *values) -> None:
        """Set the fields, in ``_fields`` order, from ``__init__``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
