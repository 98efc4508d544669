"""The immutable value class behind ``AshDigest`` and ``ProtocolFrame``."""

from __future__ import annotations

from operator import itemgetter
from typing import Any


class Record(tuple):
    """A tuple of named fields that equals only a record of its own class.

    A subclass names its fields in ``_fields``, checks its arguments in
    ``__new__`` and builds itself with ``tuple.__new__(cls, values)``.
    ``Record`` builds the accessors from ``_fields``, one read-only
    property per name, so they and ``repr`` cannot disagree, and assigning
    to a field raises ``AttributeError``. Hashing is the tuple's, so it
    agrees with ``==``; ``repr`` reads ``Name(field=value, ...)``. Tuple
    behaviour that does not touch equality comes along: ``len``, indexing,
    unpacking, and ordering between records of one class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for index, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(index)))

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # a plain tuple would compare item by item if handed NotImplemented
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: Any) -> Any:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__qualname__}({fields})"

    def __getnewargs__(self) -> tuple:
        # pickle and copy rebuild a record through ``__new__`` and its checks
        return tuple(self)
