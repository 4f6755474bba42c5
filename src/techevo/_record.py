"""The immutable value records every result type is built on.

A record is a ``__slots__`` class whose ``__init__`` validates its
arguments and stores each field with ``object.__setattr__``; afterwards
assignment and deletion raise ``AttributeError``.  Records compare equal
and hash by their class and field values, and ``_asdict`` returns the
fields in declaration order, the key order of the report's blocks.

These are plain classes rather than frozen dataclasses because
``dataclasses`` imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and generates each class's methods at import, which made
up most of the CLI's start-up time.
"""

from __future__ import annotations


class Record:
    """Base of the immutable records; subclasses list their fields in
    ``__slots__`` and may name fields their repr leaves out in ``_hidden``."""

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _asdict(self) -> dict:
        """The fields as a new dict, in declaration order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self.__slots__
            if name not in self._hidden
        )
        return f"{type(self).__qualname__}({fields})"

    # Pickling and copy.copy restore a record's fields through these, since
    # the default restore would assign them.
    def __getstate__(self) -> tuple:
        return self._astuple()

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)
