"""The immutable value records every result type is built on.

A record declares its fields once, in ``__slots__``.  The one
constructor, ``Record.__init__``, binds positional or keyword arguments
to the fields in that order (a field left out takes its value from the
class's ``_defaults``), stores each with ``object.__setattr__`` and then
calls ``_check``, where a record keeps its invariants; afterwards
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
    ``__slots__``, may give defaults in ``_defaults``, name fields their
    repr leaves out in ``_hidden`` and check invariants in ``_check``."""

    __slots__ = ()
    _hidden: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        cls = type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{cls} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{cls} got field {name!r} twice")
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{cls} is missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls} has no field {next(iter(kwargs))!r}")
        self._check()

    def _check(self) -> None:
        """Raise if the stored fields break the record's invariants."""

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
