"""The base of the package's value classes.

A subclass lists its compared fields, in order, in ``_fields``.  Its
``__init__`` checks and normalises its arguments, then passes the field
values, in ``_fields`` order, to ``Value``'s constructor, the one place that
stores them.  Its instances then behave as a frozen dataclass's: equal only
to the same class with equal fields, hashed and printed by those fields,
read-only.  Importing the dataclass module (and ``inspect``) and running the
code it generates cost each CLI process ~25 ms of start-up.
"""

from operator import attrgetter


class Value:
    def __init__(self, *values) -> None:
        # One attribute at a time leaves the instance dict unbuilt: ~150 bytes less (CPython 3.11).
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls) -> None:
        # Read in C: a Python loop over the names made ``==`` and ``hash`` 3-6x slower.
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Tuple equality treats identical items as equal, so ``self is other`` agrees with it.
        return self is other or self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
