"""Immutable records: ``checked`` validates a NamedTuple; ``Frozen`` is for the rest."""


def checked(cls):
    """The NamedTuple ``cls`` with ``cls._check()`` run on every instance, also
    through ``_make`` and ``_replace``, which otherwise skip ``__new__``."""
    build = cls.__new__

    def __new__(klass, *args, **kwargs):
        record = build(klass, *args, **kwargs)
        record._check()
        return record

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda klass, iterable: klass(*iterable))
    return cls


class Frozen:
    """Fields in ``__slots__``, set once by ``__init__`` through ``_set``, then
    read-only, with ``==``, ``hash``, ``repr`` and pickling by field."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
