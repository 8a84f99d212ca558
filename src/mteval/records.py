"""Immutable records: ``checked`` validates a NamedTuple wherever one is built."""


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
