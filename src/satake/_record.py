"""Base of the package's immutable value classes."""


class Record:
    """An immutable value with named fields.

    Each subclass's ``__init__`` checks its arguments, then sets its
    fields and ``_key``, the tuple of their values in ``_fields`` order,
    once, through ``self.__dict__``.  Equality (same class, equal keys),
    hash and ``repr`` read ``_key``.  Assigning or deleting an attribute
    raises ``AttributeError``; ``cached_property`` writes the instance
    dict directly, so cached stages still work and stay outside the key.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({args})"
