"""Base of the package's immutable value classes."""


class Record:
    """An immutable value with named fields.

    Each subclass sets its fields once in its own ``__init__``, through
    ``self.__dict__``, and defines its own ``__eq__`` (same class, equal
    fields) and ``__hash__`` (of the field tuple); ``_fields`` names the
    fields in order for ``repr``.  Assigning or deleting an attribute
    raises ``AttributeError``; ``cached_property`` writes the instance
    dict directly, so cached stages still work.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"
