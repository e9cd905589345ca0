"""Base of the package's immutable value classes."""


class Record:
    """An immutable value with named fields.

    A subclass declares ``_fields``.  The constructor binds positional and
    keyword arguments to them, raising ``TypeError`` for a field missing,
    unknown or given twice, and stores the fields and ``_key``, the tuple
    of their values in ``_fields`` order, in one write to ``self.__dict__``;
    a subclass that checks its arguments makes that write itself.  Equality
    (same class, equal keys), hash and ``repr`` read ``_key``.  Assigning
    or deleting an attribute raises ``AttributeError``; a ``stage``
    writes the instance dict directly, so it still works and stays
    outside the key.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = _bind(type(self), args, kwargs)
        self.__dict__.update(zip(self._fields, args), _key=args)

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


class ReadOnlyDict(dict):
    """A ``dict`` whose every edit raises ``TypeError``, with dict's ``repr``
    and ``==``; pickle and ``copy`` rebuild it from a plain copy."""

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"a {type(self).__name__} cannot be edited")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class stage:
    """``cached_property`` without its lock: ``func`` of the instance, kept
    in its ``__dict__`` on first read, or nothing if ``func`` raises.  Two threads
    reading at once may both compute it, as on Python 3.12+, and get equal values."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.func(obj))


def _bind(cls: type[Record], args: tuple, kwargs: dict) -> tuple:
    """The field values in ``_fields`` order: the keywords must name
    exactly the fields that follow the positional arguments, so each of
    those is looked up in order and no keyword may be left over."""
    fields = cls._fields
    rest = fields[len(args):]
    try:
        values = (*args, *map(kwargs.__getitem__, rest))
    except KeyError:
        values = ()
    if len(values) != len(fields) or len(kwargs) != len(rest):
        raise TypeError(
            f"{cls.__qualname__}() takes each of its fields {', '.join(fields)} once;"
            f" got {len(args)} by position and {', '.join(kwargs) or 'none'} by keyword"
        )
    return values

