"""Record: the one base of fdq's immutable value classes.

A subclass's annotations name its fields in order; a class attribute of a
field's name is its default. No code is generated per class. The
constructor binds positional, then keyword arguments, then defaults (a
TypeError names the class and a missing, unknown or repeated field, or
the surplus count), fills `__dict__` in one call and runs `__post_init__`.
Records of one class compare and hash as the tuple of their fields, less
those the class names in `_uncompared`, which `repr` (`Name(a=1, b='x')`)
omits too; `==` against another class is NotImplemented. Setting or
deleting an attribute raises AttributeError; `cached_property` still
works. `replace` builds a changed copy, which `__post_init__` checks.
"""

from operator import attrgetter


class Record:
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = vars(cls)
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {name: own[name] for name in cls._fields if name in own}
        shown = cls._shown = tuple(n for n in cls._fields if n not in cls._uncompared)
        # attrgetter gives a tuple for two or more names only
        many = attrgetter(*shown) if len(shown) > 1 else None
        cls._key = staticmethod(many or (lambda r: tuple(getattr(r, n) for n in shown)))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            name = type(self).__name__
            if len(args) > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
            given = dict(zip(fields, args))
            values = {**self._defaults, **given, **kwargs}
            wrong = [("repeated", f) for f in kwargs if f in given]
            wrong += [("unknown", f) for f in kwargs if f not in fields]
            wrong += [("missing", f) for f in fields if f not in values]
            if wrong:
                raise TypeError("{}() got {} field {!r}".format(name, *wrong[0]))
            args = map(values.__getitem__, fields)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with `changes`, checked as it is built."""
    return type(record)(**{n: getattr(record, n) for n in record._fields} | changes)
