"""Immutable values that behave as dataclass(frozen=True) ones from shared, not generated, methods.

Fields are the class-body annotations in order; a class attribute of the same name is a default.
__post_init__ runs once the fields are set and may normalise one through object.__setattr__;
_uncompared names fields left out of ==, hash and repr.
"""

from operator import attrgetter

_set = object.__setattr__


class Frozen:
    _uncompared = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)  # the class's own, evaluated if lazy
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)
        get = attrgetter(*cls._compared)  # a tuple, so hash is that of the field tuple
        cls._key = staticmethod(get if len(cls._compared) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args) :]
            if len(args) > len(fields) or not {*kwargs} <= {*rest} <= {*kwargs, *self._defaults}:
                raise TypeError(f"{type(self).__name__} takes the fields {fields}")
            args = [*args, *(kwargs[f] if f in kwargs else self._defaults[f] for f in rest)]
        for name, value in zip(fields, args):
            _set(self, name, value)  # not __dict__.update: that slows every attribute read
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({body})"


def replace(obj, **changes):
    """A new instance with the fields of obj, the given ones changed."""
    return type(obj)(**{**{f: getattr(obj, f) for f in obj._fields}, **changes})
