"""Immutable record classes.

A record class writes its own `__init__` in plain Python: it checks and
normalises its arguments and stores each field with `set_field`. The
parameters of that `__init__` after `self` are the record's fields, in
order; they are declared nowhere else. `frozen` reads them once and
gives the class equality only with instances of the exact same class, a
hash of the field tuple, a `Name(field=value, ...)` repr, and attribute
assignment and deletion that raise `FrozenRecordError`. The hash needs
hashable fields: a record that holds a dict (`GeneratorAction`, and
`ActionScenario` and `ValidScenario` through it or their own dicts)
raises `TypeError` when hashed, though it still compares. These methods
are shared by every record and read the fields through one
`operator.attrgetter` per class, so no method is generated from source
text: the constructors are cached as bytecode with their modules, and
importing the records compiles nothing.
"""

from operator import attrgetter

# object.__setattr__, not stores into self.__dict__: taking the dict
# makes every later attribute read of the instance about 3x slower
set_field = object.__setattr__


class FrozenRecordError(AttributeError):
    """Assignment to or deletion of an attribute of a frozen record."""


def _setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _eq(self, other):
    if other.__class__ is self.__class__:
        values = self._values
        return values(self) == values(other)
    return NotImplemented


def _hash(self):
    return hash(self._values(self))


def _repr(self):
    shown = ", ".join(
        f"{name}={value!r}" for name, value in zip(self._fields, self._values(self))
    )
    return f"{self.__class__.__qualname__}({shown})"


def frozen(cls):
    """Make `cls` an immutable record of its `__init__` parameters, in order."""
    code = cls.__dict__["__init__"].__code__
    names = code.co_varnames[1 : code.co_argcount]
    get = attrgetter(*names)
    cls._fields = names
    # attrgetter of one name returns the bare value; the field tuple has one item
    cls._values = staticmethod(get if len(names) > 1 else lambda record: (get(record),))
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
