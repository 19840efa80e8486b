"""Immutable record classes.

`frozen` turns a class whose annotations list its fields into a record:
an `__init__` taking the fields by position or keyword (and calling
`__post_init__` if the class has one), equality only with instances of
the exact same class, a hash of the field tuple, a `Name(field=value,
...)` repr, and attribute assignment and deletion that raise
`FrozenRecordError`. The four methods of a class come from one `exec`
of straight-line code. The standard library's frozen records import
`inspect` and build each method separately, which cost a one-shot
command more than its certificate does.
"""


class FrozenRecordError(AttributeError):
    """Assignment to or deletion of an attribute of a frozen record."""


def _setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def frozen(cls):
    """Make `cls` an immutable record of its annotated fields, in order."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    # object.__setattr__, not stores into self.__dict__: taking the dict
    # makes every later attribute read of the instance about 3x slower
    env = {"__set": object.__setattr__}
    params, body = ["self"], []
    for name in names:
        if name not in cls.__dict__:
            params.append(name)
        else:
            env[f"_default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
        body.append(f"  __set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    own = "".join(f"self.{name}," for name in names)
    other = "".join(f"other.{name}," for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    source = (
        f"def __init__({', '.join(params)}):\n" + "\n".join(body) + "\n"
        "def __eq__(self, other):\n"
        "  if other.__class__ is self.__class__:\n"
        f"    return ({own}) == ({other})\n"
        "  return NotImplemented\n"
        "def __hash__(self):\n"
        f"  return hash(({own}))\n"
        "def __repr__(self):\n"
        f"  return f'{{self.__class__.__qualname__}}({shown})'\n"
    )
    exec(source, env)
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        setattr(cls, method, env[method])
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
