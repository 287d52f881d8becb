"""Frozen value records, built without generating code.

`record` turns a class with annotated fields into an immutable value
type, as `dataclasses.dataclass(frozen=True)` does, but every method is
a closure over the field list: nothing is compiled when a class is
defined, so importing a module of records costs no more than its class
statements.  Each record gets

  * a constructor taking the fields in order, by position or keyword,
    with the class-level defaults, then calling `__post_init__` if the
    class defines one (it may still set fields with object.__setattr__);
  * a repr `Name(field=value, ...)`;
  * with eq=True (the default), equality and a hash over the fields
    whose `field(compare=False)` does not leave them out;
  * an AttributeError on every assignment or deletion.
"""

from __future__ import annotations

from operator import attrgetter

_NO_DEFAULT = object()


class _Field:
    __slots__ = ("default", "compare")

    def __init__(self, default, compare: bool):
        self.default, self.compare = default, compare


def field(*, default, compare: bool = True):
    """A field default that may be left out of equality and hashing."""
    return _Field(default, compare)


class _Signature:
    """inspect.signature(cls), as dataclass gives it; built on use, so inspect loads only then."""

    def __init__(self, annotations: dict, defaults: dict):
        self.annotations, self.defaults = annotations, defaults

    def __get__(self, obj, cls):
        import inspect

        p = inspect.Parameter
        return inspect.Signature([p(name, p.POSITIONAL_OR_KEYWORD, annotation=annotation,
                                    default=self.defaults.get(name, p.empty))
                                  for name, annotation in self.annotations.items()],
                                 return_annotation=None)


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(cls=None, /, *, eq: bool = True):
    """Make cls a frozen record; use as @record or @record(eq=False)."""
    if cls is None:
        return lambda c: record(c, eq=eq)
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    defaults, compared = {}, []
    for name in names:
        value = cls.__dict__.get(name, _NO_DEFAULT)
        if isinstance(value, _Field):
            value, compare = value.default, value.compare
        else:
            compare = True
        if value is not _NO_DEFAULT:
            defaults[name] = value
            setattr(cls, name, value)
        elif defaults:
            raise TypeError(f"non-default field {name!r} follows a default field")
        if compare:
            compared.append(name)
    post_init = getattr(cls, "__post_init__", None)
    title = f"{cls.__name__}()"

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{title} takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        slots = self.__dict__
        for name, value in zip(names, args):
            slots[name] = value
        for name in names[len(args):]:
            if name in kwargs:
                slots[name] = kwargs.pop(name)
            elif name in defaults:
                slots[name] = defaults[name]
            else:
                raise TypeError(f"{title} missing required argument {name!r}")
        for name in kwargs:
            raise TypeError(f"{title} got multiple values for argument {name!r}" if name in names
                            else f"{title} got an unexpected keyword argument {name!r}")
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in names) + ")")

    cls.__init__, cls.__repr__ = __init__, __repr__
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__signature__ = _Signature(annotations, defaults)
    if eq:
        key = attrgetter(*compared) if len(compared) > 1 else lambda r: (getattr(r, compared[0]),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__
    return cls
