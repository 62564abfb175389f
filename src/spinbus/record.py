"""``Record``, the base of the package's frozen value classes.

A subclass lists its fields as class annotations, in order, and a class
attribute of the same name is that field's default.  ``__init__`` takes the
fields by position or keyword, then runs the class's ``_check``.  Instances
are frozen and unhashable, equal only to a record of the same type with
equal fields, and repr as ``Name(field=value, ...)``.  Building a class runs
no generated code, so defining one costs next to nothing at import.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)} values")
        values = self.__dict__  # filled in place: no __setattr__ call
        values.update(zip(names, args))
        if kwargs:
            for name in kwargs:
                if name not in names:
                    raise TypeError(f"{type(self).__name__} has no field {name!r}")
                if name in values:
                    raise TypeError(f"{type(self).__name__} got field {name!r} twice")
            values.update(kwargs)
        if len(values) < len(names):
            for name in names[len(args):]:
                if name not in values:
                    if name not in self._defaults:
                        raise TypeError(f"{type(self).__name__} is missing field {name!r}")
                    values[name] = self._defaults[name]
        self._check()

    def _check(self):
        """Raise if the fields are out of range; a subclass overrides it."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __repr__(self) -> str:
        values = self.__dict__
        return f"{type(self).__qualname__}({', '.join(f'{name}={values[name]!r}' for name in self._fields)})"

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked again."""
        return type(self)(**{**self.__dict__, **changes})

    def as_dict(self) -> dict:
        values = self.__dict__
        return {name: values[name] for name in self._fields}
