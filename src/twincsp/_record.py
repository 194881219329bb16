"""Frozen value records, built from closures.

``@record`` turns an annotated class body into an immutable value type:
fields in annotation order, filled by position only, with no defaults;
``__post_init__`` runs after the fields are set and may validate them or,
through ``object.__setattr__``, normalize them.  Two records are equal
only when they are of the same class with equal fields, and equal records
hash equal.  Assigning or deleting an attribute raises ``AttributeError``.
An ``__init__`` that the class body writes out (a fixed signature builds
faster) is kept.

It does for these classes what the standard library's frozen data classes
did, without generating and compiling the source of each method, which
made up a large share of ``import twincsp``.  Fields are stored with
``object.__setattr__``: filling the instance ``__dict__`` instead makes
every later attribute read slower.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def record(cls):
    """Make cls a frozen value record, as the module docstring describes."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    post_init = getattr(cls, "__post_init__", None)
    fields = attrgetter(*names)
    title = cls.__qualname__

    def __init__(self, *args):
        if len(args) != len(names):
            raise TypeError(f"{title}() takes {', '.join(names)} by position")
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in names) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a {title} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {title} is frozen")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method is not __init__ or "__init__" not in vars(cls):
            method.__qualname__ = f"{title}.{method.__name__}"
            setattr(cls, method.__name__, method)
    return cls
