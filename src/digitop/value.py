"""The base class of the value types: equality, hash and repr from fields.

A subclass lists its fields as class annotations, in order.  Its own
``__init__`` sets them through ``self.__dict__``, together with ``_key``,
the tuple of their values in that order.  Instances of one class are equal
when their keys are, hash as the key and print as ``Name(field=value, ...)``.
Assignment and deletion raise ``AttributeError``; views made with this
module's ``cached_property`` still work, since it writes the instance
dictionary directly.
"""


class cached_property:
    """A view computed on first read and stored in the instance dictionary.

    ``functools.cached_property`` without its per-property lock (CPython
    3.12 dropped it too).  The values it serves are pure functions of
    immutable fields, so two threads that race compute equal values, and
    either store is right.  Later reads find the stored value first, as it
    is a non-data descriptor; read on the class, it returns itself.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Value:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
