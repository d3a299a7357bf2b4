"""Two's-complement helpers for 32/64-bit integer views; the value-class base."""

MASK32 = 0xFFFF_FFFF
MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def u32(x):
    return x & MASK32


def s32(x):
    x &= MASK32
    return x - 0x1_0000_0000 if x & 0x8000_0000 else x


def u64(x):
    return x & MASK64


def s64(x):
    x &= MASK64
    return x - 0x1_0000_0000_0000_0000 if x >> 63 else x


def sext(value, bits):
    """Sign-extend the low `bits` bits of value to a Python int."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


class Record:
    """Base of the value classes: the parameters of a subclass's own
    ``__init__`` are its ``_fields``, which gives a dataclass's field-wise
    ``==`` and ``Name(field=value, ...)`` repr. ``__init__`` sets each as
    ``self.x = x``; touching ``__dict__`` would slow every attribute access."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self._fields]
                == [getattr(other, f) for f in self._fields])

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
