"""JSON documents: the one module that knows how scattergate's types are written.

A document is a dict of plain JSON values built from a dataclass's fields
and their type hints:

- a real array field ``f`` is a list, and a complex one is split into the
  lists ``re_f`` and ``im_f``;
- a complex scalar is a pair ``[re, im]``, so a tuple of complex numbers is
  a list of pairs and a complex matrix inside a tuple a nested list of pairs;
- a nested dataclass (a bound state, the envelope of a pulse spec) is a
  nested document.

Each document type runs one field rule when built, by its constructor or
by ``from_json`` (``Document.__post_init__``): a ``float``, ``complex``,
``int`` or ``bool`` field, or a tuple of these, keeps its value converted by
the hint only if the conversion is exact and finite (2.0 for an int, not
1.9; 1 for a float, not "1" or nan), a ``Positive`` float (a width, rate,
length, radius or duration) only if it is also > 0 ("eta: 0.0 is not
positive"), a document-typed field must hold one, and a derived value (a
window) must be finite.  An array field takes the rule entry by entry, by
``_samples.numbers`` in the type's checks ("q: nan is not a finite real
number").  The reader passes scalars on as written, so it refuses the same
values; ``checked`` gives library arguments this rule.

Types whose variants share one base (potentials and pulse envelopes by
``"variant"``, loops by ``"kind"``) write that tag first, and potentials end
with their derived ``"window"``.  A subclass that sets no tag of its own
(the recovered sample tables) is written bare, without tag or window.

``from_json(cls, doc)`` inverts ``to_json``.  For a base it builds the variant
the tag names; a document without a tag is read as the ``"tabulated"``
variant when it holds that variant's fields, and a bare variant document
stands for the object wrapping it (a pulse spec around an envelope).  Keys
left out take the field's default.  Derived values are never read back:
they are recomputed from the parameters, so a stored document cannot
smuggle in a window that breaks the decay contract.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import typing

import numpy as np

from ._samples import numbers

Positive = typing.Annotated[float, "positive"]


class Document:
    """Base of every type with a JSON document form.

    A base of variants names its tag, the noun its error messages use and
    the derived properties written after the fields::

        class PotentialSpec(Document, tag="variant", noun="potential", derived=("window",))

    and every subclass that sets the tag attribute in its own body is
    registered as that variant.  Construction runs the field rule of the
    module notes, then the checks no field type states in ``_check``, then
    the float rule on each derived value.
    """

    def __init_subclass__(cls, tag=None, noun=None, derived=(), **kwargs):
        super().__init_subclass__(**kwargs)
        if tag is not None:
            cls._tag, cls._noun, cls._derived, cls._variants = tag, noun, tuple(derived), {}
        elif getattr(cls, "_tag", None) in vars(cls):
            cls._variants[vars(cls)[cls._tag]] = cls

    def __post_init__(self):
        hints = _hints(type(self))
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, checked(f.name, hints[f.name], getattr(self, f.name)))
        self._check()
        for name in getattr(self, "_derived", ()):
            checked(name, tuple[float, ...], getattr(self, name))

    def _check(self):
        pass

    def to_json(self) -> dict:
        return to_json(self)


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls, include_extras=True)


def _is_base(hint) -> bool:
    return isinstance(hint, type) and "_variants" in vars(hint)


def _items(hint, value) -> list:
    # element hints of a tuple hint, one per value; a fixed tuple needs its length
    args = typing.get_args(hint)
    if args[-1:] == (Ellipsis,):
        return [args[0]] * len(value)
    if len(value) != len(args):
        raise ValueError(f"expected {len(args)} values, got {len(value)}")
    return list(args)


def _field(hint, value):
    # the field rule of the module notes, for one field's value
    if hint == Positive:
        out = _field(float, value)
        if not out > 0:
            raise ValueError(f"{out!r} is not positive")
        return out
    if hint in (float, complex, int, bool):
        try:
            out = hint(value) if getattr(value, "ndim", 0) == 0 else None
            exact = out == value and cmath.isfinite(out)
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact or hint is not bool and isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{value!r} is not a finite {hint.__name__}")
        return out
    if typing.get_origin(hint) is tuple:
        return tuple(_field(h, v) for h, v in zip(_items(hint, value), value))
    if isinstance(hint, type) and issubclass(hint, Document) and not isinstance(value, hint):
        raise TypeError(f"expected a {hint.__name__}, got {type(value).__name__}")
    return value


def checked(name, hint, value):
    """value converted by the field rule of hint, or ValueError naming the argument."""
    return _named(name, _field, hint, value)


def _named(name, rule, *args):
    # rule(*args) for the field called name; a refusal names the field
    try:
        return rule(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _to_pairs(value) -> list:
    # complex scalar or array as [re, im] pairs along a new last axis
    z = np.asarray(value, dtype=complex)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def _encode(hint, value):
    if dataclasses.is_dataclass(value):
        return to_json(value)
    if typing.get_origin(hint) is tuple:
        return [_encode(h, v) for h, v in zip(_items(hint, value), value)]
    if hint is complex or hint is np.ndarray:
        return _to_pairs(value)
    return value


def to_json(obj) -> dict:
    """The JSON document of a dataclass instance: plain dicts, lists and numbers."""
    cls = type(obj)
    tag = getattr(cls, "_tag", None)
    tagged = tag is not None and cls._variants.get(getattr(cls, tag, None)) is cls
    doc = {tag: getattr(cls, tag)} if tagged else {}
    hints = _hints(cls)
    for f in dataclasses.fields(cls):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray) and np.iscomplexobj(value):
            doc["re_" + f.name] = value.real.tolist()
            doc["im_" + f.name] = value.imag.tolist()
        elif isinstance(value, np.ndarray):
            doc[f.name] = value.tolist()
        else:
            doc[f.name] = _encode(hints[f.name], value)
    if tagged:
        doc.update((name, list(getattr(obj, name))) for name in cls._derived)
    return doc


def _from_pairs(value) -> np.ndarray:
    # complex array from [re, im] number pairs along the last axis, built exactly
    a = numbers(value)
    if a.ndim == 0 or a.shape[-1] != 2:
        raise ValueError("complex values are written as [re, im] pairs of numbers")
    out = np.empty(a.shape[:-1], dtype=complex)
    out.real, out.imag = a[..., 0], a[..., 1]
    return out


def _from_halves(re, im) -> np.ndarray:
    # complex array from its real and imaginary halves
    re, im = numbers(re), numbers(im)
    if re.shape != im.shape:
        raise ValueError(f"re_ and im_ halves differ in shape, {re.shape} and {im.shape}")
    return re + 1j * im


def _decode(hint, value):
    # a scalar is returned as written: the constructor's field rule reads it
    if typing.get_origin(hint) is tuple:
        return tuple(_decode(h, v) for h, v in zip(_items(hint, value), value))
    if hint is complex and isinstance(value, list) or hint is np.ndarray:
        return _from_pairs(value)
    if dataclasses.is_dataclass(hint) or _is_base(hint):
        return from_json(hint, value)
    return value


def _has_fields(cls, doc) -> bool:
    return all(f.name in doc or "re_" + f.name in doc for f in dataclasses.fields(cls))


def _variant(base, doc):
    name = doc.get(base._tag)
    table = base._variants.get("tabulated")
    if name is None and table is not None and _has_fields(table, doc):
        return table
    if isinstance(name, str) and name in base._variants:
        return base._variants[name]
    raise ValueError(f"unknown {base._noun} {base._tag}: {name!r}")


def from_json(cls, doc):
    """Rebuild an instance of cls from its document; see the module notes.

    For a base class (PotentialSpec, PulseEnvelope, Loop) the result is the
    variant the document names.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"a {cls.__name__} document must be a JSON object")
    if _is_base(cls):
        cls = _variant(cls, doc)
    hints = _hints(cls)
    fields = dataclasses.fields(cls)
    for f in fields:
        if f.name not in doc and _is_base(hints[f.name]):
            return cls(**{f.name: from_json(hints[f.name], doc)})
    kwargs = {}
    for f in fields:
        name, hint = f.name, hints[f.name]
        if hint is np.ndarray and name not in doc and "re_" + name in doc:
            kwargs[name] = _named(name, _from_halves, doc["re_" + name], doc["im_" + name])
        elif hint is np.ndarray and name in doc:
            kwargs[name] = doc[name]  # the constructor runs the array rule
        elif name in doc:
            kwargs[name] = _named(name, _decode, hint, doc[name])
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise KeyError(name)
    return cls(**kwargs)
