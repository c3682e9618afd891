"""JSON codec for :mod:`repro.lang.ast` programs.

Analysis records (``docs/caching.md``) store their formulas, the
predicates and the almost-correct specifications, in this form.  The
codec is built generically from the AST dataclass fields: a node or
field added to ``repro.lang.ast`` needs no change here.

Encoding:

* ``None``, ``bool``, ``int`` and ``str`` are themselves;
* a tuple is a JSON array of its encoded items;
* a dict is ``{"dict": [[key, value], ...]}``: ordered pairs, never a
  JSON object, because key order is content (``procedure_fingerprint``
  hashes ``repr``, which lists ``var_types`` in insertion order) and a
  writer that sorts object keys would silently reorder it;
* an AST node is ``{"<ClassName>": [field values in declaration order]}``.

Records are plain JSON, never a serialized Python object graph: CI
caches are often restored from shared storage, and loading an object
graph can run code.  :func:`decode` builds only classes defined in
``repro.lang.ast`` and raises ``ValueError`` (``TypeError`` for an
unhashable dict key) on anything else, so a bad record can cost a
recomputation, never run code.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

from . import ast

#: Every dataclass ``repro.lang.ast`` defines, by class name: the only
#: names the decoder will construct.
NODES = {name: cls for name, cls in vars(ast).items()
         if isinstance(cls, type) and is_dataclass(cls)
         and cls.__module__ == ast.__name__}

_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in NODES.values()}

_SCALARS = (type(None), bool, int, str)


def encode(value):
    """The JSON-ready form of an AST value (see the module docstring);
    ``TypeError`` for any value the AST does not hold."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is tuple:
        return [encode(v) for v in value]
    if kind is dict:
        return {"dict": [[encode(k), encode(v)] for k, v in value.items()]}
    names = _FIELDS.get(kind)
    if names is None:
        raise TypeError(f"cannot encode {kind.__name__} in an AST")
    return {kind.__name__: [encode(getattr(value, n)) for n in names]}


def decode(data):
    """Inverse of :func:`encode`; ``ValueError`` for anything it did
    not produce (``TypeError`` for an unhashable dict key)."""
    kind = type(data)
    if kind in _SCALARS:
        return data
    if kind is list:
        return tuple(decode(v) for v in data)
    if kind is dict and len(data) == 1:
        (tag, body), = data.items()
        if type(body) is list:
            if tag == "dict" and all(type(pair) is list and len(pair) == 2
                                     for pair in body):
                return {decode(k): decode(v) for k, v in body}
            cls = NODES.get(tag)
            if cls is not None and len(body) == len(_FIELDS[cls]):
                return cls(*[decode(v) for v in body])
    raise ValueError(f"not an encoded AST value: {data!r:.80}")
