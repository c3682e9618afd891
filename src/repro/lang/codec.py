"""JSON codec for :mod:`repro.lang.ast` programs.

CI mode's declaration records (``docs/caching.md``, "Declaration
records") store what one source file declares, so the next CI run can
stand in for an unchanged file without parsing or lowering it again;
analysis records store their formulas the same way.  The codec is built
generically from the AST dataclass fields: a node or field added to
``repro.lang.ast`` needs no change here, and :data:`LAYOUT_DIGEST`
(part of every declaration record's key) moves with it, so records
written under the old layout are never looked up.

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
re-parse, never run code.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass

from . import ast
from .ast import Program

#: Every dataclass ``repro.lang.ast`` defines, by class name: the only
#: names the decoder will construct.
NODES = {name: cls for name, cls in vars(ast).items()
         if isinstance(cls, type) and is_dataclass(cls)
         and cls.__module__ == ast.__name__}

_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in NODES.values()}

_SCALARS = (type(None), bool, int, str)


def _layout_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(NODES):
        spec = ",".join(f"{f.name}:{f.type}" for f in fields(NODES[name]))
        h.update(f"{name}({spec});".encode())
    return h.hexdigest()


#: sha256 over every AST class name and its fields' names and declared
#: types, in declaration order: the node layout the encoding assumes.
LAYOUT_DIGEST = _layout_digest()


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


def decode_program_lazily(data) -> Program:
    """The ``Program`` that :func:`encode` turned into ``data``, except
    that each procedure stays encoded under its name (in order) for the
    caller to :func:`decode` when it reads it; ``ValueError`` or
    ``TypeError`` when ``data`` is not one."""
    body = data.get("Program") if type(data) is dict and len(data) == 1 \
        else None
    if type(body) is not list or len(body) != len(_FIELDS[Program]):
        raise ValueError("record does not hold a Program")
    values = dict(zip(_FIELDS[Program], body))
    table = values.pop("procedures")
    pairs = table.get("dict") if type(table) is dict and len(table) == 1 \
        else None
    if type(pairs) is not list or not all(
            type(pair) is list and len(pair) == 2 and type(pair[0]) is str
            for pair in pairs):
        raise ValueError("procedures are not a table by name")
    return Program(**{k: decode(v) for k, v in values.items()},
                   procedures=dict(pairs))
