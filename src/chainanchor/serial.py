"""Canonical document codec: the only module that knows the format of
world files and message payloads.

Dataclass field annotations, or a shape (a dict of field name -> type,
which may itself be a field's type), drive it; the world file's top level
is the shape ``world._DOC``.  An ``int`` is ``hex(n)`` and a
:data:`JsonInt` a JSON int, both non-negative unless typed
:data:`SignedInt` (``-0x...``) or :data:`SignedJsonInt`; ``bytes`` are
hex; a dataclass or shape is an object; ``Optional`` is ``null`` when
unset; ``list``/``tuple`` are arrays, a ``set`` a sorted array,
``dict[str, T]`` an object and any other dict an array of ``[key, value]``
pairs in insertion order, whose decoding refuses a repeated key.
Decoding checks every field, and a missing, unexpected or malformed one
raises a ProtocolError naming its path, ``dict[str, T]`` keys included; a
ValueError from a record's constructor makes its fields malformed too.
``doc_bytes`` fixes key order and spacing, so equal documents are equal
bytes (state hashes, envelope payloads, golden transcripts).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Annotated, Union, get_args, get_origin, get_type_hints

from .errors import ProtocolError

JsonInt = Annotated[int, "json-int"]
# The integers that may be negative; decoding refuses a negative elsewhere.
SignedInt, SignedJsonInt = Annotated[int, "signed"], Annotated[JsonInt, "signed"]


def secret(**kwargs):
    """A dataclass field that public exports leave out."""
    return dataclasses.field(metadata={"secret": True}, **kwargs)


def omit_if_none():
    """An optional dataclass field written only while it is set."""
    return dataclasses.field(default=None, metadata={"omit_if_none": True})


class Record:
    """Base giving a dataclass ``to_doc``/``from_doc`` through the codec."""

    def to_doc(self, secrets: bool = False) -> dict:
        return encode(self, secrets=secrets)

    @classmethod
    def from_doc(cls, doc):
        return decode(cls, doc)


def doc_bytes(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def doc_from_bytes(data: bytes):
    try:
        return json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"malformed message document: {exc}") from exc


def encode(value, tp=None, secrets: bool = False):
    """Document for ``value`` read as ``tp`` (default: its own class)."""
    return _codec(type(value) if tp is None else tp, secrets)[0](value)


def decode(tp, doc):
    """Value of type ``tp`` read from ``doc``; a shape gives a dict."""
    return _codec(tp, True)[1](doc)


def pack(shape: dict, **values) -> bytes:
    """Message payload with the fields ``shape`` declares."""
    return doc_bytes(encode(values, shape))


def unpack(shape: dict, data: bytes) -> tuple:
    """Field values of a message payload, in shape order."""
    return tuple(decode(shape, doc_from_bytes(data)).values())


class _Malformed(ProtocolError):
    """Decode failure; ``path`` gathers field names on the way out."""

    def __init__(self, reason: str, *path: str):
        super().__init__(reason)
        self.reason, self.path = reason, list(path)

    def __str__(self) -> str:
        where = ".".join(reversed(self.path))
        return f"malformed field {where}: {self.reason}" if where else (
            f"malformed document: {self.reason}")


def _expected(what: str, doc) -> _Malformed:
    return _Malformed(f"expected {what}, got {type(doc).__name__}")


_codecs: dict = {}


def _codec(tp, secrets: bool):
    """(encoder, decoder) for ``tp``; annotations are resolved once."""
    key = (_frozen(tp), secrets)
    if key not in _codecs:
        _codecs[key] = _build(tp, secrets)
    return _codecs[key]


def _frozen(tp):
    """``tp`` as a cache key: a shape, nested ones too, as (name, type) pairs."""
    return (tuple((name, _frozen(t)) for name, t in tp.items())
            if isinstance(tp, dict) else tp)


def _build(tp, secrets):
    if isinstance(tp, dict) or dataclasses.is_dataclass(tp):
        return _record(tp, secrets)
    if tp == JsonInt:
        return _same, _checked(int, lambda d: d if d >= 0 else _negative(),
                               "an integer")
    if tp == SignedJsonInt:
        return _same, _checked(int, _same, "an integer")
    if tp in (bool, str):
        return _same, _checked(tp, _same, f"a {tp.__name__}")
    if tp is int:
        return hex, _checked(
            str, lambda d: int(d, 16) if "-" not in d else _negative(),
            "a hex integer")
    if tp == SignedInt:
        return hex, _checked(str, lambda d: int(d, 16), "a hex integer")
    if tp is bytes:
        return bytes.hex, _checked(str, bytes.fromhex, "a hex string")
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union and len(args) == 2 and args[1] is type(None):
        enc, dec = _codec(args[0], secrets)
        return (lambda v: None if v is None else enc(v),
                lambda d: None if d is None else dec(d))
    if origin is dict and args[0] is str:
        enc, dec = _codec(args[1], secrets)
        return (lambda v: {k: enc(x) for k, x in v.items()},
                _checked(dict, lambda d: {k: _at(k, dec, x)
                                          for k, x in d.items()}))
    if origin is dict:
        enc, dec = _codec(tuple[args], secrets)

        def decode_pairs(doc):
            # Pair by pair, so a large map never has a second copy.
            value = {}
            for key, item in map(dec, doc):
                if key in value:
                    raise _Malformed("duplicate key")
                value[key] = item
            return value
        return (lambda v: list(map(enc, v.items())),
                _checked(list, decode_pairs))
    if origin is tuple and args[-1] is not Ellipsis:
        encs, decs = zip(*(_codec(t, secrets) for t in args))
        what = f"an array of {len(args)}"

        def decode_fixed(doc):
            if type(doc) is not list or len(doc) != len(decs):
                raise _expected(what, doc)
            return tuple(map(_apply, decs, doc))
        return lambda v: list(map(_apply, encs, v)), decode_fixed
    if origin in (list, tuple, set):
        enc, dec = _codec(args[0], secrets)
        write = sorted if origin is set else list
        return (lambda v: write(map(enc, v)),
                _checked(list, lambda d: origin(map(dec, d))))
    raise TypeError(f"no document format for {tp!r}")


def _record(tp, secrets):
    if isinstance(tp, dict):
        fields = [(name, t, False) for name, t in tp.items()]
        get, build = dict.__getitem__, dict
    else:
        hints = get_type_hints(tp, include_extras=True)
        fields = [(f.name, hints[f.name], f.metadata.get("omit_if_none", False))
                  for f in dataclasses.fields(tp)
                  if secrets or not f.metadata.get("secret", False)]
        get, build = getattr, tp
    codecs = [(name, *_codec(t, secrets), omit) for name, t, omit in fields]
    names = {name for name, _, _ in fields}

    def encode_record(value):
        doc = {}
        for name, enc, _, omit in codecs:
            item = get(value, name)
            if item is not None or not omit:
                doc[name] = enc(item)
        return doc

    def decode_record(doc):
        values = {}
        for name, _, dec, omit in codecs:
            if name in doc:
                values[name] = _at(name, dec, doc[name])
            elif not omit:
                raise _Malformed("missing", name)
        if len(values) != len(doc):
            raise _Malformed("unexpected field", min(doc.keys() - names))
        try:
            return build(**values)
        except ValueError as exc:
            raise _Malformed(str(exc)) from None
    return encode_record, _checked(dict, decode_record)


def _at(name: str, dec, doc):
    """``dec(doc)``, with ``name`` added to the path of a decode failure."""
    try:
        return dec(doc)
    except _Malformed as bad:
        bad.path.append(name)
        raise


def _same(value):
    return value


# Called only on a refused value, so the sign check adds no call per value
# (a permissions database holds thousands).
def _negative():
    raise _Malformed("negative")


def _apply(codec, value):
    return codec(value)


def _checked(kind: type, build, what=None):
    """Decoder that checks the JSON type of ``doc`` before ``build``; a
    ValueError from ``build`` also means the value is malformed."""
    what = what or ("an object" if kind is dict else "an array")

    def decode_checked(doc):
        if type(doc) is kind:
            try:
                return build(doc)
            except ValueError:
                pass
        raise _expected(what, doc)
    return decode_checked
