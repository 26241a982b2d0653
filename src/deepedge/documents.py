"""One codec for every JSON document: cluster, job, plan, registry, bench report.

``from_doc`` and ``to_doc`` read and write a dataclass by its fields' type
hints: ``int``, ``float`` (finite), ``str``, ``bool``, ``X | None`` (left out
when None), ``tuple[X, ...]`` as a list, ``dict[str, X]`` as an object,
``Any`` as any JSON value, and nested dataclasses. ``doc_field`` declares a
field's document key or value reader where they differ. A class with a
``DOCUMENT`` name is a top-level document and carries ``"schema": 1``.
Unknown, missing and mistyped fields, then the first of ``violations()``,
raise ``ValidationError`` naming the path, e.g.
``plan.assignments[0].cost.train: missing``. Each class's reader and writer
are compiled once, so a document costs what hand-written code does.
``csv_rows`` reads the CSV tables (profiling sweeps, simulator traces) and
names a bad row by ``path:line``.
"""

from __future__ import annotations

import csv
import json
import math
import types
import typing
from dataclasses import MISSING, field, fields, is_dataclass
from functools import cache
from pathlib import Path

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Document is not something we can even read (bad bytes, bad JSON, wrong shape)."""


class ValidationError(ValueError):
    """Well-formed document that violates a model invariant; message names the field."""

    path = ""  # where in a document, gathered while decoding unwinds out of it


def _at(step: str, exc: ValidationError) -> ValidationError:
    """``exc`` one step further out in the document."""
    exc.path = step + exc.path
    return exc


def doc_field(key: str | None = None, read=None):
    """A field whose document ``key`` or value reader (a function of the JSON
    value that raises ValidationError) differs from the default."""
    return field(metadata={"key": key, "read": read})


# --- readers ---------------------------------------------------------------------


def _float(value) -> float:
    if type(value) is int:
        value = float(value) if abs(value) <= 1e308 else math.inf
    if type(value) is not float:
        raise ValidationError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"must be finite, got {value}")
    return value


def fraction(value) -> float:
    """A utilization as a number or as an '88%' style string."""
    if isinstance(value, str) and value.strip().endswith("%"):
        try:
            return float(value.strip()[:-1]) / 100.0
        except ValueError:
            raise ValidationError(f"cannot parse percentage {value!r}") from None
    return _float(value)


def _exactly(kind: type, name: str):
    def read(value):
        if type(value) is not kind:
            raise ValidationError(f"expected {name}, got {value!r}")
        return value
    return read


_SCALARS = {float: _float, int: _exactly(int, "an integer"), str: _exactly(str, "a string"),
            bool: _exactly(bool, "true or false"), typing.Any: lambda value: value}


def _each(read, kind: type):
    """The reader of a JSON list (as a tuple) or object (as a dict) of ``read`` values."""
    def read_each(value):
        if type(value) is not kind:
            raise ValidationError(f"expected {'a list' if kind is list else 'an object'}, got {value!r}")
        out = {}
        for key, item in (enumerate(value) if kind is list else value.items()):
            try:
                out[key] = read(item)
            except ValidationError as exc:
                raise _at(f"[{key}]" if kind is list else f"['{key}']", exc) from None
        return tuple(out.values()) if kind is list else out
    return read_each


def _optional_of(tp):
    """``X`` for a hint ``X | None``, else None."""
    args = [a for a in typing.get_args(tp) if a is not type(None)]
    union = typing.get_origin(tp) in (typing.Union, types.UnionType)
    return args[0] if union and len(args) == 1 else None


def _reader(tp):
    """The function that reads a JSON value as type ``tp``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if _optional_of(tp):
        read = _reader(_optional_of(tp))
        return lambda value: None if value is None else read(value)
    if is_dataclass(tp):
        return _spec(tp).decode
    if origin is tuple and args[1:] == (Ellipsis,):
        return _each(_reader(args[0]), list)
    if origin is dict and args[0] is str:
        return _each(_reader(args[1]), dict)
    return _SCALARS[tp]  # a KeyError here names a type with no document form


def _write(tp, value: str, depth: int = 0) -> str:
    """Source of an expression for the JSON form of ``value``, of type ``tp``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    item = f"x{depth}"
    if is_dataclass(tp):  # one with optional fields needs statements: its own writer
        return f"to_doc({value})" if _spec(tp).optional else _spec(tp).literal(value, depth)
    if origin is tuple:
        inner = _write(args[0], item, depth + 1)
        return f"list({value})" if inner == item else f"[{inner} for {item} in {value}]"
    if origin is dict:
        inner = _write(args[1], item, depth + 1)
        return value if inner == item else f"{{k: {inner} for k, {item} in {value}.items()}}"
    return value  # a number, a string, a bool, any JSON value or an object of them


# the compiled reader of a dataclass: field i is read by read_i, or made by
# default_i() when the document leaves it out
_DECODE = """
def decode(doc):
    if type(doc) is not dict:
        raise ValidationError(f"expected an object, got {{doc!r}}")
    if not keys.issuperset(doc):
        raise ValidationError(f"unknown field {{next(k for k in doc if k not in keys)!r}}"){reads}
    try:
        return cls({args})
    except ValidationError as exc:
        raise at("", exc)"""
_READ = """
    try:
        v{i} = read_{i}(doc[{key!r}]){default}
    except KeyError:
        raise at({step!r}, ValidationError("missing"))
    except ValidationError as exc:
        raise at({step!r}, exc)"""


class _Spec:
    """One dataclass's fields as (name, document key, type hint), its reader
    and its writer; both are compiled, as dataclasses compile ``__init__``."""

    def __init__(self, cls: type):
        hints = typing.get_type_hints(cls)
        self.document = getattr(cls, "DOCUMENT", None)
        self.fields = [(f.name, f.metadata.get("key") or f.name, hints[f.name])
                       for f in fields(cls)]
        self.optional = [(name, key, _optional_of(hint)) for name, key, hint in self.fields
                         if _optional_of(hint)]
        keys = {key for _, key, _ in self.fields} | ({"schema"} if self.document else set())
        env = {"cls": cls, "keys": frozenset(keys), "at": _at, "ValidationError": ValidationError,
               "to_doc": to_doc}
        reads = []
        for i, (f, (_, key, hint)) in enumerate(zip(fields(cls), self.fields)):
            env[f"read_{i}"] = f.metadata.get("read") or _reader(hint)
            env[f"default_{i}"] = f.default_factory if f.default is MISSING else lambda d=f.default: d
            required = f.default is MISSING and f.default_factory is MISSING
            reads.append(_READ.format(i=i, key=key, step="." + key, default=(
                "" if required else f" if {key!r} in doc else default_{i}()")))
        sets = "".join(f"\n    if obj.{name} is not None:\n        doc[{key!r}] = "
                       f"{_write(hint, f'obj.{name}')}" for name, key, hint in self.optional)
        exec(_DECODE.format(reads="".join(reads),
                            args=", ".join(f"v{i}" for i in range(len(self.fields))))
             + f"\n\ndef encode(obj):\n    doc = {self.literal('obj')}{sets}\n    return doc", env)
        self.decode, self.encode = env["decode"], env["encode"]

    def literal(self, value: str, depth: int = 0) -> str:
        """Source of a dict literal for the document of ``value`` without its
        optional fields."""
        entries = [f"'schema': {SCHEMA_VERSION}"] if self.document else []
        entries += [f"{key!r}: {_write(hint, f'{value}.{name}', depth)}"
                    for name, key, hint in self.fields if not _optional_of(hint)]
        return "{" + ", ".join(entries) + "}"


@cache
def _spec(cls: type) -> _Spec:
    return _Spec(cls)


# --- the codec ---------------------------------------------------------------------


def from_doc(cls: type, doc, ctx: str | None = None):
    """A ``cls`` read from a JSON value; ``ctx`` (the class's DOCUMENT name
    by default) starts the path in every error message."""
    spec = _spec(cls)
    ctx = ctx or spec.document
    if spec.document and type(doc) is dict and doc.get("schema") != SCHEMA_VERSION:
        found = repr(doc["schema"]) if "schema" in doc else "nothing"
        raise ValidationError(f"{ctx}.schema: expected {SCHEMA_VERSION}, found {found}")
    try:
        obj = spec.decode(doc)
    except ValidationError as exc:
        raise ValidationError(f"{ctx}{exc.path}: {exc}") from None
    problems = obj.violations() if hasattr(obj, "violations") else ()
    if problems:
        # prefixed with the path unless the message starts with it already
        raise ValidationError(problems[0] if problems[0].startswith(ctx)
                              else f"{ctx}: {problems[0]}")
    return obj


def to_doc(obj) -> dict:
    """The JSON value of a dataclass."""
    return _spec(type(obj)).encode(obj)


def writer(cls: type):
    """``to_doc`` for one class, compiled: no lookup for each call."""
    return _spec(cls).encode


def load_doc(source) -> dict:
    """The top-level JSON object from a path, bytes, or a str that is JSON
    text when it starts with '{' or '[' and a path otherwise."""
    text = source
    if not isinstance(source, (bytes, str)) or (
            isinstance(source, str) and not source.lstrip().startswith(("{", "["))):
        try:
            text = Path(source).read_bytes()
        except FileNotFoundError:
            raise ParseError(f"{source}: file does not exist") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad bytes, too
        raise ParseError(f"document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"top-level JSON value must be an object, got {type(doc).__name__}")
    return doc


def save(obj, path) -> None:
    """Write the document of a dataclass, or a JSON object, to ``path``."""
    Path(path).write_text(json.dumps(obj if type(obj) is dict else to_doc(obj), indent=2) + "\n")


# --- CSV tables -------------------------------------------------------------------


def _csv_number(text: str, kind: type, where: str):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (kind is int and not value.is_integer()):
        raise ParseError(f"{where}: expected a {'whole' if kind is int else 'finite'} "
                         f"number, got {text!r}")
    return kind(value)


def csv_rows(path, columns: tuple[str, ...], numbers: dict[str, type],
             limits: dict[str, tuple] | None = None):
    """The rows of the CSV file at ``path``, whose header must be ``columns``,
    as lists of values; blank rows are skipped. A column named in ``numbers``
    is read as a finite float, or as a whole number when its type is ``int``,
    and one named in ``limits`` must lie within its (low, high) bounds.
    A bad header, a row with the wrong number of columns or a bad number
    raises ParseError naming ``path:line``, and the column."""
    limits = limits or {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(columns):
            raise ParseError(f"{path}:1: expected header {','.join(columns)}")
        kinds = [(i, name, numbers[name], limits.get(name, (-math.inf, math.inf)))
                 for i, name in enumerate(columns) if name in numbers]
        for rec in reader:
            if not rec:
                continue
            where = f"{path}:{reader.line_num}"
            if len(rec) != len(columns):
                raise ParseError(f"{where}: expected {len(columns)} columns, got {len(rec)}")
            for i, name, kind, (low, high) in kinds:
                rec[i] = _csv_number(rec[i], kind, f"{where}: {name}")
                if not low <= rec[i] <= high:
                    bounds = f">= {low}" if high == math.inf else f"within [{low}, {high}]"
                    raise ParseError(f"{where}: {name}: must be {bounds}, got {rec[i]}")
            yield rec
