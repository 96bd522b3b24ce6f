"""Structured-text input files for chains and circle/Levy models.

Files are YAML mappings (JSON works too).  Parsing walks the composed node
tree so that dimension and type errors, and inf or nan in a float field,
point at the offending line; a file that cannot be read, is not UTF-8 or
holds a control character is a `SpecFileError` too.

A chain file in the README's flat layout is read line by line instead
(`_flat_chain`), to the same floats; any other text, and every error,
takes the node walk.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

from .chain import ChainError, ChainSpec
from .hilbert import CircleDriftModel, LevyModel, circle_model

__all__ = ["SpecFileError", "load_chain_spec", "load_circle_model", "load_levy_model"]


# libyaml's parser when pyyaml was built with it (the same nodes and marks as
# the pure-Python one, about ten times faster)
LOADER = yaml.CBaseLoader if yaml.__with_libyaml__ else yaml.BaseLoader


class SpecFileError(ValueError):
    """Malformed input file; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _line(node) -> int:
    return node.start_mark.line + 1


def _read(path) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SpecFileError(f"not UTF-8 text: byte {data[exc.start]:#04x}", line) from exc


def _compose(text) -> yaml.Node:
    try:
        node = yaml.compose(text, Loader=LOADER)
    except yaml.MarkedYAMLError as exc:
        line = exc.problem_mark.line + 1 if exc.problem_mark is not None else None
        raise SpecFileError(f"invalid document: {exc.problem}", line) from exc
    except yaml.reader.ReaderError as exc:
        # libyaml reports a byte offset and pyyaml a character offset, so
        # the line is found from the character itself
        at = text.find(chr(exc.character))
        line = text.count("\n", 0, at) + 1 if at >= 0 else None
        raise SpecFileError(f"unacceptable character #x{exc.character:04x}", line) from exc
    except RecursionError as exc:  # pyyaml's pure-Python composer recurses once per level
        raise SpecFileError("invalid document: nested too deeply") from exc
    if node is None:
        raise SpecFileError("empty document", 1)
    return node


def _mapping(node, known, what="document") -> dict:
    if not isinstance(node, yaml.MappingNode):
        raise SpecFileError(f"{what} must be a mapping", _line(node))
    out = {}
    for key, val in node.value:
        name = _scalar(key, str, "field name")
        if name not in known:
            raise SpecFileError(f"unknown field {name!r}", _line(key))
        if name in out:
            raise SpecFileError(f"duplicate field {name!r}", _line(key))
        out[name] = val
    for name in known:
        if name not in out:
            raise SpecFileError(f"missing field {name!r}", _line(node))
    return out


_KINDS = {int: "an integer", float: "a float"}


def _scalar(node, cast, what):
    if not isinstance(node, yaml.ScalarNode):
        raise SpecFileError(f"{what} must be a scalar", _line(node))
    try:
        value = cast(node.value)
    except ValueError as exc:
        raise SpecFileError(f"{what} must be {_KINDS[cast]}, got {node.value!r}", _line(node)) from exc
    if cast is float and not math.isfinite(value):
        raise SpecFileError(f"{what} must be finite, got {node.value!r}", _line(node))
    return value


def _sequence(node, what):
    if not isinstance(node, yaml.SequenceNode):
        raise SpecFileError(f"{what} must be a sequence", _line(node))
    return node.value


def _float_list(node, what, length=None) -> list[float]:
    items = _sequence(node, what)
    if length is not None and len(items) != length:
        raise SpecFileError(f"{what} must have {length} entries, got {len(items)}", _line(node))
    return [_scalar(item, float, f"{what} entry") for item in items]


# the characters of the flat layout: no tab, quote, comment, flow mapping or non-ASCII digit
_FLAT_BYTES = b"0123456789abcdefghijklmnopqrstuvwxyz.,+-[] :\n"


def _flat_floats(value: str) -> list[float]:
    value = value.strip(" ")
    if value[:1] != "[" or value[-1:] != "]":
        raise ValueError(value)
    return [float(entry) for entry in value[1:-1].split(",")]


def _flat_chain(text: str):
    """(q, pi, mu) of a chain text in the README's flat layout, else None.

    Flat: only `_FLAT_BYTES`; column-0 lines ``states: <digits>``, ``q: [...]``
    and ``mu: [...]`` and a bare ``pi:`` followed by ``  - [...]`` rows, each
    key once.  Entries are cast with ``float`` as the node walk casts a
    scalar's text; a text that is not flat, an entry ``float`` refuses, a
    wrong shape or a non-finite sum gives None, and the walk reports it.
    """
    if not text.isascii() or text.encode().translate(None, _FLAT_BYTES):
        return None
    fields, key = {}, None
    try:
        for line in text.splitlines():
            if line[:4] == "  - " and key == "pi":
                fields["pi"].append(_flat_floats(line[4:]))
                continue
            key, colon, value = line.partition(":")
            if not colon or key in fields:
                return None
            if key == "pi" and not value:
                fields["pi"] = []
            elif key == "states" and value[:1] == " " and value.strip(" ").isdigit():
                fields["states"] = int(value)
            elif key in ("q", "mu") and value[:1] == " ":
                fields[key] = _flat_floats(value)
            else:
                return None
        n, q, pi, mu = fields["states"], fields["q"], fields["pi"], fields["mu"]
    except (KeyError, ValueError):  # a missing key, or an entry float refuses
        return None
    if any(len(values) != n for values in (q, mu, pi, *pi)):
        return None
    if not math.isfinite(sum(q) + sum(mu) + sum(map(sum, pi))):  # an inf or nan entry, or overflow
        return None
    return q, pi, mu


def load_chain_spec(path) -> ChainSpec:
    """Parse a chain file: fields states, q, pi (row-major), mu.

    A flat text (`_flat_chain`) is read without YAML nodes; any other, and
    every error, is composed and walked.  A `ChainError` is reported at the
    line where the document's mapping starts, 1 for a flat text.
    """
    text = _read(path)
    flat = _flat_chain(text)
    if flat is not None:
        (q, pi, mu), line = flat, 1
    else:
        root = _compose(text)
        fields = _mapping(root, ("states", "q", "pi", "mu"), "chain spec")
        n = _scalar(fields["states"], int, "states")
        if n < 1:
            raise SpecFileError("states must be at least 1", _line(fields["states"]))
        q = _float_list(fields["q"], "q", n)
        rows = _sequence(fields["pi"], "pi")
        if len(rows) != n:
            raise SpecFileError(f"pi must have {n} rows, got {len(rows)}", _line(fields["pi"]))
        pi = [_float_list(row, f"pi row {i}", n) for i, row in enumerate(rows)]
        mu = _float_list(fields["mu"], "mu", n)
        line = _line(root)
    try:
        return ChainSpec(q=np.array(q), pi=np.array(pi), mu=np.array(mu))
    except ChainError as exc:
        raise SpecFileError(str(exc), line) from exc


def load_circle_model(path) -> CircleDriftModel:
    """Parse a drift model: fields epsilon and b_hat (list of [k, re, im]).

    A frequency -k left out is implied by conjugation (`circle_model`); a
    pair that is given and not conjugate is an error at the b_hat list.
    """
    root = _compose(_read(path))
    fields = _mapping(root, ("epsilon", "b_hat"), "circle model")
    eps = _scalar(fields["epsilon"], float, "epsilon")
    if eps <= 0:
        raise SpecFileError("epsilon must be positive", _line(fields["epsilon"]))
    table: dict[int, complex] = {}
    for entry in _sequence(fields["b_hat"], "b_hat"):
        triple = _float_list(entry, "b_hat triple", 3)
        k = int(triple[0])
        if triple[0] != k:
            raise SpecFileError("frequency must be an integer", _line(entry))
        if abs(k) > np.iinfo(np.int64).max:
            raise SpecFileError(f"frequency {k} is outside ±(2**63 - 1)", _line(entry))
        if k in table:
            raise SpecFileError(f"duplicate frequency {k}", _line(entry))
        table[k] = complex(triple[1], triple[2])
    try:
        return circle_model(eps, table)
    except ValueError as exc:
        raise SpecFileError(str(exc), _line(fields["b_hat"])) from exc


def load_levy_model(path) -> LevyModel:
    """Parse a symbol model: fields a and b, matching positive/odd halves."""
    root = _compose(_read(path))
    fields = _mapping(root, ("a", "b"), "levy model")
    a = _float_list(fields["a"], "a")
    b = _float_list(fields["b"], "b", len(a))
    try:
        return LevyModel(a=np.array(a), b=np.array(b))
    except ValueError as exc:
        raise SpecFileError(str(exc), _line(fields["a"])) from exc
