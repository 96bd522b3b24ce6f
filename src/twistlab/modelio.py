"""Structured-text input files for chains and circle/Levy models.

Files are YAML mappings (JSON works too).  Parsing walks the composed node
tree so that dimension and type errors, and inf or nan in a float field,
point at the offending line; a file that cannot be read, is not UTF-8 or
holds a control character is a `SpecFileError` too.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

from .chain import ChainError, ChainSpec
from .hilbert import CircleDriftModel, LevyModel, circle_model

__all__ = ["SpecFileError", "load_chain_spec", "load_circle_model", "load_levy_model"]

# libyaml's parser, when pyyaml was built with it, composes a 64-state chain
# ten times faster than the pure-Python one, with the same nodes and marks
LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class SpecFileError(ValueError):
    """Malformed input file; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _line(node) -> int:
    return node.start_mark.line + 1


def _compose(path) -> yaml.Node:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise SpecFileError(f"not UTF-8 text: byte {data[exc.start]:#04x}", line) from exc
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
    if node is None:
        raise SpecFileError("empty document", 1)
    return node


def _mapping(node, known, what="document") -> dict:
    if not isinstance(node, yaml.MappingNode):
        raise SpecFileError(f"{what} must be a mapping", _line(node))
    out = {}
    for key, val in node.value:
        name = key.value
        if name not in known:
            raise SpecFileError(f"unknown field {name!r}", _line(key))
        if name in out:
            raise SpecFileError(f"duplicate field {name!r}", _line(key))
        out[name] = val
    for name in known:
        if name not in out:
            raise SpecFileError(f"missing field {name!r}", _line(node))
    return out


def _scalar(node, cast, what):
    if not isinstance(node, yaml.ScalarNode):
        raise SpecFileError(f"{what} must be a scalar", _line(node))
    try:
        value = cast(node.value)
    except ValueError as exc:
        raise SpecFileError(f"{what} must be a {cast.__name__}, got {node.value!r}", _line(node)) from exc
    if cast is float and not np.isfinite(value):
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


def load_chain_spec(path) -> ChainSpec:
    """Parse a chain file: fields states, q, pi (row-major), mu."""
    root = _compose(path)
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
    try:
        return ChainSpec(q=np.array(q), pi=np.array(pi), mu=np.array(mu))
    except ChainError as exc:
        raise SpecFileError(str(exc), _line(root)) from exc


def load_circle_model(path) -> CircleDriftModel:
    """Parse a drift model: fields epsilon and b_hat (list of [k, re, im]).

    A frequency -k left out is implied by conjugation (`circle_model`); a
    pair that is given and not conjugate is an error at the b_hat list.
    """
    root = _compose(path)
    fields = _mapping(root, ("epsilon", "b_hat"), "circle model")
    eps = _scalar(fields["epsilon"], float, "epsilon")
    if eps <= 0:
        raise SpecFileError("epsilon must be positive", _line(fields["epsilon"]))
    table: dict[int, complex] = {}
    for entry in _sequence(fields["b_hat"], "b_hat"):
        triple = _float_list(entry, "b_hat entry", 3)
        k = int(triple[0])
        if triple[0] != k:
            raise SpecFileError("frequency must be an integer", _line(entry))
        if k in table:
            raise SpecFileError(f"duplicate frequency {k}", _line(entry))
        table[k] = complex(triple[1], triple[2])
    try:
        return circle_model(eps, table)
    except ValueError as exc:
        raise SpecFileError(str(exc), _line(fields["b_hat"])) from exc


def load_levy_model(path) -> LevyModel:
    """Parse a symbol model: fields a and b, matching positive/odd halves."""
    root = _compose(path)
    fields = _mapping(root, ("a", "b"), "levy model")
    a = _float_list(fields["a"], "a")
    b = _float_list(fields["b"], "b", len(a))
    try:
        return LevyModel(a=np.array(a), b=np.array(b))
    except ValueError as exc:
        raise SpecFileError(str(exc), _line(fields["a"])) from exc
