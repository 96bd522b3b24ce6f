"""Loading model files: the values each one gives, and the flat chain reader against the node walk.

Every refusal of `modelio` is a ``REFUSALS`` entry in `tests/test_refusals.py`, read under both shipped loaders.
"""

import numpy as np
import pytest
import yaml

from twistlab import modelio, random_chain
from twistlab.hilbert import circle_model
from twistlab.modelio import load_chain_spec, load_circle_model, load_levy_model

GOOD_CHAIN = """\
states: 3
q: [1.0, 1.0, 1.0]
pi:
  - [0.0, 1.0, 0.0]
  - [0.0, 0.0, 1.0]
  - [0.0, 0.0, 0.0]
mu: [1.0, 0.0, 0.0]
"""


# the chain example of the README
README_CHAIN = """\
states: 3
q: [1.0, 1.0, 1.0]
pi:
  - [0.0, 0.6, 0.1]
  - [0.2, 0.0, 0.5]
  - [0.1, 0.3, 0.0]
mu: [0.5, 0.3, 0.2]
"""


def write(tmp_path, text, name="model.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def chain_yaml(spec) -> str:
    """A chain file with every float written by `repr`, so it reads back exactly."""

    def floats(values):
        return "[" + ", ".join(repr(float(v)) for v in values) + "]"

    lines = [f"states: {spec.n}", f"q: {floats(spec.q)}", "pi:"]
    lines += [f"  - {floats(row)}" for row in spec.pi]
    return "\n".join(lines + [f"mu: {floats(spec.mu)}"]) + "\n"


def line_reader(monkeypatch, on):
    """Undo the test's patches, then leave the flat-layout line reader on or force the node walk."""
    monkeypatch.undo()
    if not on:
        monkeypatch.setattr(modelio, "_flat_chain", lambda text: None)


def test_load_chain_spec(tmp_path):
    spec = load_chain_spec(write(tmp_path, GOOD_CHAIN))
    assert spec.n == 3
    assert np.allclose(spec.pi[0], [0.0, 1.0, 0.0])


def test_chain_spec_json_also_parses(tmp_path):
    text = '{"states": 2, "q": [1, 1], "pi": [[0, 0.5], [0, 0]], "mu": [1, 0]}'
    spec = load_chain_spec(write(tmp_path, text, "chain.json"))
    assert spec.n == 2


def test_load_circle_model(tmp_path):
    text = "epsilon: 1.0\nb_hat:\n  - [1, 0.5, 0.0]\n"
    model = load_circle_model(write(tmp_path, text))
    assert model.bandwidth == 1
    assert model.ks.tolist() == [-1, 1] and model.coeffs.tolist() == [0.5, 0.5]
    # a file that lists both signs of a frequency gives the model that fills one in
    text = "epsilon: 0.7\nb_hat:\n  - [-2, 0.1, 0.3]\n  - [1, 0.5, 0.2]\n  - [2, 0.1, -0.3]\n  - [0, 0.4, 0.0]\n"
    model = load_circle_model(write(tmp_path, text))
    built = circle_model(0.7, {1: 0.5 + 0.2j, 2: 0.1 - 0.3j, 0: 0.4})
    assert model.epsilon == built.epsilon
    assert model.ks.tolist() == built.ks.tolist() == [-2, -1, 0, 1, 2]
    assert np.array_equal(model.coeffs, built.coeffs)


def test_load_levy_model(tmp_path):
    model = load_levy_model(write(tmp_path, "a: [1.0, 4.0]\nb: [1.0, 2.0]\n"))
    assert model.a.size == 2


def test_shipped_loader_reads_the_values_of_the_resolving_one(tmp_path, monkeypatch):
    spec = random_chain(64, np.random.default_rng(7))

    def chain(m):
        return m.q, m.pi, m.mu

    cases = [
        (GOOD_CHAIN, load_chain_spec, chain),
        (chain_yaml(spec), load_chain_spec, chain),
        (
            "epsilon: 0.7\nb_hat:\n  - [-2, 0.1, 0.3]\n  - [1, 0.5, 0.2]\n  - [0, 0.4, 0.0]\n",
            load_circle_model,
            lambda m: (m.epsilon, m.ks, m.coeffs),
        ),
        ("a: [1.0, 4.5, 9.25]\nb: [0.1, -2.0, 3.0e-1]\n", load_levy_model, lambda m: (m.a, m.b)),
    ]
    for i, (text, load, arrays) in enumerate(cases):
        path = write(tmp_path, text, f"case{i}.yaml")
        line_reader(monkeypatch, False)
        monkeypatch.setattr(modelio, "LOADER", yaml.SafeLoader)
        resolved = arrays(load(path))
        for on in (True, False):
            line_reader(monkeypatch, on)
            shipped = arrays(load(path))
            assert all(np.array_equal(a, b) for a, b in zip(shipped, resolved, strict=True)), (on, text)
    # repr floats read back exactly
    for on in (True, False):
        line_reader(monkeypatch, on)
        assert np.array_equal(load_chain_spec(tmp_path / "case1.yaml").pi, spec.pi)


@pytest.mark.parametrize("n", [1, 6, 8, 64, 128])  # the chain sizes the benchmark workloads write
def test_flat_chain_file_is_not_composed(n, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a flat chain file was composed")

    spec = random_chain(n, np.random.default_rng(11))
    path = write(tmp_path, chain_yaml(spec))
    monkeypatch.setattr(yaml, "compose", refuse)
    loaded = load_chain_spec(path)
    assert all(np.array_equal(a, b) for a, b in zip((loaded.q, loaded.pi, loaded.mu), (spec.q, spec.pi, spec.mu)))
    with pytest.raises(AssertionError, match="composed"):
        load_chain_spec(write(tmp_path, GOOD_CHAIN.replace("states: 3", "states: 3  # a comment")))


# what a random edit inserts: the flat layout's characters, and text that leaves the layout
# or that float() reads as non-finite
EDITS = [*"0123456789abcdefghijklmnopqrstuvwxyz.,+-[] :\n", "#", "\t", "\r", "\x0b", "\x0c", "'", '"', "{", "}"]
EDITS += ["---", "\u0663", "nan", "inf", "1e999"]


def edited(text, rng) -> str:
    """`text` after 0 to 3 random edits: a one-place insert, delete or replace, or a moved line."""
    for _ in range(rng.integers(4)):
        kind = rng.integers(4)
        if kind == 3:
            lines = text.splitlines(keepends=True)
            line = lines.pop(rng.integers(len(lines)))
            lines.insert(rng.integers(len(lines) + 1), line)
            text = "".join(lines)
            continue
        at = int(rng.integers(len(text) + 1))
        token = EDITS[rng.integers(len(EDITS))] if kind != 1 else ""
        text = text[:at] + token + text[at + (kind != 0) :]
    return text


def test_line_reader_agrees_with_the_node_walk(tmp_path, monkeypatch):
    """Flat files and edits of them give the same arrays, or the same error, either way."""
    rng = np.random.default_rng(2027)
    reader = modelio._flat_chain
    taken = []

    def counted(text):
        flat = reader(text)
        taken.append(flat is not None)
        return flat

    def outcome(path):
        try:
            spec = load_chain_spec(path)
        except Exception as exc:
            return type(exc), str(exc)
        return spec.q.tobytes(), spec.pi.tobytes(), spec.mu.tobytes()

    path = tmp_path / "chain.yaml"
    for i in range(2100):
        n = i % 5
        base = chain_yaml(random_chain(n, rng)) if n else README_CHAIN
        path.write_bytes(edited(base, rng).encode())
        monkeypatch.setattr(modelio, "_flat_chain", counted)
        on = outcome(path)
        monkeypatch.setattr(modelio, "_flat_chain", lambda text: None)
        assert on == outcome(path), path.read_bytes()
    assert sum(taken) >= 600, sum(taken)  # 789 of the 2,100 texts at this seed
