import numpy as np
import pytest
import yaml

from twistlab import modelio, random_chain
from twistlab.hilbert import circle_model
from twistlab.modelio import SpecFileError, load_chain_spec, load_circle_model, load_levy_model

# the shipped loader and pyyaml's pure-Python one
LOADERS = [modelio.LOADER, yaml.BaseLoader]
# each one's twin on the same parser that resolves every tag
RESOLVING = {
    LOADERS[0]: yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader,
    LOADERS[1]: yaml.SafeLoader,
}

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


def load_error(monkeypatch, load, path, match=None) -> SpecFileError:
    """Load a malformed file with each YAML parser, with and without tags.

    All must fail on the same line, and each parser with the same message
    whether or not it resolves tags (libyaml and pyyaml word syntax errors
    differently).
    """
    errors = []
    for loader in LOADERS:
        messages = set()
        for variant in (loader, RESOLVING[loader]):
            monkeypatch.setattr(modelio, "LOADER", variant)
            with pytest.raises(SpecFileError, match=match) as err:
                load(path)
            messages.add(str(err.value))
            errors.append(err.value)
        assert len(messages) == 1, messages
    assert len({e.line for e in errors}) == 1, [str(e) for e in errors]
    return errors[0]


def test_load_chain_spec(tmp_path):
    spec = load_chain_spec(write(tmp_path, GOOD_CHAIN))
    assert spec.n == 3
    assert np.allclose(spec.pi[0], [0.0, 1.0, 0.0])


def test_chain_spec_json_also_parses(tmp_path):
    text = '{"states": 2, "q": [1, 1], "pi": [[0, 0.5], [0, 0]], "mu": [1, 0]}'
    spec = load_chain_spec(write(tmp_path, text, "chain.json"))
    assert spec.n == 2


def test_wrong_row_length_is_line_anchored(tmp_path, monkeypatch):
    bad = GOOD_CHAIN.replace("  - [0.0, 0.0, 1.0]", "  - [0.0, 0.0]")
    err = load_error(monkeypatch, load_chain_spec, write(tmp_path, bad))
    assert err.line == 5
    assert "pi row 1" in str(err)


def test_wrong_vector_length_and_missing_field(tmp_path, monkeypatch):
    bad = GOOD_CHAIN.replace("q: [1.0, 1.0, 1.0]", "q: [1.0, 1.0]")
    assert load_error(monkeypatch, load_chain_spec, write(tmp_path, bad)).line == 2
    missing = write(tmp_path, GOOD_CHAIN.replace("mu: [1.0, 0.0, 0.0]\n", ""))
    load_error(monkeypatch, load_chain_spec, missing, match="missing field 'mu'")
    load_error(monkeypatch, load_chain_spec, write(tmp_path, GOOD_CHAIN + "extra: 1\n"), match="unknown field")


def test_fractional_state_count_is_not_an_integer(tmp_path, monkeypatch):
    bad = write(tmp_path, GOOD_CHAIN.replace("states: 3", "states: 2.5"))
    err = load_error(monkeypatch, load_chain_spec, bad)
    assert str(err) == "line 1: states must be an integer, got '2.5'"


def test_non_scalar_field_name_is_rejected_at_its_line(tmp_path, monkeypatch):
    bad = write(tmp_path, GOOD_CHAIN + "? [q, mu]\n: 1\n")
    err = load_error(monkeypatch, load_chain_spec, bad)
    assert str(err) == "line 8: field name must be a scalar"


def test_duplicate_field_is_rejected_at_its_line(tmp_path, monkeypatch):
    twice = GOOD_CHAIN + "q: [2.0, 2.0, 2.0]\n"
    err = load_error(monkeypatch, load_chain_spec, write(tmp_path, twice), match="duplicate field 'q'")
    assert err.line == 8


def test_yaml_syntax_error_carries_line(tmp_path, monkeypatch):
    err = load_error(monkeypatch, load_chain_spec, write(tmp_path, "states: 3\nq: [1.0, 1.0\n"))
    assert err.line is not None


@pytest.mark.parametrize(
    "content, line, message",
    [
        # libyaml counts the bytes of the accents, pyyaml the characters
        ("states: 3  # éééééééééééé\nq: [1.0,\x01 1.0]\nmu: [1.0]\n".encode(), 2, "unacceptable character #x0001"),
        (b"states: 3\nq: [1.0, \xff]\n", 2, "not UTF-8 text: byte 0xff"),
        (None, None, "cannot read"),
    ],
    ids=["control-character", "not-utf8", "missing-file"],
)
def test_unreadable_files_are_spec_errors(content, line, message, tmp_path, monkeypatch):
    path = tmp_path / "chain.yaml"
    if content is not None:
        path.write_bytes(content)
    err = load_error(monkeypatch, load_chain_spec, path, match=message)
    assert err.line == line


def test_semantically_invalid_chain_rejected(tmp_path, monkeypatch):
    bad = GOOD_CHAIN.replace("q: [1.0, 1.0, 1.0]", "q: [1.0, -1.0, 1.0]")
    load_error(monkeypatch, load_chain_spec, write(tmp_path, bad), match="positive")


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


def test_circle_model_conjugate_conflict(tmp_path, monkeypatch):
    text = "epsilon: 1.0\nb_hat:\n  - [1, 0.5, 0.2]\n  - [-1, 0.5, 0.2]\n"
    err = load_error(monkeypatch, load_circle_model, write(tmp_path, text), match="conjugate")
    assert err.line == 3  # the b_hat list
    load_error(monkeypatch, load_circle_model, write(tmp_path, "epsilon: -1\nb_hat: []\n"), match="epsilon")


def test_load_levy_model(tmp_path, monkeypatch):
    model = load_levy_model(write(tmp_path, "a: [1.0, 4.0]\nb: [1.0, 2.0]\n"))
    assert model.a.size == 2
    load_error(monkeypatch, load_levy_model, write(tmp_path, "a: [1.0, 4.0]\nb: [1.0]\n"))
    load_error(monkeypatch, load_levy_model, write(tmp_path, "a: [0.0, 4.0]\nb: [1.0, 2.0]\n"), match="positive")


@pytest.mark.parametrize(
    "load, text, line",
    [
        (load_circle_model, "epsilon: 1.0\nb_hat: [[inf, 0.5, 0.0]]\n", 2),
        (load_circle_model, "epsilon: 1.0\nb_hat:\n  - [nan, 0.5, 0.0]\n", 3),
        (load_circle_model, "epsilon: nan\nb_hat: []\n", 1),
        (load_chain_spec, GOOD_CHAIN.replace("q: [1.0, 1.0, 1.0]", "q: [1.0, inf, 1.0]"), 2),
        (load_levy_model, "a: [1.0, nan]\nb: [1.0, 2.0]\n", 1),
        (load_levy_model, "a: [1.0, 4.0]\nb: [nan, 2.0]\n", 2),
    ],
    ids=["frequency-inf", "frequency-nan", "epsilon-nan", "rate-inf", "levy-a-nan", "levy-b-nan"],
)
def test_non_finite_numbers_are_rejected_at_their_line(load, text, line, tmp_path, monkeypatch):
    err = load_error(monkeypatch, load, write(tmp_path, text), match="must be finite")
    assert err.line == line


@pytest.mark.parametrize(
    "load, text, message",
    [
        (
            load_chain_spec,
            GOOD_CHAIN.replace("  - [0.0, 0.0, 1.0]\n", "  - - 0.0\n    - abc\n    - 1.0\n"),
            "line 6: pi row 1 entry must be a float, got 'abc'",
        ),
        (
            load_chain_spec,
            GOOD_CHAIN.replace("  - [0.0, 0.0, 1.0]\n", "  - - 0.0\n    - [0.5, 0.5]\n    - 1.0\n"),
            "line 6: pi row 1 entry must be a scalar",
        ),
        (
            load_circle_model,
            "epsilon: 1.0\nb_hat:\n  - [1, 0.5, 0.0]\n  - - 2\n    - 0.1x\n    - 0.0\n",
            "line 5: b_hat triple entry must be a float, got '0.1x'",
        ),
        (load_chain_spec, "", "line 1: empty document"),
        (load_chain_spec, "- 3\n- [1.0]\n", "line 1: chain spec must be a mapping"),
        (load_chain_spec, GOOD_CHAIN.replace("states: 3", "states: 0"), "line 1: states must be at least 1"),
        (load_chain_spec, GOOD_CHAIN.replace("  - [0.0, 0.0, 0.0]\n", ""), "line 4: pi must have 3 rows, got 2"),
        (load_circle_model, "epsilon: 1.0\nb_hat:\n  - [1.5, 0.5, 0.0]\n", "line 3: frequency must be an integer"),
        (
            load_circle_model,
            "epsilon: 1.0\nb_hat:\n  - [1, 0.5, 0.0]\n  - [1, 0.5, 0.0]\n",
            "line 4: duplicate frequency 1",
        ),
    ],
    ids=[
        "pi-text",
        "pi-nested-list",
        "b_hat-text",
        "empty",
        "not-a-mapping",
        "no-states",
        "pi-short",
        "fractional-frequency",
        "duplicate-frequency",
    ],
)
def test_file_refusals_are_reported_at_their_line(load, text, message, tmp_path, monkeypatch):
    err = load_error(monkeypatch, load, write(tmp_path, text))
    assert str(err) == message


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
