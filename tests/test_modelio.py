import numpy as np
import pytest
import yaml

from twistlab import modelio
from twistlab.hilbert import circle_model
from twistlab.modelio import SpecFileError, load_chain_spec, load_circle_model, load_levy_model

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])

GOOD_CHAIN = """\
states: 3
q: [1.0, 1.0, 1.0]
pi:
  - [0.0, 1.0, 0.0]
  - [0.0, 0.0, 1.0]
  - [0.0, 0.0, 0.0]
mu: [1.0, 0.0, 0.0]
"""


def write(tmp_path, text, name="model.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def load_error(monkeypatch, load, path, match=None) -> SpecFileError:
    """Load a malformed file with each YAML parser; all must fail on the same line."""
    errors = []
    for loader in LOADERS:
        monkeypatch.setattr(modelio, "LOADER", loader)
        with pytest.raises(SpecFileError, match=match) as err:
            load(path)
        errors.append(err.value)
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
