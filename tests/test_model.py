import json
from fractions import Fraction

import pytest

from secquery import (
    LengthMismatch,
    NumericMode,
    ProbabilityOutOfRange,
    ProblemSpec,
    SumNotOne,
    ValidationError,
    dump_config,
    parse_config,
    symmetric_binary_model,
    validate_model,
)


def test_validate_infallible_model():
    m = validate_model(2, (1, 0), (0, 1))
    assert m.p == (1, 0) and m.q == (0, 1) and m.exact


def test_validate_uninformative_model():
    m = validate_model(2, (0.5, 0.5), (0.5, 0.5))
    assert m.M == 2 and not m.exact


def test_validate_rejects_bad_sum():
    with pytest.raises(SumNotOne) as exc:
        validate_model(2, (0.7, 0.2), (0.2, 0.8))
    assert exc.value.which == "p"
    assert exc.value.deviation == pytest.approx(-0.1)


def test_validate_rejects_exact_sum_off_by_epsilon():
    with pytest.raises(SumNotOne):
        validate_model(2, (Fraction(1, 2), Fraction(499, 1000)), (Fraction(1, 2), Fraction(1, 2)))


def test_validate_rejects_out_of_range():
    with pytest.raises(ProbabilityOutOfRange):
        validate_model(2, (1.2, -0.2), (0.5, 0.5))


def test_validate_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        validate_model(3, (0.5, 0.5), (0.2, 0.3, 0.5))


def test_inert_levels_are_legal():
    m = validate_model(3, (Fraction(1), 0, 0), (0, 0, Fraction(1)))
    assert m.p[1] == m.q[1] == 0


def test_symmetric_binary_model():
    assert symmetric_binary_model(1).p == (1, 0)
    assert symmetric_binary_model(1).q == (0, 1)
    u = symmetric_binary_model(0.5)
    assert u.p == u.q == (0.5, 0.5)
    m = symmetric_binary_model(0.9)
    assert m.p == (0.9, pytest.approx(0.1)) and m.q == (pytest.approx(0.1), 0.9)


@pytest.mark.parametrize("p", [0, Fraction(1, 3), 0.25, 0.9, 1])
def test_symmetric_binary_model_always_validates(p):
    m = symmetric_binary_model(p)
    assert validate_model(m.M, m.p, m.q) == m


def test_symmetric_binary_model_range():
    with pytest.raises(ProbabilityOutOfRange):
        symmetric_binary_model(1.5)


def test_problem_spec_bounds():
    m = symmetric_binary_model(0.5)
    ProblemSpec(1, 0, m)
    ProblemSpec(5, 5, m)
    with pytest.raises(ValidationError):
        ProblemSpec(0, 0, m)
    with pytest.raises(ValidationError):
        ProblemSpec(5, 6, m)  # K > n is an error, not a clamp
    with pytest.raises(ValidationError):
        ProblemSpec(5, -1, m)


CONFIG = '{"n": 5, "K": 2, "M": 2, "p": ["4/5", "1/5"], "q": ["1/5", "4/5"]}'


def test_parse_config_rational_exact():
    spec = parse_config(CONFIG, NumericMode.EXACT_RATIONAL)
    assert spec.model.p == (Fraction(4, 5), Fraction(1, 5))
    assert spec.model.exact


def test_parse_config_decimal_literals_exact_in_rational_mode():
    text = '{"n": 3, "K": 1, "M": 2, "p": [0.9, 0.1], "q": [0.1, 0.9]}'
    spec = parse_config(text, NumericMode.EXACT_RATIONAL)
    assert spec.model.p == (Fraction(9, 10), Fraction(1, 10))


def test_parse_config_float_mode():
    spec = parse_config(CONFIG, NumericMode.FLOAT64)
    assert spec.model.p == (0.8, 0.2)


def test_config_round_trip_rational():
    spec = parse_config(CONFIG, NumericMode.EXACT_RATIONAL)
    again = parse_config(dump_config(spec), NumericMode.EXACT_RATIONAL)
    assert again == spec


def test_config_round_trip_float_bit_identical():
    text = '{"n": 4, "K": 1, "M": 3, "p": [0.3, 0.3, 0.4], "q": [0.1, 0.2, 0.7]}'
    spec = parse_config(text, NumericMode.FLOAT64)
    again = parse_config(dump_config(spec), NumericMode.FLOAT64)
    assert all(a == b for a, b in zip(again.model.p, spec.model.p))
    assert all(a == b for a, b in zip(again.model.q, spec.model.q))


def test_parse_config_validates_labels():
    text = '{"n": 2, "K": 0, "M": 2, "p": [1, 0], "q": [0, 1], "labels": ["yes"]}'
    with pytest.raises(LengthMismatch):
        parse_config(text)


def test_parse_config_rejects_missing_keys_and_bad_json():
    with pytest.raises(ValidationError):
        parse_config('{"n": 2}')
    with pytest.raises(ValidationError):
        parse_config("not json")


@pytest.mark.parametrize("literal", ["abc", "1/0", "nan", "1e999", "", None])
def test_parse_config_rejects_bad_probability_literals(literal):
    text = json.dumps({"n": 3, "K": 1, "M": 2, "p": [literal, "1/2"], "q": ["1/2", "1/2"]})
    for mode in NumericMode:
        with pytest.raises(ValidationError):
            parse_config(text, mode)


@pytest.mark.parametrize("key", ["n", "K", "M", "p", "q"])
def test_parse_config_rejects_booleans(key):
    # JSON true/false are not the integers 1/0, neither as sizes nor as entries.
    doc = {"n": 3, "K": 1, "M": 1, "p": [1], "q": [1]}  # valid if true meant 1
    doc[key] = [True] if key in "pq" else True
    for mode in NumericMode:
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc), mode)
