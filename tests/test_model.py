import gc
import json
import weakref
from fractions import Fraction

import pytest

from secquery import (
    LengthMismatch,
    NumericMode,
    ProbabilityOutOfRange,
    ProblemSpec,
    ResponseModel,
    SumNotOne,
    ValidationError,
    parse_config,
    symmetric_binary_model,
)
from secquery.model import MAX_LITERAL_EXPONENT, parse_prob
from secquery.solver import solve


def test_validate_infallible_model():
    m = ResponseModel(2, (1, 0), (0, 1))
    assert m.p == (1, 0) and m.q == (0, 1) and m.exact


def test_validate_uninformative_model():
    m = ResponseModel(2, (0.5, 0.5), (0.5, 0.5))
    assert m.M == 2 and not m.exact


def test_validate_rejects_bad_sum():
    with pytest.raises(SumNotOne) as exc:
        ResponseModel(2, (0.7, 0.2), (0.2, 0.8))
    assert exc.value.which == "p"
    assert exc.value.deviation == pytest.approx(-0.1)


def test_validate_rejects_exact_sum_off_by_epsilon():
    with pytest.raises(SumNotOne):
        ResponseModel(2, (Fraction(1, 2), Fraction(499, 1000)), (Fraction(1, 2), Fraction(1, 2)))


def test_validate_rejects_out_of_range():
    with pytest.raises(ProbabilityOutOfRange):
        ResponseModel(2, (1.2, -0.2), (0.5, 0.5))


def test_validate_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        ResponseModel(3, (0.5, 0.5), (0.2, 0.3, 0.5))


def test_validate_rejects_empty_model():
    with pytest.raises(ValidationError, match="M must be >= 1, got 0"):
        ResponseModel(0, (), ())


def test_inert_levels_are_legal():
    m = ResponseModel(3, (Fraction(1), 0, 0), (0, 0, Fraction(1)))
    assert m.p[1] == m.q[1] == 0


def test_integer_weights_are_kept_on_the_model_not_past_it():
    # A process-wide cache keyed by the model would keep every model ever
    # solved exactly alive.
    p, q = (tuple(map(Fraction, v)) for v in (("1/8", "1/4", "5/8"), ("1/2", "3/8", "1/8")))
    m = ResponseModel(3, p, q)
    assert m.integer_weights() is m.integer_weights() == (8, (1, 2, 5), (4, 3, 1))
    solve(ProblemSpec(20, 2, m), NumericMode.EXACT_RATIONAL)
    alive = weakref.ref(m)
    del m
    gc.collect()
    assert alive() is None


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
    assert ResponseModel(m.M, m.p, m.q) == m


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


def test_config_round_trip_float_bit_identical():
    text = '{"n": 4, "K": 1, "M": 3, "p": [0.3, 0.3, 0.4], "q": [0.1, 0.2, 0.7]}'
    spec = parse_config(text, NumericMode.FLOAT64)
    m = spec.model
    doc = {"n": spec.n, "K": spec.K, "M": m.M, "p": list(m.p), "q": list(m.q)}
    again = parse_config(json.dumps(doc), NumericMode.FLOAT64)
    assert all(a == b for a, b in zip(again.model.p, spec.model.p))
    assert all(a == b for a, b in zip(again.model.q, spec.model.q))


def test_parse_config_validates_labels():
    text = '{"n": 2, "K": 0, "M": 2, "p": [1, 0], "q": [0, 1], "labels": ["yes"]}'
    with pytest.raises(LengthMismatch):
        parse_config(text)
    for labels in ('["yes", 2]', '"yes,no"'):
        text = '{"n": 2, "K": 0, "M": 2, "p": [1, 0], "q": [0, 1], "labels": %s}' % labels
        with pytest.raises(ValidationError, match="labels must be an array of strings"):
            parse_config(text)


def test_parse_config_rejects_missing_keys_and_bad_json():
    with pytest.raises(ValidationError):
        parse_config('{"n": 2}')
    with pytest.raises(ValidationError):
        parse_config("not json")
    with pytest.raises(ValidationError, match="config must be a JSON object"):
        parse_config('[{"n": 2, "K": 0, "M": 1, "p": [1], "q": [1]}]')
    for p, q in (('"1"', "[1]"), ("[1]", "{}")):
        text = '{"n": 2, "K": 0, "M": 1, "p": %s, "q": %s}' % (p, q)
        with pytest.raises(ValidationError, match="p and q must be arrays"):
            parse_config(text)


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


def test_literal_exponents_are_bounded():
    # Fraction("1e-N") builds 10**N; past the cap the literal is refused unparsed.
    assert parse_prob("1e-300", NumericMode.FLOAT64) == 1e-300
    assert parse_prob("1e-300", NumericMode.EXACT_RATIONAL) == Fraction(1, 10**300)
    edge = f"1e-{MAX_LITERAL_EXPONENT}"
    assert parse_prob(edge, NumericMode.EXACT_RATIONAL) == Fraction(1, 10**MAX_LITERAL_EXPONENT)
    for literal in (f"1e-{MAX_LITERAL_EXPONENT + 1}", "1e-30000000", "1E+3_000_000"):
        for mode in NumericMode:
            with pytest.raises(ValidationError, match="exponent"):
                parse_prob(literal, mode)
    # A JSON number goes through the same literal parser as a string.
    text = '{"n": 3, "K": 1, "M": 2, "p": [1e-300, 1], "q": [0.5, 0.5]}'
    assert parse_config(text, NumericMode.FLOAT64).model.p == (1e-300, 1)
    for mode in NumericMode:
        with pytest.raises(ValidationError, match="exponent"):
            parse_config(text.replace("1e-300", "1e-30000000"), mode)


def test_parse_config_rejects_overlong_integers():
    # json.loads refuses integers past the interpreter's digit limit with a
    # plain ValueError; the config reader reports it as a validation error.
    text = '{"n": %s, "K": 1, "M": 1, "p": [1], "q": [1]}' % ("9" * 5001)
    for mode in NumericMode:
        with pytest.raises(ValidationError):
            parse_config(text, mode)
